"""Seeded inputs and ops for the four workloads.

Each workload is a list of rounds; a round is a fixed mix of ops, so a run
that stops on a round boundary always measures the same mix.  An op calls
the library through module attributes at call time (so the tracer's
wrappers are seen) and carries a check against an independent oracle from
``oracles``.  Ops tagged ``known`` exercise a defect the seed is known to
have (DESIGN.md lists them); their mismatches are counted apart from
unexpected failures.
"""

from __future__ import annotations

import json
import os
import random

from twoshift import (blockcodes, bridge, cli, higherblock, points, spaces,
                      topology, words)
from twoshift.words import EMPTY, STAR

import oracles as O

O.Cells.star = STAR
O.Cells.empty = EMPTY

CYCLE = "cycle-specs: bounded witness search tries short periods in one " \
        "phase and misses longer cycles (ROADMAP item 2)"
EXIT = "cli-exit-contract: malformed JSON leaks a traceback with exit 1 " \
       "(ROADMAP item 4)"
TEXT = "text-syntax: a group holding one multi-digit letter, as in (10)^-, " \
       "reads back as separate digits (not yet in the ROADMAP)"
ALPHA1 = "finite alphabet whose longest pattern has one letter: inf_infinite " \
         "raises KeyError (not yet in the ROADMAP)"
TAIL = "tail-index-cost: Infinite.tail_ray(k) builds O(k) cells " \
       "(ROADMAP item 4)"
# The tags go on exactly the ops the seed answers wrongly (one_wide_group,
# cycle_defect), so a regression on any other op makes the run incorrect.


class Op:
    """One call: ``fn(*args)``, judged by ``check(result)``.  CLI ops have
    ``fn`` None (the harness runs them as a child, or in-process when
    traced; ``child`` forces a child process)."""

    __slots__ = ("kind", "fn", "args", "check", "known", "child")

    def __init__(self, kind, fn, args, check, known=None, child=False):
        self.kind = kind
        self.fn = fn
        self.args = args
        self.check = check
        self.known = known
        self.child = child


class Workload:
    def __init__(self, rounds, op_limit_s, first_round=()):
        self.rounds = rounds
        self.first_round = list(first_round)
        self.op_limit_s = op_limit_s


# Rounds in a traced run, fixed so that the per-layer counts repeat exactly;
# untraced runs read their peak RSS after the same number of rounds.
TRACE_ROUNDS = {"membership": 500, "enumerate": 5, "decide": 5, "cli": 4}


# ---------------------------------------------------------------------------
# seeded objects


def rword(rng, lo, hi, letters):
    return tuple(rng.randrange(letters) for _ in range(rng.randint(lo, hi)))


def rinf(rng, letters):
    return points.make_infinite(rword(rng, 1, 3, letters),
                                rword(rng, 0, 4, letters),
                                rword(rng, 1, 3, letters), rng.randint(-3, 3))


def rray(rng, letters):
    return words.canonicalize_ray(rword(rng, 1, 3, letters),
                                  rword(rng, 0, 4, letters),
                                  rng.randint(-3, 3))


def rpoint(rng, letters, kind=None):
    kind = kind or rng.choice(("inf", "inf", "fin", "empty"))
    if kind == "inf":
        return rinf(rng, letters)
    if kind == "fin":
        return points.Finite(rray(rng, letters))
    return points.EMPTY_POINT


def rpattern(rng, lo, hi, letters, star_p):
    while True:
        p = tuple(STAR if rng.random() < star_p else rng.randrange(letters)
                  for _ in range(rng.randint(lo, hi)))
        if any(isinstance(c, int) for c in p):
            return p


def shaped(rng, shape, letters=5):
    """Patterns from a shape such as 'a*b ab': '*' stays a wildcard, every
    other character becomes a random letter."""
    return [tuple(STAR if ch == "*" else rng.randrange(letters) for ch in w)
            for w in shape.split()]


def rone(rng, letters):
    roll = rng.random()
    if roll < 0.15:
        return points.ONE_EMPTY
    if roll < 0.5:
        return points.one_finite(rword(rng, 1, 4, letters))
    return points.make_one_infinite(rword(rng, 0, 3, letters),
                                    rword(rng, 1, 3, letters))


def span_range(xs, margin):
    lo = min(O.point_span(x)[0] for x in xs)
    hi = max(O.point_span(x)[1] for x in xs)
    p = max(O.point_span(x)[2] for x in xs)
    return lo - 3 * p - margin - 2, hi + 3 * p + margin + 2


def read_fixture(root, name):
    with open(os.path.join(root, "tests", "fixtures", name)) as fh:
        return json.load(fh)


def fixture_code(data):
    """Independent reading of a fixture rule: (clauses, default, k, l)."""
    def out(text):
        text = text.strip()
        if text in ("empty", "_"):
            return ("empty",)
        if text.startswith("copy"):
            return ("copy", int(text.split()[1]))
        return ("letter", int(text))

    def cells(text):
        return tuple(STAR if ch == "*" else EMPTY if ch == "_" else int(ch)
                     for ch in text if not ch.isspace())

    clauses = [(cells(c["window"]), out(c["output"]))
               for c in data.get("clauses", ())]
    return clauses, out(data.get("default", "empty")), data["memory"], \
        data["anticipation"]


# ---------------------------------------------------------------------------
# membership


def _contains(spec, x):
    return spaces.contains(spec, x)


def _apply(code, x):
    return blockcodes.sbc_apply(code, x)


def _hb_round(m, x):
    y = higherblock.hb_encode(m, x)
    return y, higherblock.hb_decode(m, y)


def _project(x):
    return bridge.project(x)


def _embed_round(base, z):
    y = bridge.embed_in_cylinder(base, z)
    return y, bridge.embed_inverse(base, y)


def _cyl_contains(c, y):
    return topology.cyl_contains(c, y)


def _cyl_intersect(a, b):
    return topology.cyl_intersect(a, b)


def _text_round(x):
    s = points.format_point(x)
    return s, points.parse_point(s)


def cantor(block):
    e = block[0]
    for c in block[1:]:
        e = (e + c) * (e + c + 1) // 2 + c
    return e


def _check_apply(layers, x):
    def check(y):
        k = sum(c[2] + c[3] for c in layers)
        lo, hi = span_range((x, y), k)
        return O.same_cells(y, O.code_values(layers, x, lo, hi), lo)
    return check


def _check_hb(m, x):
    def check(r):
        y, z = r
        if z != x:
            return False
        lo, hi = span_range((x, y), m)
        want = []
        for i in range(lo, hi + 1):
            if O.point_val(x, i) is EMPTY:
                want.append(EMPTY)
            else:
                want.append(cantor(tuple(O.point_val(x, j)
                                         for j in range(i - m + 1, i + 1))))
        return O.same_cells(y, want, lo)
    return check


def _check_project(x):
    def check(r):
        if hasattr(x, "left_period"):
            cont = True
        elif hasattr(x, "ray"):
            cont = x.ray.end_index >= 0
        else:
            cont = False
        _, hi = span_range((x,), 0)
        return r.continuous == cont and all(
            O.one_val(r.point, i) == O.point_val(x, i)
            for i in range(1, max(hi, 1) + 8))
    return check


def _check_embed(base, z):
    def check(r):
        y, z2 = r
        if z2 != z:
            return False
        l = base.ray.end_index
        lo, hi = span_range((base, y), 0)
        for i in range(lo, max(hi, l) + 12):
            want = O.point_val(base, i) if i <= l else O.one_val(z, i - l)
            if O.point_val(y, i) != want:
                return False
        return True
    return check


def _ray_prefix_ok(ray, y, k):
    """Does y agree with the ray (re-anchored at k) on (-inf, k]?"""
    lo, _, p = O.point_span(y)
    left = min(lo, k - len(ray.transient))
    depth = k - left + 2 * max(p, 1) * len(ray.period) + 2
    for i in range(k - depth, k + 1):
        if O.point_val(y, i) != O.ray_val(ray.period, ray.transient, k, i):
            return False
    return True


def _check_cyl_contains(c, y):
    def check(r):
        k = c.base.end_index
        if not hasattr(y, "left_period") and not hasattr(y, "ray"):
            want = False
        elif hasattr(y, "ray") and y.ray.end_index < k:
            want = False
        elif not _ray_prefix_ok(c.base, y, k):
            want = False
        else:
            nxt = O.point_val(y, k + 1)
            want = not (isinstance(nxt, int) and nxt in c.excluded)
        return r is want
    return check


def _rays_equal_upto(a, b, k):
    lo = min(a.end_index - len(a.transient), b.end_index - len(b.transient))
    depth = k - lo + 2 * len(a.period) * len(b.period) + 2
    return all(O.ray_val(a.period, a.transient, a.end_index, i)
               == O.ray_val(b.period, b.transient, b.end_index, i)
               for i in range(k - depth, k + 1))


def _check_cyl_intersect(a, b):
    def check(r):
        x, y = (a, b) if a.base.end_index <= b.base.end_index else (b, a)
        ka, kb = x.base.end_index, y.base.end_index
        if ka == kb:
            ok = _rays_equal_upto(x.base, y.base, ka)
            want = (ka, y.base, x.excluded | y.excluded) if ok else None
        else:
            nxt = O.ray_val(y.base.period, y.base.transient, kb, ka + 1)
            ok = _rays_equal_upto(x.base, y.base, ka) and \
                nxt not in x.excluded
            want = (kb, y.base, y.excluded) if ok else None
        if want is None or r is None:
            return want is None and r is None
        return (r.base.end_index == want[0] and r.excluded == want[2]
                and _rays_equal_upto(r.base, want[1], want[0]))
    return check


def _check_text(x):
    return lambda r: isinstance(r[0], str) and r[1] == x


def one_wide_group(x):
    """Does the text syntax write some group of x (left period, u, v, right
    period, ray period or transient) as a single letter above 9?  Such a
    group, as in (10)^-, reads back as separate digits; a group of several
    letters is written with spaces and reads back right."""
    val = lambda i: O.point_val(x, i)
    if hasattr(x, "left_period"):
        lo = min(x.body_start, 1)
        hi = max(x.body_start + len(x.body) - 1, 0)
        groups = [[val(lo - len(x.left_period) + i)
                   for i in range(len(x.left_period))],
                  [val(i) for i in range(lo, 1)],
                  [val(i) for i in range(1, hi + 1)],
                  [val(hi + 1 + i) for i in range(len(x.right_period))]]
    elif hasattr(x, "ray"):
        k, r = x.ray.end_index, x.ray
        if k < 0:
            groups = [r.period, r.transient]
        else:
            lo = min(k - len(r.transient) + 1, 1)
            groups = [[val(lo - len(r.period) + i)
                       for i in range(len(r.period))],
                      [val(i) for i in range(lo, 1)],
                      [val(i) for i in range(1, k + 1)]]
    else:
        return False
    return any(len(g) == 1 and g[0] > 9 for g in groups)


def gen_code(rng):
    """A seeded clause code over letters 0..4 (no empty-letter cells)."""
    while True:
        k, l = rng.randint(0, 1), rng.randint(0, 1)
        w = k + l + 1
        clauses = []
        for _ in range(rng.randint(1, 3)):
            cells = tuple(STAR if rng.random() < 0.3 else rng.randrange(5)
                          for _ in range(w))
            if rng.random() < 0.5:
                out = ("letter", rng.randrange(6))
            else:
                out = ("copy", rng.randint(-k, l))
            clauses.append((cells, out))
        default = ("copy", 0)
        try:
            code = blockcodes.sbc_build(k, l, clauses, default)
        except Exception:
            continue
        return code, [(clauses, default, k, l)]


def membership(rng, root):
    gm = read_fixture(root, "goldenmean.json")
    ex = read_fixture(root, "exampleD.json")
    specs = [spaces.spec_from_json(gm), spaces.spec_from_json(ex)]
    # Fixed shapes ('*' is the wildcard, each letter is drawn from 0..4), so
    # that every seed costs about the same.
    for shape in ("a*b ab", "ab *a abc", "*ab ba", "a*b b*a", "ab* ca",
                  "a*b", "ab ba cd", "a*c *b", "abc *a"):
        specs.append(spaces.make_spec(forbid_words=shaped(rng, shape)))
    for shape, per, tr in (("ab", 1, 0), ("ab", 2, 0), ("ab cd", 1, 1),
                           ("ab", 2, 1), ("ab cd", 1, 2)):
        specs.append(spaces.make_spec(
            forbid_words=shaped(rng, shape),
            forbid_tails=[words.canonicalize_ray(rword(rng, per, per, 4),
                                                 rword(rng, tr, tr, 4))]))
    for shape, allow in (("", (2,)), ("ab", (1,)), ("a*b", (2, 1)),
                         ("ab", (1, 1))):
        specs.append(spaces.make_spec(
            forbid_words=shaped(rng, shape),
            allow_tails=[rword(rng, n, n, 4) for n in allow]))
    # Finite alphabets, one shape each; the last has only one-letter
    # patterns, which the seed answers with a KeyError.
    for k, lens in ((2, (2,)), (3, (2, 2)), (4, (1, 2)), (3, (1,))):
        specs.append(spaces.make_spec(
            forbid_words=[rpattern(rng, n, n, k, 0.2 if n > 1 else 0.0)
                          for n in lens], alphabet=range(k)))

    codes = [gen_code(rng) for _ in range(6)]
    (f, fl), (g, gl) = gen_code(rng), gen_code(rng)
    codes.append((blockcodes.sbc_compose(f, g), fl + gl))
    for name in ("shift.json", "identity.json", "collapse.json"):
        data = read_fixture(root, name)
        codes.append((blockcodes.code_from_json(data), [fixture_code(data)]))

    rounds = []
    kinds = ("inf", "inf", "inf", "inf", "inf", "fin", "fin", "empty")
    for r in range(500):
        ops = []
        for j in range(16):
            spec = specs[(r * 16 + j) % len(specs)]
            letters = len(spec.alphabet) + 1 if spec.alphabet else 6
            x = rpoint(rng, letters, kinds[j % len(kinds)])
            known = ALPHA1 if spec.alphabet and O.big(spec) == 1 and \
                not hasattr(x, "left_period") else None
            ops.append(Op("contains", _contains, (spec, x),
                          (lambda s, p: lambda res: res is O.member(s, p))(
                              spec, x), known))
        for j in range(6):
            code, layers = codes[(r * 6 + j) % len(codes)]
            x = rpoint(rng, 5)
            ops.append(Op("sbc_apply", _apply, (code, x),
                          _check_apply(layers, x)))
        for m in (2, 2, 3, 3):
            x = rpoint(rng, 5)
            ops.append(Op("hb_round_trip", _hb_round, (m, x), _check_hb(m, x)))
        for _ in range(2):
            x = rpoint(rng, 5)
            ops.append(Op("project", _project, (x,), _check_project(x)))
        for _ in range(2):
            base, z = points.Finite(rray(rng, 5)), rone(rng, 5)
            ops.append(Op("embed_round_trip", _embed_round, (base, z),
                          _check_embed(base, z)))
        for j in range(4):
            base = rray(rng, 4)
            excl = frozenset(rword(rng, 0, 2, 5))
            c = topology.Cylinder(base, excl)
            if j % 2:
                y = rpoint(rng, 4)
            else:
                y = points.make_infinite(
                    base.period, base.transient + rword(rng, 0, 3, 5),
                    rword(rng, 1, 2, 5),
                    base.end_index - len(base.transient) + 1)
            ops.append(Op("cyl_contains", _cyl_contains, (c, y),
                          _check_cyl_contains(c, y)))
        for j in range(2):
            a = topology.Cylinder(rray(rng, 3), frozenset(rword(rng, 0, 2, 4)))
            if j == 0:
                ext = rword(rng, 1, 3, 4)
                b = topology.Cylinder(words.ray_append(a.base, ext),
                                      frozenset(rword(rng, 0, 2, 4)))
            else:
                b = topology.Cylinder(rray(rng, 3),
                                      frozenset(rword(rng, 0, 2, 4)))
            ops.append(Op("cyl_intersect", _cyl_intersect, (a, b),
                          _check_cyl_intersect(a, b)))
        for _ in range(4):
            x = rpoint(rng, 12)
            ops.append(Op("text_round_trip", _text_round, (x,),
                          _check_text(x), TEXT if one_wide_group(x) else None))
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(rounds, op_limit_s=1.0)


# ---------------------------------------------------------------------------
# enumerate

CUT = 5


def _blocks(spec, n):
    return spaces.blocks(spec, n, CUT)


def _follower(spec, w):
    return spaces.follower_set(spec, w, 2)


def _hb_blocks(spec, m, n):
    return higherblock.hb_blocks(higherblock.hb_spec(m, spec), n, CUT)


def _edge(spec):
    return higherblock.to_edge_shift(spec, CUT)


def _edge_blocks(spec, n):
    g, _ = higherblock.to_edge_shift(spec, CUT)
    return higherblock.edge_space(g).blocks(n)


def _one_blocks(one, n):
    return bridge.one_blocks(one, n, CUT)


def _minimalize(spec):
    return spaces.minimalize(spec)


def _classify(spec):
    return spaces.classify(spec)


def encode_words(m, ws):
    out = set()
    for v in ws:
        out.add(tuple(EMPTY if v[i + m - 1] is EMPTY else cantor(v[i:i + m])
                      for i in range(len(v) - m + 1)))
    return out


def _check_blocks(pb, n, concrete):
    def check(res):
        if res != pb.blocks(n):
            return False
        if concrete and sum(EMPTY not in w for w in res) != \
                O.transfer_count(pb.patterns, CUT, n):
            return False
        return O.factor_closed(pb.blocks(n - 1), res) if n > 1 else True
    return check


def _check_follower(pb, w):
    def check(res):
        listed = {(a, b) for a in range(8) for b in range(8)
                  if pb.block(w + (a, b))}
        return res == (listed, pb.block(w + (pb.f, pb.f)))
    return check


def _check_edge(pb, m):
    def check(res):
        g, h = res
        f = pb.f
        verts = sorted(pb.free(m)) if m else [()]
        return (g.m == m and list(g.vertices) == verts
                and list(g.edges) == sorted(pb.free(m + 1))
                and g.infinite_emitters == {v for v in verts
                                            if pb.block(v + (f,))}
                and g.fresh == pb.block((f,) * (m + 1))
                and h.m == m + 1)
    return check


def _check_minimalize(spec, cutoff):
    def check(res):
        if res.rays or res.allow is not None or res.alphabet != spec.alphabet:
            return False
        n = max(O.big(spec), O.big(res)) + 1
        return O.PlainBlocks(spec, cutoff).free(n) == \
            O.PlainBlocks(res, cutoff).free(n)
    return check


def _check_classify(spec, pb):
    def check(res):
        probes = sorted(O.mentioned(spec)) + [pb.f]
        row = all(not pb.block((a, pb.f)) for a in probes if pb.block((a,)))
        col = all(not pb.block((pb.f, a)) for a in probes if pb.block((a,)))
        concrete = all(all(isinstance(c, int) for c in p)
                       for p in spec.patterns)
        return (res.row_finite == row and res.column_finite == col
                and res.m_step == max(1, O.big(spec)) - 1
                and res.finite_type == concrete)
    return check


# Spec templates over the letters 0..4 = range(CUT).  A seeded permutation
# of those letters maps B_n onto itself, so every seed enumerates the same
# amount; the template cycles with the round.  Dense: one or two concrete
# patterns, B_n close to 5^n.  Sparse: five patterns with wildcards, B_n
# much smaller than 5^n.
DENSE = ("01", "01 23", "00", "01 12")
SPARSE = ("0*1 02* *10 012 21", "0*1 1*0 01 20 21*", "01* *10 0*2 12 20",
          "*01 0*1 01* 10 23")


def followers(spec, pb):
    """follower_set (k = 2) of every 1-block: ops of similar cost."""
    return [Op("follower_set", _follower, (spec, w), _check_follower(pb, w))
            for w in sorted(pb.free(1))]


def permuted(rng, template):
    perm = list(range(CUT))
    rng.shuffle(perm)
    return relabel(template.split(), perm)


def enumerate_(rng, root):
    rounds = []
    for r in range(100):
        ops = []
        for dense in (True, False):
            pats = permuted(rng, (DENSE if dense else SPARSE)[r % 4])
            spec = spaces.make_spec(forbid_words=pats)
            pb = O.PlainBlocks(spec, CUT)
            concrete = dense
            m = O.big(spec) - 1
            for n in (3, 4, 5):
                ops.append(Op("blocks", _blocks, (spec, n),
                              _check_blocks(pb, n, concrete)))
            ops += followers(spec, pb)
            ops.append(Op("hb_blocks", _hb_blocks, (spec, 2, 4),
                          (lambda pb: lambda res:
                           res == encode_words(2, pb.blocks(5)))(pb)))
            ops.append(Op("to_edge_shift", _edge, (spec,), _check_edge(pb, m)))
            ops.append(Op("edge_blocks", _edge_blocks, (spec, 3),
                          (lambda pb, m: lambda res:
                           res == encode_words(m + 1, pb.blocks(3 + m)))(pb, m)))
            one = bridge.OneSpec(spec.patterns)
            ops.append(Op("one_blocks", _one_blocks, (one, 4),
                          (lambda pb: lambda res: res == pb.one_blocks(4))(pb)))
            ops.append(Op("minimalize", _minimalize, (spec,),
                          _check_minimalize(spec, CUT + 1)))
            ops.append(Op("classify", _classify, (spec,),
                          _check_classify(spec, pb)))
        # Five more sparse specs with blocks(n=5), two of them with their
        # follower sets too: the six sparse blocks(5)-sized ops are about
        # 15 % of a round, so the p90 falls inside that group, and the
        # follower sets, about 45 %, hold the p50.
        for k in range(1, 6):
            spec = spaces.make_spec(
                forbid_words=permuted(rng, SPARSE[(r + k) % len(SPARSE)]))
            pb = O.PlainBlocks(spec, CUT)
            ops.append(Op("blocks", _blocks, (spec, 5),
                          _check_blocks(pb, 5, False)))
            if k <= 2:
                ops += followers(spec, pb)
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(rounds, op_limit_s=10.0)


# ---------------------------------------------------------------------------
# decide

TEMPLATES = ((("11",), 2), (("1*1",), 2), (("02", "20"), 3),
             (("00", "13", "31"), 4))


def cycle_spec(k):
    ok = {(i, (i + 1) % k) for i in range(k)}
    return spaces.make_spec(
        forbid_words=[(a, b) for a in range(k) for b in range(k)
                      if (a, b) not in ok], alphabet=range(k))


def relabel(pats, perm):
    return [tuple(STAR if ch == "*" else perm[int(ch)] for ch in p)
            for p in pats]


def _wil(spec, w):
    return spaces.word_in_language(spec, w)


def _ril(spec, ray):
    return spaces.ray_in_language(spec, ray)


def _nonempty(spec):
    return spaces.inf_nonempty(spec)


def _infinite(spec):
    return spaces.inf_infinite(spec)


def _is_minimal(spec):
    return spaces.is_minimal(spec)


def _one_wil(one, w):
    return bridge.one_word_in_language(one, w)


def _equal(a, b):
    return spaces.equal_spaces(a, b, 3, 4)


def _lang(spec):
    return O.FiniteLang.of(spec)


def spec_ops(rng, spec, nwords, words_=None, period=None):
    """Language queries on one finite-alphabet spec."""
    letters = sorted(spec.alphabet)
    one = bridge.OneSpec(spec.patterns, spec.alphabet)
    ops = []
    for i in range(nwords):
        w = words_[i] if words_ else tuple(
            rng.choice(letters) for _ in range(rng.randint(1, 4)))
        ops.append(Op("word_in_language", _wil, (spec, w),
                      (lambda w: lambda r: r is _lang(spec).word(w))(w)))
    per = period or tuple(rng.choice(letters)
                          for _ in range(rng.randint(1, 2)))
    tr = () if period else tuple(rng.choice(letters)
                                 for _ in range(rng.randint(0, 2)))
    ray = words.canonicalize_ray(per, tr, 0)
    ops.append(Op("ray_in_language", _ril, (spec, ray),
                  lambda r: r is _lang(spec).ray(ray.period, ray.transient)))
    w1 = words_[-1] if words_ else tuple(
        rng.choice(letters) for _ in range(rng.randint(1, 3)))
    ops.append(Op("one_word_in_language", _one_wil, (one, w1),
                  lambda r: r is _lang(one).one_word(w1)))
    ops.append(Op("inf_nonempty", _nonempty, (spec,),
                  lambda r: r is _lang(spec).nonempty()))
    ops.append(Op("inf_infinite", _infinite, (spec,),
                  lambda r: r is _lang(spec).infinite()))
    ops.append(Op("is_minimal", _is_minimal, (spec,),
                  lambda r: O.minimal_verdict(spec, r)))
    return ops


def equality_pair(rng, equal, tails):
    """Two specs over letters < 4 whose equality is known by construction."""
    while True:
        pats = [rpattern(rng, 2, 2, 4, 0.0) for _ in range(2)]
        a = spaces.make_spec(forbid_words=pats)
        f = O.fresh_letters(a, range(4), k=1)[0]
        if equal and not tails:
            extra = pats[0] + (rng.randrange(4),)
            b = spaces.make_spec(forbid_words=pats + [extra])
        elif equal:
            b = spaces.make_spec(forbid_words=pats,
                                 forbid_tails=[words.canonicalize_ray(pats[0])])
        elif not tails:
            cands = [w for w in (rword(rng, 2, 3, 4) for _ in range(20))
                     if O.padded_block(a.patterns, w, f, 3)]
            if not cands:
                continue
            b = spaces.make_spec(forbid_words=pats + [cands[0]])
        else:
            cands = [c for c in range(4)
                     if O.padded_block(a.patterns, (c,) * 4, f, 3)]
            if not cands:
                continue
            b = spaces.make_spec(
                forbid_words=pats,
                forbid_tails=[words.canonicalize_ray((rng.choice(cands),))])
        return (a, b) if rng.random() < 0.5 else (b, a)


def cycle_defect(k, op):
    """Does the seed answer this op on the cycle spec C_k wrongly?  Its
    witness search tries periods of at most big + 1 = 3 letters, each in
    one phase, with big - 1 = 1 free letter on each side of the word.  On
    C3 that finds exactly the cycle words from letter 1 to letter 1 and the
    rays ending in 1; on C4 it finds nothing.  is_minimal is wrong on both;
    one-sided C3 words, inf_nonempty and inf_infinite are right."""
    if op.kind == "word_in_language":
        w = op.args[1]
        return k == 4 or not (w[0] == 1 and w[-1] == 1)
    if op.kind == "ray_in_language":
        ray = op.args[1]
        return k == 4 or (ray.transient or ray.period)[-1] != 1
    if op.kind == "one_word_in_language":
        return k == 4
    return op.kind == "is_minimal"


def cycle_words(k):
    """Every cycle word of length 1..16, shortest first."""
    return [tuple((i + j) % k for j in range(n))
            for n in range(1, 17) for i in range(k)]


def decide(rng, root):
    specs = []
    for pats, k in TEMPLATES:
        perm = list(range(k))
        rng.shuffle(perm)
        specs.append(spaces.make_spec(forbid_words=relabel(pats, perm),
                                      alphabet=range(k)))
    t5 = spaces.make_spec(forbid_words=["00", "1*1"], alphabet=range(3))
    c3, c4 = cycle_spec(3), cycle_spec(4)
    rounds = []
    for r in range(40):
        ops = []
        for spec in specs:
            ops += spec_ops(rng, spec, 2)
        ops.append(Op("is_minimal", _is_minimal, (t5,),
                      lambda r: O.minimal_verdict(t5, r)))
        # A cycle-word query costs a full witness search that grows with
        # the word, so the cycle words follow one schedule for every seed,
        # shortest first and none twice within 12 rounds.  The four C3
        # queries per round (about 0.1 s each on the seed) hold the p90.
        for spec, n in ((c3, 4), (c4, 1)):
            k = len(spec.alphabet)
            sched = cycle_words(k)
            pick = [sched[(n * r + i) % len(sched)] for i in range(n)]
            per = tuple((pick[0][0] + j) % k for j in range(k))
            for op in spec_ops(rng, spec, n, pick, per):
                op.known = CYCLE if cycle_defect(k, op) else None
                ops.append(op)
        for equal in (True, False):
            tails = (r % 2 == 0) == equal
            a, b = equality_pair(rng, equal, tails)
            ops.append(Op("equal_spaces", _equal, (a, b),
                          (lambda e: lambda r: r[0] is e)(equal)))
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(rounds, op_limit_s=10.0)


# ---------------------------------------------------------------------------
# cli


class Child:
    """Result of one CLI invocation: exit code, stdout, stderr, peak RSS."""

    __slots__ = ("code", "out", "err", "timed_out", "rss_kib")

    def __init__(self, code, out, err, timed_out=False, rss_kib=0):
        self.code, self.out, self.err = code, out, err
        self.timed_out, self.rss_kib = timed_out, rss_kib

    def __eq__(self, other):
        return isinstance(other, Child) and (self.code, self.out) == \
            (other.code, other.out)

    def __repr__(self):
        return "<exit %d%s out=%.80r err=%.80r>" % (
            self.code, " timed out" if self.timed_out else "", self.out,
            self.err)


def exact(code, out):
    return lambda c: c.code == code and c.out == out and not c.timed_out


def starts(code, prefix):
    return lambda c: c.code == code and c.out.startswith(prefix)


def has_lines(code, *lines):
    return lambda c: c.code == code and all(l in c.out for l in lines)


def as_json(code, obj):
    def check(c):
        try:
            return c.code == code and json.loads(c.out) == obj
        except ValueError:
            return False
    return check


def clean_error(c):
    """Exit 2 with a one-line 'error:' message and no traceback."""
    lines = c.err.strip().splitlines()
    return (c.code == 2 and not c.timed_out and len(lines) == 1
            and lines[0].startswith("error:"))


def usage_error(c):
    return c.code == 2 and "Traceback" not in c.err


GOLDEN_DOT = ('digraph shift {\n  "0";\n  "1";\n  "*" [style=dashed];\n'
              '  "0" -> "0" [label="00"];\n  "0" -> "1" [label="01"];\n'
              '  "1" -> "0" [label="10"];\n}\n')


def _word_line(w):
    return "".join("_" if c is EMPTY else str(c) for c in w)


def _line_key(line):
    return tuple((1, 0) if ch == "_" else (0, int(ch)) for ch in line)


def cli_workload(rng, root, work):
    fx = lambda name: os.path.join("tests", "fixtures", name)
    wf = lambda name: os.path.join(os.path.relpath(work, root), name)
    gm = fx("goldenmean.json")

    def write(name, obj):
        with open(os.path.join(work, name), "w") as fh:
            json.dump(obj, fh)
        return wf(name)

    other = write("other.json", {"forbid_words": ["11", "112"]})
    different = write("different.json", {"forbid_words": ["12"]})
    bad_rule = write("rule_memory0.json", {"memory": 0})
    bad_spec = write("spec_word5.json", {"forbid_words": [5]})

    # seeded inputs, answered by the oracles
    pats = ["".join(str(rng.randrange(4)) for _ in range(2))
            for _ in range(rng.randint(1, 2))]
    seeded = write("seeded_spec.json", {"forbid_words": pats})
    spec = spaces.make_spec(forbid_words=pats)
    probes = [rinf(rng, 4), points.Finite(rray(rng, 4))]
    plain = O.PlainBlocks(spec, 4)
    want_blocks = sorted((_word_line(w) for w in plain.blocks(3)),
                         key=_line_key)
    eq_a, eq_b = equality_pair(rng, True, False)
    eq_a = write("seeded_eq_a.json", spaces.spec_to_json(eq_a))
    eq_b = write("seeded_eq_b.json", spaces.spec_to_json(eq_b))
    perm = list(range(4))
    rng.shuffle(perm)
    rule = {"memory": 0, "anticipation": 0,
            "clauses": [{"window": str(a), "output": str(perm[a])}
                        for a in range(4)] + [{"window": "_",
                                                "output": "empty"}],
            "default": "copy 0"}
    rule_path = write("seeded_rule.json", rule)
    layers = [fixture_code(rule)]
    xr = rpoint(rng, 6, "inf")
    enc = points.format_point(higherblock.hb_encode(2, points.parse_point(
        "(01)^- . (01)^+")))

    def applied(c):
        if c.code != 0:
            return False
        try:
            y = points.parse_point(c.out)
        except Exception:
            return False
        lo, hi = span_range((xr, y), 0)
        return O.same_cells(y, O.code_values(layers, xr, lo, hi), lo)

    def encoded(c):
        if c.code != 0:
            return False
        x = points.parse_point("(01)^- . (01)^+")
        y = points.parse_point(c.out)
        lo, hi = span_range((x, y), 2)
        return O.same_cells(y, [cantor((O.point_val(x, i - 1),
                                        O.point_val(x, i)))
                                for i in range(lo, hi + 1)], lo)

    p = "(01)^- 2 . 3 (4)^+"
    f2 = "(0)^- 1 2 @2 #"
    cases = [
        (["space-check", gm, "--point", "(01)^- . (01)^+"],
         exact(0, "member\n")),
        (["space-minimalize", fx("exampleD.json")],
         exact(0, '{\n  "forbid_words": [\n    "1",\n    "2"\n  ]\n}\n')),
        (["edge-build", gm, "-M", "1", "--cutoff", "2", "--dot"],
         exact(0, GOLDEN_DOT)),
        (["point-eval", p], exact(0, p + "\n")),
        (["point-eval", p, "--index", "0"], exact(0, "2\n")),
        (["point-eval", p, "--window", "-2", "3"], exact(0, "012344\n")),
        (["point-eval", f2, "--shift", "2"], exact(0, "(0)^- 12 . #\n")),
        (["point-eval", "@", "--length"], exact(0, "-inf\n")),
        (["point-eval", f2, "--length"], exact(0, "2\n")),
        (["point-eval", "(0)^- . (1)^+", "--tail", "2"],
         exact(0, "(0)^- 11 @2\n")),
        (["space-check", gm, "--point", "(0)^- . 1 1 (0)^+"],
         exact(1, "not a member\n")),
        (["space-blocks", gm, "-n", "2", "--cutoff", "3"],
         exact(0, "00\n01\n02\n0_\n10\n12\n1_\n20\n21\n22\n2_\n__\n")),
        (["space-classify", gm, "--json"],
         as_json(0, {"row_finite": False, "column_finite": False,
                     "m_step": 1, "finite_type": True})),
        (["space-equal", gm, other], starts(0, "equal up to budget")),
        (["space-equal", gm, different], starts(1, "differ:")),
        (["code-apply", fx("shift.json"), "--point", f2],
         exact(0, "(0)^- 1 . 2 #\n")),
        (["code-check", fx("identity.json")], starts(0, "passes")),
        (["code-check", fx("collapse.json")], starts(1, "fails")),
        (["recode", gm, "-M", "2"],
         as_json(0, {"forbid_words": ["11"], "overlap_m": 2})),
        (["recode", "-M", "2", "--point", "(01)^- . (01)^+"], encoded),
        (["recode", "-M", "2", "--decode", "--point", enc],
         exact(0, "(01)^- . (01)^+\n")),
        (["edge-build", gm, "-M", "1", "--cutoff", "2"],
         has_lines(0, "vertices: 0, 1\n", "edges: 00, 01, 10\n")),
        (["bridge-project", "--point", f2],
         exact(0, "12 #\ncontinuous at x: True\n")),
        (["bridge-project", gm],
         as_json(0, {"forbid_words": ["11"], "letters_infinite": True})),
        (["bridge-lift", gm], as_json(0, {"forbid_words": ["11"],
                                          "case": "i"})),
        (["space-check", wf("missing.json"), "--point", "@"], clean_error),
        (["point-eval", "((bogus"], clean_error),
        (["frobnicate"], usage_error),
        (["space-blocks", seeded, "-n", "3", "--cutoff", "4"],
         exact(0, "".join(l + "\n" for l in want_blocks))),
        (["space-equal", eq_a, eq_b], starts(0, "equal up to budget")),
        (["code-apply", rule_path, "--point", points.format_point(xr)],
         applied),
    ]
    for x in probes:
        m = O.member(spec, x)
        cases.append((["space-check", seeded, "--point",
                       points.format_point(x)],
                      exact(0 if m else 1, "member\n" if m else
                            "not a member\n")))
    known = [(["code-check", bad_rule], clean_error),
             (["space-check", bad_spec, "--point", "@"], clean_error)]
    def tail_ok(c):
        """The exact 10^8-letter ray, or a one-line refusal."""
        ones = c.out[6:-11]
        return (not c.timed_out and c.code == 0
                and c.out.startswith("(0)^- ") and c.out.endswith(" @99999999\n")
                and len(ones) == 99999999 and ones.count("1") == len(ones)) \
            or clean_error(c)

    ops = [Op("cli", None, (argv,), check) for argv, check in cases]
    ops += [Op("cli", None, (argv,), check, EXIT) for argv, check in known]
    rounds = []
    for _ in range(30):
        rnd = list(ops)
        rng.shuffle(rnd)
        rounds.append(rnd)
    hang = Op("cli", None, (["point-eval", "(0)^-.(1)^+", "--tail",
                                "99999999"],), tail_ok, TAIL, child=True)
    return Workload(rounds, op_limit_s=3.0, first_round=[hang])


def in_process(argv):
    """Run cli.main in this interpreter (traced runs)."""
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:
            import traceback
            traceback.print_exc()
            code = 1
    return Child(code, out.getvalue(), err.getvalue())


def build(name, seed, root, work):
    rng = random.Random("%s:%d" % (name, seed))
    if name == "membership":
        return membership(rng, root)
    if name == "enumerate":
        return enumerate_(rng, root)
    if name == "decide":
        return decide(rng, root)
    if name == "cli":
        return cli_workload(rng, root, work)
    raise KeyError(name)


NAMES = ("membership", "enumerate", "decide", "cli")
