"""Independent oracles for the benchmark.

Nothing here calls into ``twoshift``: points, rays and specs are read
through their public fields only (``left_period``, ``body``, ...,
``patterns``, ``rays``, ``allow``, ``alphabet``) and every verdict is
recomputed from the definitions with naive scans and brute-force
enumeration.  Letters are ints; ``twoshift.words.STAR`` and ``EMPTY`` are
passed in by the caller so this module stays import-free.
"""

from __future__ import annotations

import itertools
import math


class Cells:
    """Sentinels of the program under test, bound once by the caller."""

    star = None
    empty = None


def is_star(c) -> bool:
    return c is Cells.star


# ---------------------------------------------------------------------------
# expansion of representations (never through BiPoint.__getitem__)


def inf_val(lp, body, rp, s, i):
    """Cell i of the bi-infinite point ...lp lp body rp rp... (body at s)."""
    if i < s:
        return lp[(i - s) % len(lp)]
    if i < s + len(body):
        return body[i - s]
    return rp[(i - s - len(body)) % len(rp)]


def ray_val(period, transient, end, i):
    """Cell i <= end of the left ray ...ppp t ending at index ``end``."""
    d = end - i
    if d < len(transient):
        return transient[len(transient) - 1 - d]
    d -= len(transient)
    return period[len(period) - 1 - (d % len(period))]


def point_val(x, i):
    """Cell i of any two-sided point, read from its fields."""
    if hasattr(x, "left_period"):
        return inf_val(x.left_period, x.body, x.right_period, x.body_start, i)
    if hasattr(x, "ray"):
        r = x.ray
        if i > r.end_index:
            return Cells.empty
        return ray_val(r.period, r.transient, r.end_index, i)
    return Cells.empty


def one_val(z, i):
    """Cell i >= 1 of a one-sided point, read from its fields."""
    if hasattr(z, "period"):
        j = i - 1
        if j < len(z.transient):
            return z.transient[j]
        return z.period[(j - len(z.transient)) % len(z.period)]
    if hasattr(z, "word"):
        return z.word[i - 1] if 1 <= i <= len(z.word) else Cells.empty
    return Cells.empty


def point_span(x):
    """(lo, hi) indices covering the non-periodic part of a point, plus the
    longest period, so windows outside [lo - p, hi + p] repeat."""
    if hasattr(x, "left_period"):
        p = max(len(x.left_period), len(x.right_period))
        return x.body_start, x.body_start + len(x.body), p
    if hasattr(x, "ray"):
        r = x.ray
        return r.end_index - len(r.transient), r.end_index + 1, len(r.period)
    return 0, 0, 1


# ---------------------------------------------------------------------------
# pattern specs over an infinite alphabet


def matches(pat, cells) -> bool:
    for c, v in zip(pat, cells):
        if v is Cells.empty:
            return False
        if not is_star(c) and c != v:
            return False
    return True


def word_has_pattern(patterns, w) -> bool:
    """Does any pattern occur inside the finite word w?"""
    for pat in patterns:
        n = len(pat)
        for j in range(len(w) - n + 1):
            if matches(pat, w[j:j + n]):
                return True
    return False


def mentioned(spec) -> set:
    out = set()
    for p in spec.patterns:
        out |= {c for c in p if isinstance(c, int)}
    for r in spec.rays:
        out |= set(r.period) | set(r.transient)
    for a in spec.allow or ():
        out |= set(a)
    return out


def fresh_letters(spec, extra=(), k=2):
    """k distinct letters used nowhere in the spec (nor in ``extra``)."""
    used = mentioned(spec) | set(extra) | set(spec.alphabet or ())
    base = max(used, default=-1) + 1
    return tuple(range(base, base + k))


def big(spec) -> int:
    return max((len(p) for p in spec.patterns), default=1)


def _tail_at(lp, body, rp, s, ray, k) -> bool:
    """Does the point agree with ``ray`` re-anchored at k on all of (-inf, k]?"""
    ft, fp = ray.transient, ray.period
    # Left of both periodic starts the sequences are periodic; agreement
    # over one common period there is agreement forever.
    left = min(s, k - len(ft))
    depth = k - left + math.lcm(len(lp), len(fp)) + 1
    for i in range(k - depth, k + 1):
        if inf_val(lp, body, rp, s, i) != ray_val(fp, ft, k, i):
            return False
    return True


def inf_valid(spec, lp, body, rp, s) -> bool:
    """Naive window scan: is the bi-infinite point in X_F^inf?"""
    if spec.alphabet is not None:
        if not set(lp) | set(body) | set(rp) <= spec.alphabet:
            return False
    bg = big(spec)
    p = max(len(lp), len(rp))
    lo = s - 2 * p - bg - 2
    hi = s + len(body) + 2 * p + bg + 2
    seq = [inf_val(lp, body, rp, s, i) for i in range(lo, hi + 1)]
    if word_has_pattern(spec.patterns, seq):
        return False
    for ray in spec.rays:
        per = math.lcm(len(lp), len(ray.period))
        k_lo = s - per - 2
        k_hi = s + len(body) + len(ray.transient) + \
            math.lcm(len(rp), len(ray.period)) + 2
        for k in range(k_lo, k_hi + 1):
            if _tail_at(lp, body, rp, s, ray, k):
                return False
    if spec.allow is not None:
        # The left tail is lp-periodic; compare two common periods of it
        # with every rotation of every allowed period.
        def allowed(a):
            n = len(a)
            left = [inf_val(lp, body, rp, s, i)
                    for i in range(s - 2 * math.lcm(len(lp), n), s)]
            return any(all(v == a[(j + o) % n] for j, v in enumerate(left))
                       for o in range(n))
        if not any(allowed(a) for a in spec.allow):
            return False
    return True


def inf_infinite(spec) -> bool:
    """Is X_F^inf an infinite set?"""
    if spec.alphabet is not None:
        return FiniteLang.of(spec).infinite()
    if spec.allow is None:
        # A constant point on a fresh letter avoids every non-wildcard cell
        # and every tail; fresh letters give infinitely many such points.
        f = fresh_letters(spec, k=1)[0]
        return inf_valid(spec, (f,), (), (f,), 0)
    f = fresh_letters(spec, k=1)[0]
    for a in spec.allow:
        for o in range(len(a)):
            rot = a[o:] + a[:o]
            if inf_valid(spec, rot, (), (f,), 0):
                return True
    return False


def follower_infinite(spec, ray) -> bool:
    """Does the ray have infinitely many one-letter followers in X_F^inf?
    Probe: the ray, one fresh letter, then a second fresh letter forever."""
    if spec.alphabet is not None:
        return False
    f1, f2 = fresh_letters(spec, set(ray.period) | set(ray.transient))
    s = ray.end_index - len(ray.transient) + 1
    return inf_valid(spec, ray.period, ray.transient + (f1,), (f2,), s)


def member(spec, x) -> bool:
    """Membership of any two-sided point in X_F, from the definition."""
    if hasattr(x, "left_period"):
        return inf_valid(spec, x.left_period, x.body, x.right_period,
                         x.body_start)
    if hasattr(x, "ray"):
        return inf_infinite(spec) and follower_infinite(spec, x.ray)
    return inf_infinite(spec)


# ---------------------------------------------------------------------------
# blocks of pattern-only specs over an infinite alphabet


def padded_block(patterns, w, f, pad) -> bool:
    """Is w a block of the pattern-only space?  Fresh padding is the best
    witness: a fresh cell is matched only by a wildcard."""
    return not word_has_pattern(patterns, (f,) * pad + tuple(w) + (f,) * pad)


class PlainBlocks:
    """Exact B_n (with empty-letter paddings) of a pattern-only spec with an
    infinite alphabet, by brute force over letters below the cutoff."""

    def __init__(self, spec, cutoff: int) -> None:
        self.patterns = tuple(spec.patterns)
        self.cutoff = cutoff
        self.f = fresh_letters(spec, range(cutoff), k=1)[0]
        self.pad = big(spec)
        self.inf = padded_block(self.patterns, (), self.f, self.pad)
        self._free = {0: {()}}

    def block(self, w) -> bool:
        return padded_block(self.patterns, w, self.f, self.pad)

    def free(self, n: int) -> set:
        """Empty-free n-blocks; each extends a free (n-1)-block."""
        if n not in self._free:
            self._free[n] = {w + (a,) for w in self.free(n - 1)
                             for a in range(self.cutoff)
                             if self.block(w + (a,))}
        return self._free[n]

    def blocks(self, n: int) -> set:
        out = set(self.free(n))
        e = Cells.empty
        for m in range(1, n):
            out |= {w + (e,) * (n - m) for w in self.free(m)
                    if self.block(w + (self.f,))}
        if self.inf:
            out.add((e,) * n)
        return out

    def one_blocks(self, n: int) -> set:
        """One-sided blocks: the word may sit at the left boundary, so only
        right padding is needed."""
        return {w for w in itertools.product(range(self.cutoff), repeat=n)
                if not word_has_pattern(self.patterns,
                                        w + (self.f,) * self.pad)}


def transfer_count(patterns, cutoff: int, n: int) -> int:
    """Number of pattern-free words of length n over letters < cutoff, by a
    transfer matrix over the last (big - 1) letters.  For plain-word specs
    with an infinite alphabet this is |B_n| without empty paddings."""
    bg = max((len(p) for p in patterns), default=1)
    w = bg - 1
    counts = {(): 1}
    for _ in range(n):
        nxt = {}
        for state, c in counts.items():
            for a in range(cutoff):
                win = state + (a,)
                if any(len(p) <= len(win) and matches(p, win[len(win) - len(p):])
                       for p in patterns):
                    continue
                key = win[-w:] if w else ()
                nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    return sum(counts.values())


def factor_closed(short: set, long: set) -> bool:
    """Every empty-free (n+1)-block has its n-prefix and n-suffix in B_n,
    and every empty-free n-block extends to the right in B_{n+1}."""
    e = Cells.empty
    free_s = {w for w in short if e not in w}
    free_l = {w for w in long if e not in w}
    if any(w[:-1] not in free_s or w[1:] not in free_s for w in free_l):
        return False
    return {w[:-1] for w in free_l} == free_s


# ---------------------------------------------------------------------------
# finite-alphabet specs: brute-force de Bruijn graph


class FiniteLang:
    """Language of a pattern-only spec over a finite alphabet, decided on
    the graph of (big-1)-letter states with edges checked window by window."""

    _memo: dict = {}

    @classmethod
    def of(cls, spec) -> "FiniteLang":
        key = (spec.patterns, spec.alphabet)
        if key not in cls._memo:
            cls._memo[key] = cls(spec.patterns, spec.alphabet)
        return cls._memo[key]

    def __init__(self, patterns, alphabet) -> None:
        self.patterns = tuple(patterns)
        self.letters = sorted(alphabet)
        self.L = max((len(p) for p in self.patterns), default=1) - 1
        states = list(itertools.product(self.letters, repeat=self.L))
        self.succ = {s: [self._step(s, a) for a in self.letters
                         if self.edge_ok(s, a)] for s in states}
        pred = {s: [] for s in states}
        for s, ts in self.succ.items():
            for t in ts:
                pred[t].append(s)
        self.fwd = self._trim(self.succ)
        self.live = self.fwd & self._trim(pred)

    def _step(self, s, a):
        return (s + (a,))[1:] if self.L else ()

    def edge_ok(self, s, a) -> bool:
        win = s + (a,)
        return not any(len(p) <= len(win) and matches(p, win[len(win) - len(p):])
                       for p in self.patterns)

    @staticmethod
    def _trim(nbrs) -> set:
        alive = set(nbrs)
        changed = True
        while changed:
            changed = False
            for s in list(alive):
                if not any(t in alive for t in nbrs[s]):
                    alive.discard(s)
                    changed = True
        return alive

    def _walk(self, s, w):
        for a in w:
            if a not in self.letters or not self.edge_ok(s, a):
                return None
            s = self._step(s, a)
        return s

    def word(self, w) -> bool:
        """Block of X^inf: a walk from a live state to a live state."""
        for u in self.live:
            end = self._walk(u, w)
            if end is not None and end in self.live:
                return True
        return False

    def ray(self, period, transient) -> bool:
        """Left-infinite subblock: pattern-free and forward-extendable."""
        if not set(period) | set(transient) <= set(self.letters):
            return False
        reps = self.L + 2 + max((len(p) for p in self.patterns), default=1)
        seq = tuple(period) * reps + tuple(transient)
        if word_has_pattern(self.patterns, seq):
            return False
        return (seq[len(seq) - self.L:] if self.L else ()) in self.fwd

    def nonempty(self) -> bool:
        return bool(self.live)

    def infinite(self) -> bool:
        """Some live state branches, so some point is not periodic."""
        live = self.live
        indeg = {s: 0 for s in live}
        for s in live:
            out = [t for t in self.succ[s] if t in live]
            if len(out) > 1:
                return True
            for t in out:
                indeg[t] += 1
        return any(d > 1 for d in indeg.values())

    def one_word(self, w) -> bool:
        """Block of the one-sided space: some prefix of at most L letters
        (possibly none, at the left boundary), then w, then L letters that
        reach a state with an infinite forward walk."""
        if not set(w) <= set(self.letters):
            return False
        for m in range(self.L + 1):
            for u in itertools.product(self.letters, repeat=m):
                for v in itertools.product(self.letters, repeat=self.L):
                    s = u + tuple(w) + v
                    if word_has_pattern(self.patterns, s):
                        continue
                    if (s[len(s) - self.L:] if self.L else ()) in self.fwd:
                        return True
        return False


def instances(pattern, letters):
    opts = [[c] if isinstance(c, int) else letters for c in pattern]
    return itertools.product(*opts)


def minimal_verdict(spec, result) -> bool:
    """Check is_minimal's (flag, witness) against the literal definition:
    every proper subword of every forbidden pattern, with wildcards read as
    mentioned letters or one letter outside the spec, is a block."""
    lang = FiniteLang.of(spec)
    letters = sorted(mentioned(spec)) + [fresh_letters(spec, k=1)[0]]
    bad = None
    for pat in spec.patterns:
        for n in range(1, len(pat)):
            for o in range(len(pat) - n + 1):
                for inst in instances(pat[o:o + n], letters):
                    if not lang.word(inst):
                        bad = inst
                        break
    flag, witness = result
    if bad is None:
        return flag is True and witness is None
    return flag is False and not lang.word(tuple(witness[0]))


# ---------------------------------------------------------------------------
# sliding block codes


def clause_out(clauses, default, memory, win):
    """First matching clause's output on a concrete window."""
    for cells, out in clauses:
        if all((v is not Cells.empty) if is_star(c)
               else ((v is Cells.empty) if c is Cells.empty else v == c)
               for c, v in zip(cells, win)):
            break
    else:
        out = default
    if out[0] == "letter":
        return out[1]
    if out[0] == "empty":
        return Cells.empty
    return win[memory + out[1]]


def code_values(layers, x, lo, hi):
    """Cells lo..hi of f_1(f_2(...f_m(x))) for codes given innermost last as
    (clauses, default, memory, anticipation)."""
    if not layers:
        return [point_val(x, i) for i in range(lo, hi + 1)]
    (clauses, default, k, l), rest = layers[0], layers[1:]
    inner = code_values(rest, x, lo - k, hi + l)
    return [clause_out(clauses, default, k, inner[j:j + k + l + 1])
            for j in range(hi - lo + 1)]


def same_cells(y, expected, lo) -> bool:
    return all(point_val(y, lo + j) == v for j, v in enumerate(expected))
