"""Higher block recoding and edge shifts.

The M-th higher block code sends x_i to the block [x_{i-M+1} ... x_i],
encoded as a single integer through iterated Cantor pairing so that the
recoded object is again a point over an integer alphabet.  Forbidden
specifications recode to a derived spec carrying a built-in overlap
constraint (the infinite family of inconsistent block pairs is a flag, not
materialized patterns).  M-step specs turn into edge shifts on the graph
with M-blocks as vertices and (M+1)-blocks as edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .automaton import branches, reach, reverse, trim
from .errors import InconsistentOverlaps, NotFiniteStep
from .points import BiPoint, Empty, Infinite
from .spaces import (Classification, ForbiddenSpec, blocks, classify,
                     contains, word_in_language, _fresh)
from .words import EMPTY, format_letters
from .blockcodes import SlidingBlockCode, sbc_apply


def cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def cantor_unpair(z: int):
    w = (math.isqrt(8 * z + 1) - 1) // 2
    b = z - w * (w + 1) // 2
    return w - b, b


def encode_block(block: tuple) -> int:
    """Bijective integer code of an M-tuple of letters (identity for M=1)."""
    e = block[0]
    for c in block[1:]:
        e = cantor_pair(e, c)
    return e


def decode_block(code: int, m: int) -> tuple:
    out = []
    for _ in range(m - 1):
        code, b = cantor_unpair(code)
        out.append(b)
    out.append(code)
    return tuple(reversed(out))


@lru_cache(maxsize=None)
def _encode_code(m: int) -> SlidingBlockCode:
    def rule(win: tuple):
        if win[-1] is EMPTY:
            return EMPTY
        return encode_block(win)

    return SlidingBlockCode(m - 1, 0, rule, None, None, frozenset())


@lru_cache(maxsize=None)
def _decode_code(m: int) -> SlidingBlockCode:
    def rule(win: tuple):  # the last letter of the block
        c = win[0]
        return c if m == 1 or c is EMPTY else cantor_unpair(c)[1]

    return SlidingBlockCode(0, 0, rule, None, None, frozenset())


def hb_encode(m: int, x: BiPoint) -> BiPoint:
    """The M-th higher block code applied to a point."""
    if m < 1:
        raise ValueError("block order must be at least 1")
    return sbc_apply(_encode_code(m), x)


def _check_overlaps(m: int, y: BiPoint) -> None:
    if m == 1 or isinstance(y, Empty):
        return
    if isinstance(y, Infinite):
        lo = y.body_start - 2 * len(y.left_period) - 1
        hi = y.body_start + len(y.body) + 2 * len(y.right_period) + 1
    else:
        hi = y.ray.end_index
        lo = hi - len(y.ray.transient) - 2 * len(y.ray.period) - 1
    blocks = [decode_block(c, m) for c in y.window(lo, hi)]  # no ø up to hi
    for i, (a, b) in enumerate(zip(blocks, blocks[1:]), lo):
        if a[1:] != b[:-1]:
            raise InconsistentOverlaps(
                "blocks at %d and %d do not overlap" % (i, i + 1))


def hb_decode(m: int, y: BiPoint) -> BiPoint:
    """Inverse of :func:`hb_encode` on its image; a 1-block rule."""
    if m < 1:
        raise ValueError("block order must be at least 1")
    _check_overlaps(m, y)
    return sbc_apply(_decode_code(m), y)


# ---------------------------------------------------------------------------
# derived specifications


@dataclass(frozen=True)
class HigherBlockSpec:
    """Forbidden description of the Ξ^[M]-image of a base space.

    The forbidden set is the overlap-violation family (carried as the
    ``m`` flag) together with the recoded base patterns; queries delegate
    to the base space through decoding.
    """

    m: int
    base: ForbiddenSpec


def hb_spec(m: int, base: ForbiddenSpec) -> HigherBlockSpec:
    if m < 1:
        raise ValueError("block order must be at least 1")
    return HigherBlockSpec(m, base)


def hb_contains(h: HigherBlockSpec, y: BiPoint) -> bool:
    try:
        x = hb_decode(h.m, y)
    except InconsistentOverlaps:
        return False
    if any(not isinstance(c, int) or c < 0
           for c in (y.letters() if not isinstance(y, Empty) else ())):
        return False
    return contains(h.base, x)


def _encode_word(m: int, v: tuple) -> tuple:
    """Window of the recoded point from a base window of length n+m-1."""
    n = len(v) - m + 1
    out = []
    for i in range(n):
        if v[i + m - 1] is EMPTY:
            out.append(EMPTY)
        else:
            out.append(encode_block(v[i: i + m]))
    return tuple(out)


def hb_blocks(h: HigherBlockSpec, n: int, cutoff: int) -> set:
    return {_encode_word(h.m, v) for v in blocks(h.base, n + h.m - 1, cutoff)}


def hb_classify(h: HigherBlockSpec) -> Classification:
    c = classify(h.base)
    m_step = None if c.m_step is None else max(1, c.m_step - h.m + 1)
    finite_type = c.finite_type and h.base.alphabet is not None
    return Classification(c.row_finite, c.column_finite, m_step, finite_type)


def hb_spec_to_json(h: HigherBlockSpec) -> dict:
    from .spaces import spec_to_json

    out = spec_to_json(h.base)
    out["overlap_m"] = h.m
    return out


# ---------------------------------------------------------------------------
# edge shifts


@dataclass(frozen=True)
class Graph:
    """Directed graph with M-block vertices and (M+1)-block edges.

    ``fresh`` marks that letters beyond the enumeration cutoff exist; the
    abstract fresh vertex is rendered ``*`` in DOT output but not listed.
    """

    m: int
    vertices: tuple   # sorted base words of length m
    edges: tuple      # sorted base words of length m+1
    infinite_emitters: frozenset   # vertices with a fresh outgoing edge
    fresh_sources: frozenset       # vertices with a fresh incoming edge
    fresh: bool

    def src(self, e: tuple) -> tuple:
        return e[:-1]

    def dst(self, e: tuple) -> tuple:
        return e[1:]


def to_edge_shift(spec: ForbiddenSpec, cutoff: int):
    """Edge-shift presentation of an M-step space (Graph, recoded spec)."""
    c = classify(spec)
    if spec.rays or spec.allow is not None or c.m_step is None:
        raise NotFiniteStep("edge shifts need a finite-step forbidden list")
    m = c.m_step
    if m == 0:
        vertices = [()]
    else:
        vertices = sorted(w for w in blocks(spec, m, cutoff)
                          if EMPTY not in w)
    edges = sorted(w for w in blocks(spec, m + 1, cutoff) if EMPTY not in w)
    f = _fresh(spec, range(cutoff))
    emitters = set()
    sources = set()
    for v in vertices:
        if word_in_language(spec, v + (f,)):
            emitters.add(v)
        if word_in_language(spec, (f,) + v):
            sources.add(v)
    # The abstract fresh vertex must carry its own loop for fresh walks.
    fresh = word_in_language(spec, (f,) * (m + 1))
    return (Graph(m, tuple(vertices), tuple(edges), frozenset(emitters),
                  frozenset(sources), fresh),
            hb_spec(m + 1, spec))


def graph_to_dot(g: Graph) -> str:
    lines = ["digraph shift {"]
    for v in g.vertices:
        label = format_letters(v) if v else "()"
        lines.append('  "%s";' % label)
    if g.fresh:
        lines.append('  "*" [style=dashed];')
    for e in g.edges:
        s = format_letters(g.src(e)) if g.src(e) else "()"
        t = format_letters(g.dst(e)) if g.dst(e) else "()"
        lines.append('  "%s" -> "%s" [label="%s"];' % (s, t, format_letters(e)))
    lines.append("}")
    return "\n".join(lines) + "\n"


class EdgeSpace:
    """Membership and language oracle for the edge shift of a graph,
    bounded to the listed (cutoff-enumerated) edges."""

    def __init__(self, g: Graph) -> None:
        self.g = g
        self._codes = {encode_block(e): e for e in g.edges}
        succ = {v: [] for v in g.vertices}
        for e in g.edges:
            succ.setdefault(g.src(e), []).append(g.dst(e))
            succ.setdefault(g.dst(e), [])
        pred = reverse(succ)
        # A walk continues right forever along listed edges, or leaves
        # through a fresh edge at an infinite emitter; symmetrically left.
        self._succ = succ
        self._right_ok = trim(succ) | reach(
            g.infinite_emitters if g.fresh else (), pred)
        self._left_ok = trim(pred) | reach(
            g.fresh_sources if g.fresh else (), succ)

    def walkset_infinite(self) -> bool:
        if self.g.fresh:
            # Constant walks on fresh loop edges, one per fresh letter.
            return True
        live = set(self.g.vertices) & self._left_ok & self._right_ok
        return branches(live, self._succ)

    def _walk_ok(self, edges) -> bool:
        return all(a[1:] == b[:-1] for a, b in zip(edges, edges[1:]))

    def contains(self, x: BiPoint) -> bool:
        if isinstance(x, Empty):
            return self.walkset_infinite()
        if isinstance(x, Infinite):
            lo = x.body_start - len(x.left_period) - 1
            hi = x.body_start + len(x.body) + len(x.right_period) + 1
            walk = [self._codes.get(c) for c in x.window(lo, hi)]
            return all(e is not None for e in walk) and self._walk_ok(walk)
        ray = x.ray
        k = ray.end_index
        lo = k - len(ray.transient) - 2 * len(ray.period)
        walk = [self._codes.get(c) for c in ray.expand(k - lo + 1)]
        if any(e is None for e in walk) or not self._walk_ok(walk):
            return False
        return (walk[-1][1:] in self.g.infinite_emitters
                and self.walkset_infinite())

    def blocks(self, n: int) -> set:
        out = set()

        def walks(length):
            if length == 0:
                yield ()
                return
            for w in walks(length - 1):
                for e in self.g.edges:
                    if not w or w[-1][1:] == e[:-1]:
                        yield w + (e,)

        for w in walks(n):
            if w[0][:-1] in self._left_ok and w[-1][1:] in self._right_ok:
                out.add(tuple(encode_block(e) for e in w))
        for m in range(1, n):
            for w in walks(m):
                if (w[0][:-1] in self._left_ok
                        and w[-1][1:] in self.g.infinite_emitters
                        and self.walkset_infinite()):
                    out.add(tuple(encode_block(e) for e in w)
                            + (EMPTY,) * (n - m))
        if self.walkset_infinite():
            out.add((EMPTY,) * n)
        return out


def edge_space(g: Graph) -> EdgeSpace:
    return EdgeSpace(g)
