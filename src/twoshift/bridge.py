"""Bridge between two-sided and one-sided compactified shifts.

Projection to the positive coordinates, the inverse-limit family of
one-sided points, the cylinder homeomorphism onto Z(x), and the space
level transfer of forbidden specifications in both directions.  One-sided
machinery is implemented only to the depth these constructions need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .automaton import StateGraph
from .errors import NotMinimal
from .points import (BiPoint, Empty, Finite, OneEmpty, OneFinite, OneInfinite,
                     OnePoint, ONE_EMPTY, make_infinite, make_one_infinite,
                     one_finite)
from .spaces import ForbiddenSpec, _block_levels, is_minimal
from .words import STAR, PatternSet, compile_patterns, ray_append


@dataclass(frozen=True)
class OneSpec:
    """Forbidden words of a one-sided Ott-Tomforde-Willis shift space."""

    patterns: frozenset = frozenset()
    alphabet: Optional[frozenset] = None

    @cached_property
    def mentioned(self) -> frozenset:
        out = set()
        for p in self.patterns:
            out |= {c for c in p if isinstance(c, int)}
        return frozenset(out)

    @cached_property
    def matcher(self) -> PatternSet:
        return compile_patterns(self.patterns)

    @cached_property
    def max_pattern_len(self) -> int:
        return max((len(p) for p in self.patterns), default=1)

    @cached_property
    def graph(self) -> StateGraph:
        """The state graph of a finite-alphabet spec."""
        return StateGraph(self.matcher, self.alphabet, self.max_pattern_len)


def _one_fresh(one: OneSpec, extra=()) -> int:
    used = set(one.mentioned) | set(extra)
    if one.alphabet is not None:
        used |= set(one.alphabet)
    return max(used, default=-1) + 1


def one_contains(one: OneSpec, z: OnePoint) -> bool:
    """Membership in the one-sided space X̂_F."""
    if isinstance(z, OneEmpty):
        return one_inf_infinite(one)
    if isinstance(z, OneInfinite):
        if one.alphabet is not None and not (
                set(z.transient) | set(z.period)) <= one.alphabet:
            return False
        # Windows starting in [1, depth]; later ones repeat in the period.
        big = one.max_pattern_len
        depth = len(z.transient) + 2 * len(z.period) + big
        return not one.matcher.occurs_in(
            tuple(z[i] for i in range(1, depth + big)))
    # A finite word needs infinitely many one-letter extensions.
    if one.alphabet is not None:
        return False
    if not one_inf_infinite(one):
        return False
    f = _one_fresh(one, z.word)
    probe = make_one_infinite(z.word + (f,), (f,))
    return one_contains(one, probe)


def one_inf_infinite(one: OneSpec) -> bool:
    if one.alphabet is None:
        return not any(all(c is STAR for c in p) for p in one.patterns)
    return one.graph.infinite()


def one_word_in_language(one: OneSpec, w: tuple) -> bool:
    """Is w a block of the one-sided space (occurs in some valid point)?"""
    if one.alphabet is not None:
        return one.graph.one_word(tuple(w))
    big = one.max_pattern_len
    f = _one_fresh(one, w)
    # Fresh padding is the best witness; only the distance of the word
    # from the left boundary still matters.
    return any(one_contains(one, make_one_infinite(
        (f,) * j + w + (f,) * (big - 1), (f,))) for j in range(big))


def one_blocks(one: OneSpec, n: int, cutoff: int) -> set:
    """Non-ø blocks of X̂_F over letters below the cutoff."""
    return _block_levels(lambda w: one_word_in_language(one, w), n, cutoff)[n]


def one_is_minimal(one: OneSpec):
    """Is every proper subblock of every forbidden pattern a block of the
    one-sided space?  Returns (True, None) or (False, (word, parent))."""
    ment = one.mentioned
    f = _one_fresh(one)
    for pat in sorted(one.patterns, key=str):
        for n in range(1, len(pat)):
            for o in range(len(pat) - n + 1):
                sub = pat[o: o + n]
                options = [[c] if isinstance(c, int) else sorted(ment) + [f]
                           for c in sub]
                for inst in itertools.product(*options):
                    if not one_word_in_language(one, tuple(inst)):
                        return False, (tuple(inst), pat)
    return True, None


# ---------------------------------------------------------------------------
# pointwise bridge


@dataclass(frozen=True)
class ProjectionResult:
    point: OnePoint
    continuous: bool  # the projection is continuous at x iff l(x) >= 0


def project(x: BiPoint) -> ProjectionResult:
    """Restriction (x_i)_{i>=1} to the positive coordinates."""
    if isinstance(x, Empty):
        return ProjectionResult(ONE_EMPTY, False)
    if isinstance(x, Finite):
        l = x.ray.end_index
        if l < 1:
            return ProjectionResult(ONE_EMPTY, l >= 0)
        return ProjectionResult(one_finite(x.window(1, l)), True)
    hi = max(x.body_start + len(x.body) - 1, 0)
    transient = tuple(x[i] for i in range(1, hi + 1))
    period = tuple(x[hi + 1 + j] for j in range(len(x.right_period)))
    return ProjectionResult(make_one_infinite(transient, period), True)


class OrbitFamily:
    """The inverse-limit family (X_i) with X_i = (x_{i+j-1})_{j in N}."""

    def __init__(self, x: BiPoint) -> None:
        self._x = x

    def point(self, i: int) -> OnePoint:
        return project(self._x.shift(i - 1)).point

    def p(self) -> BiPoint:
        return self._x


def p_inverse(x: BiPoint) -> OrbitFamily:
    return OrbitFamily(x)


def embed_in_cylinder(base: Finite, z: OnePoint) -> BiPoint:
    """The homeomorphism f of Z(base): keep base up to its length, then
    append z shifted past it."""
    ray = base.ray
    l = ray.end_index
    if isinstance(z, OneEmpty):
        return base
    if isinstance(z, OneFinite):
        return Finite(ray_append(ray, z.word))
    return make_infinite(ray.period, ray.transient + z.transient, z.period,
                         l - len(ray.transient) + 1)


def embed_inverse(base: Finite, y: BiPoint) -> OnePoint:
    l = base.ray.end_index
    if isinstance(y, Empty) or y.length() < l:
        raise ValueError("point does not lie in the base cylinder")
    if y.tail_ray(l) != base.ray:
        raise ValueError("point does not lie in the base cylinder")
    if isinstance(y, Finite):
        k = y.ray.end_index
        if k == l:
            return ONE_EMPTY
        return one_finite(y.window(l + 1, k))
    hi = max(y.body_start + len(y.body) - 1, l)
    transient = tuple(y[i] for i in range(l + 1, hi + 1))
    period = tuple(y[hi + 1 + j] for j in range(len(y.right_period)))
    return make_one_infinite(transient, period)


# ---------------------------------------------------------------------------
# spacewise bridge


@dataclass(frozen=True)
class ProjectedSpace:
    one: OneSpec
    letters_infinite: bool  # |L_Lambda| = infinity: closure is the OTW space


def project_space(spec: ForbiddenSpec) -> ProjectedSpace:
    """One-sided spec of the projection; demands a minimal forbidden part."""
    core = ForbiddenSpec(spec.patterns, spec.rays, None, spec.alphabet)
    ok, witness = is_minimal(core)
    if not ok:
        raise NotMinimal("subblock %s of %s is not in the language"
                         % (witness[0], witness[1]))
    letters_inf = spec.alphabet is None and not any(
        all(c is STAR for c in p) for p in spec.patterns)
    return ProjectedSpace(OneSpec(spec.patterns, spec.alphabet), letters_inf)


@dataclass(frozen=True)
class LiftedSpace:
    two: ForbiddenSpec
    case: str  # "i": Lambda = X_F; "ii": Lambda union {empty} = X_F


def lift_space(one: OneSpec) -> LiftedSpace:
    two = ForbiddenSpec(one.patterns, frozenset(), None, one.alphabet)
    ok, witness = one_is_minimal(one)
    if not ok:
        raise NotMinimal("subblock %s of %s is not in the language"
                         % (witness[0], witness[1]))
    letters_inf = one.alphabet is None and not any(
        all(c is STAR for c in p) for p in one.patterns)
    space_finite = not one_inf_infinite(one)
    case = "i" if letters_inf or space_finite else "ii"
    return LiftedSpace(two, case)
