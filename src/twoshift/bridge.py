"""Bridge between two-sided and one-sided compactified shifts.

Projection to the positive coordinates, the inverse-limit family of
one-sided points, the cylinder homeomorphism onto Z(x), and the space
level transfer of forbidden specifications in both directions.

A one-sided Ott-Tomforde-Willis spec is a :class:`ForbiddenSpec` with only
patterns (and perhaps a finite alphabet): the same data as a two-sided
pattern spec, with the same matcher, language and fresh letter.  Only the
language query differs, since a one-sided point has a left boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotMinimal
from .points import (BiPoint, Empty, Finite, OneEmpty, OneFinite, OneInfinite,
                     OnePoint, ONE_EMPTY, make_infinite, make_one_infinite,
                     one_finite)
from .spaces import (ForbiddenSpec, _block_levels, _missing_subinstance,
                     _one_sided_ok, inf_infinite, is_minimal)
from .words import ray_append


def OneSpec(patterns=frozenset(), alphabet=None) -> ForbiddenSpec:
    """Forbidden words of a one-sided Ott-Tomforde-Willis shift space."""
    return ForbiddenSpec(frozenset(patterns), alphabet=alphabet)


def one_contains(one: ForbiddenSpec, z: OnePoint) -> bool:
    """Membership in the one-sided space X̂_F."""
    if isinstance(z, OneEmpty):
        return inf_infinite(one)
    if isinstance(z, OneInfinite):
        if one.alphabet is not None and not (
                set(z.transient) | set(z.period)) <= one.alphabet:
            return False
        return _one_sided_ok(one, z.transient, z.period)
    # A finite word needs infinitely many one-letter extensions, so a fresh
    # letter must follow it: the point w f f ... decides.
    return one.alphabet is None and inf_infinite(one) and \
        one.language.one_word(z.word)


def one_word_in_language(one: ForbiddenSpec, w: tuple) -> bool:
    """Is w a block of the one-sided space (occurs in some valid point)?"""
    return one.language.one_word(tuple(w))


def one_blocks(one: ForbiddenSpec, n: int, cutoff: int) -> set:
    """Non-ø blocks of X̂_F over letters below the cutoff."""
    return _block_levels(lambda w: one_word_in_language(one, w), n,
                         range(cutoff))[n]


def one_is_minimal(one: ForbiddenSpec):
    """Is every proper subblock of every forbidden pattern a block of the
    one-sided space?  Returns (True, None) or (False, (word, parent))."""
    missing = _missing_subinstance(one, one_word_in_language)
    return (True, None) if missing is None else (False, missing)


# ---------------------------------------------------------------------------
# pointwise bridge


@dataclass(frozen=True)
class ProjectionResult:
    point: OnePoint
    continuous: bool  # the projection is continuous at x iff l(x) >= 0


def _restrict(x: BiPoint, l: int) -> OnePoint:
    """(x_i)_{i>l} as a one-sided point; a finite x must not end before l."""
    if isinstance(x, Finite):
        k = x.ray.end_index
        return one_finite(x.window(l + 1, k)) if k > l else ONE_EMPTY
    hi = max(x.body_start + len(x.body) - 1, l)
    cells = x.window(l + 1, hi + len(x.right_period))
    return make_one_infinite(cells[:hi - l], cells[hi - l:])


def project(x: BiPoint) -> ProjectionResult:
    """Restriction (x_i)_{i>=1} to the positive coordinates."""
    if isinstance(x, Empty):
        return ProjectionResult(ONE_EMPTY, False)
    return ProjectionResult(_restrict(x, 0), x.length() >= 0)


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
    if isinstance(y, Empty) or y.length() < l or y.tail_ray(l) != base.ray:
        raise ValueError("point does not lie in the base cylinder")
    return _restrict(y, l)


# ---------------------------------------------------------------------------
# spacewise bridge


@dataclass(frozen=True)
class ProjectedSpace:
    one: ForbiddenSpec  # patterns only
    letters_infinite: bool  # |L_Lambda| = infinity: closure is the OTW space


def project_space(spec: ForbiddenSpec) -> ProjectedSpace:
    """One-sided spec of the projection; demands a minimal forbidden part."""
    core = ForbiddenSpec(spec.patterns, spec.rays, None, spec.alphabet)
    ok, witness = is_minimal(core)
    if not ok:
        raise NotMinimal("subblock %s of %s is not in the language"
                         % (witness[0], witness[1]))
    letters_inf = spec.alphabet is None and not spec.all_wildcard
    return ProjectedSpace(OneSpec(spec.patterns, spec.alphabet), letters_inf)


@dataclass(frozen=True)
class LiftedSpace:
    two: ForbiddenSpec
    case: str  # "i": Lambda = X_F; "ii": Lambda union {empty} = X_F


def lift_space(one: ForbiddenSpec) -> LiftedSpace:
    """The two-sided space of a minimal one-sided spec: the same patterns."""
    ok, witness = one_is_minimal(one)
    if not ok:
        raise NotMinimal("subblock %s of %s is not in the language"
                         % (witness[0], witness[1]))
    letters_inf = one.alphabet is None and not one.all_wildcard
    space_finite = not inf_infinite(one)
    case = "i" if letters_inf or space_finite else "ii"
    return LiftedSpace(one, case)
