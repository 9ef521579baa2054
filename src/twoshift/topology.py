"""Clopen basis of the compactified two-sided full shift.

Generalized cylinders Z(x,F), complements of finite unions of plain
cylinders, intersections, neighborhood bases, and a finite-sample witness
checker for families escaping every listed cylinder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

import re
from .errors import ParseError
from .points import BiPoint, Empty, Finite, Infinite
from .words import LeftRay, canonicalize_ray, parse_ray, ray_tail


@dataclass(frozen=True)
class Cylinder:
    """Z(base, excluded): points matching the ray and avoiding the excluded
    letters at the next position.  The empty point lies in no cylinder."""

    base: LeftRay
    excluded: frozenset = frozenset()

    def __str__(self) -> str:
        excl = ",".join(str(a) for a in sorted(self.excluded))
        return "Z( %s ; {%s} )" % (self.base, excl)


@dataclass(frozen=True)
class CoUnion:
    """Complement of a finite union of plain cylinders Z(x^j)."""

    cylinders: tuple  # Cylinder, each with excluded = {}

    def __str__(self) -> str:
        return "!{ %s }" % ", ".join(str(c) for c in self.cylinders)


BasicOpen = Union[Cylinder, CoUnion]


def co_union(cylinders: Iterable[Cylinder]) -> CoUnion:
    seen = []
    for c in cylinders:
        if c.excluded:
            raise ValueError("CoUnion admits plain cylinders only")
        if c not in seen:
            seen.append(c)
    if not seen:
        raise ValueError("CoUnion needs at least one cylinder")
    return CoUnion(tuple(seen))


def cyl_contains(c: Cylinder, y: BiPoint) -> bool:
    k = c.base.end_index
    if isinstance(y, Empty):
        return False
    if y.length() < k:
        return False
    if y.tail_ray(k) != c.base.shift_to(k):
        return False
    nxt = y[k + 1]
    # The empty letter is never listed in an excluded set.
    return not (isinstance(nxt, int) and nxt in c.excluded)


def cyl_intersect(a: Cylinder, b: Cylinder) -> Optional[Cylinder]:
    """Intersection of two cylinders: a cylinder again, or None when empty."""
    if a.base.end_index > b.base.end_index:
        a, b = b, a
    ka, kb = a.base.end_index, b.base.end_index
    if ka == kb:
        if a.base != b.base:
            return None
        return Cylinder(a.base, a.excluded | b.excluded)
    # Longer base must extend the shorter one, and the letter just past the
    # shorter ray must not be excluded by it.
    if ray_tail(b.base, ka) != a.base:
        return None
    if b.base[ka + 1] in a.excluded:
        return None
    return b


def basic_contains(u: BasicOpen, y: BiPoint) -> bool:
    if isinstance(u, Cylinder):
        return cyl_contains(u, y)
    return not any(cyl_contains(c, y) for c in u.cylinders)


def nbhd_basis(x: BiPoint, budget: int,
               context_rays: Sequence[LeftRay] = ()) -> List[BasicOpen]:
    """The first ``budget`` members of a neighborhood basis at ``x``.

    Infinite points get shrinking tail cylinders, finite points get growing
    excluded sets, and the empty point gets complements of growing families
    of single-ray cylinders (from ``context_rays``, defaulting to constant
    rays).
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if isinstance(x, Infinite):
        # Longer bases fix more coordinates, so the cylinders shrink.
        return [Cylinder(x.tail_ray(j)) for j in range(budget)]
    if isinstance(x, Finite):
        return [Cylinder(x.ray, frozenset(range(j + 1))) for j in range(budget)]
    rays = list(context_rays) or [canonicalize_ray((i,)) for i in range(budget)]
    out = []
    for j in range(1, budget + 1):
        cyls = [Cylinder(rays[i % len(rays)].shift_to(rays[i % len(rays)].end_index - i // len(rays)))
                for i in range(j)]
        out.append(co_union(cyls))
    return out


def escapes_cylinders(family: Sequence[BiPoint],
                      cyls: Sequence[Cylinder]) -> bool:
    """Finite-sample escape check: every listed cylinder misses the tail of
    the family (it contains none of the later members, in particular not the
    last one)."""
    if not family:
        return True
    for c in cyls:
        if cyl_contains(c, family[-1]):
            return False
    return True


def escape_report(family: Sequence[BiPoint], cyls: Sequence[Cylinder]):
    """Per-cylinder list of family indices it contains (testing helper)."""
    return [[j for j, x in enumerate(family) if cyl_contains(c, x)] for c in cyls]


# ---------------------------------------------------------------------------
# text syntax

_CYL_RE = re.compile(r"^Z\(\s*(.*?)\s*(?:;\s*\{\s*([^}]*?)\s*\})?\s*\)$")


def parse_cylinder(text: str) -> Cylinder:
    """Parse ``Z( (p)^- t @k ; {f1,f2} )``; the excluded part is optional."""
    m = _CYL_RE.match(text.strip())
    if not m:
        raise ParseError("bad cylinder syntax: %r" % text)
    base = parse_ray(m.group(1))
    excl = frozenset()
    if m.group(2):
        excl = frozenset(int(t) for t in re.split(r"[,\s]+", m.group(2)) if t)
    return Cylinder(base, excl)


def parse_basic_open(text: str) -> BasicOpen:
    s = text.strip()
    if s.startswith("!{") and s.endswith("}"):
        inner = s[2:-1]
        # Cylinder text contains nested parens; split on "Z(" starts.
        starts = [m.start() for m in re.finditer(r"Z\(", inner)]
        if not starts:
            raise ParseError("empty co-union: %r" % text)
        chunks = []
        for i, st in enumerate(starts):
            end = starts[i + 1] if i + 1 < len(starts) else len(inner)
            chunks.append(inner[st:end].rstrip().rstrip(",").strip())
        return co_union(parse_cylinder(ch) for ch in chunks)
    return parse_cylinder(s)
