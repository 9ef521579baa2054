"""Points of the compactified two-sided full shift.

A :class:`BiPoint` is either the empty point, a finite point (a left ray
followed by the empty letter forever), or a bi-infinite point that is
eventually periodic on both sides.  All values are immutable and kept in a
canonical form so that equality of points is equality of sequences.

Text syntax (the period separates index 0 from index 1):

* ``@``                       the empty point
* ``(p)^- u . v #``           finite point, length = |v| (or 0 if v empty)
* ``(p)^- t @k #``            finite point with arbitrary end index k
* ``(p)^- u . v (q)^+``       bi-infinite point
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .errors import BadRange, NoRay, ParseError, ShiftError
from .words import (EMPTY, LeftRay, _canonical_eventual, canonicalize_ray,
                    format_letters, parse_letters, primitive_root, ray_tail)

NEG_INF = -math.inf
POS_INF = math.inf


class BiPoint:
    """Base class; concrete variants are Empty, Finite, and Infinite."""

    __slots__ = ()

    def __getitem__(self, i: int):
        raise NotImplementedError

    def length(self):
        raise NotImplementedError

    def shift(self, n: int = 1) -> "BiPoint":
        """The point y with y_i = x_{i+n}."""
        raise NotImplementedError

    def window(self, i: int, j: int) -> tuple:
        """The word (x_i ... x_j)."""
        if i > j:
            raise BadRange("window start %d > end %d" % (i, j))
        return self._cells(i, j)

    def _cells(self, i: int, j: int) -> tuple:
        return tuple(self[k] for k in range(i, j + 1))

    def tail_ray(self, k: int) -> LeftRay:
        """The canonical ray (x_i)_{i<=k}; requires k <= length."""
        raise NoRay("the empty point has no tail ray")

    def letters(self) -> frozenset:
        raise NotImplementedError

    def __str__(self) -> str:
        return format_point(self)

    def __repr__(self) -> str:
        return "<%s %s>" % (type(self).__name__, format_point(self))


@dataclass(frozen=True, repr=False)
class Empty(BiPoint):
    """The empty point: constantly the empty letter; fixed by the shift."""

    def __getitem__(self, i: int):
        return EMPTY

    def length(self):
        return NEG_INF

    def shift(self, n: int = 1) -> "BiPoint":
        return self

    def letters(self) -> frozenset:
        return frozenset()


#: Shared empty point instance.
EMPTY_POINT = Empty()


@dataclass(frozen=True, repr=False)
class Finite(BiPoint):
    """A left ray followed by the empty letter forever; length = ray end."""

    ray: LeftRay

    def __getitem__(self, i: int):
        if i > self.ray.end_index:
            return EMPTY
        return self.ray[i]

    def length(self):
        return self.ray.end_index

    def _cells(self, i: int, j: int) -> tuple:
        r = self.ray
        return _expand(r.period, r.transient,
                       r.end_index - len(r.transient) + 1, (EMPTY,), i, j)

    def shift(self, n: int = 1) -> "BiPoint":
        return Finite(self.ray.shift_to(self.ray.end_index - n))

    def tail_ray(self, k: int) -> LeftRay:
        if k > self.ray.end_index:
            raise NoRay("tail end %d exceeds point length %d" % (k, self.ray.end_index))
        return ray_tail(self.ray, k)

    def letters(self) -> frozenset:
        return self.ray.letters()


@dataclass(frozen=True, repr=False)
class Infinite(BiPoint):
    """Bi-infinite point ...ppp body qqq... (eventually periodic both ways).

    ``body`` occupies [body_start, body_start+len(body)-1]; the left period
    ends just before the body, the right period starts just after it.
    Construct through :func:`make_infinite`.
    """

    left_period: tuple
    body: tuple
    right_period: tuple
    body_start: int

    def __getitem__(self, i: int):
        s = self.body_start
        if i < s:
            p = self.left_period
            return p[len(p) - 1 - ((s - 1 - i) % len(p))]
        if i < s + len(self.body):
            return self.body[i - s]
        q = self.right_period
        return q[(i - s - len(self.body)) % len(q)]

    def length(self):
        return POS_INF

    def _cells(self, i: int, j: int) -> tuple:
        return _expand(self.left_period, self.body, self.body_start,
                       self.right_period, i, j)

    def shift(self, n: int = 1) -> "BiPoint":
        return make_infinite(self.left_period, self.body, self.right_period,
                             self.body_start - n)

    def tail_ray(self, k: int) -> LeftRay:
        s = self.body_start
        if k < s:
            return ray_tail(canonicalize_ray(self.left_period, (), s - 1), k)
        run = _cycle(self.right_period, 0, k + 1 - s - len(self.body))
        return canonicalize_ray(self.left_period,
                                self.body[: k + 1 - s] + run, k)

    def letters(self) -> frozenset:
        return frozenset(self.left_period) | frozenset(self.body) | frozenset(self.right_period)


def _cycle(period: tuple, phase: int, n: int) -> tuple:
    """n cells of period^inf, starting at period[phase % len(period)]."""
    if n <= 0:
        return ()
    r = phase % len(period)
    return (period * (n // len(period) + 2))[r: r + n]


def _expand(left: tuple, body: tuple, s: int, right: tuple,
            i: int, j: int) -> tuple:
    """Cells i..j of ...left left body right right... with body at s."""
    e = s + len(body)
    return (_cycle(left, i - s, min(j + 1, s) - i)
            + body[max(i - s, 0): max(min(j + 1, e) - s, 0)]
            + _cycle(right, max(i, e) - e, j + 1 - max(i, e)))


def _rot_left(w: tuple) -> tuple:
    return w[1:] + w[:1]


def make_infinite(left_period: Sequence[int], body: Sequence[int],
                  right_period: Sequence[int], body_start: int) -> Infinite:
    """Canonical bi-infinite point; absorbs the body into the periods.

    Fully periodic points are normalized to the lexicographically least
    rotation of their primitive period with the phase anchored in [0, n).
    """
    p = primitive_root(tuple(left_period))
    q = tuple(right_period)
    s = int(body_start)
    b = tuple(body)
    if not p or not q:
        raise ValueError("periods of an infinite point must be nonempty")
    if any(not isinstance(c, int) or c < 0 for c in p + b + q):
        raise ValueError("infinite points contain plain letters only")
    # Absorb the body suffix into the right period.
    b, q = _canonical_eventual(b, q)
    # Absorb the body prefix into the left period.
    while b and b[0] == p[0]:
        b = b[1:]
        p = _rot_left(p)
        s += 1
    if b:
        return Infinite(p, b, q, s)
    if p == q:
        # Fully periodic point: fix the rotation and the phase.
        n = len(p)
        raw = Infinite(p, (), q, s)
        best = min(tuple(raw[j + i] for i in range(n)) for j in range(n))
        for s0 in range(n):
            if tuple(raw[s0 + i] for i in range(n)) == best:
                return Infinite(best, (), best, s0)
    # Eventually periodic with a genuine seam: push the seam right as far
    # as it goes (bounded since the point is not fully periodic).
    for _ in range(len(p) * len(q)):
        if q[0] != p[0]:
            break
        p = _rot_left(p)
        q = _rot_left(q)
        s += 1
    else:
        raise AssertionError("seam sliding failed to terminate")
    return Infinite(p, (), q, s)


def finite_point(period: Sequence[int], transient: Sequence[int] = (),
                 end_index: int = 0) -> Finite:
    return Finite(canonicalize_ray(period, transient, end_index))


def constant_point(letter: int) -> Infinite:
    return make_infinite((letter,), (), (letter,), 0)


# ---------------------------------------------------------------------------
# one-sided points (indexed from 1), used by the one-sided bridge


def _one_sided_shift(n: int) -> None:
    if n < 0:
        raise ValueError("a one-sided point has no shift by %d < 0" % n)


class OnePoint:
    """Point of the one-sided compactified full shift, indexed from 1."""

    __slots__ = ()

    def __getitem__(self, i: int):
        raise NotImplementedError

    def length(self):
        raise NotImplementedError

    def shift(self, n: int = 1) -> "OnePoint":
        raise NotImplementedError

    def __str__(self) -> str:
        return format_one_point(self)

    def __repr__(self) -> str:
        return "<%s %s>" % (type(self).__name__, format_one_point(self))


@dataclass(frozen=True, repr=False)
class OneEmpty(OnePoint):
    def __getitem__(self, i: int):
        return EMPTY

    def length(self):
        return NEG_INF

    def shift(self, n: int = 1) -> "OnePoint":
        _one_sided_shift(n)
        return self


ONE_EMPTY = OneEmpty()


@dataclass(frozen=True, repr=False)
class OneFinite(OnePoint):
    word: tuple

    def __getitem__(self, i: int):
        if 1 <= i <= len(self.word):
            return self.word[i - 1]
        return EMPTY

    def length(self):
        return len(self.word)

    def shift(self, n: int = 1) -> "OnePoint":
        _one_sided_shift(n)
        w = self.word[n:]
        return OneFinite(w) if w else ONE_EMPTY


@dataclass(frozen=True, repr=False)
class OneInfinite(OnePoint):
    transient: tuple
    period: tuple

    def __getitem__(self, i: int):
        if i < 1:
            return EMPTY
        j = i - 1
        if j < len(self.transient):
            return self.transient[j]
        return self.period[(j - len(self.transient)) % len(self.period)]

    def length(self):
        return POS_INF

    def shift(self, n: int = 1) -> "OnePoint":
        _one_sided_shift(n)
        t, p = self.transient, self.period
        if n <= len(t):
            return make_one_infinite(t[n:], p)
        r = (n - len(t)) % len(p)
        return make_one_infinite((), p[r:] + p[:r])


def make_one_infinite(transient: Sequence[int], period: Sequence[int]) -> OneInfinite:
    """Canonical one-sided infinite point (minimal transient, primitive period)."""
    period = tuple(period)
    if not period:
        raise ValueError("periods of an infinite point must be nonempty")
    return OneInfinite(*_canonical_eventual(transient, period))


def one_finite(word: Sequence[int]) -> OnePoint:
    w = tuple(word)
    return OneFinite(w) if w else ONE_EMPTY


# ---------------------------------------------------------------------------
# text syntax

_FIN_AT_RE = re.compile(r"^\(\s*([^)]*?)\s*\)\^-\s*([^@#]*?)\s*@\s*(-?\d+)\s*#$")
_TWO_RE = re.compile(
    r"^\(\s*([^)]*?)\s*\)\^-\s*([^.()#]*?)\s*\.\s*([^.()#]*?)\s*"
    r"(?:#|\(\s*([^)]*?)\s*\)\^\+)$")


def parse_point(text: str) -> BiPoint:
    """Parse the two-sided point syntax described in the module docstring."""
    s = text.strip()
    if s == "@":
        return EMPTY_POINT
    m = _FIN_AT_RE.match(s)
    if m:
        return finite_point(parse_letters(m.group(1)), parse_letters(m.group(2)),
                            int(m.group(3)))
    m = _TWO_RE.match(s)
    if not m:
        raise ParseError("bad point syntax: %r" % text)
    period = parse_letters(m.group(1))
    u = parse_letters(m.group(2))
    v = parse_letters(m.group(3))
    if m.group(4) is None:
        return finite_point(period, u + v, len(v))
    right = parse_letters(m.group(4))
    return make_infinite(period, u + v, right, 1 - len(u))


def format_point(x: BiPoint) -> str:
    if isinstance(x, Empty):
        return "@"
    if isinstance(x, Finite):
        k = x.ray.end_index
        if k < 0:
            body = (format_letters(x.ray.transient) + " ") if x.ray.transient else ""
            return "(%s)^- %s@%d #" % (format_letters(x.ray.period), body, k)
        return _format_around_zero(x, min(k - len(x.ray.transient) + 1, 1), k,
                                   len(x.ray.period), "#")
    if not isinstance(x, Infinite):
        raise ShiftError("cannot format %s as a point" % type(x).__name__)
    hi = max(x.body_start + len(x.body) - 1, 0)
    q = x.window(hi + 1, hi + len(x.right_period))
    return _format_around_zero(x, min(x.body_start, 1), hi, len(x.left_period),
                               "(%s)^+" % format_letters(q))


def _format_around_zero(x: BiPoint, lo: int, hi: int, n: int,
                        right: str) -> str:
    """``(p)^- u . v`` and then ``right``: u is x_lo..x_0, v is x_1..x_hi,
    and p the n cells before lo, so the period is read in the phase next
    to u."""
    cells = x.window(lo - n, hi)
    p, u, v = cells[:n], cells[n: n + 1 - lo], cells[n + 1 - lo:]
    return "(%s)^- %s. %s%s" % (
        format_letters(p),
        (format_letters(u) + " ") if u else "",
        (format_letters(v) + " ") if v else "",
        right)


_ONE_RE = re.compile(r"^([^.()#]*?)\s*(?:#|\.?\s*\(\s*([^)]*?)\s*\)\^\+)$")


def parse_one_point(text: str) -> OnePoint:
    """Parse one-sided syntax: ``@``, ``u #``, or ``u . (p)^+``."""
    s = text.strip()
    if s == "@":
        return ONE_EMPTY
    m = _ONE_RE.match(s)
    if not m:
        raise ParseError("bad one-sided point syntax: %r" % text)
    u = parse_letters(m.group(1))
    if m.group(2) is None:
        return one_finite(u)
    return make_one_infinite(u, parse_letters(m.group(2)))


def format_one_point(z: OnePoint) -> str:
    if isinstance(z, OneEmpty):
        return "@"
    if isinstance(z, OneFinite):
        return "%s #" % format_letters(z.word)
    if not isinstance(z, OneInfinite):
        raise ShiftError("cannot format %s as a one-sided point" % type(z).__name__)
    t = (format_letters(z.transient) + " ") if z.transient else ""
    return "%s. (%s)^+" % (t, format_letters(z.period))
