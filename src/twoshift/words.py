"""Letters, finite words, wildcard patterns, and eventually periodic left rays.

Letters are nonnegative integers.  The empty letter (rendered ``_``) is the
module-level sentinel :data:`EMPTY`; it never belongs to an alphabet and only
shows up as padding at the right end of words.  The pattern wildcard
(rendered ``*``) is :data:`STAR` and matches exactly one non-empty letter;
the gap wildcard :data:`ANY` (rendered ``?``) matches any cell, ø included.

Two primitives match cells: :func:`pattern_matches` tests one window against
one row of pattern cells (patterns, rule clauses, pseudo cylinders), and a
:class:`PatternSet` scans cells for an occurrence of any of its patterns.

A left ray represents a left-infinite, eventually periodic sequence
``...ppp.t`` whose last entry sits at a fixed integer index.  Rays are kept
in a canonical form (primitive period, minimal transient, fixed phase) so
that equality of rays is equality of the sequences they denote.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import EmptyLetterInRay, EmptyPeriod, ParseError


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: The empty letter (the padding symbol at the right end of finite points).
EMPTY = _Sentinel("_")

#: Pattern wildcard matching any single non-empty letter.
STAR = _Sentinel("*")

#: Gap wildcard matching any single cell, the empty letter included.
ANY = _Sentinel("?")

Letter = int
Cell = Union[int, _Sentinel]
Pattern = tuple  # tuple of letters / STAR


def primitive_root(word: Sequence[int]) -> tuple:
    """Shortest word w such that the input is a repetition of w."""
    w = tuple(word)
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d]
    return w


def rotations(word: Sequence[int]):
    w = tuple(word)
    return [w[i:] + w[:i] for i in range(len(w))]


def words_conjugate(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff the primitive roots of a and b are rotations of each other."""
    pa, pb = primitive_root(a), primitive_root(b)
    return len(pa) == len(pb) and pb in rotations(pa)


def _canonical_eventual(pre: tuple, per: tuple):
    """Canonicalize a right-infinite eventually periodic word pre . per^inf.

    Returns (pre', per') with per' primitive and pre' minimal: the last
    letter of pre' differs from the last letter of per'.
    """
    per = primitive_root(per)
    pre = tuple(pre)
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = (per[-1],) + per[:-1]
    return pre, per


@dataclass(frozen=True)
class LeftRay:
    """Eventually periodic left-infinite sequence ending at ``end_index``.

    Denotes (x_i)_{i <= end_index} = ...ppp.t where ``transient`` holds the
    last ``len(transient)`` entries and ``period`` repeats before them.
    Construct through :func:`canonicalize_ray`; direct construction assumes
    canonical fields.
    """

    period: tuple
    transient: tuple
    end_index: int

    def __getitem__(self, i: int) -> int:
        """Entry of the denoted sequence at absolute index ``i <= end_index``."""
        j = self.end_index - i
        if j < 0:
            raise IndexError("index %d is right of the ray end %d" % (i, self.end_index))
        t = self.transient
        if j < len(t):
            return t[len(t) - 1 - j]
        j -= len(t)
        p = self.period
        return p[len(p) - 1 - (j % len(p))]

    def expand(self, depth: int) -> tuple:
        """The last ``depth`` entries, oldest first."""
        t, p = self.transient, self.period
        reps = max(depth - len(t), 0) // len(p) + 1
        return (p * reps + t)[len(p) * reps + len(t) - depth:]

    def letters(self) -> frozenset:
        return frozenset(self.period) | frozenset(self.transient)

    def shift_to(self, end_index: int) -> "LeftRay":
        """Same sequence of letters re-anchored to end at ``end_index``."""
        return LeftRay(self.period, self.transient, end_index)

    def __str__(self) -> str:
        return "(%s)^- %s@%d" % (
            format_letters(self.period),
            (format_letters(self.transient) + " ") if self.transient else "",
            self.end_index,
        )


def canonicalize_ray(period: Sequence[int], transient: Sequence[int] = (),
                     end_index: int = 0) -> LeftRay:
    """Unique canonical :class:`LeftRay` denoting ...period^inf . transient.

    Idempotent: canonicalizing the fields of a canonical ray returns an
    equal ray.
    """
    p = tuple(period)
    t = tuple(transient)
    if not p:
        raise EmptyPeriod("ray period must be nonempty")
    for c in p + t:
        if c is EMPTY:
            raise EmptyLetterInRay("empty letter cannot occur in a ray")
        if not isinstance(c, int) or c < 0:
            raise ValueError("bad letter in ray: %r" % (c,))
    # Reverse so the ray reads as a right-infinite eventually periodic word.
    rpre, rper = _canonical_eventual(t[::-1], p[::-1])
    return LeftRay(rper[::-1], rpre[::-1], end_index)


def ray_tail(ray: LeftRay, m: int) -> LeftRay:
    """Canonical sub-ray of ``ray`` ending at index ``m <= ray.end_index``."""
    d = ray.end_index - m
    if d < 0:
        raise IndexError("tail end %d is right of ray end %d" % (m, ray.end_index))
    t = ray.transient
    if d <= len(t):
        return canonicalize_ray(ray.period, t[: len(t) - d], m)
    d -= len(t)
    n = len(ray.period)
    r = d % n
    p = ray.period[n - r:] + ray.period[: n - r]
    return canonicalize_ray(p, (), m)


def ray_append(ray: LeftRay, word: Sequence[int]) -> LeftRay:
    """Canonical ray obtained by appending ``word`` to the right of ``ray``."""
    w = tuple(word)
    return canonicalize_ray(ray.period, ray.transient + w, ray.end_index + len(w))


@dataclass(frozen=True)
class OccurrenceSummary:
    """All end positions at which a pattern matches inside a left ray.

    ``finite`` lists isolated end positions; ``families`` lists ultimately
    periodic infinite families as (first end position, negative stride).
    """

    finite: tuple
    families: tuple

    @property
    def is_empty(self) -> bool:
        return not self.finite and not self.families

    def positions_down_to(self, lo: int):
        """Concrete end positions >= lo, descending (testing helper)."""
        out = set(p for p in self.finite if p >= lo)
        for first, stride in self.families:
            p = first
            while p >= lo:
                out.add(p)
                p += stride
        return sorted(out, reverse=True)


def pattern_matches(pattern: Sequence[Cell], window: Sequence[Cell]) -> bool:
    """Match pattern cells against a window of equal length, cell by cell.

    :data:`STAR` matches any letter but not ø, :data:`ANY` matches any
    cell, and any other cell (ø included) matches only itself.
    """
    if len(pattern) != len(window):
        return False
    for c, w in zip(pattern, window):
        if c is STAR:
            if w is EMPTY:
                return False
        elif c is not ANY and c != w:
            return False
    return True


class PatternSet:
    """A finite set of wildcard patterns compiled for scanning cell runs.

    Patterns are grouped by length and by the offsets of their fixed
    letters (all offsets for a concrete pattern).  A group is checked by set
    lookup of the letters each window holds at those offsets.  As in
    :func:`pattern_matches`, no pattern matches a window holding ø, so runs
    between ø cells are scanned apart.  Build through
    :func:`compile_patterns`.
    """

    __slots__ = ("_groups",)

    def __init__(self, patterns: Iterable[Pattern]) -> None:
        groups = {}
        for p in patterns:
            fixed = tuple(i for i, c in enumerate(p) if c is not STAR)
            groups.setdefault((len(p), fixed), set()).add(
                tuple(p[i] for i in fixed))
        self._groups = [(n, fixed, keys)
                        for (n, fixed), keys in groups.items()]

    def occurs_in(self, cells: Sequence[Cell]) -> bool:
        """Does some pattern match some window of the cells?"""
        cells = tuple(cells)
        if EMPTY not in cells:
            return self._scan(cells)
        start = 0
        for i, c in enumerate(cells + (EMPTY,)):
            if c is EMPTY:
                if self._scan(cells[start: i]):
                    return True
                start = i + 1
        return False

    def _scan(self, cells: tuple) -> bool:
        for n, fixed, keys in self._groups:
            m = len(cells) - n + 1  # number of windows
            if m <= 0:
                continue
            # zip yields, for each window, its letters at the fixed offsets.
            if not fixed or not keys.isdisjoint(
                    zip(*[cells[o: o + m] for o in fixed])):
                return True
        return False


def compile_patterns(patterns: Iterable[Pattern]) -> PatternSet:
    """Compile wildcard patterns once for repeated :meth:`PatternSet.occurs_in`."""
    return PatternSet(patterns)


def ray_subword_occurrences(ray: LeftRay, pattern: Pattern) -> OccurrenceSummary:
    """Classify all end positions j <= end_index where the pattern matches.

    Matches ending in the transient are listed individually; matches whose
    window lies entirely in the periodic part repeat with stride
    ``-len(period)`` and are reported as infinite families.
    """
    n, nt, np_ = len(pattern), len(ray.transient), len(ray.period)
    k = ray.end_index
    depth = nt + np_ + n - 1
    cells = ray.expand(depth)  # the window ending at k - d ends at depth - d
    hits = [d for d in range(nt + np_)
            if pattern_matches(pattern, cells[depth - d - n: depth - d])]
    return OccurrenceSummary(tuple(k - d for d in hits if d < nt),
                             tuple((k - d, -np_) for d in hits if d >= nt))


def ray_equals_pattern_tail(ray: LeftRay, forbidden: LeftRay) -> bool:
    """True iff ``forbidden`` denotes a tail of ``ray`` under some alignment.

    End indices are ignored: only the left-infinite letter sequences matter.
    Both rays must be canonical (as :func:`canonicalize_ray` builds them):
    their periods are then primitive, so a tail of ``ray`` equals
    ``forbidden`` only when the periods have the same length p, and then
    exactly when their last max(|ray.transient|, |forbidden.transient|) + p
    cells agree.  The tails ending in the transient or in one period of
    ``ray`` cover every tail.
    """
    p, t = len(ray.period), len(ray.transient)
    if len(forbidden.period) != p:
        return False
    n = max(t, len(forbidden.transient)) + p
    cells, want = ray.expand(t + p - 1 + n), forbidden.expand(n)
    return any(cells[d: d + n] == want for d in range(t + p))


# ---------------------------------------------------------------------------
# text syntax


def parse_letters(text: str) -> tuple:
    """Parse a run of letters: `011`, `0 1 12`, `0,1,12`, `12,`, `*2`, `1__`.

    Text without a separator is read one letter per character; text with a
    separator (a comma or a space) is read as multi-digit tokens, and empty
    tokens are dropped, so a lone wide letter is written `12,`.
    """
    text = text.strip()
    if not re.search(r"[,\s]", text):
        return tuple(_parse_cell(ch) for ch in text)
    return tuple(_parse_cell(tok) for tok in re.split(r"[,\s]+", text) if tok)


def _parse_cell(tok: str) -> Cell:
    if tok == "*":
        return STAR
    if tok == "_":
        return EMPTY
    if tok.isdigit():
        return int(tok)
    raise ParseError("bad letter token %r" % tok)


def format_letters(cells: Iterable[Cell]) -> str:
    """Inverse of :func:`parse_letters`; compact for single-digit alphabets.

    Cells containing a letter above 9 are separated by spaces, and a lone
    such letter gets a trailing comma, so that it reads back as one letter.
    """
    parts = []
    wide = False
    for c in cells:
        if c is STAR:
            parts.append("*")
        elif c is EMPTY:
            parts.append("_")
        else:
            parts.append(str(c))
            wide = wide or c > 9
    if not wide:
        return "".join(parts)
    return " ".join(parts) if len(parts) > 1 else parts[0] + ","


_RAY_RE = re.compile(r"^\(\s*([^)]*?)\s*\)\^-\s*([^@]*?)\s*(?:@\s*(-?\d+))?$")


def parse_ray(text: str) -> LeftRay:
    """Parse ray syntax ``(p)^- t @k``; a missing ``@k`` defaults to ``@0``."""
    m = _RAY_RE.match(text.strip())
    if not m:
        raise ParseError("bad ray syntax: %r" % text)
    period = parse_letters(m.group(1))
    transient = parse_letters(m.group(2))
    end = int(m.group(3)) if m.group(3) is not None else 0
    if any(c is STAR or c is EMPTY for c in period + transient):
        raise ParseError("rays admit plain letters only: %r" % text)
    return canonicalize_ray(period, transient, end)


def parse_pattern(text: str) -> Pattern:
    """Parse a wildcard pattern such as ``*2`` or ``11``."""
    cells = parse_letters(text)
    if not cells:
        raise ParseError("empty pattern")
    if any(c is EMPTY for c in cells):
        raise ParseError("patterns never match the empty letter: %r" % text)
    return cells


def format_pattern(pattern: Pattern) -> str:
    return format_letters(pattern)
