"""Pseudo cylinders, finitely defined sets, and sliding block codes.

A sliding block code is given by a bounded window (memory k, anticipation
l) and a total local rule.  Rules are written as ordered clause lists over
window patterns (letters, ``*`` for any non-empty letter, ``_`` for the
empty letter) with outputs that are a fixed letter, a copy of one window
position, or the empty letter; the first matching clause wins, a default
clause closes the table.  Totality makes the preimage classes {C_a} a
partition by construction; shift invariance of the empty class is checked
at build time over abstract windows.

Clause windows and pseudo cylinders are matched by the one window matcher
:func:`twoshift.words.pattern_matches`: ``*`` is :data:`~twoshift.words.STAR`,
``_`` is ø, and the free cells of pseudo cylinders are
:data:`~twoshift.words.ANY`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import NotShiftInvariantEmptyClass, ParseError, ShiftError
from .points import (BiPoint, Empty, EMPTY_POINT, Finite, Infinite,
                     constant_point, make_infinite)
from .words import (ANY, EMPTY, canonicalize_ray, parse_letters,
                    pattern_matches)


@dataclass(frozen=True)
class PseudoCylinder:
    """[b]_k^l: points whose window [k, l] equals b (ANY cells are free)."""

    cells: tuple
    start: int

    @property
    def end(self) -> int:
        return self.start + len(self.cells) - 1

    def __str__(self) -> str:
        body = " ".join("?" if c is ANY else ("_" if c is EMPTY else str(c))
                        for c in self.cells)
        return "[%s]_%d^%d" % (body, self.start, self.end)


def pseudo_contains(p: PseudoCylinder, x: BiPoint) -> bool:
    return pattern_matches(p.cells, x.window(p.start, p.end))


def pseudo_intersect(a: PseudoCylinder, b: PseudoCylinder) -> List[PseudoCylinder]:
    """Intersection as a (possibly empty) list of pseudo cylinders.

    Overlapping windows unify cell by cell; disjoint windows concatenate
    with a symbolic any-letter gap instead of enumerating fillers.
    """
    lo = min(a.start, b.start)
    hi = max(a.end, b.end)
    cells = []
    for pos in range(lo, hi + 1):
        vals = []
        for p in (a, b):
            if p.start <= pos <= p.end:
                v = p.cells[pos - p.start]
                if v is not ANY:
                    vals.append(v)
        if not vals:
            cells.append(ANY)
        elif len(vals) == 1 or vals[0] == vals[1] or (
                vals[0] is EMPTY and vals[1] is EMPTY):
            cells.append(vals[0])
        else:
            return []
    return [PseudoCylinder(tuple(cells), lo)]


@dataclass(frozen=True)
class FinitelyDefinedSet:
    """Set decided by a bounded window: both it and its complement are
    unions of pseudo cylinders."""

    window_lo: int
    window_hi: int
    decide: Callable[[tuple], bool]
    mentioned: frozenset

    def width(self) -> int:
        return self.window_hi - self.window_lo + 1


def fds_from_pseudo(p: PseudoCylinder) -> FinitelyDefinedSet:
    ment = frozenset(c for c in p.cells if isinstance(c, int))
    return FinitelyDefinedSet(p.start, p.end,
                              lambda win: pattern_matches(p.cells, win), ment)


def fds_contains(s: FinitelyDefinedSet, x: BiPoint) -> bool:
    return s.decide(x.window(s.window_lo, s.window_hi))


def fds_combine(op: str, *sets: FinitelyDefinedSet) -> FinitelyDefinedSet:
    if op == "complement":
        (s,) = sets
        return FinitelyDefinedSet(s.window_lo, s.window_hi,
                                  lambda w: not s.decide(w), s.mentioned)
    lo = min(s.window_lo for s in sets)
    hi = max(s.window_hi for s in sets)
    agg = any if op == "union" else all
    if op not in ("union", "intersection"):
        raise ValueError("unknown combination %r" % op)

    def decide(win: tuple) -> bool:
        return agg(s.decide(win[s.window_lo - lo:
                                s.window_lo - lo + s.width()]) for s in sets)

    ment = frozenset().union(*(s.mentioned for s in sets))
    return FinitelyDefinedSet(lo, hi, decide, ment)


def _abstract_windows(mentioned, width: int, fresh_per_pos: bool = False):
    """Closure-valid windows over mentioned letters, fresh stand-ins, and ø."""
    base = max(mentioned, default=-1) + 1
    letters = sorted(mentioned)

    def rec(prefix: tuple):
        i = len(prefix)
        if i == width:
            yield prefix
            return
        if prefix and prefix[-1] is EMPTY:
            yield from rec(prefix + (EMPTY,))
            return
        fresh = base + i if fresh_per_pos else base
        for c in letters + [fresh]:
            yield from rec(prefix + (c,))
        yield from rec(prefix + (EMPTY,))

    yield from rec(())


def fds_equal(s: FinitelyDefinedSet, t: FinitelyDefinedSet) -> bool:
    """Table comparison over abstract windows on the hull."""
    lo = min(s.window_lo, t.window_lo)
    hi = max(s.window_hi, t.window_hi)
    ment = s.mentioned | t.mentioned
    for w in _abstract_windows(ment, hi - lo + 1):
        sv = s.decide(w[s.window_lo - lo: s.window_lo - lo + s.width()])
        tv = t.decide(w[t.window_lo - lo: t.window_lo - lo + t.width()])
        if sv != tv:
            return False
    return True


# ---------------------------------------------------------------------------
# sliding block codes

LETTER = "letter"
COPY = "copy"
OUT_EMPTY = "empty"


@dataclass(frozen=True)
class SlidingBlockCode:
    memory: int
    anticipation: int
    rule: Callable[[tuple], object]
    clauses: Optional[tuple]  # ((cells, output), ...) or None when composed
    default: Optional[tuple]
    mentioned: frozenset

    @property
    def width(self) -> int:
        return self.memory + self.anticipation + 1


def sbc_build(memory: int, anticipation: int,
              clauses: Sequence[Tuple[Sequence, Tuple]],
              default: Tuple) -> SlidingBlockCode:
    """Validate and compile a clause list into a sliding block code.

    Outputs are ("letter", a), ("copy", j) with j an offset in
    [-memory, anticipation] relative to the evaluation index, or
    ("empty",).
    """
    width = memory + anticipation + 1
    table = []
    ment = set()
    for cells, out in list(clauses) + [(None, default)]:
        if cells is not None:
            cells = tuple(cells)
            if len(cells) != width:
                raise ParseError("clause window %r has width %d, need %d"
                                 % (cells, len(cells), width))
            ment |= {c for c in cells if isinstance(c, int)}
        if out[0] == COPY:
            if not -memory <= out[1] <= anticipation:
                raise ParseError("copy offset %d outside window" % out[1])
        elif out[0] == LETTER:
            ment.add(out[1])
        elif out[0] != OUT_EMPTY:
            raise ParseError("bad output %r" % (out,))
        if cells is not None:
            table.append((cells, out))
    dflt = default

    def rule(win: tuple):
        for cells, out in table:
            if pattern_matches(cells, win):
                return _emit(out, win, memory)
        return _emit(dflt, win, memory)

    code = SlidingBlockCode(memory, anticipation, rule, tuple(table), dflt,
                            frozenset(ment))
    _check_empty_class(code)
    return code


def _emit(out: tuple, win: tuple, memory: int):
    if out[0] == LETTER:
        return out[1]
    if out[0] == OUT_EMPTY:
        return EMPTY
    return win[memory + out[1]]


def _check_empty_class(code: SlidingBlockCode) -> None:
    """C_ø must be closed under the shift: an empty output forces empty
    outputs at every later index of any valid point."""
    ment = code.mentioned
    base = max(ment, default=-1) + 1
    letters = sorted(ment) + [base]
    for win in _abstract_windows(ment, code.width):
        if code.rule(win) is not EMPTY:
            continue
        nexts = [EMPTY] if win[-1] is EMPTY else letters + [EMPTY]
        for c in nexts:
            succ = win[1:] + (c,)
            if code.rule(succ) is not EMPTY:
                raise NotShiftInvariantEmptyClass(
                    "window %r maps to the empty letter but its successor %r "
                    "does not" % (win, succ))


def sbc_apply(code: SlidingBlockCode, x: BiPoint) -> BiPoint:
    """Apply the code: (Φx)_n = rule(x_{n-k} ... x_{n+l}), all n read
    from one window of x."""
    k, l, w = code.memory, code.anticipation, code.width

    def outs(cells: tuple) -> tuple:
        return tuple(code.rule(cells[i: i + w])
                     for i in range(len(cells) - w + 1))

    if isinstance(x, Empty):
        o = code.rule((EMPTY,) * w)
        return EMPTY_POINT if o is EMPTY else constant_point(o)

    if isinstance(x, Infinite):
        p, q = x.left_period, x.right_period
        a = x.body_start - l - len(p)
        b = x.body_start + len(x.body) + k + len(q)
        out = outs(x.window(a - len(p) - k, b + len(q) + l))
        pl, mids = out[:len(p)], out[len(p): len(out) - len(q)]
        pr = out[len(out) - len(q):]
        if EMPTY in pl:
            return EMPTY_POINT
        if EMPTY in pr:
            mids = mids + pr
        if EMPTY in mids:
            n0 = a + mids.index(EMPTY)
            return Finite(canonicalize_ray(pl, mids[:n0 - a], n0 - 1))
        return make_infinite(pl, mids, pr, a)

    if not isinstance(x, Finite):
        raise ShiftError("cannot apply a code to %s" % type(x).__name__)
    ray = x.ray
    kx = ray.end_index
    a = kx - len(ray.transient) - l - len(ray.period)
    b = kx + k
    out = outs(x.window(a - len(ray.period) - k, b + l))
    pl, mids = out[:len(ray.period)], out[len(ray.period):]
    oe = code.rule((EMPTY,) * w)  # far right: the all-empty window
    if oe is not EMPTY:
        if EMPTY in pl or EMPTY in mids:
            raise NotShiftInvariantEmptyClass(
                "the image has the empty letter left of a letter")
        return make_infinite(pl, mids, (oe,), a)
    if EMPTY in pl:
        return EMPTY_POINT
    if EMPTY in mids:
        n0 = a + mids.index(EMPTY)
        if n0 == a and not pl:
            return EMPTY_POINT
        return Finite(canonicalize_ray(pl, mids[:n0 - a], n0 - 1))
    return Finite(canonicalize_ray(pl, mids, b))


def sbc_compose(f: SlidingBlockCode, g: SlidingBlockCode) -> SlidingBlockCode:
    """The code x -> f(g(x)); memory and anticipation add."""
    k = f.memory + g.memory
    l = f.anticipation + g.anticipation
    wg = g.width
    wf = f.width

    def rule(win: tuple):
        mid = tuple(g.rule(win[i: i + wg]) for i in range(wf))
        return f.rule(mid)

    return SlidingBlockCode(k, l, rule, None, None, f.mentioned | g.mentioned)


# ---------------------------------------------------------------------------
# continuity sufficient condition


@dataclass(frozen=True)
class ContinuityReport:
    passes: bool
    reason: Optional[str]
    classes: tuple


def check_continuity_sufficient(code: SlidingBlockCode) -> ContinuityReport:
    """Sufficient homeomorphism-hypothesis check.

    Passes when the empty point maps to the empty point and every nonempty
    preimage class C_a is a single full-width window with concrete cells
    (one wildcard allowed exactly at the copied position for letter-copying
    classes) ending in a non-empty letter.  A failed check does not assert
    discontinuity; the shift itself fails it.
    """
    ment = code.mentioned
    base = max(ment, default=-1) + 1
    width = code.width
    fresh = tuple(base + i for i in range(width))
    letter_cls = {}
    copy_cls = []
    for win in _abstract_windows(ment, width, fresh_per_pos=True):
        o = code.rule(win)
        if o is EMPTY:
            continue
        if all(c is EMPTY for c in win):
            return ContinuityReport(
                False, "the empty point does not map to the empty point", ())
        if o in fresh:
            copy_cls.append((win, fresh.index(o)))
        else:
            letter_cls.setdefault(o, []).append(win)
    cert = []
    for a in sorted(letter_cls):
        wins = letter_cls[a]
        if len(wins) > 1:
            return ContinuityReport(
                False, "C_%d not a single pseudo cylinder" % a, ())
        win = wins[0]
        if any(c in fresh for c in win):
            return ContinuityReport(
                False, "C_%d window contains a wildcard cell" % a, ())
        if win[-1] is EMPTY:
            return ContinuityReport(
                False, "C_%d window ends with the empty letter" % a, ())
        cert.append((a, win))
    if copy_cls:
        if len(copy_cls) > 1:
            return ContinuityReport(
                False, "C_a not a single pseudo cylinder", ())
        win, pos = copy_cls[0]
        if any(c in fresh for i, c in enumerate(win) if i != pos):
            return ContinuityReport(
                False, "C_a window contains a wildcard cell", ())
        if win[-1] is EMPTY:
            return ContinuityReport(
                False, "C_a window ends with the empty letter", ())
        cert.append(("copy", win, pos))
    return ContinuityReport(True, None, tuple(cert))


# ---------------------------------------------------------------------------
# rule file parsing

def _output_letter(v) -> int:
    if isinstance(v, str) and v.isascii() and v.isdigit():
        return int(v)
    if type(v) is int and v >= 0:
        return v
    raise ParseError("bad output %r" % (v,))


def parse_output(text_or_obj) -> tuple:
    """A clause output: a letter (``3``, ``"3"`` or ``{"letter": 3}``),
    ``"copy j"``, or ``"empty"`` (also ``"_"``)."""
    if isinstance(text_or_obj, dict):
        return (LETTER, _output_letter(text_or_obj.get("letter")))
    s = text_or_obj.strip() if isinstance(text_or_obj, str) else text_or_obj
    if s in ("empty", "_"):
        return (OUT_EMPTY,)
    m = isinstance(s, str) and re.fullmatch(r"copy\s+(-?[0-9]+)", s)
    return (COPY, int(m.group(1))) if m else (LETTER, _output_letter(s))


def code_from_json(data) -> SlidingBlockCode:
    """Rule file: ``memory``, ``anticipation``, ``clauses``, ``default``;
    a malformed shape is a ParseError."""
    if not isinstance(data, dict):
        raise ParseError("a rule must be a JSON object")
    for key in ("memory", "anticipation"):
        if type(data.get(key)) is not int or data[key] < 0:
            raise ParseError("%s must be a nonnegative integer" % key)
    clauses = data.get("clauses", [])
    if not isinstance(clauses, list) or not all(
            isinstance(cl, dict) and isinstance(cl.get("window"), str)
            and "output" in cl for cl in clauses):
        raise ParseError("clauses must be a list of window/output objects")
    return sbc_build(data["memory"], data["anticipation"],
                     [(parse_letters(cl["window"]), parse_output(cl["output"]))
                      for cl in clauses],
                     parse_output(data.get("default", "empty")))
