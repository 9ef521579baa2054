"""Shift spaces defined by finite forbidden specifications.

A :class:`ForbiddenSpec` finitely describes a forbidden set F = F' ∪ F'':
wildcard word patterns (F'), exact eventually periodic left tails (F''), an
optional allowlist of tail periods, and an optional finite alphabet
restriction.  The space X_F consists of the infinite points avoiding F
(with an allowed tail when the allowlist is present), the finite points
whose ending ray has an infinite first follower set inside the infinite
part, and the empty point when the infinite part is infinite.

Equal specs are one object (``==`` is ``is``), which holds its matcher
(:func:`twoshift.words.compile_patterns`), mentioned letters, longest
pattern length and language, each built once.  A point is expanded once
over every cell a pattern can see and handed to that matcher.

Language questions (is this word a block, is the space infinite) are
answered by :attr:`ForbiddenSpec.language`:

* over a finite alphabet, the spec's :class:`twoshift.automaton.StateGraph`.
  Forbidden tails are not on that graph yet, so such specs raise
  :class:`twoshift.errors.FiniteAlphabetTails`;
* over the infinite alphabet, a :class:`_Witnesses`: one witness point per
  query.  Letters outside the mentioned set are interchangeable, so a
  witness uses one fresh letter for everything unconstrained and is
  validated against the spec directly.

Both tests are exact, so the language is factor closed and blocks are
enumerated factor closed: B_m(X) grows from B_{m-1}(X) one letter at a
time, so the cost follows the output, not cutoff^n.

Equality of two spaces is a third exact decision when neither spec has an
allowlist: the N-blocks of the pattern-only parts over the letters either
spec names, plus one fresh letter, and then a cover check of the live
forbidden tails (:func:`equal_spaces`).  With an allowlist it stays a
bounded scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import Iterable, Optional

from .automaton import StateGraph
from .errors import (AllowlistUnsupported, CutoffTooSmall, FiniteAlphabetTails,
                     NotInLanguage, ParseError)
from .points import (BiPoint, Empty, Finite, Infinite, make_infinite)
from .words import (EMPTY, STAR, LeftRay, PatternSet, canonicalize_ray,
                    compile_patterns, format_pattern, parse_pattern,
                    parse_ray, pattern_matches, primitive_root, ray_append,
                    ray_equals_pattern_tail, ray_subword_occurrences,
                    rotations, words_conjugate)


def _least_rotation(word: tuple) -> tuple:
    return min(rotations(word))


_SPECS: dict = {}   # (patterns, rays, allow, alphabet) -> its one spec


@dataclass(frozen=True, eq=False)
class ForbiddenSpec:
    """A finite forbidden set, one object per value; see :func:`make_spec`."""

    patterns: frozenset = frozenset()
    rays: frozenset = frozenset()          # LeftRay, end index 0
    allow: Optional[frozenset] = None      # canonical primitive period words
    alphabet: Optional[frozenset] = None

    def __new__(cls, patterns=frozenset(), rays=frozenset(), allow=None,
                alphabet=None):
        key = (patterns, rays, allow, alphabet)
        return _SPECS.get(key) or _SPECS.setdefault(key, super().__new__(cls))

    @cached_property
    def mentioned(self) -> frozenset:
        out = set()
        for p in self.patterns:
            out |= {c for c in p if isinstance(c, int)}
        for r in self.rays:
            out |= r.letters()
        if self.allow:
            for a in self.allow:
                out |= set(a)
        return frozenset(out)

    @cached_property
    def matcher(self) -> PatternSet:
        return compile_patterns(self.patterns)

    @cached_property
    def max_pattern_len(self) -> int:
        return max((len(p) for p in self.patterns), default=1)

    @cached_property
    def all_wildcard(self) -> bool:
        """Is some pattern all wildcards?  It matches every window of
        letters, so no infinite point survives at all."""
        return any(all(c is STAR for c in p) for p in self.patterns)

    @cached_property
    def language(self):
        """The one object answering the language queries: the StateGraph
        over a finite alphabet (tails refused), else the witness points."""
        if self.alphabet is None:
            return _Witnesses(self)
        if self.rays:
            raise FiniteAlphabetTails(
                "forbidden tails over a finite alphabet are not supported")
        return StateGraph(self.patterns, self.alphabet, self.max_pattern_len,
                          self.allow)


def make_spec(forbid_words: Iterable = (), forbid_tails: Iterable = (),
              forbid_tails_containing: Iterable = (), allow_tails=None,
              alphabet=None) -> ForbiddenSpec:
    """Build a spec; words may be given as strings in the pattern syntax.

    A tail restriction "no tail contains w" is the same as forbidding w as a
    word, since every occurrence of w lies inside some tail; it is
    normalized into the pattern part here.
    """
    pats = set()
    for w in forbid_words:
        pats.add(parse_pattern(w) if isinstance(w, str) else tuple(w))
    for w in forbid_tails_containing:
        pats.add(parse_pattern(w) if isinstance(w, str) else tuple(w))
    rays = set()
    for r in forbid_tails:
        ray = parse_ray(r) if isinstance(r, str) else r
        rays.add(ray.shift_to(0))
    allow = None
    if allow_tails is not None:
        allow = frozenset(
            _least_rotation(primitive_root(
                parse_pattern(a) if isinstance(a, str) else tuple(a)))
            for a in allow_tails)
        if any(any(not isinstance(c, int) for c in a) for a in allow):
            raise ParseError("allowlist periods admit plain letters only")
    alpha = frozenset(alphabet) if alphabet is not None else None
    return ForbiddenSpec(frozenset(pats), frozenset(rays), allow, alpha)


def spec_to_json(spec: ForbiddenSpec) -> dict:
    out = {"forbid_words": sorted(format_pattern(p) for p in spec.patterns)}
    if spec.rays:
        out["forbid_tails"] = sorted(
            ("(%s)^- %s" % (format_pattern(r.period),
                            format_pattern(r.transient))).rstrip()
            for r in sorted(spec.rays,
                            key=lambda r: (r.period, r.transient)))
    if spec.allow is not None:
        out["allow_tails"] = sorted(format_pattern(a) for a in spec.allow)
    if spec.alphabet is not None:
        out["alphabet"] = sorted(spec.alphabet)
    return out


def spec_from_json(data) -> ForbiddenSpec:
    """Inverse of :func:`spec_to_json`; a malformed shape is a ParseError."""
    if not isinstance(data, dict):
        raise ParseError("a spec must be a JSON object")

    def strings(key):
        v = data.get(key, [])
        if not isinstance(v, list) or not all(isinstance(t, str) for t in v):
            raise ParseError("%s must be a list of strings" % key)
        return v

    alphabet = data.get("alphabet")
    if alphabet is not None and not (isinstance(alphabet, list) and all(
            type(a) is int and a >= 0 for a in alphabet)):
        raise ParseError("alphabet must be a list of nonnegative integers")
    return make_spec(strings("forbid_words"), strings("forbid_tails"),
                     strings("forbid_tails_containing"),
                     None if data.get("allow_tails") is None
                     else strings("allow_tails"), alphabet)


# ---------------------------------------------------------------------------
# direct validation of eventually periodic infinite points


def infinite_ok(spec: ForbiddenSpec, x: Infinite) -> bool:
    """Exact membership of a bi-infinite point in the infinite part of X_F."""
    if spec.alphabet is not None and not x.letters() <= spec.alphabet:
        return False
    big = spec.max_pattern_len
    lo = x.body_start - len(x.left_period) - big
    hi = x.body_start + len(x.body) + len(x.right_period) + big
    # Every window ending in [lo, hi] is scanned; the extra windows ending
    # left of lo lie in the left period and repeat windows scanned anyway.
    if spec.matcher.occurs_in(x.window(lo - big + 1, hi)):
        return False
    if spec.rays:
        pad = max(len(f.period) + len(f.transient) for f in spec.rays)
        k0 = x.body_start + len(x.body) + 2 * len(x.right_period) + pad + 1
        tail = x.tail_ray(k0)
        for f in spec.rays:
            if ray_equals_pattern_tail(tail, f):
                return False
    if spec.allow is not None:
        if not any(words_conjugate(x.left_period, a) for a in spec.allow):
            return False
    return True


def _one_sided_ok(spec: ForbiddenSpec, transient: tuple,
                  period: tuple) -> bool:
    """Does the one-sided point transient period period ... avoid every
    pattern?  Windows starting past the transient and one period repeat."""
    cells = transient + period * (2 + spec.max_pattern_len // len(period))
    return not spec.matcher.occurs_in(cells)


# ---------------------------------------------------------------------------
# witness search

def _fresh(spec: ForbiddenSpec, extra: Iterable[int] = ()) -> int:
    used = set(spec.mentioned) | set(extra)
    if spec.alphabet is not None:
        used |= set(spec.alphabet)
    return max(used, default=-1) + 1


@dataclass(frozen=True)
class _Witnesses:
    """The language of an infinite-alphabet spec, with the method names of
    :class:`twoshift.automaton.StateGraph`: each query builds witness points
    padded with a fresh letter and validates them against the spec."""

    spec: ForbiddenSpec

    def left_periods(self, f: int):
        """Candidate left periods for witness points: every rotation of every
        allowed period, or the fresh letter when tails are unconstrained."""
        if self.spec.allow is None:
            return [(f,)]
        return [r for base in sorted(self.spec.allow) for r in rotations(base)]

    def word(self, word: tuple) -> bool:
        spec = self.spec
        # Cheap necessary condition: no pattern occurs inside the word itself.
        if spec.matcher.occurs_in(word):
            return False
        # A fresh seam is the best possible witness: fresh cells are matched
        # only by wildcards, which also matched whatever they replaced, so
        # any valid witness stays valid after padding with the fresh letter.
        f = _fresh(spec, word)
        pad = (f,) * (spec.max_pattern_len - 1)
        return any(infinite_ok(spec, make_infinite(
            pl, pad + word + pad, (f,), 1)) for pl in self.left_periods(f))

    def ray(self, ray: LeftRay, gap: int = 0) -> bool:
        """Is the ray, then ``gap`` fresh letters, a left-infinite subblock?"""
        spec = self.spec
        f = _fresh(spec, ray.letters())
        pad = (f,) * (spec.max_pattern_len - 1 + gap)
        return infinite_ok(spec, make_infinite(
            ray.period, ray.transient + pad, (f,),
            ray.end_index - len(ray.transient) + 1))

    def one_word(self, w: tuple) -> bool:
        # Fresh padding is the best witness, and the point w f f ... has a
        # subset of the windows of f...f w f f ..., so no offset from the
        # left boundary can help.
        return _one_sided_ok(self.spec, w, (_fresh(self.spec, w),))

    def infinite(self) -> bool:
        spec = self.spec
        if spec.all_wildcard:
            return False
        if spec.allow is None:
            # A fresh constant point is valid, and fresh letters are
            # interchangeable, so the infinite part is infinite.
            return True
        # Allowed tails only: the space is infinite exactly when some valid
        # point is not fully periodic (its shift orbit is then infinite),
        # and replacing everything right of the periodic tail by a fresh
        # letter preserves validity, so one witness per period rotation
        # decides.
        f = _fresh(spec)
        return any(infinite_ok(spec, make_infinite(pl, (), (f,), 0))
                   for pl in self.left_periods(f))

    def nonempty(self) -> bool:
        spec = self.spec
        if spec.all_wildcard:
            return False
        if spec.allow is None or inf_infinite(spec):
            return True
        return any(infinite_ok(spec, make_infinite(p, (), p, 0))
                   for pl in sorted(spec.allow) for p in rotations(pl))


@lru_cache(maxsize=None)
def word_in_language(spec: ForbiddenSpec, word: tuple) -> bool:
    """Is the (ø-free) word a block of the infinite part of X_F?"""
    return spec.language.word(word)


@lru_cache(maxsize=None)
def ray_in_language(spec: ForbiddenSpec, ray: LeftRay) -> bool:
    """Is the ray a left-infinite subblock of the infinite part of X_F?"""
    return spec.language.ray(ray)


@lru_cache(maxsize=None)
def follower_infinite(spec: ForbiddenSpec, ray: LeftRay) -> bool:
    """Is the first follower set of the ray inside X_F^inf infinite?

    The mentioned set is finite, so the set is infinite exactly when some
    fresh letter follows the ray; fresh letters are interchangeable.
    """
    return spec.alphabet is None and spec.language.ray(ray, 1)


@lru_cache(maxsize=None)
def inf_infinite(spec: ForbiddenSpec) -> bool:
    """Is the infinite part of X_F an infinite set?"""
    return spec.language.infinite()


@lru_cache(maxsize=None)
def inf_nonempty(spec: ForbiddenSpec) -> bool:
    return spec.language.nonempty()


# ---------------------------------------------------------------------------
# membership and language


def contains(spec: ForbiddenSpec, x: BiPoint) -> bool:
    if isinstance(x, Infinite):
        return infinite_ok(spec, x)
    if isinstance(x, Empty):
        return inf_infinite(spec)
    return follower_infinite(spec, x.ray) and inf_infinite(spec)


def has_iep(spec: ForbiddenSpec, x: Finite) -> bool:
    """Does the finite point have infinitely many one-letter extensions
    inside the infinite part?"""
    return follower_infinite(spec, x.ray)


@lru_cache(maxsize=None)
def _finite_word_ok(spec: ForbiddenSpec, word: tuple) -> bool:
    """Does some finite point of X_F end exactly with this (ø-free) word?"""
    if spec.alphabet is not None or not inf_infinite(spec):
        return False
    f = _fresh(spec, word)
    pad = (f,) * (spec.max_pattern_len - 1)
    return any(follower_infinite(spec, canonicalize_ray(pl, pad + word, 0))
               for pl in spec.language.left_periods(f))


def _block_levels(member, n: int, letters: Iterable[int]) -> list:
    """[B_0, ..., B_n] over the given letters of the factor-closed language
    whose words satisfy ``member``.

    B_m grows from B_{m-1}: w is extended by a only when (w + a)[1:] is in
    B_{m-1}, so the cost follows the output, not |letters|^n.
    """
    if n < 0:
        raise ValueError("block length %d is negative" % n)
    letters = tuple(letters)
    levels = [{()} if member(()) else set()]
    for _ in range(n):
        prev = levels[-1]
        levels.append({w + (a,) for w in prev for a in letters
                       if (w + (a,))[1:] in prev and member(w + (a,))})
    return levels


def _check_cutoff(cutoff: int, mentioned: frozenset = frozenset()) -> None:
    """Refuse a listing cutoff below a mentioned letter, or a negative one."""
    least = max(mentioned, default=-1) + 1
    if cutoff < least:
        raise CutoffTooSmall("cutoff %d below %d (mentioned letters %s)"
                             % (cutoff, least, sorted(mentioned)))


def blocks(spec: ForbiddenSpec, n: int, cutoff: int) -> set:
    """B_n(X_F) restricted to letters below the cutoff (plus ø paddings)."""
    _check_cutoff(cutoff, spec.mentioned)
    levels = _block_levels(lambda w: word_in_language(spec, w), n,
                           range(cutoff))
    out = set(levels[n])
    # A finite point ending with w has w as a block.
    for m in range(1, n):
        out |= {w + (EMPTY,) * (n - m) for w in levels[m]
                if _finite_word_ok(spec, w)}
    if inf_infinite(spec):
        out.add((EMPTY,) * n)
    return out


def follower_set(spec: ForbiddenSpec, left, k: int = 1,
                 direction: str = "forward", cutoff: int = 8):
    """k-th follower (or predecessor) set of a word or left ray.

    Returns (set of words over letters < cutoff, infinite flag); the flag is
    exact, the listing is truncated at the cutoff.
    """
    _check_cutoff(cutoff)
    f = _fresh(spec, left.letters() if isinstance(left, LeftRay) else left)
    probe = sorted(spec.mentioned) + [f]
    if isinstance(left, LeftRay):
        if direction != "forward":
            raise ValueError("predecessor sets apply to finite words only")
        if not ray_in_language(spec, left):
            raise NotInLanguage("ray %s is not a left-infinite subblock" % (left,))
        member = lambda v: ray_in_language(spec, ray_append(left, v))
    else:
        w = tuple(left)
        if not word_in_language(spec, w):
            raise NotInLanguage("word %s is not a block" % (w,))
        if direction == "forward":
            member = lambda v: word_in_language(spec, w + v)
        else:
            member = lambda v: word_in_language(spec, v + w)
    listed = {v for v in itertools.product(range(cutoff), repeat=k) if member(v)}
    infinite = any(f in v and member(v)
                   for v in itertools.product(probe, repeat=k))
    return listed, infinite


# ---------------------------------------------------------------------------
# minimality


def _instances(pattern: tuple, mentioned, f: int):
    """All concrete instantiations of a wildcard pattern, one fresh letter
    standing in for every non-mentioned choice."""
    options = [[c] if isinstance(c, int) else sorted(mentioned) + [f]
               for c in pattern]
    return itertools.product(*options)


def _missing_subinstance(spec: ForbiddenSpec, member):
    """The first instance of a proper subword of a pattern that is not a
    block, as (instance, pattern), or None; ``member(spec, word)`` decides
    blocks, so both sides share this walk."""
    f = _fresh(spec)
    for pat in sorted(spec.patterns, key=str):
        for n in range(1, len(pat)):
            for o in range(len(pat) - n + 1):
                for inst in _instances(pat[o: o + n], spec.mentioned, f):
                    if not member(spec, inst):
                        return inst, pat
    return None


def _pattern_bad(spec: ForbiddenSpec, pattern: tuple) -> bool:
    """True iff no instance of the pattern is a block of X_F."""
    f = _fresh(spec, (c for c in pattern if isinstance(c, int)))
    return all(not word_in_language(spec, tuple(inst))
               for inst in _instances(pattern, spec.mentioned, f))


def _pattern_occurs_in(small: tuple, big_pat: tuple) -> bool:
    """Every instance of big_pat contains an instance of small."""
    n = len(small)
    return any(pattern_matches(small, big_pat[o: o + n])
               for o in range(len(big_pat) - n + 1))


def _ray_windows(ray: LeftRay, max_len: int):
    depth = len(ray.period) + len(ray.transient) + max_len
    cells = ray.expand(depth + max_len - 1)
    for n in range(1, max_len + 1):
        for end in range(len(cells), len(cells) - depth, -1):
            yield cells[end - n: end]


def is_minimal(spec: ForbiddenSpec):
    """Is every proper finite subblock of every forbidden object a block of
    X_F?  Returns (True, None) or (False, (offending word, parent))."""
    if spec.allow is not None:
        raise AllowlistUnsupported("minimality needs a pure forbidden list")
    missing = _missing_subinstance(spec, word_in_language)
    if missing is not None:
        return False, missing
    bound = spec.max_pattern_len + max(
        (len(r.period) + len(r.transient) for r in spec.rays), default=0)
    for r in sorted(spec.rays, key=lambda r: (r.period, r.transient)):
        for w in _ray_windows(r, bound):
            if not word_in_language(spec, w):
                return False, (w, r)
    return True, None


def minimalize(spec: ForbiddenSpec) -> ForbiddenSpec:
    """A minimal forbidden specification defining the same space.

    Each forbidden object is replaced by its minimal bad subwords: the
    shortest (partially specialized) subpatterns none of whose instances is
    a block of the original space.
    """
    if spec.allow is not None:
        raise AllowlistUnsupported("minimalize needs a pure forbidden list")
    mentioned = sorted(spec.mentioned)
    candidates = set()
    for pat in spec.patterns:
        for n in range(1, len(pat) + 1):
            for o in range(len(pat) - n + 1):
                sub = pat[o: o + n]
                # Wildcards may also be specialized to mentioned letters.
                options = [[c] if isinstance(c, int) else [STAR] + mentioned
                           for c in sub]
                for cand in itertools.product(*options):
                    candidates.add(tuple(cand))
    bound = spec.max_pattern_len + max(
        (len(r.period) + len(r.transient) for r in spec.rays), default=0)
    candidates.update(w for r in spec.rays for w in _ray_windows(r, bound))
    bad = {c for c in candidates if _pattern_bad(spec, c)}
    minimal = frozenset(c for c in bad if not any(
        d != c and _pattern_occurs_in(d, c) for d in bad))
    kept_rays = frozenset(r for r in spec.rays if all(
        ray_subword_occurrences(r, g).is_empty for g in minimal))
    return ForbiddenSpec(minimal, kept_rays, None, spec.alphabet)


# ---------------------------------------------------------------------------
# classification and comparison


@dataclass(frozen=True)
class Classification:
    row_finite: bool
    column_finite: bool
    m_step: Optional[int]
    finite_type: bool


def classify(spec: ForbiddenSpec) -> Classification:
    row = col = True
    if spec.alphabet is None:
        # Row (column) finite: no letter is followed (preceded) by a fresh
        # one, which stands for infinitely many.
        f = _fresh(spec)
        for a in sorted(spec.mentioned) + [f]:
            if word_in_language(spec, (a,)):
                row = row and not word_in_language(spec, (a, f))
                col = col and not word_in_language(spec, (f, a))
    if spec.rays or spec.allow is not None:
        m_step = None
    else:
        m_step = max(1, spec.max_pattern_len) - 1
    finite_type = (not spec.rays and spec.allow is None
                   and all(all(isinstance(c, int) for c in p)
                           for p in spec.patterns))
    return Classification(row, col, m_step, finite_type)


def equal_spaces(a: ForbiddenSpec, b: ForbiddenSpec, n_budget: int,
                 cutoff: int):
    """Is X_a = X_b?  Returns (True, None) or (False, witness block or ray).

    Without allowlists the answer is exact:

    * the pattern-only bases are (N-1)-step spaces, N the longest pattern
      of either spec, so each is fixed by its N-blocks.  Patterns cannot
      tell unmentioned letters apart, so the blocks over the letters
      either spec mentions or lists, plus one fresh letter when either
      alphabet is infinite, decide; the finite points and the empty point
      are functions of the infinite part.  The witness is the least
      differing word, by ``str``, of the shortest differing length;
    * when the bases agree, a forbidden tail r removes the points with a
      left tail r, none at all when r is not a ray of the base.  So the
      spaces are equal iff every such live tail of each spec has a
      sub-tail forbidden by the other.  Otherwise the least uncovered
      live tail, by period length, transient length and letters, is the
      witness ray: the point r followed by a fresh letter lies in one
      space and not in the other.

    With an allowlist on either spec the comparison is bounded: blocks up
    to length ``n_budget`` and rays with period and transient up to
    ``n_budget``, over letters below ``cutoff``; (True, None) then means
    that no difference was found within the budget.
    """
    if n_budget < 0:
        raise ValueError("budget %d is negative" % n_budget)
    if a.allow is not None or b.allow is not None:
        return _equal_up_to_budget(a, b, n_budget, cutoff)
    if any(s.alphabet is not None and s.rays for s in (a, b)):
        raise FiniteAlphabetTails(
            "forbidden tails over a finite alphabet are not supported")
    base_a, base_b = (replace(s, rays=frozenset()) for s in (a, b))
    if base_a != base_b:
        letters = set(a.mentioned | b.mentioned)
        for s in (a, b):
            letters |= s.alphabet or set()
        if a.alphabet is None or b.alphabet is None:
            letters.add(max(letters, default=-1) + 1)
        n = max(a.max_pattern_len, b.max_pattern_len)
        la, lb = (_block_levels(partial(word_in_language, base), n,
                                sorted(letters))
                  for base in (base_a, base_b))
        for x, y in zip(la[1:], lb[1:]):
            if x != y:
                return False, min(x ^ y, key=str)
    uncovered = [r for s, base, other in ((a, base_a, b), (b, base_b, a))
                 for r in s.rays if ray_in_language(base, r)
                 and not any(ray_equals_pattern_tail(r, g)
                             for g in other.rays)]
    if uncovered:
        return False, min(uncovered, key=lambda r: (
            len(r.period), len(r.transient), r.period, r.transient))
    return True, None


def _equal_up_to_budget(a: ForbiddenSpec, b: ForbiddenSpec, n_budget: int,
                        cutoff: int):
    """Bounded comparison: (True, None) when no difference is found within
    the budget, else (False, witness block or ray)."""
    for n in range(1, n_budget + 1):
        ba, bb = blocks(a, n, cutoff), blocks(b, n, cutoff)
        if ba != bb:
            return False, sorted(ba ^ bb, key=str)[0]
    seen = set()
    for plen in range(1, n_budget + 1):
        for tlen in range(0, n_budget + 1):
            for per in itertools.product(range(cutoff), repeat=plen):
                for tr in itertools.product(range(cutoff), repeat=tlen):
                    ray = canonicalize_ray(per, tr, 0)
                    if ray in seen:
                        continue
                    seen.add(ray)
                    if ray_in_language(a, ray) != ray_in_language(b, ray):
                        return False, ray
    return True, None
