"""Finite-alphabet language queries against a brute-force de Bruijn oracle.

The oracle works on raw patterns and bounded pattern-free extensions only.
Its states are the (big-1)-letter words, and it uses the pumping bound: a
pattern-free word that passes through more states than exist repeats one,
so the repeated stretch can be pumped into an infinite walk.  It shares
no code with the library's state graph.
"""

import itertools
import json
import random

import pytest

from conftest import random_pattern
from twoshift.bridge import (OneSpec, one_blocks, one_is_minimal,
                             one_word_in_language)
from twoshift.cli import main
from twoshift.errors import FiniteAlphabetTails
from twoshift.points import EMPTY_POINT, parse_point
from twoshift.spaces import inf_infinite as one_inf_infinite
from twoshift.spaces import (ForbiddenSpec, blocks, contains, inf_infinite,
                             inf_nonempty, is_minimal, make_spec,
                             ray_in_language, word_in_language)
from twoshift.words import EMPTY, STAR, canonicalize_ray, parse_ray


class DeBruijnOracle:
    """Language of a pattern-only spec over a finite alphabet, decided by
    bounded searches for pattern-free extensions."""

    def __init__(self, patterns, alphabet, allow=None) -> None:
        self.patterns = [tuple(p) for p in patterns]
        self.letters = sorted(alphabet)
        self.big = max((len(p) for p in self.patterns), default=1)
        self.n = self.big - 1                       # state length
        self.states = len(self.letters) ** self.n
        # Long enough to pass through more states than exist.
        self.depth = self.states + self.n
        self.right_memo, self.left_memo = {}, {}
        self.allowed_ends = None
        if allow is not None:
            self.allowed_ends = self._allowed_ends(allow)

    def free(self, seq) -> bool:
        """No pattern matches any window of seq."""
        return not any(
            all(c is STAR or c == seq[i + j] for j, c in enumerate(p))
            for p in self.patterns for i in range(len(seq) - len(p) + 1))

    def _extends(self, seq, k, right) -> bool:
        """Is there a pattern-free extension by k letters on that side?"""
        if k == 0:
            return True
        for a in self.letters:
            nxt = seq + (a,) if right else (a,) + seq
            edge = nxt[-self.big:] if right else nxt[:self.big]
            if self.free(edge) and self._extends(nxt, k - 1, right):
                return True
        return False

    def right_ok(self, s) -> bool:
        if s not in self.right_memo:
            self.right_memo[s] = self.free(s) and \
                self._extends(s, self.depth, True)
        return self.right_memo[s]

    def left_ok(self, s) -> bool:
        if self.allowed_ends is not None:
            return s in self.allowed_ends
        if s not in self.left_memo:
            self.left_memo[s] = self.free(s) and \
                self._extends(s, self.depth, False)
        return self.left_memo[s]

    def _allowed_ends(self, allow):
        """States ending some word a^r c with a allowed, a^inf
        pattern-free and c a connector no longer than the state count."""
        ends = set()
        for a in allow:
            if not set(a) <= set(self.letters):
                continue
            base = tuple(a) * (self.big + self.n + 1)
            if not self.free(base):
                continue
            for m in range(self.states + 1):
                for c in itertools.product(self.letters, repeat=m):
                    seq = base + c
                    if self.free(seq):
                        ends.add(seq[len(seq) - self.n:])
        return ends

    def _tail(self, seq):
        return seq[len(seq) - self.n:]

    def word(self, w) -> bool:
        """Some point holds w: a state with a long pattern-free past, then
        w, then a long pattern-free future."""
        w = tuple(w)
        if not set(w) <= set(self.letters):
            return False
        return any(self.left_ok(s) and self.free(s + w)
                   and self.right_ok(self._tail(s + w))
                   for s in itertools.product(self.letters, repeat=self.n))

    def ray(self, period, transient, allow=None) -> bool:
        if not set(period) | set(transient) <= set(self.letters):
            return False
        if allow is not None and min(
                period[i:] + period[:i] for i in range(len(period))) \
                not in allow:
            return False
        seq = tuple(period) * (self.big + self.n + 1) + tuple(transient)
        return self.free(seq) and self.right_ok(self._tail(seq))

    def one_word(self, w) -> bool:
        """A one-sided point starts with w."""
        w = tuple(w)
        if not (set(w) <= set(self.letters) and self.free(w)):
            return False
        if len(w) >= self.n:
            return self.right_ok(self._tail(w))
        return self._extends(w, self.depth, True)

    def infinite(self, member) -> bool:
        """A finite space has at most as many points as states, so at most
        that many blocks of each length; by Morse-Hedlund, a space with at
        most m blocks of some length m >= 1 is finite."""
        level, m = ([()] if member(()) else []), 0
        while True:
            m += 1
            level = [w + (a,) for w in level for a in self.letters
                     if member(w + (a,))]
            if len(level) > self.states:
                return True
            if len(level) <= m:
                return False


def cycle_spec(k):
    ok = {(i, (i + 1) % k) for i in range(k)}
    return make_spec(forbid_words=[(a, b) for a in range(k) for b in range(k)
                                   if (a, b) not in ok], alphabet=range(k))


def random_finite_spec(rng):
    k = rng.choice((2, 2, 3, 3, 4))
    max_len = {2: 3, 3: 3, 4: 2}[k]
    # letter k lies outside the alphabet; patterns may still mention it
    pats = [random_pattern(rng, max_len, k + 1, 0.2)
            for _ in range(rng.randint(0, 3))]
    allow = None
    if rng.random() < 0.3:
        allow = [tuple(rng.randrange(k + 1) for _ in range(rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 2))]
    return make_spec(forbid_words=pats, allow_tails=allow, alphabet=range(k))


class TestCycleSpecs:
    def test_long_cycle_is_found(self):
        c4 = cycle_spec(4)
        assert word_in_language(c4, (0,))
        assert ray_in_language(c4, parse_ray("(0123)^-"))
        one = OneSpec(c4.patterns, c4.alphabet)
        assert one_word_in_language(one, (0, 1))
        assert is_minimal(c4) == (True, None)
        assert inf_nonempty(c4) and not inf_infinite(c4)
        assert blocks(c4, 3, 4) == {(0, 1, 2), (1, 2, 3), (2, 3, 0),
                                    (3, 0, 1)}

    def test_oracle_agrees_on_every_cycle_length(self):
        for k in range(2, 7):
            spec = cycle_spec(k)
            lang = DeBruijnOracle(spec.patterns, spec.alphabet)
            for w in itertools.product(range(k), repeat=2):
                assert word_in_language(spec, w) == lang.word(w), (k, w)


class TestGraphSize:
    def test_states_follow_the_patterns_not_the_alphabet(self):
        # On (big-1)-letter words these would be 8^5, 9^5 and 8^7 states.
        for pats, k, most in ((["012345"], 8, 6),
                              (["1****2", "3***4*", "5**6", "7*8"], 9, 660),
                              (["01234567"], 8, 8)):
            spec = make_spec(forbid_words=pats, alphabet=range(k))
            assert len(spec.language.succ) <= most, (pats, k)


class TestAllowlists:
    def test_allowed_period_of_a_forbidden_letter_leaves_nothing(self):
        spec = make_spec(forbid_words=["1"], allow_tails=["1"],
                         alphabet=[0, 1])
        assert not inf_nonempty(spec)
        assert not inf_infinite(spec)
        assert not word_in_language(spec, (0,))
        assert not ray_in_language(spec, parse_ray("(0)^-"))

    def test_allowed_period_must_be_the_tail(self):
        spec = make_spec(allow_tails=["01"], alphabet=[0, 1])
        assert ray_in_language(spec, parse_ray("(10)^- 1 1"))
        assert not ray_in_language(spec, parse_ray("(1)^-"))
        assert inf_infinite(spec)


class TestForbiddenTailsOnFiniteAlphabets:
    SPEC = make_spec(alphabet=[0], forbid_tails=["(0)^-"])

    def test_graph_queries_refuse(self):
        for query in (lambda s: inf_nonempty(s), lambda s: inf_infinite(s),
                      lambda s: word_in_language(s, (0,)),
                      lambda s: ray_in_language(s, parse_ray("(0)^-")),
                      lambda s: blocks(s, 2, 1),
                      lambda s: contains(s, EMPTY_POINT)):
            with pytest.raises(FiniteAlphabetTails):
                query(self.SPEC)

    def test_finite_points_need_no_graph(self):
        assert not contains(self.SPEC, parse_point("(0)^- . #"))
        assert not contains(self.SPEC, parse_point("(0)^- . (0)^+"))

    def test_cli_exits_2(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"alphabet": [0],
                                    "forbid_tails": ["(0)^-"]}))
        assert main(["space-check", str(path), "--point", "@"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestAgainstOracle:
    def test_random_specs(self):
        rng = random.Random(61)
        for _ in range(60):
            spec = random_finite_spec(rng)
            k = len(spec.alphabet)
            lang = DeBruijnOracle(spec.patterns, spec.alphabet, spec.allow)
            for n in range(4):
                for w in itertools.product(range(k + 1), repeat=n):
                    assert word_in_language(spec, w) == lang.word(w), \
                        (spec, w)
            for _ in range(12):
                ray = canonicalize_ray(
                    [rng.randrange(k + 1) for _ in range(rng.randint(1, 3))],
                    [rng.randrange(k) for _ in range(rng.randint(0, 2))])
                assert ray_in_language(spec, ray) == lang.ray(
                    ray.period, ray.transient, spec.allow), (spec, ray)
            assert inf_nonempty(spec) == lang.word(()), spec
            assert inf_infinite(spec) == lang.infinite(lang.word), spec

    def test_long_overlapping_patterns(self):
        # Patterns up to length 5 over two letters overlap themselves and
        # each other, so several partial matches are live at once.
        rng = random.Random(65)
        for _ in range(20):
            pats = [random_pattern(rng, 5, 2, 0.2)
                    for _ in range(rng.randint(1, 3))]
            allow = None
            if rng.random() < 0.3:
                allow = [tuple(rng.randrange(2)
                               for _ in range(rng.randint(1, 3)))
                         for _ in range(rng.randint(1, 2))]
            spec = make_spec(forbid_words=pats, allow_tails=allow,
                             alphabet=range(2))
            lang = DeBruijnOracle(spec.patterns, spec.alphabet, spec.allow)
            one = OneSpec(spec.patterns, spec.alphabet)
            one_lang = DeBruijnOracle(spec.patterns, spec.alphabet)
            for n in range(6):
                for w in itertools.product(range(2), repeat=n):
                    assert word_in_language(spec, w) == lang.word(w), \
                        (spec, w)
                    assert one_word_in_language(one, w) == \
                        one_lang.one_word(w), (one, w)
            for _ in range(12):
                ray = canonicalize_ray(
                    [rng.randrange(2) for _ in range(rng.randint(1, 3))],
                    [rng.randrange(2) for _ in range(rng.randint(0, 3))])
                assert ray_in_language(spec, ray) == lang.ray(
                    ray.period, ray.transient, spec.allow), (spec, ray)
            assert inf_nonempty(spec) == lang.word(()), spec
            assert inf_infinite(spec) == lang.infinite(lang.word), spec

    def test_random_one_sided_specs(self):
        rng = random.Random(62)
        for _ in range(60):
            spec = random_finite_spec(rng)
            one = OneSpec(spec.patterns, spec.alphabet)
            assert one == ForbiddenSpec(spec.patterns, alphabet=spec.alphabet)
            k = len(spec.alphabet)
            lang = DeBruijnOracle(spec.patterns, spec.alphabet)
            for n in range(5):
                for w in itertools.product(range(k + 1), repeat=n):
                    assert one_word_in_language(one, w) == lang.one_word(w), \
                        (one, w)
            assert one_inf_infinite(one) == lang.infinite(lang.one_word), one

    def test_one_sided_minimality_is_the_literal_definition(self):
        # Over the infinite alphabet, unmentioned letters may be renamed to
        # one another, so a word over the mentioned letters {0, 1} and two
        # fresh letters is a block iff it is one over those four letters.
        rng = random.Random(64)
        for _ in range(60):
            one = OneSpec(frozenset(random_pattern(rng, 3, 2, 0.3)
                                    for _ in range(rng.randint(1, 3))))
            lang = DeBruijnOracle(one.patterns, range(4))
            subwords = [(pat[o: o + n], pat) for pat in one.patterns
                        for n in range(1, len(pat))
                        for o in range(len(pat) - n + 1)]
            missing = [(inst, pat) for sub, pat in subwords
                       for inst in itertools.product(*[
                           range(4) if c is STAR else (c,) for c in sub])
                       if not lang.one_word(inst)]
            ok, witness = one_is_minimal(one)
            assert ok == (not missing), (one, missing)
            if not ok:
                assert not lang.one_word(witness[0]), (one, witness)

    def test_branching_before_every_cycle_is_not_infinite(self):
        # 0 may go to 1 or 2, each of which then repeats forever: four
        # one-sided points, and only the two constant ones two-sided.
        ok = {(0, 1), (0, 2), (1, 1), (2, 2)}
        pats = [(a, b) for a in range(3) for b in range(3)
                if (a, b) not in ok]
        assert not one_inf_infinite(OneSpec(frozenset(pats),
                                            frozenset(range(3))))
        assert not inf_infinite(make_spec(forbid_words=pats,
                                          alphabet=range(3)))

    def test_pruned_blocks_match_the_full_product(self):
        rng = random.Random(63)
        for _ in range(30):
            spec = random_finite_spec(rng)
            one = OneSpec(spec.patterns, spec.alphabet)
            cutoff = len(spec.alphabet) + 1
            for n in range(5):
                words = list(itertools.product(range(cutoff), repeat=n))
                want = {w for w in words if word_in_language(spec, w)}
                if n and inf_infinite(spec):
                    want.add((EMPTY,) * n)
                assert blocks(spec, n, cutoff) == want, (spec, n)
                assert one_blocks(one, n, cutoff) == {
                    w for w in words if one_word_in_language(one, w)}, \
                    (one, n)
