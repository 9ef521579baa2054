import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoshift.errors import EmptyPeriod, ParseError
from twoshift.words import (ANY, EMPTY, STAR, LeftRay, canonicalize_ray,
                            compile_patterns, format_letters, format_pattern,
                            parse_letters, parse_pattern, parse_ray,
                            pattern_matches, primitive_root, ray_append,
                            ray_equals_pattern_tail, ray_subword_occurrences,
                            ray_tail, rotations, words_conjugate)

words = st.lists(st.integers(0, 4), min_size=1, max_size=6).map(tuple)
small_ints = st.integers(-5, 5)
# Letters up to 1000, with single digits as likely as wide letters.
wide_letters = st.one_of(st.integers(0, 9), st.integers(10, 1000))
wide_words = st.lists(wide_letters, min_size=1, max_size=4).map(tuple)
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def expand(ray: LeftRay, lo: int) -> list:
    return [ray[i] for i in range(lo, ray.end_index + 1)]


class TestPrimitiveRoot:
    def test_examples(self):
        assert primitive_root((0, 1, 0, 1)) == (0, 1)
        assert primitive_root((0, 1, 1)) == (0, 1, 1)
        assert primitive_root((3,) * 5) == (3,)

    @given(words, st.integers(1, 3))
    def test_power_of_root_is_word(self, w, k):
        root = primitive_root(w * k)
        assert root * (len(w * k) // len(root)) == w * k

    @given(words)
    def test_root_is_primitive(self, w):
        root = primitive_root(w)
        for n in range(1, len(root)):
            assert root != root[:n] * (len(root) // max(n, 1)) or len(root) % n


class TestConjugacy:
    def test_rotations(self):
        assert set(rotations((0, 1, 2))) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}

    @given(words, words)
    def test_conjugate_iff_rotation_of_roots(self, a, b):
        expected = primitive_root(b) in rotations(primitive_root(a))
        assert words_conjugate(a, b) == expected

    @given(words, st.integers(0, 5))
    def test_word_conjugate_to_own_rotation_power(self, w, r):
        rot = w[r % len(w):] + w[:r % len(w)]
        assert words_conjugate(w, rot * 2)


class TestCanonicalRay:
    def test_absorbs_transient_into_period(self):
        # ...0101 01 @0 is the same sequence as ...0101 @0
        a = canonicalize_ray((0, 1), (0, 1), 0)
        b = canonicalize_ray((0, 1), (), 0)
        assert a == b

    def test_reduces_period(self):
        assert canonicalize_ray((2, 2), (), 0) == canonicalize_ray((2,), (), 0)

    def test_rejects_empty_period(self):
        with pytest.raises(EmptyPeriod):
            canonicalize_ray((), (), 0)

    @given(words, words, small_ints)
    def test_same_sequence_after_canonicalization(self, p, t, k):
        raw = LeftRay(p, t, k)
        can = canonicalize_ray(p, t, k)
        lo = k - len(t) - 3 * len(p) - 3 * len(can.period)
        assert expand(raw, lo) == expand(can, lo)

    @given(words, words, small_ints)
    def test_canonical_form_is_unique(self, p, t, k):
        can = canonicalize_ray(p, t, k)
        again = canonicalize_ray(can.period, can.transient, can.end_index)
        assert can == again

    @given(words, words, small_ints)
    def test_equal_expansions_get_equal_forms(self, p, t, k):
        a = canonicalize_ray(p, t, k)
        b = canonicalize_ray(p, p + t, k)  # same sequence, longer transient
        assert expand(a, k - 20) == expand(b, k - 20)
        assert a == b


class TestExpand:
    @given(words, words, small_ints, st.integers(0, 20))
    def test_matches_entrywise_read(self, p, t, k, depth):
        ray = canonicalize_ray(p, t, k)
        assert list(ray.expand(depth)) == expand(ray, k - depth + 1)


class TestRayTail:
    @given(words, words, small_ints, small_ints)
    def test_tail_agrees_with_parent(self, p, t, k, d):
        ray = canonicalize_ray(p, t, k)
        m = k - abs(d)
        tail = ray_tail(ray, m)
        assert tail.end_index == m
        assert expand(tail, m - 15) == [ray[i] for i in range(m - 15, m + 1)]

    @given(words, words, small_ints)
    def test_append_then_tail_restores(self, p, t, k):
        ray = canonicalize_ray(p, t, k)
        grown = ray_append(ray, (7, 8))
        assert grown.end_index == k + 2
        assert grown[k + 1] == 7 and grown[k + 2] == 8
        assert ray_tail(grown, k) == ray


class TestOccurrences:
    def test_pattern_in_period_recurs(self):
        ray = canonicalize_ray((0, 1), (2,), 0)
        occ = ray_subword_occurrences(ray, (0, 1))
        hits = occ.positions_down_to(-20)
        brute = [j for j in range(0, -21, -1)
                 if ray[j - 1] == 0 and ray[j] == 1]
        assert sorted(hits) == sorted(h for h in brute if h >= -20)
        assert not occ.is_empty

    def test_pattern_missing(self):
        ray = canonicalize_ray((0, 1), (), 0)
        assert ray_subword_occurrences(ray, (2, 2)).is_empty

    @given(words, words, st.lists(st.integers(0, 4), min_size=1,
                                  max_size=3).map(tuple))
    def test_matches_brute_force_scan(self, p, t, pat):
        ray = canonicalize_ray(p, t, 0)
        occ = ray_subword_occurrences(ray, pat)
        lo = -(len(p) + len(t) + len(pat) + 6)
        brute = [j for j in range(0, lo - 1, -1)
                 if all(ray[j - len(pat) + 1 + i] == c
                        for i, c in enumerate(pat))]
        assert sorted(occ.positions_down_to(lo)) == sorted(brute)


class TestTailEquality:
    @given(words, words, small_ints, small_ints)
    def test_matches_deep_window_comparison(self, p, t, k, d):
        ray = canonicalize_ray(p, t, k)
        forb = canonicalize_ray(p, t[:1], k + d)
        expected_any = False
        for j in range(k, k - len(t) - len(p) * len(forb.period) - 4, -1):
            shifted = forb.shift_to(j)
            depth = j - 3 * (len(p) + len(t) + len(forb.period)
                             + len(forb.transient)) - 3
            if all(ray[i] == shifted[i] for i in range(depth, j + 1)):
                expected_any = True
                break
        assert ray_equals_pattern_tail(ray, forb) == expected_any


def tail_scan(ray: LeftRay, forbidden: LeftRay) -> bool:
    """Oracle: canonicalize the tail of ``ray`` ending at each index of its
    transient and of one period before it, and compare each with
    ``forbidden``; every other tail repeats one of these."""
    k = ray.end_index
    lo = k - len(ray.transient) - len(ray.period) + 1
    key = (forbidden.period, forbidden.transient)
    return any((tail.period, tail.transient) == key
               for tail in (ray_tail(ray, m) for m in range(k, lo - 1, -1)))


class TestTailScanOracle:
    def _ray(self, rng, letters):
        p = tuple(rng.randrange(letters) for _ in range(rng.randint(1, 4)))
        t = tuple(rng.randrange(letters) for _ in range(rng.randint(0, 5)))
        return canonicalize_ray(p, t, rng.randint(-4, 4))

    def test_matches_tail_scan(self):
        rng = random.Random(401)
        kinds = {}
        differ = 0
        for i in range(4000):
            letters = rng.choice([2, 3])
            ray = self._ray(rng, letters)
            kind = i % 4
            if kind == 0:  # independent pairs, periods often differ in length
                forb = self._ray(rng, letters)
            elif kind == 1:  # a true tail, re-anchored
                m = ray.end_index - rng.randint(0, 8)
                forb = ray_tail(ray, m).shift_to(rng.randint(-4, 4))
            elif kind == 2:  # a true tail, one letter appended or altered
                tail = ray_tail(ray, ray.end_index - rng.randint(0, 6))
                t = tail.transient
                if t and rng.random() < 0.5:
                    t = t[:-1] + ((t[-1] + 1) % letters,)
                else:
                    t = t + (rng.randrange(letters),)
                forb = canonicalize_ray(tail.period, t, 0)
            else:  # the same period read twice with one letter changed
                per = ray.period * 2
                per = per[:-1] + ((per[-1] + 1) % letters,)
                forb = canonicalize_ray(per, ray.transient, 0)
            got = ray_equals_pattern_tail(ray, forb)
            assert got == tail_scan(ray, forb), (ray, forb)
            if kind == 1:
                assert got
            kinds.setdefault(kind, set()).add(got)
            differ += len(ray.period) != len(forb.period)
        assert kinds[0] == kinds[2] == {True, False}
        assert differ > 1000


class TestParsing:
    def test_compact_and_spaced(self):
        assert parse_letters("012") == (0, 1, 2)
        assert parse_letters("10 2 33") == (10, 2, 33)
        assert parse_pattern("*2") == (STAR, 2)
        assert format_pattern((STAR, 2)) == "*2"
        assert format_letters((1, EMPTY)) == "1_"

    def test_ray_round_trip(self):
        for text in ["(0)^- 1 @0", "(01)^- @-3", "(2)^- 0 1 @5"]:
            assert str(parse_ray(text)) == str(
                parse_ray(str(parse_ray(text))))

    def test_bad_input(self):
        with pytest.raises(ParseError):
            parse_ray("nonsense")

    @given(words, words, small_ints)
    def test_any_ray_survives_round_trip(self, p, t, k):
        ray = canonicalize_ray(p, t, k)
        assert parse_ray(str(ray)) == ray

    @given(wide_words, st.lists(wide_letters, max_size=4).map(tuple),
           small_ints)
    def test_wide_letters_survive_round_trip(self, p, t, k):
        ray = canonicalize_ray(p, t, k)
        assert parse_ray(str(ray)) == ray

    @given(st.lists(st.one_of(wide_letters, st.just(STAR)), min_size=1,
                    max_size=4).map(tuple))
    def test_any_pattern_survives_round_trip(self, pat):
        assert parse_pattern(format_pattern(pat)) == pat


class TestPatternMatching:
    def test_star_needs_a_letter(self):
        assert pattern_matches((STAR,), (4,))
        assert not pattern_matches((STAR,), (EMPTY,))
        assert pattern_matches((1, STAR), (1, 0))
        assert not pattern_matches((1, STAR), (0, 0))

    def test_every_cell_rule_agrees_with_a_naive_oracle(self):
        def naive(pattern, window):
            if len(pattern) != len(window):
                return False
            ok = True
            for c, w in zip(pattern, window):
                if c is STAR:
                    ok = ok and w is not EMPTY
                elif c is EMPTY:
                    ok = ok and w is EMPTY
                elif c is not ANY:
                    ok = ok and isinstance(w, int) and w == c
            return ok

        def rows(cells):
            return [row for n in range(4)
                    for row in itertools.product(cells, repeat=n)]

        for pattern in rows((0, 1, STAR, ANY, EMPTY)):
            for window in rows((0, 1, EMPTY)):
                assert pattern_matches(pattern, window) == \
                    naive(pattern, window), (pattern, window)

    def test_compiled_set_agrees_with_pattern_loop(self):
        rng = random.Random(17)
        for _ in range(400):
            pats = [tuple(STAR if rng.random() < 0.3 else rng.randrange(3)
                          for _ in range(rng.randint(1, 4)))
                    for _ in range(rng.randint(0, 4))]
            cells = tuple(EMPTY if rng.random() < 0.1 else rng.randrange(3)
                          for _ in range(rng.randint(0, 9)))
            want = any(pattern_matches(p, cells[i: i + len(p)])
                       for p in pats for i in range(len(cells)))
            assert compile_patterns(pats).occurs_in(cells) == want, \
                (pats, cells)

    def test_compiled_star_skips_empty_cells(self):
        stars = compile_patterns([(STAR, STAR)])
        assert not stars.occurs_in((1, EMPTY, EMPTY))
        assert stars.occurs_in((1, 1, EMPTY))


class TestSentinels:
    def test_hashes_and_set_order_repeat_across_interpreters(self):
        script = ("from twoshift.words import ANY, EMPTY, STAR\n"
                  "print([hash(s) for s in (STAR, EMPTY, ANY)],\n"
                  "      list({(STAR, 1), (1, STAR), (STAR, STAR, 1), (EMPTY,)}))")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        outs = [subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True,
                               check=True).stdout for _ in range(2)]
        assert outs[0] == outs[1], outs

    def test_sentinels_equal_only_themselves(self):
        cells = [STAR, EMPTY, ANY] + list(range(200))
        assert len(set(cells)) == len(cells)
        assert STAR == STAR and STAR != EMPTY and EMPTY != 0
