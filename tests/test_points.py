import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_infinite, random_point
from twoshift.errors import BadRange, NoRay, ParseError, ShiftError
from twoshift.points import (EMPTY_POINT, ONE_EMPTY, Empty, Finite, Infinite,
                             constant_point, finite_point, format_one_point,
                             format_point, make_infinite, make_one_infinite,
                             one_finite, parse_one_point, parse_point)
from twoshift.words import EMPTY, canonicalize_ray

words = st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple)
bodies = st.lists(st.integers(0, 4), min_size=0, max_size=4).map(tuple)
small_ints = st.integers(-4, 4)
# Letters up to 1000, with single digits as likely as wide letters.
wide_letters = st.one_of(st.integers(0, 9), st.integers(10, 1000))
wide_words = st.lists(wide_letters, min_size=1, max_size=3).map(tuple)
wide_bodies = st.lists(wide_letters, max_size=4).map(tuple)


def window(x, lo, hi):
    return [x[i] for i in range(lo, hi + 1)]


class TestEmptyPoint:
    def test_all_coordinates_empty(self):
        assert EMPTY_POINT[0] is EMPTY and EMPTY_POINT[-17] is EMPTY

    def test_fixed_by_shift(self):
        assert EMPTY_POINT.shift(3) is EMPTY_POINT

    def test_length(self):
        assert EMPTY_POINT.length() == float("-inf")

    def test_no_tail(self):
        with pytest.raises(NoRay):
            EMPTY_POINT.tail_ray(0)


class TestFinitePoint:
    def test_support_and_padding(self):
        x = finite_point((0,), (1, 2), 2)   # ...00012 then blanks
        assert window(x, -1, 4) == [0, 0, 1, 2, EMPTY, EMPTY]
        assert x.length() == 2

    def test_shift_moves_support(self):
        x = finite_point((0,), (1, 2), 2)
        y = x.shift(2)
        assert y.length() == 0
        assert window(y, -2, 1) == [0, 1, 2, EMPTY]

    @given(words, bodies, small_ints, small_ints)
    def test_shift_relabels_coordinates(self, p, t, k, n):
        x = Finite(canonicalize_ray(p, t, k))
        y = x.shift(n)
        assert window(y, -6, 6) == window(x, -6 + n, 6 + n)

    @given(words, bodies, small_ints, st.integers(0, 4))
    def test_tail_agrees_with_point(self, p, t, k, d):
        x = Finite(canonicalize_ray(p, t, k))
        m = k - d
        tail = x.tail_ray(m)
        assert [tail[i] for i in range(m - 10, m + 1)] == window(x, m - 10, m)


class TestInfinitePoint:
    def test_two_periods_and_body(self):
        x = make_infinite((0,), (7,), (1, 2), 0)
        assert window(x, -2, 4) == [0, 0, 7, 1, 2, 1, 2]
        assert x.length() == float("inf")

    def test_fully_periodic_shift_fixed_point(self):
        y = parse_point("(01)^- . (01)^+")
        assert y.shift(2) == y
        assert y.shift(1) != y

    @given(words, bodies, words, small_ints, small_ints)
    def test_shift_relabels_coordinates(self, p, b, q, s, n):
        x = make_infinite(p, b, q, s)
        y = x.shift(n)
        assert window(y, -8, 8) == window(x, -8 + n, 8 + n)

    @given(words, bodies, words, small_ints)
    def test_canonical_form_is_stable(self, p, b, q, s):
        x = make_infinite(p, b, q, s)
        y = make_infinite(x.left_period, x.body, x.right_period, x.body_start)
        assert x == y

    @given(words, bodies, words, small_ints)
    def test_equal_sequences_build_equal_objects(self, p, b, q, s):
        x = make_infinite(p, b, q, s)
        # widen the explicit body by one period on each side: same sequence
        y = make_infinite(p, p + b + q, q, s - len(p))
        assert window(x, -10, 10) == window(y, -10, 10)
        assert x == y

    @given(words, bodies, words, small_ints, st.integers(0, 3))
    def test_tail_agrees_with_point(self, p, b, q, s, d):
        x = make_infinite(p, b, q, s)
        m = s + len(b) + d
        tail = x.tail_ray(m)
        assert [tail[i] for i in range(m - 12, m + 1)] == window(x, m - 12, m)

    def test_tail_is_the_canonical_cell_by_cell_ray(self):
        rng = random.Random(43)
        for _ in range(300):
            x = random_infinite(rng)
            p, s = x.left_period, x.body_start
            # cells below lo are whole copies of the left period
            lo = s - len(p) * (abs(s) + 41)
            for k in range(-10, 41):
                cells = tuple(x[i] for i in range(lo, k + 1))
                assert x.tail_ray(k) == canonicalize_ray(p, cells, k)

    def test_window_rejects_bad_range(self):
        with pytest.raises(BadRange):
            constant_point(3).window(2, 0)


class TestWindows:
    def test_slices_equal_cells(self):
        rng = random.Random(41)
        for _ in range(500):
            x = random_point(rng)
            i = rng.randint(-15, 15)
            j = i + rng.randint(0, 20)
            assert x.window(i, j) == tuple(window(x, i, j))

    def test_bad_range_on_every_kind(self):
        rng = random.Random(42)
        for _ in range(50):
            x = random_point(rng)
            i = rng.randint(-10, 10)
            with pytest.raises(BadRange):
                x.window(i, i - rng.randint(1, 5))


class TestShiftGroupLaws:
    def test_many_random_points(self):
        rng = random.Random(5)
        for _ in range(300):
            x = random_point(rng)
            n = rng.randint(-5, 5)
            m = rng.randint(-5, 5)
            assert x.shift(n).shift(-n) == x
            assert x.shift(n).shift(m) == x.shift(n + m)
            i = rng.randint(-8, 8)
            assert x.shift(n)[i] == x[i + n]
            l = x.length()
            if l not in (float("inf"), float("-inf")):
                assert x.shift(n).length() == l - n


class TestOneSidedShift:
    def test_huge_shift_costs_the_representation(self):
        z = make_one_infinite((1, 2, 3), (4, 5, 6, 7))
        # 10**12 - 3 = 1 (mod 4): past the transient, the period turns once.
        # A loop over the shift would not finish.
        assert z.shift(10 ** 12) == make_one_infinite((), (5, 6, 7, 4))

    def test_shift_is_additive(self):
        rng = random.Random(43)
        for _ in range(300):
            z = make_one_infinite(
                tuple(rng.randrange(3) for _ in range(rng.randint(0, 4))),
                tuple(rng.randrange(3) for _ in range(rng.randint(1, 4))))
            a, b = rng.randint(0, 9), rng.randint(0, 9)
            assert z.shift(a + b) == z.shift(a).shift(b)
            assert [z.shift(a)[i] for i in range(1, 12)] == \
                [z[i + a] for i in range(1, 12)]


    def test_negative_shift_is_refused(self):
        for z in (one_finite((1, 2, 3)), make_one_infinite((1,), (2,)),
                  ONE_EMPTY):
            with pytest.raises(ValueError):
                z.shift(-1)
            assert z.shift(0) == z

    def test_empty_period_is_refused(self):
        for text in (". ()^+", "1 . ()^+"):
            with pytest.raises(ValueError, match="nonempty"):
                parse_one_point(text)


class TestTextForm:
    def test_round_trip_examples(self):
        for text in ["@", "(0)^- 1 2 @2 #", "(01)^- 2 . 3 (4)^+",
                     "(0)^- 1 . 2 #", "(5)^- . (5)^+"]:
            x = parse_point(text)
            assert parse_point(format_point(x)) == x

    def test_non_points_are_refused(self):
        with pytest.raises(ShiftError):
            format_point(object())
        with pytest.raises(ShiftError):
            format_one_point(object())

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_point("(")

    def test_round_trip_random(self):
        rng = random.Random(6)
        for _ in range(300):
            x = random_point(rng)
            assert parse_point(format_point(x)) == x

    @given(wide_words, wide_bodies, wide_words, small_ints, st.booleans())
    def test_wide_letters_survive_round_trip(self, p, b, q, k, finite):
        x = finite_point(p, b, k) if finite else make_infinite(p, b, q, k)
        assert parse_point(format_point(x)) == x
        for z in (one_finite(b), make_one_infinite(b, q)):
            assert parse_one_point(format_one_point(z)) == z
