import json
import os
import random

import pytest
from twoshift.blockcodes import (ANY, FinitelyDefinedSet, PseudoCylinder,
                                 check_continuity_sufficient, code_from_json,
                                 fds_combine, fds_contains, fds_equal,
                                 fds_from_pseudo, pseudo_contains,
                                 pseudo_intersect, sbc_apply, sbc_build,
                                 sbc_compose)
from twoshift.errors import NotShiftInvariantEmptyClass
from twoshift.higherblock import _decode_code, _encode_code
from twoshift.points import (EMPTY_POINT, Finite, Infinite, constant_point,
                             parse_point)
from twoshift.words import EMPTY, STAR

from conftest import random_point

IDENTITY = sbc_build(0, 0, [], ("copy", 0))
SHIFT = sbc_build(0, 1, [], ("copy", 1))
# collapse both 1 and 2 to the letter 1, keep blanks blank, pass the rest
COLLAPSE = sbc_build(0, 0, [((1,), ("letter", 1)), ((2,), ("letter", 1)),
                            ((EMPTY,), ("empty",))], ("copy", 0))


class TestPseudoCylinders:
    def test_membership(self):
        p = PseudoCylinder((1, ANY, 2), -1)
        assert pseudo_contains(p, parse_point("(0)^- 1 5 . 2 (0)^+"))
        assert not pseudo_contains(p, parse_point("(0)^- 1 5 . 3 (0)^+"))
        # a wildcard cell accepts the empty letter as well
        assert pseudo_contains(PseudoCylinder((1, ANY), 0),
                               parse_point("(0)^- 1 . #"))

    def test_intersection(self):
        a = PseudoCylinder((1, ANY), 0)
        b = PseudoCylinder((ANY, 2), 1)
        got = pseudo_intersect(a, b)
        assert [c.cells for c in got] == [(1, ANY, 2)]
        assert pseudo_intersect(PseudoCylinder((1,), 0),
                                PseudoCylinder((2,), 0)) == []

    def test_random_intersection_law(self):
        rng = random.Random(31)
        for _ in range(80):
            a = PseudoCylinder(tuple(
                rng.choice([0, 1, ANY]) for _ in range(rng.randint(1, 3))),
                rng.randint(-2, 2))
            b = PseudoCylinder(tuple(
                rng.choice([0, 1, ANY]) for _ in range(rng.randint(1, 3))),
                rng.randint(-2, 2))
            both = pseudo_intersect(a, b)
            for _ in range(25):
                x = random_point(rng, letters=3)
                want = pseudo_contains(a, x) and pseudo_contains(b, x)
                got = any(pseudo_contains(c, x) for c in both)
                assert got == want


class TestFinitelyDefinedSets:
    def test_boolean_algebra(self):
        a = fds_from_pseudo(PseudoCylinder((1,), 0))
        b = fds_from_pseudo(PseudoCylinder((2,), 0))
        union = fds_combine("union", a, b)
        meet = fds_combine("intersection", a, b)
        comp = fds_combine("complement", a)
        rng = random.Random(32)
        for _ in range(120):
            x = random_point(rng, letters=4)
            assert fds_contains(union, x) == (
                fds_contains(a, x) or fds_contains(b, x))
            assert fds_contains(meet, x) == (
                fds_contains(a, x) and fds_contains(b, x))
            assert fds_contains(comp, x) == (not fds_contains(a, x))

    def test_equality_by_table(self):
        a = fds_from_pseudo(PseudoCylinder((1,), 0))
        b = fds_combine("complement", fds_combine("complement", a))
        assert fds_equal(a, b)
        assert not fds_equal(a, fds_from_pseudo(PseudoCylinder((2,), 0)))


class TestApplication:
    def test_identity_and_shift(self):
        rng = random.Random(33)
        for _ in range(100):
            x = random_point(rng)
            assert sbc_apply(IDENTITY, x) == x
            assert sbc_apply(SHIFT, x) == x.shift(1)

    def test_letter_collapse(self):
        x = parse_point("(12)^- 0 . (1)^+")
        y = sbc_apply(COLLAPSE, x)
        assert y == parse_point("(1)^- 0 . (1)^+")
        assert sbc_apply(COLLAPSE, EMPTY_POINT) == EMPTY_POINT

    def test_constant_blank_code(self):
        allblank = sbc_build(0, 0, [], ("empty",))
        rng = random.Random(38)
        for _ in range(20):
            assert sbc_apply(allblank, random_point(rng)) == EMPTY_POINT

    def test_nonblank_image_of_the_empty_point_is_constant(self):
        const7 = sbc_build(0, 0, [], ("letter", 7))
        assert sbc_apply(const7, EMPTY_POINT) == constant_point(7)

    def test_commutes_with_shift(self):
        rng = random.Random(34)
        for code in (IDENTITY, SHIFT, COLLAPSE):
            for _ in range(60):
                x = random_point(rng, letters=4)
                n = rng.randint(-3, 3)
                assert sbc_apply(code, x.shift(n)) == \
                    sbc_apply(code, x).shift(n)

    def test_period_preservation(self):
        for p in range(1, 7):
            w = "".join(str(i % 3) for i in range(p))
            x = parse_point("(%s)^- . (%s)^+" % (w, w))
            assert x.shift(p) == x
            for code in (IDENTITY, COLLAPSE):
                y = sbc_apply(code, x)
                assert y.shift(p) == y

    def test_blank_class_must_be_shift_invariant(self):
        with pytest.raises(NotShiftInvariantEmptyClass):
            # dropping one letter would leave a hole inside the output
            sbc_build(0, 0, [((9,), ("empty",)), ((EMPTY,), ("empty",))],
                      ("copy", 0))


class TestComposition:
    def test_double_shift(self):
        comp = sbc_compose(SHIFT, SHIFT)
        assert (comp.memory, comp.anticipation) == (0, 2)
        rng = random.Random(35)
        for _ in range(50):
            x = random_point(rng)
            assert sbc_apply(comp, x) == x.shift(2)

    def test_matches_pointwise_composition(self):
        comp = sbc_compose(COLLAPSE, SHIFT)
        rng = random.Random(36)
        for _ in range(50):
            x = random_point(rng, letters=4)
            assert sbc_apply(comp, x) == sbc_apply(COLLAPSE,
                                                   sbc_apply(SHIFT, x))


class TestContinuityCheck:
    def test_identity_passes(self):
        report = check_continuity_sufficient(IDENTITY)
        assert report.passes

    def test_shift_fails_with_reason(self):
        report = check_continuity_sufficient(SHIFT)
        assert not report.passes
        assert "C_" in report.reason

    def test_letter_collapse_fails(self):
        report = check_continuity_sufficient(COLLAPSE)
        assert not report.passes
        assert "C_1" in report.reason

    def test_letter_swap_passes(self):
        swap = sbc_build(0, 0, [((0,), ("letter", 5)), ((5,), ("letter", 0)),
                                ((EMPTY,), ("empty",))], ("copy", 0))
        assert check_continuity_sufficient(swap).passes


class TestSerialization:
    def test_rule_file_round_trip(self):
        code = code_from_json({
            "memory": 0, "anticipation": 0,
            "clauses": [{"window": "1", "output": "1"},
                        {"window": "2", "output": "1"},
                        {"window": "_", "output": "empty"}],
            "default": "copy 0"})
        rng = random.Random(37)
        for _ in range(40):
            x = random_point(rng, letters=4)
            assert sbc_apply(code, x) == sbc_apply(COLLAPSE, x)


def _random_clause_code(rng: random.Random):
    """A seeded clause code over letters 0..2, or None when its empty class
    is not shift invariant."""
    k, l = rng.randint(0, 2), rng.randint(0, 2)
    width = k + l + 1

    def output():
        roll = rng.random()
        if roll < 0.3:
            return ("empty",)
        if roll < 0.6:
            return ("copy", rng.randint(-k, l))
        return ("letter", rng.randrange(4))

    clauses = [(tuple(rng.choice([0, 1, 2, STAR, EMPTY])
                      for _ in range(width)), output())
               for _ in range(rng.randint(0, 3))]
    try:
        return sbc_build(k, l, clauses, output())
    except NotShiftInvariantEmptyClass:
        return None


def _span(x, margin: int) -> range:
    """The indices where the point is not yet periodic, widened by two
    periods on each side and then by ``margin``."""
    if isinstance(x, Infinite):
        lo, hi = x.body_start, x.body_start + len(x.body)
        pad = 2 * (len(x.left_period) + len(x.right_period))
    elif isinstance(x, Finite):
        hi = x.ray.end_index
        lo = hi - len(x.ray.transient)
        pad = 2 * len(x.ray.period)
    else:
        lo = hi = pad = 0
    return range(lo - pad - margin, hi + pad + margin + 1)


class TestApplicationAgainstDefinition:
    """(Φx)_n = rule(x_{n-k} ... x_{n+l}), read one window per index."""

    def _check(self, code, x):
        k, l = code.memory, code.anticipation
        span = _span(x, k + l + 2)
        want = [code.rule(x.window(n - k, n + l)) for n in span]
        y = sbc_apply(code, x)
        assert [y[n] for n in span] == want
        return y

    def _codes(self, rng, count):
        out = []
        while len(out) < count:
            code = _random_clause_code(rng)
            if code is not None:
                out.append(code)
        return out

    def test_seeded_clause_codes(self):
        rng = random.Random(301)
        blanks = 0
        for code in self._codes(rng, 60):
            for _ in range(15):
                y = self._check(code, random_point(rng, letters=3))
                blanks += y.length() != float("inf")
        # Some images are finite or empty, so ø outputs were exercised.
        assert blanks > 50

    def test_composed_codes(self):
        rng = random.Random(302)
        codes = self._codes(rng, 20)
        for f, g in zip(codes[::2], codes[1::2]):
            comp = sbc_compose(f, g)
            for _ in range(15):
                x = random_point(rng, letters=3)
                assert self._check(comp, x) == sbc_apply(f, sbc_apply(g, x))

    def test_fixture_rules(self):
        here = os.path.join(os.path.dirname(__file__), "fixtures")
        rng = random.Random(303)
        for name in ("identity.json", "shift.json", "collapse.json"):
            with open(os.path.join(here, name)) as fh:
                code = code_from_json(json.load(fh))
            for _ in range(40):
                self._check(code, random_point(rng, letters=4))

    def test_higher_block_codes(self):
        rng = random.Random(304)
        for m in (1, 2, 3):
            for _ in range(40):
                x = random_point(rng, letters=4)
                y = self._check(_encode_code(m), x)
                assert self._check(_decode_code(m), y) == x

    def test_one_window_per_application(self, monkeypatch):
        calls = []
        for cls in (Infinite, Finite):
            def counted(self, i, j, _orig=cls._cells):
                calls.append((i, j))
                return _orig(self, i, j)
            monkeypatch.setattr(cls, "_cells", counted)
        code = sbc_compose(COLLAPSE, SHIFT)
        for text in ("(012)^- 3 4 . 5 (67)^+", "(01)^- 2 . 3 4 #"):
            calls.clear()
            sbc_apply(code, parse_point(text))
            assert len(calls) == 1
