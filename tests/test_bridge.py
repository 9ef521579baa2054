import itertools
import random

import pytest
from twoshift.bridge import (OneSpec, embed_in_cylinder, embed_inverse,
                             lift_space, one_blocks, one_contains,
                             one_is_minimal, one_word_in_language, p_inverse,
                             project, project_space)
from twoshift.errors import NotMinimal
from twoshift.points import (EMPTY_POINT, Finite, ONE_EMPTY, OneFinite,
                             format_one_point, parse_one_point, parse_point)
from twoshift.spaces import blocks, contains, make_spec, word_in_language
from twoshift.spaces import inf_infinite as one_inf_infinite
from twoshift.words import EMPTY, STAR, pattern_matches

from conftest import random_finite, random_pattern, random_point

GM = make_spec(forbid_words=["11"])


def naive_one_sided_ok(one, cells) -> bool:
    """Does no pattern match any window of the cells?"""
    return not any(pattern_matches(p, cells[i: i + len(p)])
                   for p in one.patterns
                   for i in range(len(cells) - len(p) + 1))


class TestProjection:
    def test_positive_coordinates_survive(self):
        r = project(parse_point("(01)^- 2 . 3 (4)^+"))
        assert format_one_point(r.point) == "3 . (4)^+"
        assert r.continuous

    def test_short_points_collapse(self):
        assert project(parse_point("(0)^- 1 @-2 #")).point is ONE_EMPTY
        assert not project(parse_point("(0)^- 1 @-2 #")).continuous
        assert project(parse_point("(0)^- 1 @0 #")).continuous
        assert not project(EMPTY_POINT).continuous

    def test_commutes_with_shift_on_long_points(self):
        rng = random.Random(51)
        for _ in range(100):
            x = random_point(rng)
            if isinstance(x, Finite) and x.length() < 2:
                continue
            left = project(x.shift(1)).point
            right = project(x).point
            if right is not ONE_EMPTY:
                shifted = tuple(right[i + 1] for i in range(1, 12))
                direct = tuple(left[i] for i in range(1, 12))
                assert shifted == direct

    def test_orbit_family_inverts_projection(self):
        rng = random.Random(52)
        for _ in range(100):
            x = random_point(rng)
            fam = p_inverse(x)
            assert fam.p() == x
            for i in (-1, 0, 1, 3):
                want = project(x.shift(i - 1)).point
                assert fam.point(i) == want


class TestCylinderEmbedding:
    def test_round_trip(self):
        rng = random.Random(53)
        for _ in range(100):
            base = random_finite(rng)
            roll = rng.random()
            if roll < 0.2:
                z = ONE_EMPTY
            elif roll < 0.6:
                z = parse_one_point(" ".join(
                    str(rng.randrange(5))
                    for _ in range(rng.randint(1, 4))) + " #")
            else:
                z = parse_one_point("%d . (%d)^+" % (rng.randrange(5),
                                                     rng.randrange(5)))
            y = embed_in_cylinder(base, z)
            assert y.tail_ray(base.ray.end_index) == base.ray
            assert embed_inverse(base, y) == z

    def test_points_outside_the_cylinder_rejected(self):
        base = parse_point("(0)^- 1 @0 #")
        with pytest.raises(ValueError):
            embed_inverse(base, parse_point("(5)^- . (5)^+"))


class TestOneSidedSpaces:
    def test_membership(self):
        one = OneSpec(frozenset({(1, 1)}))
        assert one_contains(one, parse_one_point("0 1 0 . (2)^+"))
        assert not one_contains(one, parse_one_point("1 1 . (2)^+"))
        assert one_contains(one, parse_one_point("0 1 #"))
        assert one_contains(one, ONE_EMPTY)

    def test_boundary_position_matters(self):
        # n1 forbidden for every n: valid points can still start with 1
        one = OneSpec(frozenset({(STAR, 1)}))
        assert one_contains(one, parse_one_point("1 . (9)^+"))
        assert not one_contains(one, parse_one_point("0 1 . (9)^+"))
        assert one_word_in_language(one, (1,))

    def test_finite_alphabet(self):
        one = OneSpec(frozenset({(1, 1)}), frozenset({0, 1}))
        assert one_contains(one, parse_one_point("0 1 . (0)^+"))
        assert not one_contains(one, parse_one_point("0 2 . (0)^+"))
        assert sorted(one_blocks(one, 2, 2)) == [(0, 0), (0, 1), (1, 0)]

    def test_one_letter_patterns_on_finite_alphabet(self):
        # Over {0, 1, 2} with 1 forbidden, {0, 2}^N is still uncountable.
        assert one_inf_infinite(OneSpec(frozenset({(1,)}),
                                        frozenset({0, 1, 2})))
        assert not one_inf_infinite(OneSpec(frozenset({(1,), (2,)}),
                                            frozenset({0, 1, 2})))

    def test_one_word_matches_every_offset_from_the_boundary(self):
        # Oracle: a word is a one-sided block iff some point
        # f^j w f f ... avoids every pattern, j < the longest pattern
        # length, each point scanned cell by cell.
        rng = random.Random(33)
        for _ in range(120):
            one = OneSpec(frozenset(random_pattern(rng, 4, 3, 0.4)
                                    for _ in range(rng.randint(1, 3))))
            big = one.max_pattern_len
            for _ in range(8):
                w = tuple(rng.randrange(4) for _ in range(rng.randint(1, 4)))
                f = max(one.mentioned | set(w), default=-1) + 1
                want = any(naive_one_sided_ok(
                    one, (f,) * j + w + (f,) * (big + 1))
                    for j in range(big))
                assert one_word_in_language(one, w) == want, (one, w)
                assert one_contains(one, OneFinite(w)) == \
                    (want and one_inf_infinite(one)), (one, w)

    def test_pruned_enumeration_matches_every_word(self):
        rng = random.Random(31)
        for _ in range(25):
            one = OneSpec(frozenset(random_pattern(rng, 3, 3, 0.3)
                                    for _ in range(rng.randint(0, 3))))
            for n in range(5):
                want = {w for w in itertools.product(range(4), repeat=n)
                        if one_word_in_language(one, w)}
                assert one_blocks(one, n, 4) == want, (one, n)
        with pytest.raises(ValueError):
            one_blocks(OneSpec(), -1, 2)


class TestSpaceTransfer:
    def test_projection_drops_tail_constraints(self):
        spec = make_spec(allow_tails=["1"])
        proj = project_space(spec)
        assert proj.one.patterns == frozenset()
        assert proj.letters_infinite

    def test_projection_requires_minimality(self):
        with pytest.raises(NotMinimal):
            project_space(make_spec(forbid_words=["11", "1"]))

    def test_blocks_agree_after_projection(self):
        for spec in (GM, make_spec(forbid_words=["012"])):
            one = project_space(spec).one
            for n in (1, 2, 3, 4):
                two_sided = {w for w in blocks(spec, n, 6)
                             if EMPTY not in w}
                assert one_blocks(one, n, 6) == two_sided, n

    def test_lift_cases(self):
        assert lift_space(OneSpec(frozenset({(1, 1)}))).case == "i"
        finite_alpha = OneSpec(frozenset({(1, 1)}), frozenset({0, 1}))
        assert lift_space(finite_alpha).case == "ii"
        assert lift_space(OneSpec()).case == "i"

    def test_round_trip_grows_spaces_with_tail_constraints(self):
        spec = make_spec(allow_tails=["1"])
        lifted = lift_space(project_space(spec).one)
        witness = parse_point("(2)^- . (2)^+")
        assert contains(lifted.two, witness)
        assert not contains(spec, witness)

    def test_round_trip_shrinks_boundary_sensitive_spaces(self):
        one = OneSpec(frozenset({(STAR, 1)}))
        assert one_is_minimal(one) == (True, None)
        lifted = lift_space(one)
        assert one_word_in_language(one, (1,))
        assert not word_in_language(lifted.two, (1,))
