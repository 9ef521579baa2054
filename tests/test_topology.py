import random

import pytest
from twoshift.points import EMPTY_POINT, Finite, constant_point, parse_point
from twoshift.topology import (CoUnion, Cylinder, basic_contains, co_union,
                               cyl_contains, cyl_intersect, escape_report,
                               escapes_cylinders, nbhd_basis,
                               parse_basic_open, parse_cylinder)
from twoshift.words import canonicalize_ray, parse_ray

from conftest import random_point, random_ray


def random_cylinder(rng: random.Random) -> Cylinder:
    base = random_ray(rng, letters=3)
    excl = frozenset(rng.sample(range(4), rng.randint(0, 2)))
    return Cylinder(base, excl)


class TestMembership:
    def test_base_must_be_a_tail(self):
        c = parse_cylinder("Z( (0)^- 1 @0 )")
        assert cyl_contains(c, parse_point("(0)^- 1 . (2)^+"))
        assert not cyl_contains(c, parse_point("(1)^- . (2)^+"))
        assert not cyl_contains(c, EMPTY_POINT)

    def test_excluded_next_letter(self):
        c = parse_cylinder("Z( (0)^- 1 @0 ; {2} )")
        assert not cyl_contains(c, parse_point("(0)^- 1 . 2 (3)^+"))
        assert cyl_contains(c, parse_point("(0)^- 1 . 3 (3)^+"))
        # the finite point ending exactly at the base also qualifies
        assert cyl_contains(c, parse_point("(0)^- 1 . #"))

    def test_shorter_points_never_qualify(self):
        c = parse_cylinder("Z( (0)^- 1 @0 )")
        assert not cyl_contains(c, parse_point("(0)^- @-3 #"))


class TestIntersection:
    def test_nested_bases(self):
        a = Cylinder(parse_ray("(0)^- 1 @0"), frozenset({3}))
        b = Cylinder(parse_ray("(0)^- 1 2 @1"), frozenset({5}))
        assert cyl_intersect(a, b) == b

    def test_same_base_unions_exclusions(self):
        r = parse_ray("(0)^- 1 @0")
        got = cyl_intersect(Cylinder(r, frozenset({1})),
                            Cylinder(r, frozenset({2})))
        assert got == Cylinder(r, frozenset({1, 2}))

    def test_incompatible_bases_are_disjoint(self):
        a = Cylinder(parse_ray("(0)^- 1 @0"), frozenset({2}))
        b = Cylinder(parse_ray("(0)^- 1 2 @1"))
        assert cyl_intersect(a, b) is None
        c = Cylinder(parse_ray("(1)^- @0"))
        assert cyl_intersect(a, c) is None

    def test_intersection_law_on_random_pairs(self):
        rng = random.Random(11)
        cases = {"nested": 0, "same": 0, "disjoint": 0}
        for trial in range(200):
            a = random_cylinder(rng)
            style = trial % 3
            if style == 0:
                b = random_cylinder(rng)
            elif style == 1:
                b = Cylinder(a.base,
                             frozenset(rng.sample(range(4),
                                                  rng.randint(0, 2))))
            else:
                from twoshift.words import ray_append
                ext = tuple(rng.randrange(3)
                            for _ in range(rng.randint(1, 2)))
                b = Cylinder(ray_append(a.base, ext), frozenset())
            both = cyl_intersect(a, b)
            if both is None:
                cases["disjoint"] += 1
            elif a.base == b.base:
                cases["same"] += 1
            else:
                cases["nested"] += 1
            for _ in range(40):
                x = random_point(rng, letters=3)
                want = cyl_contains(a, x) and cyl_contains(b, x)
                got = both is not None and cyl_contains(both, x)
                assert got == want, (a, b, x)
        assert all(cases.values()), cases


class TestCoUnions:
    def test_complement_semantics(self):
        u = co_union([Cylinder(parse_ray("(0)^- @0")),
                      Cylinder(parse_ray("(1)^- @0"))])
        assert basic_contains(u, EMPTY_POINT)
        assert basic_contains(u, parse_point("(01)^- . (01)^+"))
        assert not basic_contains(u, parse_point("(0)^- . (5)^+"))

    def test_duality_on_random_points(self):
        rng = random.Random(12)
        for _ in range(100):
            cyls = [Cylinder(random_ray(rng, letters=3))
                    for _ in range(rng.randint(1, 3))]
            u = co_union(cyls)
            for _ in range(30):
                x = random_point(rng, letters=3)
                assert basic_contains(u, x) == (
                    not any(cyl_contains(c, x) for c in cyls))

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError):
            co_union([])


class TestNeighborhoodBases:
    def test_infinite_point_gets_shrinking_tails(self):
        x = parse_point("(0)^- . (1)^+")
        basis = nbhd_basis(x, 4)
        for b in basis:
            assert cyl_contains(b, x)
        ends = [b.base.end_index for b in basis]
        assert ends == sorted(set(ends))
        # a point differing from x only at index 1 leaves some member
        y = parse_point("(0)^- . 2 (1)^+")
        assert not all(cyl_contains(b, y) for b in basis)

    def test_finite_point_gets_growing_exclusions(self):
        x = parse_point("(0)^- 1 . #")
        basis = nbhd_basis(x, 3)
        for b in basis:
            assert cyl_contains(b, x)
        sizes = [len(b.excluded) for b in basis]
        assert sizes == sorted(sizes)

    def test_empty_point_gets_co_unions(self):
        basis = nbhd_basis(EMPTY_POINT, 3)
        for b in basis:
            assert isinstance(b, CoUnion)
            assert basic_contains(b, EMPTY_POINT)


class TestEscape:
    def test_family_leaving_every_probe(self):
        # x^i equals 1 everywhere except a single 2 at coordinate -i
        family = [parse_point("(1)^- 2 %s. (1)^+" % ("1 " * (i - 1)))
                  for i in range(1, 8)]
        probes = [c for u in nbhd_basis(EMPTY_POINT, 5) for c in u.cylinders]
        assert escapes_cylinders(family, probes)
        report = escape_report(family, probes)
        assert all(len(hits) == 0 for hits in report)

    def test_convergent_family_is_caught(self):
        x = parse_point("(0)^- . (1)^+")
        family = [x] * 5
        assert not escapes_cylinders(family, [Cylinder(x.tail_ray(0))])


class TestTextForm:
    def test_cylinder_round_trip(self):
        for text in ["Z( (0)^- 1 @0 )", "Z( (01)^- @-2 ; {0, 3} )"]:
            c = parse_cylinder(text)
            assert parse_cylinder(str(c)) == c

    def test_basic_open_round_trip(self):
        u = parse_basic_open("!{ Z( (0)^- @0 ), Z( (1)^- @0 ) }")
        assert isinstance(u, CoUnion) and len(u.cylinders) == 2
