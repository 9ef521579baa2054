import random

import pytest
from twoshift.errors import InconsistentOverlaps, NotFiniteStep
from twoshift.higherblock import (EdgeSpace, Graph, _check_overlaps,
                                  cantor_pair, cantor_unpair, decode_block,
                                  edge_space, encode_block, graph_to_dot,
                                  hb_blocks, hb_classify, hb_contains,
                                  hb_decode, hb_encode, hb_spec,
                                  hb_spec_to_json, to_edge_shift)
from twoshift.points import (EMPTY_POINT, Infinite, finite_point,
                             make_infinite, parse_point)
from twoshift.spaces import blocks, classify, contains, make_spec
from twoshift.words import EMPTY

from conftest import random_point

GM = make_spec(forbid_words=["11"])


class TestBlockCoding:
    def test_pairing_is_a_bijection(self):
        seen = {}
        for a in range(30):
            for b in range(30):
                z = cantor_pair(a, b)
                assert z not in seen
                seen[z] = (a, b)
                assert cantor_unpair(z) == (a, b)

    def test_block_codes_round_trip(self):
        rng = random.Random(41)
        for _ in range(200):
            m = rng.randint(1, 4)
            block = tuple(rng.randrange(20) for _ in range(m))
            assert decode_block(encode_block(block), m) == block

    def test_single_letter_blocks_unchanged(self):
        assert encode_block((7,)) == 7
        assert decode_block(7, 1) == (7,)


class TestPointRecoding:
    def test_round_trip_and_shift_commute(self):
        rng = random.Random(42)
        for _ in range(200):
            x = random_point(rng)
            m = rng.choice([2, 3, 4])
            y = hb_encode(m, x)
            assert hb_decode(m, y) == x
            assert hb_encode(m, x.shift(1)) == y.shift(1)

    def test_empty_point_is_fixed(self):
        for m in (2, 3):
            assert hb_encode(m, EMPTY_POINT) == EMPTY_POINT
            assert hb_decode(m, EMPTY_POINT) == EMPTY_POINT

    def test_decode_rejects_mismatched_overlaps(self):
        # encodings of 01 and 00 cannot sit next to each other
        bad = parse_point("(%d)^- . (%d)^+" % (encode_block((0, 1)),
                                               encode_block((0, 0))))
        with pytest.raises(InconsistentOverlaps):
            hb_decode(2, bad)


def overlap_error(m: int, y):
    """Oracle: read y one index at a time and decode both neighbours at each
    index; the message of the first mismatch, or None."""
    if m == 1 or y == EMPTY_POINT:
        return None
    if isinstance(y, Infinite):
        lo = y.body_start - 2 * len(y.left_period) - 1
        hi = y.body_start + len(y.body) + 2 * len(y.right_period) + 1
    else:
        hi = y.ray.end_index
        lo = hi - len(y.ray.transient) - 2 * len(y.ray.period) - 1
    for i in range(lo, hi):
        a, b = y[i], y[i + 1]
        if a is EMPTY or b is EMPTY:
            continue
        if decode_block(a, m)[1:] != decode_block(b, m)[:-1]:
            return "blocks at %d and %d do not overlap" % (i, i + 1)
    return None


class TestOverlapCheck:
    def test_matches_per_index_decode(self):
        rng = random.Random(45)
        seen = set()
        for _ in range(600):
            m = rng.choice([1, 2, 3])
            # Letters are codes of a few m-blocks over {0, 1}, so some
            # points overlap consistently and most do not.
            codes = [encode_block(tuple(rng.randrange(2) for _ in range(m)))
                     for _ in range(3)]

            def word(lo, hi):
                return tuple(rng.choice(codes)
                             for _ in range(rng.randint(lo, hi)))

            roll = rng.random()
            if roll < 0.2:
                y = hb_encode(m, random_point(rng, letters=2))
            elif roll < 0.6:
                y = finite_point(word(1, 3), word(0, 4), rng.randint(-3, 3))
            else:
                y = make_infinite(word(1, 3), word(0, 4), word(1, 3),
                                  rng.randint(-3, 3))
            want = overlap_error(m, y)
            seen.add(want is None)
            if want is None:
                _check_overlaps(m, y)
            else:
                with pytest.raises(InconsistentOverlaps) as err:
                    _check_overlaps(m, y)
                assert str(err.value) == want
        assert seen == {True, False}


class TestRecodedSpaces:
    def test_membership_transfers(self):
        rng = random.Random(43)
        for m in (2, 3):
            h = hb_spec(m, GM)
            for _ in range(50):
                x = random_point(rng, letters=3)
                assert hb_contains(h, hb_encode(m, x)) == contains(GM, x)

    def test_garbage_letters_rejected(self):
        h = hb_spec(2, GM)
        # a constant point whose letter decodes to the forbidden overlap 11
        code11 = encode_block((1, 1))
        bad = parse_point("(%d)^- . (%d)^+" % (code11, code11))
        assert not hb_contains(h, bad)

    def test_blocks_are_encoded_base_blocks(self):
        h = hb_spec(2, GM)
        got = {w for w in hb_blocks(h, 1, 3) if EMPTY not in w}
        want = {(encode_block(v),) for v in blocks(GM, 2, 3)
                if EMPTY not in v}
        assert got == want

    def test_step_size_drops_by_recoding(self):
        three_step = make_spec(forbid_words=["0000"])
        assert classify(three_step).m_step == 3
        for m in (2, 3, 4):
            assert hb_classify(hb_spec(m, three_step)).m_step == max(
                1, 4 - m)

    def test_spec_serialization(self):
        h = hb_spec(2, GM)
        out = hb_spec_to_json(h)
        assert out["overlap_m"] == 2 and out["forbid_words"] == ["11"]


class TestEdgeShifts:
    def test_golden_mean_graph(self):
        g, derived = to_edge_shift(GM, 2)
        assert g.m == 1
        assert set(g.vertices) == {(0,), (1,)}
        assert set(g.edges) == {(0, 0), (0, 1), (1, 0)}
        assert g.fresh

    def test_full_shift_graph_has_one_vertex(self):
        g, _ = to_edge_shift(make_spec(), 2)
        assert g.m == 0
        assert g.vertices == ((),)

    def test_tail_constraints_rejected(self):
        with pytest.raises(NotFiniteStep):
            to_edge_shift(make_spec(allow_tails=["1"]), 2)

    def test_dot_output_shape(self):
        g, _ = to_edge_shift(GM, 2)
        dot = graph_to_dot(g)
        assert dot.startswith("digraph shift {")
        assert dot.count("->") == 3
        assert '"*"' in dot

    def test_walk_space_agrees_with_recoded_spec(self):
        g, derived = to_edge_shift(GM, 2)
        space = edge_space(g)
        for n in range(1, 6):
            assert space.blocks(n) == hb_blocks(derived, n, 2), n

    def test_walk_space_membership(self):
        g, derived = to_edge_shift(GM, 2)
        space = edge_space(g)
        rng = random.Random(44)
        for _ in range(60):
            x = random_point(rng, letters=2)
            assert space.contains(hb_encode(2, x)) == contains(GM, x)
