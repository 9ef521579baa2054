import itertools
import random
from dataclasses import replace

import pytest
from twoshift import spaces
from twoshift.automaton import StateGraph
from twoshift.errors import (AllowlistUnsupported, CutoffTooSmall,
                             NotInLanguage)
from twoshift.points import (EMPTY_POINT, constant_point, finite_point,
                             make_infinite, parse_point)
from twoshift.spaces import (ForbiddenSpec, _finite_word_ok, _ray_windows,
                             blocks, classify,
                             contains, equal_spaces, follower_set, has_iep,
                             inf_infinite, inf_nonempty, is_minimal,
                             make_spec, minimalize, ray_in_language,
                             spec_from_json, spec_to_json, word_in_language)
from twoshift.words import (EMPTY, STAR, LeftRay, canonicalize_ray,
                            parse_ray)

from conftest import (naive_window_scan, random_infinite, random_pattern,
                      random_ray, random_word)

GM = make_spec(forbid_words=["11"])


def random_spec(rng: random.Random, with_rays: bool = True):
    pats = [random_pattern(rng) for _ in range(rng.randint(1, 3))]
    rays = [random_ray(rng).shift_to(0)
            for _ in range(rng.randint(0, 2) if with_rays else 0)]
    return make_spec(forbid_words=[], forbid_tails=[]), pats, rays


def build_spec(pats, rays):
    from twoshift.spaces import ForbiddenSpec
    return ForbiddenSpec(frozenset(pats),
                         frozenset(canonicalize_ray(r.period, r.transient, 0)
                                   for r in rays))


class TestMembership:
    def test_forbidden_word_examples(self):
        assert not contains(GM, parse_point("(0)^- . 1 1 (0)^+"))
        assert contains(GM, parse_point("(01)^- . (01)^+"))
        assert contains(GM, parse_point("(0)^- 1 . #"))
        assert contains(GM, EMPTY_POINT)

    def test_wildcard_pattern(self):
        spec = make_spec(forbid_words=["*2"])
        # 2 never has a left neighbor, so it never appears with full support
        assert not contains(spec, parse_point("(0)^- . 2 (0)^+"))
        assert contains(spec, parse_point("(0)^- . (0)^+"))

    def test_forbidden_tail(self):
        spec = make_spec(forbid_tails=["(1)^-"])
        assert not contains(spec, parse_point("(1)^- . (0)^+"))
        assert contains(spec, parse_point("(01)^- . (0)^+"))

    def test_allowed_tails_constrain_left_period(self):
        spec = make_spec(allow_tails=["1"])
        assert contains(spec, parse_point("(1)^- 0 5 . (7)^+"))
        assert not contains(spec, parse_point("(2)^- . (2)^+"))
        # finite points carry a left tail too, so they are constrained
        assert not contains(spec, parse_point("(2)^- 0 . #"))
        assert contains(spec, parse_point("(1)^- 0 . #"))

    def test_shift_invariance_on_random_points(self):
        rng = random.Random(21)
        for _ in range(40):
            _, pats, rays = random_spec(rng)
            spec = build_spec(pats, rays)
            for _ in range(10):
                x = random_infinite(rng)
                n = rng.randint(-4, 4)
                assert contains(spec, x) == contains(spec, x.shift(n))

    def test_agrees_with_window_scanner(self):
        rng = random.Random(22)
        for _ in range(30):
            _, pats, rays = random_spec(rng)
            spec = build_spec(pats, rays)
            for _ in range(40):
                x = random_infinite(rng)
                assert contains(spec, x) == naive_window_scan(spec, x), \
                    (pats, rays, x)

    def test_finite_points_need_infinite_followers(self):
        only_0_and_1 = make_spec(
            forbid_words=["%d" % a for a in range(2, 9)] + ["11"],
            alphabet=range(9))
        # followers of ...01 are limited to the finite set {0}
        assert not contains(only_0_and_1, parse_point("(0)^- 1 . #"))
        assert contains(GM, parse_point("(0)^- 1 . #"))

    def test_empty_point_membership_tracks_space_size(self):
        assert contains(GM, EMPTY_POINT)
        tiny = make_spec(forbid_words=["01", "10", "11"], alphabet=[0, 1])
        # only the two constant points and their truncations survive
        assert not inf_infinite(tiny)
        assert not contains(tiny, EMPTY_POINT)


class TestFiniteAlphabet:
    def test_membership(self):
        gm2 = make_spec(forbid_words=["11"], alphabet=[0, 1])
        assert contains(gm2, parse_point("(01)^- . (01)^+"))
        assert not contains(gm2, parse_point("(0)^- . 2 (0)^+"))
        assert inf_infinite(gm2)

    def test_blocks(self):
        gm2 = make_spec(forbid_words=["11"], alphabet=[0, 1])
        got = {w for w in blocks(gm2, 2, 3) if EMPTY not in w}
        assert got == {(0, 0), (0, 1), (1, 0)}

    def test_single_cycle_space_is_finite(self):
        spec = make_spec(forbid_words=["00", "11"], alphabet=[0, 1])
        # only ...010101... and its orbit: finitely many points
        assert not inf_infinite(spec)
        assert contains(spec, parse_point("(01)^- . (01)^+"))

    def test_one_letter_patterns(self):
        for words, nonempty, infinite in ((["1"], True, True),
                                          (["1", "2"], True, False),
                                          (["0", "1", "2"], False, False)):
            spec = make_spec(forbid_words=words, alphabet=[0, 1, 2])
            assert inf_nonempty(spec) == nonempty, words
            assert inf_infinite(spec) == infinite, words


class TestBlocks:
    def test_two_blocks_of_golden_mean(self):
        got = blocks(GM, 2, 3)
        want = {(0, 0), (0, 1), (0, 2), (0, EMPTY), (1, 0), (1, 2),
                (1, EMPTY), (2, 0), (2, 1), (2, 2), (2, EMPTY),
                (EMPTY, EMPTY)}
        assert got == want

    def test_cutoff_guard(self):
        with pytest.raises(CutoffTooSmall):
            blocks(GM, 2, 0)

    def test_negative_cutoff_rejected_without_mentioned_letters(self):
        for spec in (make_spec(), make_spec(forbid_words=["**"])):
            assert blocks(spec, 2, 0) in ({(EMPTY, EMPTY)}, set())
            with pytest.raises(CutoffTooSmall):
                blocks(spec, 2, -1)

    def test_negative_length_rejected(self):
        for spec in (GM, make_spec(forbid_words=["11"], alphabet=[0, 1])):
            with pytest.raises(ValueError):
                blocks(spec, -1, 3)

    def test_blocks_nest(self):
        rng = random.Random(23)
        for _ in range(10):
            _, pats, rays = random_spec(rng)
            spec = build_spec(pats, rays)
            b2, b3 = blocks(spec, 2, 5), blocks(spec, 3, 5)
            for w in b3:
                assert w[:2] in b2 and w[1:] in b2

    def test_pruned_enumeration_matches_every_word(self):
        rng = random.Random(29)
        for _ in range(25):
            pats = [random_pattern(rng, 3, 3, 0.3)
                    for _ in range(rng.randint(0, 3))]
            rays = [random_ray(rng, 3).shift_to(0)
                    for _ in range(rng.randint(0, 1))]
            allow = None if rng.random() < 0.6 else \
                [random_word(rng, rng.randint(1, 2), 3)
                 for _ in range(rng.randint(1, 2))]
            spec = make_spec(pats, rays, allow_tails=allow)
            for n in range(5):
                want = {w for w in itertools.product(range(4), repeat=n)
                        if word_in_language(spec, w)}
                want |= {w + (EMPTY,) * (n - m) for m in range(1, n)
                         for w in itertools.product(range(4), repeat=m)
                         if _finite_word_ok(spec, w)}
                if inf_infinite(spec):
                    want.add((EMPTY,) * n)
                assert blocks(spec, n, 4) == want, (spec, n)


class TestFollowers:
    def test_single_letter_followers(self):
        listed, infinite = follower_set(GM, (1,), 1, "forward", cutoff=4)
        assert listed == {(0,), (2,), (3,)}
        assert infinite

    def test_ray_followers(self):
        listed, infinite = follower_set(GM, parse_ray("(0)^- 1 @0"), 1,
                                        "forward", cutoff=4)
        assert listed == {(0,), (2,), (3,)}
        assert infinite

    def test_predecessors(self):
        listed, infinite = follower_set(GM, (1,), 1, "backward", cutoff=4)
        assert listed == {(0,), (2,), (3,)}
        assert infinite

    def test_negative_cutoff_rejected(self):
        with pytest.raises(CutoffTooSmall):
            follower_set(make_spec(), (), 1, cutoff=-1)
        assert follower_set(make_spec(), (), 1, cutoff=0) == (set(), True)

    def test_ray_outside_language(self):
        spec = make_spec(allow_tails=["1"])
        with pytest.raises(NotInLanguage):
            follower_set(spec, parse_ray("(0)^- @0"), 1, "forward", 3)

    def test_extension_property_of_finite_members(self):
        assert has_iep(GM, parse_point("(0)^- 1 . #"))
        rng = random.Random(24)
        for _ in range(20):
            _, pats, rays = random_spec(rng)
            spec = build_spec(pats, rays)
            from conftest import random_finite
            x = random_finite(rng)
            if contains(spec, x):
                assert has_iep(spec, x)


class TestMinimality:
    def test_redundant_wildcard_made_minimal(self):
        spec = make_spec(forbid_words=["*2"], forbid_tails_containing=["1"])
        ok, witness = is_minimal(spec)
        assert not ok and witness is not None
        small = minimalize(spec)
        assert small.patterns == frozenset({(1,), (2,)})
        assert not small.rays
        assert is_minimal(small) == (True, None)

    def test_minimal_spec_recognized(self):
        assert is_minimal(GM) == (True, None)
        assert is_minimal(make_spec(forbid_words=["11", "1"]))[0] is False

    def test_subsumed_longer_word_dropped(self):
        spec = make_spec(forbid_words=["112", "11"])
        assert minimalize(spec).patterns == frozenset({(1, 1)})

    def test_allowlist_rejected(self):
        with pytest.raises(AllowlistUnsupported):
            is_minimal(make_spec(allow_tails=["1"]))

    def test_minimalize_preserves_blocks(self):
        rng = random.Random(25)
        for _ in range(8):
            pats = [random_pattern(rng, max_len=3, letters=3)
                    for _ in range(rng.randint(1, 2))]
            spec = build_spec(pats, [])
            small = minimalize(spec)
            assert is_minimal(small) == (True, None)
            for n in (1, 2, 3):
                assert blocks(spec, n, 4) == blocks(small, n, 4), (pats, n)

    def test_minimalize_preserves_ray_constraints(self):
        spec = make_spec(forbid_tails=["(1)^-"])
        small = minimalize(spec)
        assert not ray_in_language(small, parse_ray("(1)^- @0"))
        assert ray_in_language(small, parse_ray("(01)^- @0"))

    def test_ray_windows_in_scan_order(self):
        # is_minimal reports the first missing window, so the order is
        # part of the answer: by length, then from the ray's end leftwards.
        rng = random.Random(209)
        for _ in range(60):
            ray = random_ray(rng)
            big = rng.randint(1, 4)
            depth = len(ray.period) + len(ray.transient) + big
            k = ray.end_index
            want = [tuple(ray[j - n + 1 + i] for i in range(n))
                    for n in range(1, big + 1)
                    for j in range(k, k - depth, -1)]
            assert list(_ray_windows(ray, big)) == want


class TestClassification:
    def test_plain_word_spec(self):
        c = classify(GM)
        assert (c.row_finite, c.column_finite) == (False, False)
        assert c.m_step == 1 and c.finite_type

    def test_wildcards_spoil_finite_type(self):
        c = classify(make_spec(forbid_words=["*2"]))
        assert c.m_step == 1 and not c.finite_type

    def test_tail_constraints_have_no_step(self):
        assert classify(make_spec(allow_tails=["1"])).m_step is None
        assert classify(make_spec(forbid_tails=["(1)^-"])).m_step is None

    def test_finite_alphabet_is_row_and_column_finite(self):
        c = classify(make_spec(forbid_words=["11"], alphabet=[0, 1]))
        assert c.row_finite and c.column_finite

    def test_flags_match_follower_sets(self):
        # Oracle: the infinite flags of the one-letter follower and
        # predecessor sets of every letter class that is a block.
        rng = random.Random(262)
        for _ in range(150):
            pats = [random_pattern(rng, 3, 3, 0.3)
                    for _ in range(rng.randint(0, 3))]
            rays = [random_ray(rng, 3).shift_to(0)
                    for _ in range(rng.randint(0, 2))]
            allow = None if rng.random() < 0.5 else \
                [random_word(rng, rng.randint(1, 2), 3)
                 for _ in range(rng.randint(1, 2))]
            spec = make_spec(pats, rays, allow_tails=allow)
            letters = sorted(spec.mentioned) + [max(spec.mentioned,
                                                    default=-1) + 1]
            flags = {d: any(follower_set(spec, (a,), 1, d, cutoff=1)[1]
                            for a in letters
                            if word_in_language(spec, (a,)))
                     for d in ("forward", "backward")}
            c = classify(spec)
            assert (c.row_finite, c.column_finite) == \
                (not flags["forward"], not flags["backward"]), spec


class TestComparison:
    def test_redundant_member_ignored(self):
        other = make_spec(forbid_words=["11", "112"])
        assert equal_spaces(GM, other, 4, 4) == (True, None)

    def test_different_words_witnessed(self):
        eq, witness = equal_spaces(GM, make_spec(forbid_words=["12"]), 3, 3)
        assert not eq and witness in {(1, 1), (1, 2)}

    def test_tail_difference_witnessed_by_ray(self):
        eq, witness = equal_spaces(make_spec(allow_tails=["1"]), make_spec(),
                                   2, 3)
        assert not eq
        assert ray_in_language(make_spec(), witness)
        assert not ray_in_language(make_spec(allow_tails=["1"]), witness)

    def test_negative_budget_rejected(self):
        a = make_spec(forbid_words=["1*"], allow_tails=["0"])
        b = make_spec(forbid_words=["1*"], allow_tails=["2"])
        for x, y in ((a, b), (GM, GM)):
            with pytest.raises(ValueError):
                equal_spaces(x, y, -1, 4)

    def test_difference_beyond_the_budget(self):
        assert equal_spaces(make_spec(), make_spec(forbid_words=["0123"]),
                            1, 4) == (False, (0, 1, 2, 3))

    def test_tail_covered_one_way_only(self):
        # (1)^- forbids every point (1)^- 2 does, and more besides.
        a = make_spec(forbid_tails=["(1)^- 2"])
        b = make_spec(forbid_tails=["(1)^-"])
        for x, y in ((a, b), (b, a)):
            assert equal_spaces(x, y, 3, 4) == (False, parse_ray("(1)^-"))

    def test_exact_rule_against_budgeted_scan(self):
        rng = random.Random(17)
        verdicts = {}
        for i in range(120):
            kind = ("infinite", "finite", "tails")[i % 3]
            a, b = random_equality_pair(rng, kind)
            eq, witness = equal_spaces(a, b, 3, 4)
            if eq:
                assert budget_difference(a, b) is None, (a, b)
            elif isinstance(witness, LeftRay):
                assert ray_in_language(a, witness) != \
                    ray_in_language(b, witness), (a, b, witness)
            else:
                assert word_in_language(a, witness) != \
                    word_in_language(b, witness), (a, b, witness)
            verdicts.setdefault(kind, set()).add(eq)
        assert verdicts == {k: {True, False}
                            for k in ("infinite", "finite", "tails")}


def budget_difference(a, b, letters=range(4), n=3, plen=2, tlen=2):
    """A word of length at most n, or a ray with period at most plen and
    transient at most tlen, over the letters, on which a and b disagree;
    None when there is none."""
    for k in range(1, n + 1):
        for w in itertools.product(letters, repeat=k):
            if word_in_language(a, w) != word_in_language(b, w):
                return w
    for p, t in itertools.product(range(1, plen + 1), range(tlen + 1)):
        for per in itertools.product(letters, repeat=p):
            for tr in itertools.product(letters, repeat=t):
                ray = canonicalize_ray(per, tr, 0)
                if ray_in_language(a, ray) != ray_in_language(b, ray):
                    return ray
    return None


def random_equality_pair(rng: random.Random, kind: str):
    """Two specs over letters < 3 that are often, but not always, equal.

    ``infinite``: patterns on the infinite alphabet, the second spec
    altered by a redundant extension, a wildcard specialised to every
    mentioned letter, or a pattern dropped.  ``finite``: the same patterns
    over finite alphabets, or one side on the infinite alphabet.
    ``tails``: equal patterns with tails drawn from two random rays and
    their one-letter extensions (covered by the ray); some are dead.
    """
    pats = [random_pattern(rng, 3, 3, 0.3) for _ in range(rng.randint(1, 3))]
    other = list(pats)
    if kind == "finite":
        a_alpha, b_alpha = (rng.choice([None, range(2), range(3)])
                            for _ in range(2))
        return (make_spec(forbid_words=pats, alphabet=a_alpha),
                make_spec(forbid_words=other, alphabet=b_alpha))
    if kind == "infinite":
        p = rng.choice(pats)
        roll = rng.random()
        if roll < 0.3:
            other.append(p + (rng.choice([0, 1, 2, STAR]),))
        elif roll < 0.6 and STAR in p:
            i = p.index(STAR)
            other.remove(p)
            other += [p[:i] + (c,) + p[i + 1:]
                      for c in sorted(make_spec(forbid_words=pats).mentioned)]
        elif len(pats) > 1:
            other.remove(p)
        return make_spec(forbid_words=pats), make_spec(forbid_words=other)
    pool = []
    for _ in range(2):
        r = random_ray(rng, 3)
        r = canonicalize_ray(r.period[:2], r.transient[:1], 0)
        pool += [r, canonicalize_ray(r.period,
                                     r.transient + (rng.randrange(3),), 0)]
    tails = [rng.sample(pool, rng.randint(0, 2)) for _ in range(2)]
    return (make_spec(forbid_words=pats, forbid_tails=tails[0]),
            make_spec(forbid_words=other, forbid_tails=tails[1]))


class TestLanguage:
    def test_equal_specs_built_apart_share_one_language(self):
        for alphabet in (None, range(3)):
            a, b = (make_spec(forbid_words=["1*0", "22"], alphabet=alphabet)
                    for _ in range(2))
            assert a is b and a.language is b.language

    def test_one_graph_per_distinct_spec(self, monkeypatch):
        built = []
        init = StateGraph.__init__

        def counting(self, *args, **kwargs):
            built.append(args[:2])
            init(self, *args, **kwargs)

        monkeypatch.setattr(spaces, "_SPECS", {})
        monkeypatch.setattr(StateGraph, "__init__", counting)
        distinct = (["11"], ["1*0", "22"], ["012"])
        # Each round builds its specs afresh, as a decision loop does.
        for rnd in range(6):
            for pats in distinct:
                spec = make_spec(forbid_words=pats, alphabet=range(3))
                w = (rnd % 3, (rnd + 1) % 3)
                assert spec.language.word(w) == word_in_language(spec, w)
                equal_spaces(spec, make_spec(forbid_words=pats,
                                             alphabet=range(3)), 3, 3)
                inf_infinite(spec)
        assert len(built) == len(distinct)


class TestInterning:
    def test_every_route_gives_the_one_object(self):
        for alphabet in (None, range(3)):
            spec = make_spec(forbid_words=["11", "2*0"], alphabet=alphabet)
            routes = (
                ForbiddenSpec(spec.patterns, spec.rays, spec.allow,
                              spec.alphabet),
                ForbiddenSpec(frozenset(spec.patterns),
                              alphabet=spec.alphabet),
                make_spec(forbid_words=["2*0", "11", "11"],
                          alphabet=alphabet),
                spec_from_json(spec_to_json(spec)),
                replace(spec),
                replace(make_spec(forbid_words=["11", "2*0"],
                                  forbid_tails=["(1)^-"]),
                        rays=frozenset(), alphabet=spec.alphabet))
            assert all(s is spec for s in routes), routes
        assert minimalize(make_spec(forbid_words=["11", "1"])) is \
            make_spec(forbid_words=["1"])

    def test_unequal_values_stay_apart(self):
        plain = make_spec(forbid_words=["11"])
        for other in (make_spec(forbid_words=["11"], alphabet=()),
                      make_spec(forbid_words=["11"], allow_tails=())):
            assert frozenset() in (other.alphabet, other.allow)
            assert other is not plain and other != plain

    def test_equality_is_identity(self):
        rng = random.Random(41)
        specs = []
        for _ in range(60):
            pats = [random_pattern(rng, 2, 2, 0.3)
                    for _ in range(rng.randint(0, 2))]
            alphabet = None if rng.random() < 0.5 else range(3)
            specs.append(make_spec(forbid_words=pats, alphabet=alphabet))
        for a in specs:
            for b in specs:
                same = (a.patterns, a.rays, a.allow, a.alphabet) == \
                    (b.patterns, b.rays, b.allow, b.alphabet)
                assert (a == b) == (a is b) == same, (a, b)
                assert (hash(a) == hash(b)) == same, (a, b)

    def test_one_build_per_value_across_routes(self, monkeypatch):
        graphs, matchers = [], []
        init, compile_patterns = StateGraph.__init__, spaces.compile_patterns

        def counting_init(self, *args, **kwargs):
            graphs.append(args[:2])
            init(self, *args, **kwargs)

        def counting_compile(patterns):
            matchers.append(patterns)
            return compile_patterns(patterns)

        monkeypatch.setattr(spaces, "_SPECS", {})
        monkeypatch.setattr(StateGraph, "__init__", counting_init)
        monkeypatch.setattr(spaces, "compile_patterns", counting_compile)
        values = (["11"], ["1*0", "22"], ["012"])
        for pats in values:
            spec = make_spec(forbid_words=pats, alphabet=range(3))
            for s in (spec, spec_from_json(spec_to_json(spec)),
                      replace(spec, rays=frozenset()),
                      ForbiddenSpec(spec.patterns, alphabet=spec.alphabet)):
                assert s.language.word((0, 1)) == word_in_language(s, (0, 1))
                assert contains(s, parse_point("(0)^- . (0)^+")) != \
                    s.matcher.occurs_in((0,) * 3)
        assert len(graphs) == len(matchers) == len(values)


class TestSerialization:
    def test_round_trip(self):
        spec = make_spec(forbid_words=["11", "*2"],
                         forbid_tails=["(1)^-"], allow_tails=None,
                         alphabet=None)
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_round_trip_with_extras(self):
        spec = make_spec(forbid_words=["01"], allow_tails=["2"],
                         alphabet=[0, 1, 2])
        assert spec_from_json(spec_to_json(spec)) == spec
