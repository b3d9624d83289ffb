from itertools import combinations, product
from math import comb

import pytest

from helpers import outcome

from neartree import families
from neartree.errors import InputError, InternalError, SizeCapError
from neartree.families import (
    PERFECT_HASH,
    POOL_BLOCK,
    POOL_RANDOM,
    SPLITTER,
    UNIVERSAL,
    FunctionFamily,
    build_hash_splitter,
    build_interval_splitter,
    build_universal_greedy,
    coloring_family,
    compose_universal,
    verify_family,
    _greedy_size_bound,
)


class TestIntervalSplitter:
    def test_four_functions_for_n4_q2(self):
        fam = build_interval_splitter(4, 2, 2)
        assert len(fam) == 4
        assert verify_family(fam)

    def test_single_class_is_trivial(self):
        fam = build_interval_splitter(5, 3, 1)
        assert len(fam) == 1
        assert verify_family(fam)

    def test_full_spread(self):
        fam = build_interval_splitter(4, 4, 4)
        assert tuple(range(1, 5)) in fam.functions
        assert verify_family(fam)

    def test_size_is_choose_after_dedupe(self):
        for n in range(2, 9):
            for q in range(1, min(n, 5) + 1):
                fam = build_interval_splitter(n, min(n, 3), q)
                assert len(set(fam.functions)) == comb(n, q - 1)

    def test_bad_parameters(self):
        with pytest.raises(InputError):
            build_interval_splitter(3, 4, 2)


class TestHashSplitter:
    def test_pairs_on_five_points(self):
        fam = build_hash_splitter(5, 2)
        assert verify_family(fam)

    def test_k1_single_constant(self):
        fam = build_hash_splitter(6, 1)
        assert len(fam) == 1
        assert verify_family(fam)

    def test_identity_when_domain_fits(self):
        fam = build_hash_splitter(7, 3)  # 7 <= 9
        assert len(fam) == 1
        assert fam.functions[0] == tuple(range(1, 8))
        assert verify_family(fam)

    def test_injectivity_reading(self):
        # q = k^2 >= k makes even split mean injective
        fam = build_hash_splitter(10, 2)
        for s in combinations(range(10), 2):
            assert any(len({f[i] for i in s}) == 2 for f in fam.functions)


class TestGreedyUniversal:
    def test_minimal_for_singletons(self):
        fam = build_universal_greedy(3, 1, 2)
        assert len(fam) == 2
        assert verify_family(fam)

    def test_full_table_when_k_equals_n(self):
        fam = build_universal_greedy(2, 2, 2)
        assert len(fam) == 4
        assert verify_family(fam)

    def test_all_functions_trivially_universal(self):
        funcs = tuple(product((1, 2), repeat=3))
        fam = FunctionFamily(3, 2, UNIVERSAL, 2, funcs)
        assert verify_family(fam)

    def test_missing_assignment_detected(self):
        fam = FunctionFamily(2, 2, UNIVERSAL, 1, ((1, 1),))
        assert not verify_family(fam)

    def test_size_stays_within_twice_the_cover_bound(self):
        for (n, k, q) in [(8, 2, 3), (10, 2, 4), (12, 3, 4), (12, 3, 2), (9, 3, 3)]:
            fam = build_universal_greedy(n, k, q)
            assert verify_family(fam)
            assert len(fam) <= 2 * _greedy_size_bound(n, k, q), (n, k, q, len(fam))


    def test_size_stays_near_the_per_round_greedy(self):
        # caps: 10 % above the sizes of a build that drew a fresh pool per pick
        caps = {(7, 6, 2): 104, (8, 6, 2): 126, (10, 6, 2): 181, (7, 6, 4): 6220,
                (12, 3, 4): 218, (8, 4, 3): 207}
        for (n, k, q), cap in caps.items():
            fam = build_universal_greedy(n, k, q)
            assert verify_family(fam), (n, k, q)
            assert len(fam) <= cap, (n, k, q, len(fam))

    def test_sliced_scoring_gives_the_same_family(self, monkeypatch):
        # a pool too large for SCORE_CELLS is scored and updated in slices
        # of subsets; the counts, hence the picks, are the same
        whole = [build_universal_greedy(*c) for c in [(8, 4, 3), (9, 6, 2)]]
        monkeypatch.setattr(families, "SCORE_CELLS", 3 * (POOL_RANDOM + POOL_BLOCK))
        assert [build_universal_greedy(*c) for c in [(8, 4, 3), (9, 6, 2)]] == whole

    def test_a_family_failing_verification_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(families, "verify_family", lambda fam: False)
        with pytest.raises(InternalError):
            build_universal_greedy(7, 6, 2)

    def test_same_seed_same_family(self):
        for (n, k, q) in [(7, 6, 2), (8, 6, 2), (12, 3, 4)]:
            fam = build_universal_greedy(n, k, q, seed=3)
            assert fam == build_universal_greedy(n, k, q, seed=3), (n, k, q)
            assert verify_family(fam), (n, k, q)

class TestCompose:
    def test_pairs_two_colors(self):
        fam = compose_universal(6, 2, 2)
        assert verify_family(fam)

    def test_k1_degenerates(self):
        fam = compose_universal(5, 1, 3)
        assert verify_family(fam)

    def test_triples(self):
        fam = compose_universal(4, 2, 3)
        assert verify_family(fam)

    def test_composition_preserves_universality(self):
        for (n, k, q) in [(6, 2, 2), (8, 2, 3), (9, 2, 2), (7, 3, 2)]:
            assert verify_family(compose_universal(n, k, q)), (n, k, q)


class TestVerifier:
    def test_splitter_counterexample(self):
        fam = FunctionFamily(3, 2, SPLITTER, 2, ((1, 1, 1),))
        assert not verify_family(fam)

    def test_perfect_hash_kind(self):
        fam = FunctionFamily(4, 2, PERFECT_HASH, 2, ((1, 2, 1, 2), (1, 1, 2, 2), (1, 2, 2, 1)))
        assert verify_family(fam)
        small = FunctionFamily(3, 2, PERFECT_HASH, 2, ((1, 1, 2),))
        assert not verify_family(small)

    def test_vacuous_when_k_exceeds_n(self):
        fam = FunctionFamily(3, 2, UNIVERSAL, 5, ((1, 1, 1),))
        assert verify_family(fam)

    def test_cap(self):
        funcs = (tuple([1] * 30),)
        fam = FunctionFamily(30, 4, UNIVERSAL, 15, funcs)
        with pytest.raises(SizeCapError):
            verify_family(fam)


class TestColoringFamily:
    def test_clamps_to_domain(self):
        fam = coloring_family(5, 2, 1)  # 6k+8l = 20 > 5
        assert fam.k == 5
        assert len(fam) == 4 ** 5
        assert verify_family(fam)

    def test_unclamped_when_small(self):
        fam = coloring_family(8, 0, 1)  # target 8 = n
        assert fam.k == 8


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: FunctionFamily(2, 2, SPLITTER, 1, ((1, 3),)),
                 (InputError, "family contains a function outside [n] -> [q]"), id="color-outside"),
    pytest.param(lambda: build_hash_splitter(0, 1), (InputError, "hash splitter needs n, k >= 1"),
                 id="hash-n0"),
    pytest.param(lambda: build_universal_greedy(3, 4, 2),
                 (InputError, "universal family needs 0 <= k <= n and q >= 1"), id="greedy-k-above-n"),
    pytest.param(lambda: build_universal_greedy(30, 8, 2),
                 (SizeCapError, "constraint space 1498348800 exceeds the greedy cap 2000000"),
                 id="greedy-cap"),
    pytest.param(lambda: compose_universal(0, 1, 2), (InputError, "composition needs n, k, q >= 1"),
                 id="compose-n0"),
    pytest.param(lambda: compose_universal(2, 3, 2), (InputError, "composition needs k <= n"),
                 id="compose-k-above-n"),
    pytest.param(lambda: compose_universal(17, 4, 6),
                 (SizeCapError, "composition would emit 2663424 functions"), id="compose-cap"),
    pytest.param(lambda: verify_family(FunctionFamily(3, 2, SPLITTER, 0, ())), True,
                 id="empty-splitter-at-k0"),
    pytest.param(lambda: verify_family(FunctionFamily(3, 2, "weird", 1, ((1, 2, 1),))),
                 (InputError, "unknown family kind 'weird'"), id="unknown-kind"),
])
def test_refusals(call, expected):
    assert outcome(call) == expected
