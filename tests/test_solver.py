import pytest

from helpers import connected_graphs, glue_blocks

from neartree.errors import InputError, InternalError
from neartree.families import coloring_family
from neartree.graph import (
    Graph,
    Instance,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from neartree.solver import (
    ALL_SINGLETONS,
    CONTRACT_ALL,
    SHATTER,
    Coloring,
    ExhaustiveColorings,
    FamilyColorings,
    RandomColorings,
    classify_component,
    monochromatic_components,
    refine_coloring,
    solve,
    solve_2connected,
)
from neartree.witness import (
    WitnessCheck,
    WitnessStructure,
    verify_witness,
    witness_from_solution,
)

C4 = cycle_graph([1, 2, 3, 4])
C5 = cycle_graph([1, 2, 3, 4, 5])
P5 = path_graph([1, 2, 3, 4, 5])
BOWTIE = Graph.build([1, 2, 3, 4, 5], [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
K4 = complete_graph([1, 2, 3, 4])
C6_CHORD = Graph.build(range(1, 7), list(cycle_graph(range(1, 7)).edges) + [(1, 4)])


class TestComponents:
    def test_single_color(self):
        p3 = path_graph([1, 2, 3])
        comps = monochromatic_components(p3, Coloring.of({1: 1, 2: 1, 3: 1}, 2))
        assert comps == [frozenset({1, 2, 3})]

    def test_alternating(self):
        p3 = path_graph([1, 2, 3])
        comps = monochromatic_components(p3, Coloring.of({1: 1, 2: 2, 3: 1}, 2))
        assert len(comps) == 3

    def test_c4_halves(self):
        comps = monochromatic_components(C4, Coloring.of({1: 1, 2: 1, 3: 2, 4: 2}, 2))
        assert set(comps) == {frozenset({1, 2}), frozenset({3, 4})}

    def test_partial_coloring_rejected(self):
        with pytest.raises(InputError):
            monochromatic_components(C4, Coloring.of({1: 1, 2: 1}, 2))


class TestClassification:
    def test_contract_all_on_c5_arc(self):
        x = frozenset({1, 2, 3})
        parts = [x, frozenset({4, 5})]
        assert classify_component(C5, x, parts).kind == CONTRACT_ALL

    def test_all_singletons_on_p5_interior(self):
        x = frozenset({2, 3, 4})
        parts = [frozenset({1}), x, frozenset({5})]
        assert classify_component(P5, x, parts).kind == ALL_SINGLETONS

    def test_shatter_when_interior_degree_exceeds_two(self):
        g = star_graph(2, [1, 3, 4])  # path 1-2-3 with an extra leaf at 2
        x = frozenset({1, 2, 3})
        parts = [x, frozenset({4})]
        case = classify_component(g, x, parts)
        assert case.kind == SHATTER
        assert case.boundary == frozenset({2})

    def test_shatter_on_non_path(self):
        k4 = complete_graph([1, 2, 3, 4])
        x = frozenset({1, 2, 3})
        parts = [x, frozenset({4})]
        assert classify_component(k4, x, parts).kind == SHATTER

    def test_singleton_is_trivial(self):
        assert classify_component(C5, frozenset({3}), []).kind == ALL_SINGLETONS


class TestRefine:
    def test_c4_free_pass(self):
        res = refine_coloring(C4, Coloring.of({1: 1, 2: 2, 3: 1, 4: 2}, 4), k=0, ell=1)
        assert res is not None
        structure, cost = res
        assert cost == 0 and all(len(b) == 1 for b in structure.bags)

    def test_c4_three_one_split(self):
        res = refine_coloring(C4, Coloring.of({1: 1, 2: 1, 3: 1, 4: 2}, 2), k=2, ell=0)
        assert res is not None
        structure, cost = res
        assert cost == 2
        assert set(structure.bags) == {frozenset({1, 2, 3}), frozenset({4})}
        assert verify_witness(C4, structure, 0, 2).valid

    def test_c4_rainbow_fails_for_tree_target(self):
        res = refine_coloring(C4, Coloring.of({1: 1, 2: 2, 3: 3, 4: 4}, 4), k=2, ell=0)
        assert res is None


class TestSolve2Connected:
    def test_c4_tree_contraction(self):
        sol = solve_2connected(C4, 2, 0, ExhaustiveColorings())
        assert sol is not None and sol.cost == 2

    def test_c4_budget_one_fails(self):
        assert solve_2connected(C4, 1, 0, ExhaustiveColorings()) is None

    def test_rule_shortcut_for_members(self):
        sol = solve_2connected(C4, 0, 1, RandomColorings(seed=1, iterations=1))
        assert sol is not None and sol.cost == 0 and not sol.edges

    def test_non_two_connected_rejected(self):
        # bowtie: not in the class at ell=0, big enough to skip the oracle
        # fallback, and has a cut vertex
        with pytest.raises(InputError):
            solve_2connected(BOWTIE, 1, 0, ExhaustiveColorings())


class TestSolve:
    def test_bowtie_single_contraction(self):
        sol = solve(Instance(BOWTIE, 1, 1), ExhaustiveColorings())
        assert sol is not None and sol.cost == 1

    def test_bowtie_already_close(self):
        sol = solve(Instance(BOWTIE, 0, 2), ExhaustiveColorings())
        assert sol is not None and not sol.edges

    def test_path_is_a_tree(self):
        sol = solve(Instance(path_graph([1, 2, 3, 4]), 0, 0), ExhaustiveColorings())
        assert sol is not None and not sol.edges

    def test_negative_budget(self):
        assert solve(Instance(C4, -1, 0), ExhaustiveColorings()) is None

    def test_disconnected_is_no(self):
        g = Graph.build([1, 2, 3, 4], [(1, 2), (3, 4)])
        assert solve(Instance(g, 3, 2), ExhaustiveColorings()) is None

    def test_matches_oracle_up_to_six_vertices(self, oracle_cache):
        for n in range(2, 7):
            for g in connected_graphs(n):
                for ell in range(0, 3):
                    for k in range(0, 4):
                        want = oracle_cache.decide(g, k, ell)
                        got = solve(Instance(g, k, ell), ExhaustiveColorings())
                        assert (got is not None) == want, (sorted(g.edges), k, ell)

    def test_matches_oracle_on_sample_of_eight_vertex_graphs(self, oracle_cache):
        import random

        rng = random.Random(7)
        graphs = connected_graphs(7)
        sample = [graphs[rng.randrange(len(graphs))] for _ in range(25)]
        for base in sample:
            # extend to 8 vertices by one random attachment
            nbrs = sorted(rng.sample(sorted(base.vertices), rng.randint(1, 3)))
            g = Graph.build(list(base.vertices) + [8],
                            list(base.edges) + [(8, x) for x in nbrs])
            if g.m > 24:
                continue
            for ell in (0, 1, 2):
                for k in (0, 2, 3):
                    want = oracle_cache.decide(g, k, ell)
                    got = solve(Instance(g, k, ell), ExhaustiveColorings())
                    assert (got is not None) == want


class TestCutVertexRecursion:
    def test_excess_splits_across_the_cut(self, oracle_cache):
        # two K4 blocks sharing a vertex: each side needs one contraction to
        # reach excess 1, so the only successful split is (1,1) of ell=2
        from neartree.graph import complete_graph as kn

        left = kn([1, 2, 3, 4])
        right = kn([1, 5, 6, 7])
        g = Graph.build(range(1, 8), list(left.edges) + list(right.edges))
        assert oracle_cache.decide(g, 2, 2)
        assert not oracle_cache.decide(g, 1, 2)
        sol = solve(Instance(g, 2, 2), ExhaustiveColorings())
        assert sol is not None and sol.cost == 2
        assert solve(Instance(g, 1, 2), ExhaustiveColorings()) is None

    def test_one_side_contracts_to_a_tree(self, oracle_cache):
        # K4 hanging off a C5 at a cut vertex, ell=1: the cycle side can keep
        # the excess, the K4 side must become a tree (2 contractions)
        c5 = cycle_graph([1, 2, 3, 4, 5])
        k4 = complete_graph([1, 6, 7, 8])
        g = Graph.build(range(1, 9), list(c5.edges) + list(k4.edges))
        want = oracle_cache.decide(g, 2, 1)
        sol = solve(Instance(g, 2, 1), ExhaustiveColorings())
        assert want and sol is not None and sol.cost == 2
        # all solution edges live on the clique side
        assert all(u in {1, 6, 7, 8} and v in {1, 6, 7, 8} for u, v in sol.edges)
        assert solve(Instance(g, 1, 1), ExhaustiveColorings()) is None


class TestLemmaConsistency:
    def test_contract_all_beats_forced_singletons(self):
        # C5 arc {1,2,3} with palette halves: chosen handling contracts the
        # arc; forcing singletons instead admits no cheaper valid witness
        chosen = WitnessStructure.of([{1, 2, 3}, {4, 5}])
        assert verify_witness(C5, chosen, 0, 3).valid
        for alt in (
            WitnessStructure.of([{1}, {2}, {3}, {4, 5}]),
            WitnessStructure.of([{1}, {2}, {3}, {4}, {5}]),
        ):
            check = verify_witness(C5, alt, 0, 3)
            assert not check.valid or check.cost >= 3

    def test_singletons_beat_forced_contraction(self):
        # P5 interior {2,3,4}: keeping singletons costs 0; contracting the
        # whole component wastes budget
        free = WitnessStructure.of([{v} for v in P5.vertices])
        assert verify_witness(P5, free, 0, 0).valid
        forced = WitnessStructure.of([{1}, {2, 3, 4}, {5}])
        check = verify_witness(P5, forced, 0, 3)
        assert check.valid and check.cost > 0


class TestRandomMode:
    def test_yes_instance_trials_always_verify(self):
        hits = 0
        for seed in range(200):
            sol = solve(Instance(BOWTIE, 1, 1), RandomColorings(seed=seed, iterations=8))
            if sol is not None:
                hits += 1
                w = witness_from_solution(BOWTIE, sol.edges)
                assert verify_witness(BOWTIE, w, 1, 1).valid
        print(f"\nrandom-mode hit rate on bowtie k=1 ell=1: {hits}/200")
        assert hits > 0

    def test_no_instance_never_accepted(self, oracle_cache):
        assert not oracle_cache.decide(C4, 1, 0)
        for seed in range(200):
            assert solve(Instance(C4, 1, 0), RandomColorings(seed=seed, iterations=6)) is None


class TestFamilyMode:
    def test_family_mode_matches_exhaustive_small(self, oracle_cache):
        for n in range(3, 6):
            mode_cache = {}
            for g in connected_graphs(n):
                for ell in (0, 1):
                    for k in (0, 1, 2):
                        key = (n, k, ell)
                        if key not in mode_cache:
                            fam = coloring_family(n, k, ell)
                            mode_cache[key] = FamilyColorings(fam.functions, fam.n)
                        got = solve(Instance(g, k, ell), mode_cache[key])
                        want = solve(Instance(g, k, ell), ExhaustiveColorings())
                        assert (got is None) == (want is None)


class TestBlockKnapsack:
    # (blocks, joins): consecutive blocks share a cut vertex (0) or are
    # joined by a tree path of that many edges
    GRAPHS = [
        ([K4, C5], [0]), ([K4, C5], [1]), ([C5, C6_CHORD], [0]), ([C6_CHORD, K4], [2]),
        ([K4, K4], [0]), ([C5, C5], [1]), ([C6_CHORD, C6_CHORD], [0]),
        ([K4, C5, C6_CHORD], [0, 1]), ([C5, K4, K4], [1, 0]), ([C6_CHORD, C5, K4], [0, 0]),
    ]
    SMALL = [([K4, K4], [0]), ([K4, C5], [0]), ([K4, K4], [1]), ([C5, K4], [0])]

    def test_exhaustive_matches_oracle_on_multi_block_graphs(self, oracle_cache):
        for blocks, joins in self.GRAPHS:
            g = glue_blocks(blocks, joins)
            for ell in range(4):
                for k in range(4):
                    want = oracle_cache.decide(g, k, ell)
                    sol = solve(Instance(g, k, ell), ExhaustiveColorings())
                    assert (sol is not None) == want, (sorted(g.edges), k, ell)

    def test_derand_matches_oracle_on_multi_block_graphs(self, oracle_cache):
        # the universal families outgrow their size cap beyond 8 vertices or ell = 1
        modes = {}
        for blocks, joins in self.SMALL:
            g = glue_blocks(blocks, joins)
            for ell in (0, 1):
                for k in (1, 2, 3):
                    if (g.n, k, ell) not in modes:
                        fam = coloring_family(g.n, k, ell)
                        modes[g.n, k, ell] = FamilyColorings(fam.functions, fam.n)
                    want = oracle_cache.decide(g, k, ell)
                    got = solve(Instance(g, k, ell), modes[g.n, k, ell])
                    assert (got is not None) == want, (sorted(g.edges), k, ell)

    def test_large_tree_with_blocks_needs_no_recursion(self):
        # a 5000-vertex path with side branches, deeper than the default
        # recursion limit, carrying a K4, a C5 and a chorded C6 (excess 6)
        import random

        rng = random.Random(5)
        n = 5000
        edges = [(v - 1, v) for v in range(2, 4001)]
        edges += [(rng.randint(1, v - 1), v) for v in range(4001, n + 1)]
        for anchor, block in ((1000, K4), (2500, C5), (4500, C6_CHORD)):
            order = sorted(block.vertices)
            ids = dict(zip(order, [anchor] + list(range(n + 1, n + len(order)))))
            edges += [(ids[u], ids[v]) for u, v in block.edges]
            n += len(order) - 1
        g = Graph.build(range(1, n + 1), edges)
        sol = solve(Instance(g, 3, 3), ExhaustiveColorings())
        assert sol is not None and sol.cost <= 3
        assert solve(Instance(g, 1, 3), ExhaustiveColorings()) is None


class TestSoundnessChecks:
    def test_failed_verification_raises_internal_error(self, monkeypatch):
        import neartree.solver as solver_module

        def reject(g, w, ell, k):
            return WitnessCheck(False, w.cost(), "quotient-outside-class")

        monkeypatch.setattr(solver_module, "verify_witness", reject)
        with pytest.raises(InternalError):
            solve(Instance(BOWTIE, 1, 1), ExhaustiveColorings())
