import itertools
import random
import time
from functools import cache, partial

import pytest

from helpers import (
    _block_chromatic,
    connected_graphs,
    connected_partitions_brute,
    girth,
    glue_blocks,
    hypercube,
    outcome,
    planted_graph,
    quotient_reference,
    shortest_cycle_through,
    subdivided_k33,
)

from neartree.errors import InputError, InternalError, SizeCapError
from neartree.families import coloring_family
from neartree.graph import (
    Graph,
    Instance,
    biconnected_blocks,
    complete_graph,
    cycle_graph,
    excess,
    mask_index,
    near_tree_coloring,
    palette_size,
    path_graph,
    star_graph,
)
from neartree.oracle import exact_decide
from neartree.solver import (
    ALL_SINGLETONS,
    CONTRACT_ALL,
    SHATTER,
    ExhaustiveColorings,
    FamilyColorings,
    RandomColorings,
    _block_profile,
    _connected_partitions,
    _live,
    _quotient_excess,
    _refine,
    _shape,
    classify_component,
    default_iterations,
    monochromatic_components,
    solve,
    solve_2connected,
)
from neartree.witness import (
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
        comps = monochromatic_components(p3, {1: 1, 2: 1, 3: 1})
        assert comps == [frozenset({1, 2, 3})]

    def test_alternating(self):
        p3 = path_graph([1, 2, 3])
        comps = monochromatic_components(p3, {1: 1, 2: 2, 3: 1})
        assert len(comps) == 3

    def test_c4_halves(self):
        comps = monochromatic_components(C4, {1: 1, 2: 1, 3: 2, 4: 2})
        assert set(comps) == {frozenset({1, 2}), frozenset({3, 4})}

    def test_partial_coloring_rejected(self):
        with pytest.raises(InputError):
            monochromatic_components(C4, {1: 1, 2: 1})


class TestClassification:
    def test_contract_all_on_c5_arc(self):
        x = frozenset({1, 2, 3})
        parts = [x, frozenset({4, 5})]
        assert classify_component(C5, x, parts) == CONTRACT_ALL

    def test_all_singletons_on_p5_interior(self):
        x = frozenset({2, 3, 4})
        parts = [frozenset({1}), x, frozenset({5})]
        assert classify_component(P5, x, parts) == ALL_SINGLETONS

    def test_shatter_when_interior_degree_exceeds_two(self):
        g = star_graph(2, [1, 3, 4])  # path 1-2-3 with an extra leaf at 2
        x = frozenset({1, 2, 3})
        parts = [x, frozenset({4})]
        case = classify_component(g, x, parts)
        assert case == SHATTER

    def test_shatter_on_non_path(self):
        k4 = complete_graph([1, 2, 3, 4])
        x = frozenset({1, 2, 3})
        parts = [x, frozenset({4})]
        assert classify_component(k4, x, parts) == SHATTER

    def test_singleton_is_trivial(self):
        assert classify_component(C5, frozenset({3}), []) == ALL_SINGLETONS

    def test_foreign_vertex_is_an_input_error(self):
        for x, parts in ((frozenset({99}), []), (frozenset({3}), [frozenset({4, 99})])):
            with pytest.raises(InputError, match="vertex 99 is not in the graph"):
                classify_component(C5, x, parts)


class TestRefine:
    @staticmethod
    def refine_coloring(g: Graph, coloring: dict[int, int], k: int, ell: int):
        """The witness `_refine` makes of one coloring's components on g's
        mask index, with its cost, or None when it costs more than k or its
        quotient excess (`_quotient_excess`) passes ell."""
        idx = mask_index(g)
        parts = tuple(idx.mask(c) for c in monochromatic_components(g, coloring))
        refined = _refine(idx.adj, parts, k, partial(_shape, idx.adj), {})
        if refined is None or _quotient_excess(idx.adj, refined[0]) > ell:
            return None
        return WitnessStructure.of(map(idx.members, refined[0])), refined[1]

    def test_c4_free_pass(self):
        res = self.refine_coloring(C4, {1: 1, 2: 2, 3: 1, 4: 2}, k=0, ell=1)
        assert res is not None
        structure, cost = res
        assert cost == 0 and all(len(b) == 1 for b in structure.bags)

    def test_c4_three_one_split(self):
        res = self.refine_coloring(C4, {1: 1, 2: 1, 3: 1, 4: 2}, k=2, ell=0)
        assert res is not None
        structure, cost = res
        assert cost == 2
        assert set(structure.bags) == {frozenset({1, 2, 3}), frozenset({4})}
        assert verify_witness(C4, structure, 0, 2).valid

    def test_contract_all_components_count_against_the_budget(self):
        # both C5 arcs contract whole (3 contractions); the quotient is a tree
        assert self.refine_coloring(C5, {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}, k=3, ell=0)[1] == 3
        assert self.refine_coloring(C5, {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}, k=2, ell=0) is None

    def test_c4_rainbow_fails_for_tree_target(self):
        res = self.refine_coloring(C4, {1: 1, 2: 2, 3: 3, 4: 4}, k=2, ell=0)
        assert res is None


class TestPartitionEnumeration:
    """The connected partitions whose block-adjacency graph is q-colorable
    are exactly the component partitions of all q^n colorings; the
    chromatic number comes from the reference `helpers._block_chromatic`."""

    @staticmethod
    def by_colorings(g: Graph, q: int) -> set:
        verts = sorted(g.vertices)
        out = set()
        for colors in itertools.product(range(q), repeat=g.n):
            classes = [[v for v, c in zip(verts, colors) if c == color] for color in range(q)]
            out.add(frozenset(comp for cls in classes for comp in g.subgraph(cls).components()))
        return out

    @staticmethod
    def by_masks(g: Graph, q: int) -> set:
        idx = mask_index(g)
        return {frozenset(map(idx.members, masks))
                for masks, _ in _connected_partitions((1 << g.n) - 1, idx.adj, lambda: g.n, g.m)
                if _block_chromatic(masks, idx.adj) <= q}

    def test_matches_all_colorings(self):
        sample = random.Random(3).sample(connected_graphs(6), 12)
        for g in [g for n in range(1, 6) for g in connected_graphs(n)] + sample:
            for q in (2, 3, 4):
                assert self.by_masks(g, q) == self.by_colorings(g, q), (sorted(g.edges), q)


class TestBudgetCut:
    """Exhaustive scans offer each connected partition as its own witness
    and drop a prefix of parts once its cost, the sum of |part| - 1, passes
    the budget, or once its bags (the frozen singletons outside the scanned
    mask, then the parts) have more than ell + |bags| - 1 adjacent pairs.
    With no excess cut (ell = m) exactly the partitions dearer than the
    budget go; with it, exactly those with a prefix past either floor, which
    leaves every partition within the budget and ell.  The rest keep their
    order, each with its number of adjacent pairs of bags."""

    @staticmethod
    def graphs() -> list[Graph]:
        rng = random.Random(9)
        out = [g for n in range(1, 7) for g in connected_graphs(n)]
        for i in range(12):
            n = 7 + i % 2
            edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
            extra = rng.randint(2, 5)
            while len(edges) < n - 1 + extra:
                edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
            out.append(Graph.build(range(1, n + 1), edges))
        return out

    def test_keeps_exactly_the_partitions_within_budget_in_order(self):
        dropped = 0
        for g in self.graphs():
            adj = mask_index(g).adj
            full = (1 << g.n) - 1
            every = [p for p, _ in _connected_partitions(full, adj, lambda: g.n, g.m)]
            for budget in range(4):
                kept = [p for p, _ in _connected_partitions(full, adj, lambda: budget, g.m)]
                want = [p for p in every if sum(x.bit_count() - 1 for x in p) <= budget]
                assert kept == want, (sorted(g.edges), budget)
                dropped += len(every) - len(kept)
        assert dropped > 0

    @staticmethod
    def floors(g: Graph, idx, full: int, parts: tuple[int, ...]) -> tuple[list[tuple[int, int]], Graph]:
        """(cost, adjacent pairs of bags) of each prefix of a partition's
        parts, the frozen singletons (the vertices outside `full`) counted
        first, and the partition's quotient."""
        frozen = [{v} for v in idx.members((1 << g.n) - 1 & ~full)]
        members = frozen + [idx.members(x) for x in parts]
        part_of = {v: i for i, p in enumerate(members) for v in p}
        touching = {tuple(sorted((part_of[u], part_of[v]))) for u, v in g.edges
                    if part_of[u] != part_of[v]}
        prefixes = [(sum(len(p) - 1 for p in members[:len(frozen) + i + 1]),
                     sum(1 for _, j in touching if j <= len(frozen) + i)) for i in range(len(parts))]
        return prefixes, quotient_reference(g, WitnessStructure.of(members))

    def test_keeps_exactly_the_prefixes_within_both_floors_in_order(self):
        # every non-empty `full` on up to 5 vertices, and on 6 the whole set
        # and a seeded sample: the vertices left out are frozen singletons,
        # whose pairs count from the first prefix on
        cut = {False: 0, True: 0}  # partitions the excess floor drops, by whether any vertex is frozen
        rng = random.Random(5)
        for g in (g for n in range(3, 7) for g in connected_graphs(n)):
            idx = mask_index(g)
            masks = range(1, 1 << g.n)
            for full in masks if g.n <= 5 else [masks[-1], *rng.sample(masks[:-1], 3)]:
                frozen = g.n - full.bit_count()
                every = list(_connected_partitions(full, idx.adj, lambda: g.n, g.m))
                scored = [self.floors(g, idx, full, parts) for parts, _ in every]
                assert [pairs for _, pairs in every] == [q.m for _, q in scored], (sorted(g.edges), full)
                for budget in range(4):
                    for ell in range(3):
                        kept = list(_connected_partitions(full, idx.adj, lambda: budget, ell))
                        case = (sorted(g.edges), full, budget, ell)
                        assert kept == [scan for scan, (prefixes, _) in zip(every, scored)
                                        if all(cost <= budget and pairs <= ell + frozen + i
                                               for i, (cost, pairs) in enumerate(prefixes))], case
                        assert {scan for scan, (prefixes, q) in zip(every, scored)
                                if prefixes[-1][0] <= budget and excess(q) <= ell} <= set(kept), case
                        cut[frozen > 0] += sum(1 for prefixes, _ in scored
                                               if prefixes[-1][0] <= budget) - len(kept)
        assert cut[False] > 0 and cut[True] > 0  # the excess floor drops partitions the budget keeps

    @staticmethod
    def strip(n: int) -> Graph:
        """Edges i-(i+1) and i-(i+2) on 1..n: one block, every vertex on a
        triangle, excess n - 2."""
        return Graph.build(range(1, n + 1), [(i, j) for i in range(1, n + 1)
                                             for j in (i + 1, i + 2) if j <= n])

    def test_a_long_block_is_scanned_without_recursion(self):
        # one contraction inside a triangle lowers the excess by two: on
        # 1,100 vertices the yes is a partition of about 1,100 parts, each
        # one more open prefix on the scan's stack, not one more frame
        g = self.strip(1100)
        sol = solve(Instance(g, 1, 1096), ExhaustiveColorings())
        assert sol is not None and sol.cost == 1
        assert verify_witness(g, sol.witness, 1096, 1).valid
        # the work cap, not recursion, bounds the scan
        with pytest.raises(SizeCapError, match="^a block of 3000 vertices on short cycles "):
            solve(Instance(self.strip(3000), 1, 2996), ExhaustiveColorings())

    def test_a_dense_block_past_the_work_cap_is_refused(self):
        # the 5-cube at (5, 30): all 32 vertices lie on 4-cycles and a scan
        # with five contractions lists far more than SCAN_WORK_CAP parts, so
        # it is refused, naming the block, before the listing runs long
        q5 = hypercube(5)
        start = time.perf_counter()
        with pytest.raises(SizeCapError, match="^a block of 32 vertices on short cycles passes "
                                               "the exhaustive scan's work cap of 1048576 "):
            solve(Instance(q5, 5, 30), ExhaustiveColorings())
        assert time.perf_counter() - start < 10


class TestColoringLemma:
    """Why colorings reach every partition, the reason random and family
    modes are complete: refine a connected partition P into bags with
    quotient excess x.  The graph H of touching parts has excess <= x, so
    the coloring lemma colors it with palette_size(x) colors, and each
    vertex taking its part's color gives back P as the monochromatic
    components."""

    def test_every_partition_is_realized_within_its_witness_palette(self):
        for g in TestBudgetCut.graphs():
            idx = mask_index(g)
            shape, shatters = cache(partial(_shape, idx.adj)), {}
            for parts, _ in _connected_partitions((1 << g.n) - 1, idx.adj, lambda: g.n, g.m):
                bags, _ = _refine(idx.adj, parts, g.n, shape, shatters)
                x = _quotient_excess(idx.adj, bags)
                members = [idx.members(p) for p in parts]
                part_of = {v: i for i, p in enumerate(members, start=1) for v in p}
                h = Graph.build(range(1, len(parts) + 1), {
                    (part_of[u], part_of[v]) for u, v in g.edges if part_of[u] != part_of[v]})
                case = (sorted(g.edges), members)
                assert excess(h) <= x, case
                colors = near_tree_coloring(h, excess(h))
                assert len(set(colors.values())) <= palette_size(x), case
                lifted = {v: colors[part_of[v]] for v in g.vertices}
                assert set(monochromatic_components(g, lifted)) == set(members), case


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

    def test_matches_oracle_on_planted_graphs_past_24_edges(self):
        # 150 seeded sparse graphs of 30-72 edges at k 0-3, ell 0-4: the
        # oracle's work cap admits every one (72 edges at k = 3 is its limit)
        rng = random.Random("planted-past-24")
        decided = set()
        for _ in range(150):
            while True:
                extra, blown = rng.randrange(5), rng.randrange(4)
                g = planted_graph(rng, rng.randrange(20, 66), extra, blown)
                if 30 <= g.m <= 72:
                    break
            inst = Instance(g, rng.randrange(4), min(4, max(0, extra + rng.randrange(-1, 2))))
            want = exact_decide(inst)
            sol = solve(inst, ExhaustiveColorings())
            assert (sol is not None) == want, (sorted(g.edges), inst.k, inst.ell)
            if sol is not None:
                assert verify_witness(g, sol.witness, inst.ell, inst.k).valid
            decided.add(want)
        assert decided == {False, True}


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


class TestDefaultIterations:
    def test_a_huge_k_stops_at_ten_times_the_palette_power(self):
        # q = 2 at ell = 0: 10 * 2^4 = 160, without computing 2^(6 * 10^9)
        start = time.perf_counter()
        assert default_iterations(4, 10**9, 0) == 160
        assert time.perf_counter() - start < 0.1


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


class TestDerandMode:
    def test_large_blocks_are_scanned_with_no_family(self, monkeypatch):
        # two K2,11 blocks with their hub edge, sharing vertex 1: 13 vertices
        # on triangles each, and exhaustive mode scans both at (k, ell) =
        # (2, 0) with every universal family build refused
        import neartree.families as families_module

        def refuse(*args, **kwargs):
            raise AssertionError("a universal family was built")

        for name in ("coloring_family", "build_universal_greedy"):
            monkeypatch.setattr(families_module, name, refuse)
        edges = [(1, 2), (1, 14)] + [(h, v) for h in (1, 2) for v in range(3, 14)]
        edges += [(h, v) for h in (1, 14) for v in range(15, 26)]
        sol = solve(Instance(Graph.build(range(1, 26), edges), 2, 0), ExhaustiveColorings())
        assert sol is not None and sol.edges == {(1, 2), (1, 14)}


class TestBlockKnapsack:
    # (blocks, joins): consecutive blocks share a cut vertex (0) or are
    # joined by a tree path of that many edges
    GRAPHS = [
        ([K4, C5], [0]), ([K4, C5], [1]), ([C5, C6_CHORD], [0]), ([C6_CHORD, K4], [2]),
        ([K4, K4], [0]), ([C5, C5], [1]), ([C6_CHORD, C6_CHORD], [0]),
        ([K4, C5, C6_CHORD], [0, 1]), ([C5, K4, K4], [1, 0]), ([C6_CHORD, C5, K4], [0, 0]),
    ]

    def test_exhaustive_matches_oracle_on_multi_block_graphs(self, oracle_cache):
        for blocks, joins in self.GRAPHS:
            g = glue_blocks(blocks, joins)
            for ell in range(4):
                for k in range(4):
                    want = oracle_cache.decide(g, k, ell)
                    sol = solve(Instance(g, k, ell), ExhaustiveColorings())
                    assert (sol is not None) == want, (sorted(g.edges), k, ell)

    def test_derand_matches_oracle_on_multi_block_graphs(self, oracle_cache):
        # the family is built over the largest block, as the CLI builds it
        modes = {}
        for blocks, joins in self.GRAPHS:
            g = glue_blocks(blocks, joins)
            largest = max(b.n for b in biconnected_blocks(g)[0])
            for ell in range(3):
                for k in (1, 2, 3):
                    if (largest, k, ell) not in modes:
                        fam = coloring_family(largest, k, ell)
                        modes[largest, k, ell] = FamilyColorings(fam.functions, fam.n)
                    want = oracle_cache.decide(g, k, ell)
                    got = solve(Instance(g, k, ell), modes[largest, k, ell])
                    assert (got is not None) == want, (sorted(g.edges), k, ell)

    def test_solve_does_not_depend_on_block_order(self, monkeypatch):
        # a bowtie whose four rim vertices each carry three leaves: its two
        # triangles match in size and share their lowest-ranked vertex, the
        # hub, so only their other ranks tell which goes last
        import neartree.solver as solver_module

        rng = random.Random(27)
        leaves = [(r, 6 + 3 * i + j) for i, r in enumerate((2, 3, 4, 5)) for j in range(3)]
        bowtie = Graph.build(range(1, 18), list(BOWTIE.edges) + leaves)
        cases = [(bowtie, 1, 1)]
        for _ in range(5):
            ids = dict(zip(range(1, 18), rng.sample(range(1, 18), 17)))
            cases.append((Graph.build(ids.values(), [(ids[u], ids[v]) for u, v in bowtie.edges]), 1, 1))
        for _ in range(30):  # 2-3 blocks, chained, with a pendant forest
            blocks = [rng.choice([C4, C5, K4, BOWTIE, C6_CHORD]) for _ in range(rng.randint(2, 3))]
            g = glue_blocks(blocks, [rng.choice([0, 0, 1, 2]) for _ in blocks[1:]])
            edges, n = list(g.edges), g.n
            for v in range(n + 1, n + rng.randint(1, 8) + 1):
                edges.append((rng.randint(1, v - 1), v))
            g = Graph.build(range(1, v + 1), edges)
            cases += [(g, k, ell) for k in (1, 2, 3) for ell in (0, 1, 2)]

        def edges_of(g, k, ell):
            sol = solve(Instance(g, k, ell), ExhaustiveColorings())
            return None if sol is None else sol.edges

        want = [edges_of(*case) for case in cases]
        assert want[0] == {(2, 3)}
        forward = solver_module.biconnected_blocks

        def reversed_blocks(g):
            blocks, components = forward(g)
            return blocks[::-1], components

        monkeypatch.setattr(solver_module, "biconnected_blocks", reversed_blocks)
        for case, edges in zip(cases, want):
            assert edges_of(*case) == edges, (sorted(case[0].edges), case[1:])

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


class TestShortCycleFloor:
    """Only a vertex on a cycle of at most budget + 2 edges can sit in a bag
    of more than one vertex of a cheapest witness, so `_block_profile` scans
    those live vertices alone and returns a block with none unscanned."""

    def test_finds_exactly_the_cycles_within_the_length(self):
        graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
        graphs += [cycle_graph(range(1, n + 1)) for n in (7, 11, 12)] + [subdivided_k33()]
        for g in graphs:
            idx, shortest, through = mask_index(g), girth(g), shortest_cycle_through(g, 13)
            for length in range(14):
                live = _live(idx.adj, length)
                assert (live != 0) == (shortest <= length), (sorted(g.edges), length)
                assert idx.members(live) == {v for v in g.vertices if through[v] <= length}, (
                    sorted(g.edges), length)

    def test_freezing_the_other_vertices_keeps_the_least_excess(self):
        # the lemma, by brute force: over every partition into connected
        # bags, the least quotient excess within cost c is the same when each
        # vertex on no cycle of at most c + 2 edges must stay a singleton
        for g in (g for n in range(3, 7) for g in connected_graphs(n)):
            through = shortest_cycle_through(g, g.n)
            scored = [(g.n - len(p), excess(quotient_reference(g, WitnessStructure.of(p))), p)
                      for p in connected_partitions_brute(g)]
            for c in range(g.n):
                live = {v for v in g.vertices if through[v] <= c + 2}
                within = [(x, p) for cost, x, p in scored if cost <= c]
                frozen = [x for x, p in within if all(len(bag) == 1 or bag <= live for bag in p)]
                assert min(x for x, _ in within) == min(frozen), (sorted(g.edges), c)

    def test_profiles_match_the_oracle_on_every_small_block(self, oracle_cache, monkeypatch):
        # with no block before it, entry e of a block's profile is the
        # optimum for excess <= e wherever that is within k; a live mask that
        # froze a vertex of every cheapest witness would leave a dearer entry
        import neartree.solver as solver_module

        floors = []

        def recorded(adj, length):
            live = _live(adj, length)
            floors.append(live != 0)
            return live

        monkeypatch.setattr(solver_module, "_live", recorded)
        blocks = [g for n in range(3, 7) for g in connected_graphs(n)
                  if biconnected_blocks(g)[0] == (g,)]
        for g in blocks:
            for ell in range(3):
                for k in range(4):
                    profile = _block_profile(g, lambda v: v, k, ell, ExhaustiveColorings(),
                                             [0] * (ell + 1), first_hit=False)
                    for e, entry in enumerate(profile):
                        opt, case = oracle_cache.opt(g, e), (sorted(g.edges), k, ell, e)
                        if opt is not None and opt <= k:
                            assert entry is not None and entry[0] == opt, case
                        else:
                            assert entry is None or entry[0] > k, case
        assert True in floors and False in floors  # some blocks scanned, some skipped

    def test_a_witness_of_exactly_the_floor_is_found(self):
        # C6 with chord 1-4 is two 4-cycles: at (2, 1) its only improving
        # witness costs g - 2 = 2, the whole budget, so a floor that asked
        # for a cycle of at most budget + 1 edges would skip the block
        for mode in (ExhaustiveColorings(), RandomColorings(1, 50)):
            sol = solve(Instance(C6_CHORD, 2, 1), mode)
            assert sol is not None and sol.cost == 2, mode


class TestSoundnessChecks:
    @staticmethod
    def reject_every_witness(monkeypatch):
        import neartree.witness as witness_module

        def reject(g, es, k, ell):
            return "quotient-outside-class", {}

        monkeypatch.setattr(witness_module, "check_edges", reject)

    def test_failed_verification_raises_internal_error(self, monkeypatch):
        self.reject_every_witness(monkeypatch)
        with pytest.raises(InternalError):
            solve(Instance(BOWTIE, 1, 1), ExhaustiveColorings())

    def test_the_early_yes_is_checked_too(self, monkeypatch):
        # a tree at k = 0 is a yes before any block is scanned
        self.reject_every_witness(monkeypatch)
        with pytest.raises(InternalError):
            solve(Instance(P5, 0, 0), ExhaustiveColorings())


# a wheel of 12 spokes: 13 vertices, all on triangles
WHEEL13 = Graph.build(range(1, 14), [(i, i % 12 + 1) for i in range(1, 13)] + [(13, i) for i in range(1, 13)])


@pytest.mark.parametrize("call, expected", [
    # min(2^(6k + 8 ell), 10 * 2^13) = 81,920 colorings at (3, 0)
    pytest.param(lambda: solve(Instance(WHEEL13, 3, 0), RandomColorings(0)),
                 (SizeCapError, "random mode's default of 81920 colorings for 13 vertices on short "
                                "cycles passes the cap 65536; give --iters"), id="random-default-cap"),
    pytest.param(lambda: solve(Instance(complete_graph(range(1, 5)), 1, 0), "fast"),
                 (InputError, "unknown mode 'fast'"), id="unknown-mode"),
])
def test_refusals(call, expected):
    assert outcome(call) == expected
