from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import connected_graphs, subdivide_paths, three_long_runs

from neartree.errors import InputError
from neartree.graph import (
    Graph,
    Instance,
    contract_edges,
    cycle_graph,
    path_graph,
    star_graph,
)
from neartree.kernel import (
    CommonNbrContract,
    KernelTrace,
    LongPathContract,
    TwinDelete,
    degree_threshold,
    kernelize,
    kernelize_exact,
    lift_solution,
    lossy_degree,
    partition_hir,
    reduce_common_neighborhood,
    reduce_false_twins,
    reduce_long_paths,
    replay,
    size_bound,
)
from neartree.oracle import exact_decide, exact_opt
from neartree.witness import verify_witness, witness_from_solution


def biclique(a: int, b: int) -> Graph:
    left = list(range(1, a + 1))
    right = list(range(a + 1, a + b + 1))
    return Graph.build(left + right, [(u, v) for u in left for v in right])


class TestLongPaths:
    def test_c10_single_step(self):
        red, step = reduce_long_paths(Instance(cycle_graph(range(1, 11)), 1, 0))
        assert isinstance(step, LongPathContract)
        assert red.graph.n == 5 and red.k == 1
        assert reduce_long_paths(red)[1] is None

    def test_c6_untouched_at_k4(self):
        inst = Instance(cycle_graph(range(1, 7)), 4, 0)
        red, step = reduce_long_paths(inst)
        assert step is None and red is inst

    def test_p20_fixpoint_length(self):
        inst = Instance(path_graph(range(1, 21)), 2, 0)
        while True:
            inst, step = reduce_long_paths(inst)
            if step is None:
                break
        assert inst.graph.n == 6  # interior <= k+2 = 4

    def test_interior_only_counts_degree_two(self):
        # high-degree anchors with a short chain: no qualifying path
        g = Graph.build(range(1, 8),
                        [(1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (1, 7), (5, 6), (5, 7)])
        red, step = reduce_long_paths(Instance(g, 0, 0))
        assert step is not None  # interior 2,3,4 has q=3 > 2
        red2, step2 = reduce_long_paths(Instance(g, 1, 0))
        assert step2 is None  # q=3 is not > 3

    @pytest.mark.parametrize("k", [1, 2])
    def test_every_long_run_shortens_in_one_call(self, k):
        g = three_long_runs()
        red, step = reduce_long_paths(Instance(g, k, 0))
        assert step is not None
        h = red.graph
        assert all(h.degree(a) == g.degree(a) for a in (1, 2, 3, 4))
        runs = h.subgraph(v for v in h.vertices if h.degree(v) == 2).components()
        # k + 2 interior vertices each: the two chains keep k + 2 vertices,
        # the cycle through vertex 1 one more, since its path ends at 1 once
        assert sorted(len(r) for r in runs) == [k + 2, k + 2, k + 3]
        assert reduce_long_paths(red)[1] is None

    def test_lift_maps_each_edge_between_the_same_groups(self):
        g = three_long_runs()
        inst = Instance(g, 1, 0)
        red, step = reduce_long_paths(inst)
        trace = KernelTrace((step,), None)
        for e in sorted(red.graph.edges):
            lifted = lift_solution(inst, trace, {e})
            assert len(lifted) == 1 and lifted <= g.edges
            back, _ = contract_edges(g, step.contracted + tuple(lifted))
            assert back == contract_edges(red.graph, [e])[0], e


class TestPartition:
    def test_star_thresholds(self):
        inst = Instance(star_graph(1, range(2, 14)), 1, 0)
        assert degree_threshold(1, 0) == 9
        part = partition_hir(inst)
        assert part.high == frozenset({1})
        assert part.independent == frozenset(range(2, 14))
        assert not part.rest

    def test_c5_all_rest(self):
        part = partition_hir(Instance(cycle_graph(range(1, 6)), 1, 0))
        assert not part.high and not part.independent
        assert len(part.rest) == 5

    def test_biclique(self):
        part = partition_hir(Instance(biclique(2, 10), 1, 0))
        assert part.high == frozenset({1, 2})
        assert len(part.independent) == 10


class TestFalseTwins:
    def test_star_loses_a_leaf(self):
        red, step = reduce_false_twins(Instance(star_graph(1, range(2, 14)), 1, 0))
        assert isinstance(step, TwinDelete)
        assert red.graph.n == 12

    def test_biclique_loses_a_leaf(self):
        red, step = reduce_false_twins(Instance(biclique(2, 10), 1, 0))
        assert step is not None and red.graph.n == 11

    def test_c5_untouched(self):
        inst = Instance(cycle_graph(range(1, 6)), 1, 0)
        _, step = reduce_false_twins(inst)
        assert step is None


class TestCommonNeighborhood:
    def test_degree_arithmetic(self):
        assert lossy_degree(2.0) == 2
        assert lossy_degree(1.5) == 3
        assert lossy_degree(1.1) == 11

    def test_too_close_to_one(self):
        with pytest.raises(InputError):
            lossy_degree(1.01)
        with pytest.raises(InputError):
            lossy_degree(1.0)

    def test_biclique_contracts_star(self):
        red, step = reduce_common_neighborhood(Instance(biclique(2, 10), 1, 0), 2.0)
        assert isinstance(step, CommonNbrContract)
        assert step.d == 2
        assert red.k == 0
        assert red.graph.n == 10 and red.graph.m == 9  # a star on 10 vertices

    def test_c5_untouched(self):
        _, step = reduce_common_neighborhood(Instance(cycle_graph(range(1, 6)), 1, 0), 2.0)
        assert step is None


class TestKernelize:
    def test_c5_fixed_point(self):
        inst = Instance(cycle_graph(range(1, 6)), 1, 0)
        red, trace = kernelize(inst, 2.0)
        assert red.graph == inst.graph
        assert not trace.steps and trace.resolved is None

    def test_c100_shrinks_to_small_cycle(self):
        red, trace = kernelize(Instance(cycle_graph(range(1, 101)), 1, 0), 2.0)
        assert red.graph.n <= 1 + 4  # cycle length k + 4
        assert all(isinstance(s, LongPathContract) for s in trace.steps)
        assert len(trace.steps) == 1  # the whole cycle shortens in one contraction

    def test_biclique_trace_and_bound(self):
        inst = Instance(biclique(2, 10), 1, 0)
        red, trace = kernelize(inst, 2.0)
        assert trace.steps
        assert red.graph.n <= size_bound(1, 0, 2)
        stages, _ = replay(inst, trace)
        assert stages[-1].graph == red.graph and stages[-1].k == red.k

    def test_members_resolve_yes(self):
        red, trace = kernelize(Instance(path_graph(range(1, 30)), 0, 0), 2.0)
        assert trace.resolved == "yes"

    def test_budgetless_nonmembers_resolve_no(self):
        red, trace = kernelize(Instance(cycle_graph(range(1, 6)), 0, 0), 2.0)
        assert trace.resolved == "no"

    def test_replay_detects_mismatch(self):
        inst = Instance(cycle_graph(range(1, 6)), 1, 0)
        bogus = KernelTrace((LongPathContract(((1, 3),)),), None)
        with pytest.raises(InputError):
            replay(inst, bogus)


class TestLift:
    def test_empty_trace_identity(self):
        inst = Instance(cycle_graph(range(1, 5)), 2, 1)
        out = lift_solution(inst, KernelTrace((), None), frozenset({(1, 2)}))
        assert out == frozenset({(1, 2)})

    def test_lossy_step_restores_star(self):
        inst = Instance(biclique(2, 10), 1, 0)
        _, step = reduce_common_neighborhood(inst, 2.0)
        out = lift_solution(inst, KernelTrace((step,), None), frozenset())
        assert out == frozenset(step.contracted)

    def test_overflow_returns_everything(self):
        g = cycle_graph(range(1, 11))
        inst = Instance(g, 1, 0)
        red, trace = kernelize(inst, 2.0)
        too_big = frozenset(sorted(red.graph.edges)[:2])  # k' + 1 = 2 edges
        out = lift_solution(inst, trace, too_big)
        assert out == g.edges

    def test_no_flag_returns_everything(self):
        g = cycle_graph(range(1, 6))
        inst = Instance(g, 0, 0)
        red, trace = kernelize(inst, 2.0)
        assert trace.resolved == "no"
        assert lift_solution(inst, trace, frozenset()) == g.edges

    def test_foreign_solution_rejected(self):
        inst = Instance(biclique(2, 10), 1, 0)
        red, trace = kernelize(inst, 2.0)
        with pytest.raises(InputError):
            lift_solution(inst, trace, frozenset({(100, 101)}))


class TestExactRules:
    def test_preserve_decision_small_sweep(self, oracle_cache):
        for n in range(2, 7):
            for g in connected_graphs(n):
                for ell in (0, 1, 2):
                    for k in (0, 1, 2, 3):
                        inst = Instance(g, k, ell)
                        red, trace = kernelize_exact(inst)
                        want = oracle_cache.decide(g, k, ell)
                        got = exact_decide(red)
                        assert got == want, (sorted(g.edges), k, ell)

    def test_preserve_decision_on_larger_shapes(self):
        shapes = [
            Instance(cycle_graph(range(1, 12)), 2, 0),
            Instance(cycle_graph(range(1, 12)), 2, 1),
            Instance(path_graph(range(1, 15)), 1, 0),
            Instance(star_graph(1, range(2, 14)), 1, 0),
            Instance(biclique(2, 10), 1, 0),
            Instance(biclique(2, 10), 2, 1),
        ]
        for inst in shapes:
            red, _ = kernelize_exact(inst)
            assert red.graph.m <= 24
            assert exact_decide(red) == exact_decide_big(inst)


CORES = [g for n in (2, 3, 4) for g in connected_graphs(n)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_rules_match_the_oracle_on_subdivided_cores(data):
    """The oracle decides the kernel's output as it decides a copy whose
    subdivided paths the test shortens itself to k + 3 inner vertices (still
    above the rule's k + 2); a yes lifts to a solution of the original."""
    core = data.draw(st.sampled_from(CORES))
    k = data.draw(st.sampled_from((1, 2)))
    ell = data.draw(st.sampled_from((0, 1, 2)))
    chosen = data.draw(st.lists(st.sampled_from(sorted(core.edges)),
                                min_size=1, max_size=2, unique=True))
    inner = {e: data.draw(st.integers(3, 15)) for e in chosen}
    g = subdivide_paths(core, inner)
    # at most 6 core edges plus 2 * (k + 4): within the oracle's 24 edges
    short = subdivide_paths(core, {e: min(s, k + 3) for e, s in inner.items()})
    inst = Instance(g, k, ell)
    red, trace = kernelize_exact(inst)
    want = exact_decide(Instance(short, k, ell))
    assert exact_decide(red) == want
    if want:
        f_red, _ = exact_opt(red.graph, ell, k)
        lifted = lift_solution(inst, trace, f_red)
        assert verify_witness(g, witness_from_solution(g, lifted), ell, k).valid


def exact_decide_big(inst: Instance) -> bool:
    # direct answer for shapes whose unreduced size passes the oracle cap
    if inst.graph.m <= 24:
        return exact_decide(inst)
    raise AssertionError("test shape too large for the reference oracle")


class TestAlphaSafety:
    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_lifted_solutions_verify_and_stay_close(self, alpha, oracle_cache):
        for n in range(3, 7):
            for g in connected_graphs(n):
                for ell in (0, 1):
                    for k in (1, 2, 3):
                        inst = Instance(g, k, ell)
                        opt = oracle_cache.opt(g, ell)
                        if opt is None or not (1 <= opt <= k):
                            continue
                        red, trace = kernelize(inst, alpha)
                        res = exact_opt(red.graph, red.ell, min(max(red.k, 0), red.graph.m, 6))
                        f_red = res[0] if res is not None else frozenset(red.graph.edges)
                        lifted = lift_solution(inst, trace, f_red)
                        w = witness_from_solution(g, lifted)
                        check = verify_witness(g, w, ell, k=len(lifted))
                        assert check.valid
                        assert min(len(lifted), k + 1) <= alpha * opt


class TestLiftOnLargerInstances:
    @pytest.mark.parametrize("alpha", [2.0, 1.5])
    def test_random_instances_up_to_twelve_vertices(self, alpha):
        from neartree.harness import gen_random_instance
        import random as _random

        rng = _random.Random(int(alpha * 100))
        done = 0
        while done < 40:
            n = rng.randint(8, 12)
            inst = gen_random_instance(n, rng.uniform(0.15, 0.3), rng.randint(1, 3),
                                       rng.randint(0, 2), seed=rng.randrange(2 ** 32))
            if inst.graph.m > 24:
                continue
            done += 1
            red, trace = kernelize(inst, alpha)
            res = exact_opt(red.graph, red.ell, min(max(red.k, 0), red.graph.m, 6))
            f_red = res[0] if res is not None else frozenset(red.graph.edges)
            lifted = lift_solution(inst, trace, f_red)
            w = witness_from_solution(inst.graph, lifted)
            assert verify_witness(inst.graph, w, inst.ell, k=len(lifted)).valid
            opt = exact_opt(inst.graph, inst.ell, min(inst.k, 6, inst.graph.m))
            opt_value = opt[1] if opt is not None else inst.k + 1
            if 1 <= opt_value <= inst.k:
                assert min(len(lifted), inst.k + 1) <= alpha * opt_value


class TestMinimalSolutionsAvoidLongPaths:
    def test_some_optimum_avoids_the_interior(self):
        # K4 with one edge subdivided into a long chain: the chain interior
        # is never needed by at least one optimum
        chain = [5, 6, 7, 8, 9, 10]
        edges = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 5), (10, 2)]
        edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        g = Graph.build(range(1, 11), edges)
        k, ell = 2, 2
        inst = Instance(g, k, ell)
        assert exact_decide(inst)
        _, best = exact_opt(g, ell, k)
        assert best >= 1
        interior = set(chain)
        minima = []
        for size_edges in combinations(sorted(g.edges), best):
            gq = witness_from_solution(g, size_edges)
            if verify_witness(g, gq, ell, best).valid:
                minima.append(size_edges)
        assert minima
        assert any(all(u not in interior and v not in interior for u, v in f)
                   for f in minima)
