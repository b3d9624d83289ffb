import random
import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ballast_gadget,
    common_neighborhood_reference,
    connected_graphs,
    kernelize_reference,
    outcome,
    subdivide_paths,
    three_long_runs,
    twin_gadget,
)

from neartree import kernel
from neartree.errors import InputError
from neartree.graph import (
    Graph,
    Instance,
    contract_edges,
    cycle_graph,
    edge,
    path_graph,
    star_graph,
)
from neartree.harness import serialize_trace
from neartree.kernel import (
    _long_path_edges,
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
from neartree.solver import ExhaustiveColorings, solve
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


def long_path_edges_by_definition(g: Graph, k: int) -> tuple[list, list[int]]:
    """The long-path rule's edges as defined: runs are the components of the
    subgraph on the degree-2 vertices, in order of their lowest vertex; also
    each run's number of anchors."""
    sub = g.subgraph(v for v in g.vertices if g.degree(v) == 2)
    out, anchor_counts = [], []
    for run in sub.components():
        anchors = frozenset().union(*(g.neighbors(v) for v in run)) - run
        anchor_counts.append(len(anchors))
        surplus = len(run) - 2 + len(anchors) - (k + 2)
        if surplus > 0:
            out += sorted({edge(v, w) for v in run for w in sub.neighbors(v)})[:surplus]
    return out, anchor_counts


class TestRunWalk:
    def test_matches_the_component_definition(self):
        # every connected graph of up to 6 vertices, as it is and with one
        # and two seeded edges subdivided by 3-12 vertices
        rng = random.Random(6)
        anchor_counts = set()
        for n in range(1, 7):
            for core in connected_graphs(n):
                es = sorted(core.edges)
                for chosen in ([], *(rng.sample(es, min(c, len(es))) for c in (1, 2))):
                    g = subdivide_paths(core, {e: rng.randint(3, 12) for e in chosen})
                    for k in range(4):
                        want, counts = long_path_edges_by_definition(g, k)
                        assert _long_path_edges(g, k) == want, (sorted(g.edges), k)
                        anchor_counts.update(counts)
        # plain cycles (no anchor), cycles through one anchor, chains
        assert {0, 1, 2} <= anchor_counts


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
        # only alpha = 1 itself is too close: d has no cap, and a d above
        # every degree leaves the lossy rule nothing to contract
        assert lossy_degree(1.01) == 101
        _, step = reduce_common_neighborhood(Instance(biclique(2, 10), 1, 0), 1.01)
        assert step is None
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

    @staticmethod
    def hub_probe(shared: tuple[int, ...] = ()) -> Graph:
        """40 hubs (1..40), each made high by 9 pendant paths of length 2,
        and 120 independent vertices on seeded distinct hub triples, so no
        triple is shared twice; plus k + ell + 2 = 3 vertices on `shared`."""
        rng = random.Random(40)
        triples = rng.sample(list(combinations(range(1, 41), 3)), 120) + [shared] * 3
        edges, n = [], 40
        for hubs in filter(None, triples):
            n += 1
            edges += [(h, n) for h in hubs]
        for h in range(1, 41):
            for _ in range(9):
                edges += [(h, n + 1), (n + 1, n + 2)]
                n += 2
        return Graph.build(range(1, n + 1), edges)

    def test_hub_count_matches_the_scan_over_every_hub_set(self):
        """The first shared hub set, found by counting each independent
        vertex's d-subsets, is the one the scan over all C(|high|, d) hub
        sets finds: on the probe and on ballast twin gadgets."""
        cases = [(Instance(self.hub_probe(shared), 1, 0), alpha)
                 for shared in ((), (5, 17, 30), (2, 3, 39)) for alpha in (1.5, 2.0)]
        rng = random.Random(1500)
        for _ in range(40):
            k, ell = rng.randint(1, 3), rng.randint(0, 2)
            g = ballast_gadget(rng, k, ell)
            cases += [(Instance(g, k, ell), alpha) for alpha in (1.5, 2.0, 3.0)]
        fired = 0
        for inst, alpha in cases:
            got = reduce_common_neighborhood(inst, alpha)
            want = common_neighborhood_reference(inst, alpha)
            assert got == want, (sorted(inst.graph.edges), inst.k, inst.ell, alpha)
            fired += got[1] is not None
        assert fired >= 30, fired

    def test_hub_count_does_not_scan_every_hub_set(self):
        # d = 4 at alpha 1.34: C(40, 4) = 91,390 hub sets for the full scan,
        # none for the count, since every independent vertex has 3 hubs
        inst = Instance(self.hub_probe(), 1, 0)
        part = partition_hir(inst)
        assert len(part.high) == 40 and len(part.independent) == 120
        start = time.perf_counter()
        _, step = reduce_common_neighborhood(inst, 1.34, part)
        assert time.perf_counter() - start < 0.1
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

    def test_replay_deletes_a_run_of_twins_at_once_and_checks_each(self):
        # K2,6 with hubs 1 and 2: a run of twin deletions is one rebuild, yet
        # every step keeps its own stage and None merge, and a vertex that is
        # absent, or deleted twice within the run, is still refused by name
        inst, hubs = Instance(biclique(2, 6), 1, 0), frozenset({1, 2})
        run = tuple(TwinDelete(v, hubs) for v in (3, 4, 5))
        stages, merges = replay(inst, KernelTrace(run + (LongPathContract(((1, 6),)),)))
        assert merges[:3] == [None] * 3 and merges[3] is not None
        assert [s.graph for s in stages[1:4]] == [inst.graph.without({3, 4, 5})] * 3
        assert stages[-1].graph.n == 4 and [s.k for s in stages] == [1] * 5
        for steps, absent in ((run + (TwinDelete(4, hubs),), 4),
                              ((TwinDelete(9, hubs),) + run, 9)):
            with pytest.raises(InputError, match=f"trace mismatch: vertex {absent} absent"):
                replay(inst, KernelTrace(steps))


class TestRunsMatchTheStepLoop:
    """`kernelize` and `kernelize_exact` give what the plain fixed point of
    the one-step rules gives (`kernelize_reference`): the same trace, reduced
    graph, reduced budget and resolution."""

    def test_on_twin_gadgets(self):
        rng = random.Random(2017)
        fired = Counter()
        for _ in range(120):
            g = twin_gadget(rng, rng.randint(1, 4), rng.randint(0, 40))
            for k in range(-2, 4):
                for ell in range(3):
                    inst = Instance(g, k, ell)
                    for alpha in (None, 1.5, 2.0, 3.0) if k >= 0 else (None,):
                        red, trace = kernelize(inst, alpha) if alpha else kernelize_exact(inst)
                        ref, ref_trace = kernelize_reference(inst, alpha)
                        assert (serialize_trace(inst, red, trace)
                                == serialize_trace(inst, ref, ref_trace)), (sorted(g.edges), k, ell, alpha)
                        assert red.graph == ref.graph and red.k == ref.k
                        assert trace.resolved == ref_trace.resolved
                        fired.update(type(step).__name__ for step in trace.steps)
        assert min(fired[name] for name in ("LongPathContract", "TwinDelete",
                                            "CommonNbrContract")) >= 50, fired

    @staticmethod
    def k2t_on_a_triangle(t: int) -> Graph:
        """K_{2,t} with hubs 4 and 5 hung on vertex 1 of a triangle 1-2-3
        whose edge 2-3 is a path through 20 vertices."""
        path = [2, *range(6 + t, 26 + t), 3]
        edges = [(1, 2), (1, 3), (1, 4), (1, 5), *zip(path, path[1:])]
        edges += [(h, w) for h in (4, 5) for w in range(6, 6 + t)]
        return Graph.build(range(1, 26 + t), edges)

    def test_graph_rebuilds_do_not_grow_with_t(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kernel, "contract_edges", counted("contract_edges", kernel.contract_edges))
        monkeypatch.setattr(Graph, "without", counted("without", Graph.without))
        per_t = []
        for t in (20, 60):
            calls.clear()
            red, trace = kernelize(Instance(self.k2t_on_a_triangle(t), 1, 0), 2.0)
            # the hubs fall from degree t + 1 to 8, below the threshold 9
            assert sum(isinstance(step, TwinDelete) for step in trace.steps) == t - 7
            per_t.append(dict(calls))
        assert per_t[0] == per_t[1], per_t


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
    # at most 6 core edges plus 2 * (k + 4), far below the 208 edges the oracle admits at k = 2
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


def planted_tree(seed: int, n: int, cycles: int) -> Graph:
    """A seeded random tree on n vertices, a third of them hung on one of
    four hubs (so the hubs' leaves are false twins), carrying `cycles`
    5-8-cycles, each sharing one tree vertex and crossed by one chord
    (excess 2 each)."""
    rng = random.Random(seed)
    edges = [(rng.randint(1, min(4, v - 1)) if rng.random() < 1 / 3 else rng.randint(1, v - 1), v)
             for v in range(2, n + 1)]
    total = n
    for _ in range(cycles):
        size = rng.randint(5, 8)
        ring = [rng.randint(1, n), *range(total + 1, total + size)]
        total += size - 1
        edges += [*zip(ring, ring[1:] + ring[:1]), (ring[0], ring[rng.randint(2, size - 2)])]
    return Graph.build(range(1, total + 1), edges)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(250, 2000), cycles=st.integers(2, 3),
       data=st.data())
def test_planted_yes_instances_are_never_a_kernel_no(seed, n, cycles, data):
    """On a tree with chorded cycles at k = OPT (exhaustive mode decides it
    exactly), the kernel never says no, and an exhaustive solution of the
    reduced instance lifts to a verified one within alpha * OPT."""
    g = planted_tree(seed, n, cycles)
    ell = data.draw(st.integers(0, 2 * cycles - 1))
    found = frozenset(g.edges)
    while (sol := solve(Instance(g, len(found) - 1, ell), ExhaustiveColorings())) is not None:
        found = sol.edges  # cheaper than the last solution; OPT is where that fails
    opt = len(found)
    assert opt >= 1
    inst = Instance(g, opt, ell)
    red, trace = kernelize(inst, 2.0)
    assert trace.resolved != "no"
    sol = solve(red, ExhaustiveColorings())
    lifted = lift_solution(inst, trace, sol.edges if sol else red.graph.edges)
    assert verify_witness(g, witness_from_solution(g, lifted), ell, len(lifted)).valid
    assert min(len(lifted), opt + 1) <= 2.0 * opt


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


@pytest.mark.parametrize("call, expected", [
    # a disconnected graph is a no before any rule runs
    pytest.param(lambda: kernelize(Instance(Graph.build([1, 2, 3, 4], [(1, 2), (3, 4)]), 1, 0), 2.0)[1],
                 KernelTrace((), "no"), id="kernelize-disconnected"),
    pytest.param(lambda: replay(Instance(path_graph([1, 2, 3]), 1, 0), KernelTrace(("fold",), None)),
                 (InputError, "unknown step 'fold'"), id="replay-unknown-step"),
])
def test_refusals(call, expected):
    assert outcome(call) == expected
