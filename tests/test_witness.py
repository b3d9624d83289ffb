from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_edge_subsets,
    connected_graphs,
    normalize_leaves_reference,
    outcome,
    quotient_reference,
    set_partitions,
    split_bag,
    verify_witness_reference,
)

from neartree.errors import InputError
from neartree.graph import (
    Graph,
    analyze_connectivity,
    contract_edges,
    cycle_graph,
    path_graph,
    star_graph,
)
from neartree.witness import (
    WitnessStructure,
    certify,
    normalize_leaves,
    quotient,
    solution_edges,
    verify_witness,
    witness_from_solution,
)

C4 = cycle_graph([1, 2, 3, 4])
P4 = path_graph([1, 2, 3, 4])


def c6_chord() -> Graph:
    """C6 with chord 1-4: two 4-cycles, excess 2, built fresh (no cached adjacency)."""
    return Graph.build(range(1, 7), [*cycle_graph(range(1, 7)).edges, (1, 4)])


class TestStructureOf:
    def test_empty_bag_is_an_input_error(self):
        for bags in ([[1], []], [[], [1]], [[]]):
            with pytest.raises(InputError, match="witness bags must be nonempty"):
                WitnessStructure.of(bags)


class TestFromSolution:
    def test_c4_single_edge(self):
        w = witness_from_solution(C4, [(1, 2)])
        assert set(w.bags) == {frozenset({1, 2}), frozenset({3}), frozenset({4})}

    def test_empty_solution_gives_singletons(self):
        w = witness_from_solution(C4, [])
        assert all(len(b) == 1 for b in w.bags)

    def test_p4_two_disjoint_edges(self):
        w = witness_from_solution(P4, [(1, 2), (3, 4)])
        assert set(w.bags) == {frozenset({1, 2}), frozenset({3, 4})}


class TestQuotient:
    def test_c4_to_triangle(self):
        w = WitnessStructure.of([{1, 2}, {3}, {4}])
        q = quotient(C4, w)
        assert q.n == 3 and q.m == 3

    def test_singletons_reproduce_graph(self):
        w = WitnessStructure.of([{v} for v in C4.vertices])
        assert quotient(C4, w) == C4

    def test_disconnected_bag_rejected(self):
        w = WitnessStructure.of([{1, 3}, {2}, {4}])
        with pytest.raises(InputError):
            quotient(C4, w)

    def test_round_trip_matches_contraction(self):
        # quotient(witness_from_solution(f)) == contract(f), all small graphs
        for n in range(2, 7):
            for g in connected_graphs(n):
                for f in all_edge_subsets(g, 3):
                    w = witness_from_solution(g, f)
                    assert quotient(g, w) == contract_edges(g, f)[0]


class TestVerify:
    def test_c4_bag_pair(self):
        w = WitnessStructure.of([{1, 2}, {3}, {4}])
        check = verify_witness(C4, w, ell=1, k=1)
        assert check.valid and check.cost == 1

    def test_triangle_is_not_a_tree(self):
        w = WitnessStructure.of([{1, 2}, {3}, {4}])
        check = verify_witness(C4, w, ell=0, k=1)
        assert not check.valid and check.reason == "quotient-outside-class"

    def test_c4_itself_within_one(self):
        w = WitnessStructure.of([{v} for v in C4.vertices])
        check = verify_witness(C4, w, ell=1, k=0)
        assert check.valid and check.cost == 0

    def test_not_partition(self):
        w = WitnessStructure.of([{1, 2}, {2, 3}, {4}])
        assert verify_witness(C4, w, 1, 3).reason == "not-partition"

    def test_disconnected_bag(self):
        w = WitnessStructure.of([{1, 3}, {2}, {4}])
        assert verify_witness(C4, w, 1, 3).reason == "disconnected-bag"

    def test_over_budget(self):
        w = WitnessStructure.of([{1, 2}, {3}, {4}])
        assert verify_witness(C4, w, 1, 0).reason == "over-budget"


class TestCostIdentity:
    def test_cost_is_minimum_edges_for_quotient(self):
        # sum(|bag|-1) edges suffice (spanning forests) and fewer never do
        for n in range(2, 7):
            for g in connected_graphs(n):
                for f in all_edge_subsets(g, 2):
                    w = witness_from_solution(g, f)
                    cost = w.cost()
                    chosen = solution_edges(g, w)
                    assert len(chosen) == cost
                    assert witness_from_solution(g, chosen).bags == w.bags
                    if cost:
                        for smaller in combinations(sorted(g.edges), cost - 1):
                            assert witness_from_solution(g, smaller).bags != w.bags


class TestSizeBounds:
    def test_budget_arithmetic_on_verified_witnesses(self):
        # with cost <= k: bags of <= k+1 vertices, <= k big bags, big bags
        # hold <= 2k vertices in total
        for n in range(2, 7):
            for g in connected_graphs(n):
                for f in all_edge_subsets(g, 3):
                    w = witness_from_solution(g, f)
                    k = w.cost()
                    assert all(len(b) <= k + 1 for b in w.bags)
                    big = [b for b in w.bags if len(b) >= 2]
                    assert len(big) <= k
                    assert sum(len(b) for b in big) <= 2 * k


class TestNormalizeLeaves:
    def test_p4_peel(self):
        w = WitnessStructure.of([{1, 2}, {3}, {4}])
        out = normalize_leaves(P4, w)
        assert set(out.bags) == {frozenset({1}), frozenset({2, 3}), frozenset({4})}

    def test_fixed_point(self):
        w = WitnessStructure.of([{1}, {2, 3}, {4}])
        assert normalize_leaves(P4, w).bags == w.bags

    def test_star_center_bag(self):
        star = star_graph(1, [2, 3, 4])
        w = WitnessStructure.of([{1, 2}, {3}, {4}])
        out = normalize_leaves(star, w)
        assert out.cost() == w.cost()
        q = quotient(star, out)
        rep = {min(b): b for b in out.bags}
        for v in q.vertices:
            if q.degree(v) == 1:
                assert len(rep[v]) == 1

    def test_small_quotient_rejected(self):
        w = WitnessStructure.of([{1, 2}, {3, 4}])
        with pytest.raises(InputError):
            normalize_leaves(P4, w)

    def test_never_increases_cost_and_stays_valid(self):
        for n in range(3, 7):
            for g in connected_graphs(n):
                for f in all_edge_subsets(g, 2):
                    w = witness_from_solution(g, f)
                    if quotient(g, w).n < 3:
                        continue
                    out = normalize_leaves(g, w)
                    assert out.cost() <= w.cost()
                    before = verify_witness(g, w, ell=3, k=n)
                    after = verify_witness(g, out, ell=3, k=n)
                    assert after.valid == before.valid
                    q_before, q_after = quotient(g, w), quotient(g, out)
                    assert (q_after.n, q_after.m) == (q_before.n, q_before.m)

    def test_one_pass_matches_the_peel_loop_on_every_witness(self):
        # every partition into connected bags with a quotient of >= 3
        # vertices, on every connected graph of 3-6 vertices
        count = 0
        for n in range(3, 7):
            for g in connected_graphs(n):
                for parts in set_partitions(sorted(g.vertices)):
                    w = WitnessStructure.of(parts)
                    if split_bag(g, w) is not None or len(w.bags) < 3:
                        continue
                    count += 1
                    q = quotient(g, w)
                    out = normalize_leaves(g, w)
                    assert out == normalize_leaves_reference(g, w), (sorted(g.edges), parts)
                    assert out.cost() == w.cost()
                    # each old bag meets exactly one new bag by containment
                    rename = {min(b): [min(c) for c in out.bags if c <= b or b <= c]
                              for b in w.bags}
                    assert all(len(r) == 1 for r in rename.values())
                    q_out = quotient(g, out)
                    assert q_out == Graph.build([r[0] for r in rename.values()],
                                                [(rename[u][0], rename[v][0]) for u, v in q.edges])
                    bag = {min(b): b for b in out.bags}
                    assert all(len(bag[v]) == 1 for v in q_out.vertices if q_out.degree(v) == 1)
        assert count == 8389


class TestCutVertexBags:
    def test_quotient_cut_vertices_come_from_big_bags(self):
        # on 2-connected graphs, a singleton bag never maps to a quotient cut
        # vertex (quotients with >= 3 vertices)
        for n in range(3, 7):
            for g in connected_graphs(n):
                if not analyze_connectivity(g).is_two_connected:
                    continue
                for f in all_edge_subsets(g, 3):
                    w = witness_from_solution(g, f)
                    q = quotient(g, w)
                    if q.n < 3:
                        continue
                    rep = {min(b): b for b in w.bags}
                    for v in analyze_connectivity(q).cut_vertices:
                        assert len(rep[v]) >= 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_accepts_any_component_partition(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    g = connected_graphs(n)[data.draw(st.integers(min_value=0, max_value=len(connected_graphs(n)) - 1))]
    edges = sorted(g.edges)
    f = data.draw(st.sets(st.sampled_from(edges), max_size=min(3, len(edges))))
    w = witness_from_solution(g, f)
    check = verify_witness(g, w, ell=g.m, k=n)  # ell = |E| always admits the quotient
    assert check.valid
    assert check.cost == sum(len(b) - 1 for b in w.bags)


class TestMatchesGraphReference:
    """The one-pass checks against the Graph-based reference in helpers:
    the same quotient or the same InputError, and the same (valid, cost,
    reason) from verify_witness at ell 0-2 and k on both sides of the cost
    (at ell 0 alone where the bags fail: ell enters only after the bag checks)."""

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args)
        except InputError as exc:
            return f"InputError: {exc}"

    def assert_same(self, g: Graph, w: WitnessStructure):
        expected = self.outcome(quotient_reference, g, w)
        assert self.outcome(quotient, g, w) == expected, w
        cost = w.cost()
        for ell in range(3) if isinstance(expected, Graph) else (0,):
            for k in (cost - 1, cost):
                expected_check = verify_witness_reference(g, w, ell, k)
                assert verify_witness(g, w, ell, k) == expected_check, (w, ell, k)

    def test_every_set_partition_of_small_connected_graphs(self):
        for n in range(1, 7):
            partitions = [WitnessStructure.of(p) for p in set_partitions(list(range(1, n + 1)))]
            for g in connected_graphs(n):
                for w in partitions:
                    self.assert_same(g, w)

    def test_a_disconnected_graph_and_the_empty_graph(self):
        two_paths = Graph.build(range(1, 6), [(1, 2), (2, 3), (4, 5)])
        for w in map(WitnessStructure.of, set_partitions([1, 2, 3, 4, 5])):
            self.assert_same(two_paths, w)
        empty = Graph(frozenset(), frozenset())
        for w in (WitnessStructure(()), WitnessStructure((frozenset({1}),))):
            self.assert_same(empty, w)

    def test_structures_built_directly(self):
        g = c6_chord()
        bags = lambda *bs: WitnessStructure(tuple(map(frozenset, bs)))  # noqa: E731
        cases = {
            "overlapping": bags({1, 2, 3}, {3, 4}, {5}, {6}),
            "missing vertex": bags({1, 2}, {3}, {4}, {5}),
            "foreign vertex": bags({1, 2}, {3}, {4}, {5}, {6, 7}),
            "empty bag": bags({1, 2, 3, 4, 5, 6}, set()),
            "disconnected bag": bags({1, 3}, {2}, {4}, {5}, {6}),
            "two split bags, out of order": bags({3, 5}, {1, 2}, {4, 6}),
            "valid, out of order": bags({5, 6}, {1, 2, 3}, {4}),
        }
        for name, w in cases.items():
            self.assert_same(g, w)
        reasons = {name: verify_witness(g, w, 1, 9).reason for name, w in cases.items()}
        assert reasons == {
            "overlapping": "not-partition", "missing vertex": "not-partition",
            "foreign vertex": "not-partition", "empty bag": "not-partition",
            "disconnected bag": "disconnected-bag",
            "two split bags, out of order": "disconnected-bag", "valid, out of order": "ok",
        }
        with pytest.raises(InputError, match=r"bag \[3, 5\] does not induce"):
            quotient(g, cases["two split bags, out of order"])


def test_checks_build_no_graph_adjacency_or_bfs(monkeypatch):
    """Every witness check runs on the union-find alone."""
    def refuse(*args):
        raise AssertionError("a witness check used Graph.components or Graph.adjacency")

    g = c6_chord()
    monkeypatch.setattr(Graph, "components", refuse)
    monkeypatch.setattr(Graph, "adjacency", property(refuse))
    sol = certify(g, [(1, 2), (2, 3)], k=2, ell=1)
    assert sol.witness == WitnessStructure.of([{1, 2, 3}, {4}, {5}, {6}])
    assert witness_from_solution(g, [(4, 5)]) == WitnessStructure.of([{1}, {2}, {3}, {4, 5}, {6}])
    assert quotient(g, sol.witness) == cycle_graph([1, 4, 5, 6])
    split = WitnessStructure.of([{1, 3}, {2}, {4}, {5}, {6}])
    singletons = WitnessStructure.of([{v} for v in g.vertices])
    assert verify_witness(g, split, 1, 2).reason == "disconnected-bag"
    assert verify_witness(g, singletons, 1, 2).reason == "quotient-outside-class"
    assert verify_witness(g, sol.witness, 0, 2).reason == "quotient-outside-class"


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: witness_from_solution(path_graph([1, 2, 3]), frozenset({(1, 3)})),
                 (InputError, "solution edges must belong to the graph"), id="edge-outside"),
])
def test_refusals(call, expected):
    assert outcome(call) == expected
