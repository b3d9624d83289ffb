from itertools import combinations
from math import comb

import pytest

from helpers import connected_graphs, subdivide_edge

from neartree.errors import SizeCapError
from neartree.graph import (
    Graph,
    Instance,
    complete_graph,
    contract_edges,
    cycle_graph,
    is_near_tree,
    path_graph,
)
from neartree.oracle import WORK_CAP, exact_decide, exact_opt
from neartree.witness import verify_witness, witness_from_solution

C4 = cycle_graph([1, 2, 3, 4])
K4 = complete_graph([1, 2, 3, 4])


class TestExactOpt:
    def test_c4_free_within_one(self):
        assert exact_opt(C4, 1, 2) == (frozenset(), 0)

    def test_c4_to_tree_costs_two(self):
        f, size = exact_opt(C4, 0, 3)
        assert size == 2

    def test_k4_to_tree_costs_two(self):
        f, size = exact_opt(K4, 0, 3)
        assert size == 2

    def test_canonical_first_subset(self):
        # size-then-lexicographic: C4's optimum must be the lexicographically
        # first working pair
        f, _ = exact_opt(C4, 0, 2)
        assert f == frozenset({(1, 2), (1, 4)})

    def test_disconnected_unsolvable(self):
        g = Graph.build([1, 2, 3, 4], [(1, 2), (3, 4)])
        assert exact_opt(g, 4, 2) is None

    def test_caps(self):
        # the cap is on edge visits, m * sum(C(m, j) for j <= min(k, m)):
        # 24 edges at k = 6 make exactly WORK_CAP of them and are admitted
        assert 24 * sum(comb(24, j) for j in range(7)) == WORK_CAP == 4_561_224
        k38 = Graph.build(range(1, 12), [(h, v) for h in (1, 2, 3) for v in range(4, 12)])
        assert k38.m == 24 and exact_opt(k38, 0, 6)[1] == 3  # hubs and one leaf in a bag
        assert exact_opt(complete_graph(range(1, 9)), 0, 2) is None  # 28 edges, 407 subsets
        assert exact_opt(C4, 0, 7)[1] == 2
        assert exact_opt(cycle_graph(range(1, 73)), 1, 3) == (frozenset(), 0)  # 72 edges
        for g, k in ((subdivide_edge(k38, (1, 4)), 6), (cycle_graph(range(1, 74)), 3)):
            with pytest.raises(SizeCapError, match="oracle refuses"):
                exact_opt(g, 0, k)

    def test_first_hit_of_a_contraction_reference(self):
        # the reference does not call check_edges: each subset, in
        # size-then-lexicographic order, is contracted by contract_edges and
        # its quotient tested by is_near_tree; the subsets are listed once
        # per graph, and the first hit at each ell answers every k
        for n in range(1, 7):
            for g in connected_graphs(n):
                first: dict[int, tuple[frozenset, int]] = {}
                for size in range(min(3, g.m) + 1):
                    for subset in combinations(sorted(g.edges), size):
                        q = contract_edges(g, subset)[0]
                        for ell in range(3):
                            if ell not in first and is_near_tree(q, ell):
                                first[ell] = frozenset(subset), size
                for ell in range(3):
                    for k in range(4):
                        hit = first.get(ell)
                        assert exact_opt(g, ell, k) == (hit if hit and hit[1] <= k else None)


class TestExactDecide:
    def test_c4_examples(self):
        assert not exact_decide(Instance(C4, 1, 0))
        assert exact_decide(Instance(C4, 0, 1))

    def test_negative_budget_is_no(self):
        assert not exact_decide(Instance(C4, -1, 1))
        assert not exact_decide(Instance(path_graph([1, 2]), -1, 0))

    def test_monotone_in_k_and_ell(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                for ell in range(0, 3):
                    for k in range(0, 3):
                        if exact_decide(Instance(g, k, ell)):
                            assert exact_decide(Instance(g, k + 1, ell))
                            assert exact_decide(Instance(g, k, ell + 1))

    def test_solutions_verify(self):
        for n in range(2, 6):
            for g in connected_graphs(n):
                for ell in range(0, 2):
                    res = exact_opt(g, ell, 3)
                    if res is None:
                        continue
                    f, size = res
                    w = witness_from_solution(g, f)
                    assert verify_witness(g, w, ell, size).valid


class TestSubdivisionRegression:
    # frozen oracle values for subdivided variants; regression surface only
    def test_c4_subdivided(self):
        g = subdivide_edge(C4, (1, 2))  # C5
        assert exact_opt(g, 0, 4)[1] == 3
        assert exact_opt(g, 1, 4)[1] == 0

    def test_k4_subdivided(self):
        g = subdivide_edge(K4, (1, 2))
        assert exact_opt(g, 0, 4)[1] == 2
        assert exact_opt(g, 1, 4)[1] == 1
        assert exact_opt(g, 2, 4)[1] == 1
        assert exact_opt(g, 3, 4)[1] == 0
