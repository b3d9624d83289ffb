import random
from itertools import combinations, permutations

import pytest

from helpers import all_edge_subsets, connected_graphs, outcome, subdivide_edge, split_vertex

from neartree.errors import InputError
from neartree.graph import (
    Graph,
    analyze_connectivity,
    biconnected_blocks,
    complete_graph,
    contract_edges,
    cycle_graph,
    edge,
    excess,
    is_near_tree,
    near_tree_coloring,
    palette_size,
    path_graph,
)
from neartree.solver import ExhaustiveColorings, solve_2connected

C4 = cycle_graph([1, 2, 3, 4])
K4 = complete_graph([1, 2, 3, 4])
P4 = path_graph([1, 2, 3, 4])
BOWTIE = Graph.build([1, 2, 3, 4, 5], [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])


class TestContraction:
    def test_c4_one_edge_gives_triangle(self):
        g, merge = contract_edges(C4, [(1, 2)])
        assert g.n == 3 and g.m == 3
        assert merge[1] == merge[2] == 1

    def test_triangle_to_single_edge(self):
        g, _ = contract_edges(complete_graph([1, 2, 3]), [(1, 2)])
        assert g == Graph.build([1, 3], [(1, 3)])

    def test_p4_middle_edge(self):
        g, _ = contract_edges(P4, [(2, 3)])
        assert g == Graph.build([1, 2, 4], [(1, 2), (2, 4)])

    def test_unknown_edge_rejected(self):
        with pytest.raises(InputError):
            contract_edges(P4, [(1, 4)])

    def test_merged_vertex_takes_smallest_id(self):
        g, merge = contract_edges(P4, [(2, 3), (3, 4)])
        assert merge[2] == merge[3] == merge[4] == 2
        assert g.vertices == frozenset({1, 2})

    def test_order_independent_on_all_small_graphs(self):
        # set contraction == any sequential order, for every graph up to 6
        # vertices and every edge subset of size <= 3
        for n in range(2, 7):
            for g in connected_graphs(n):
                for f in all_edge_subsets(g, 3):
                    if not f:
                        continue
                    whole, _ = contract_edges(g, f)
                    for order in permutations(f):
                        cur = g
                        rep = {v: v for v in g.vertices}
                        for u, v in order:
                            ru, rv = rep[u], rep[v]
                            if ru == rv:
                                continue
                            cur, mm = contract_edges(cur, [(ru, rv)])
                            rep = {orig: mm[r] for orig, r in rep.items()}
                        assert cur == whole


class TestNearTree:
    def test_paths_are_trees(self):
        assert is_near_tree(path_graph([1, 2, 3]), 0)

    def test_c4_needs_one_spare_edge(self):
        assert not is_near_tree(C4, 0)
        assert is_near_tree(C4, 1)

    def test_k4_needs_three(self):
        assert not is_near_tree(K4, 2)
        assert is_near_tree(K4, 3)

    def test_disconnected_is_outside(self):
        g = Graph.build([1, 2, 3, 4], [(1, 2), (3, 4)])
        assert not is_near_tree(g, 5)

    def test_excess(self):
        assert excess(C4) == 1 and excess(K4) == 3 and excess(P4) == 0


class TestConnectivity:
    def test_c4(self):
        rep = analyze_connectivity(C4)
        assert rep.component_count == 1
        assert not rep.cut_vertices
        assert rep.is_two_connected

    def test_bowtie(self):
        rep = analyze_connectivity(BOWTIE)
        assert rep.cut_vertices == frozenset({1})
        assert not rep.is_two_connected

    def test_two_disjoint_edges(self):
        g = Graph.build([1, 2, 3, 4], [(1, 2), (3, 4)])
        rep = analyze_connectivity(g)
        assert rep.component_count == 2

    def test_k2_is_not_two_connected(self):
        rep = analyze_connectivity(Graph.build([1, 2], [(1, 2)]))
        assert not rep.is_two_connected


class TestBlocks:
    def test_a_forest_has_no_blocks(self):
        assert biconnected_blocks(P4) == ((), 1)
        assert biconnected_blocks(Graph.build([1, 2, 3, 4], [(1, 2), (3, 4)])) == ((), 2)

    def test_every_edge_off_a_bridge_lies_in_one_block(self):
        # every edge set on 1-5 vertices (forests, isolated vertices and
        # disconnected graphs among them) and every connected graph on 6
        assert biconnected_blocks(Graph(frozenset(), frozenset())) == ((), 0)
        graphs = [Graph.build(range(1, n + 1), es) for n in range(1, 6)
                  for es in all_edge_subsets(complete_graph(range(1, n + 1)), n * (n - 1) // 2)]
        for g in graphs + list(connected_graphs(6)):
            count = len(g.components())
            bridges = {e for e in g.edges
                       if len(Graph(g.vertices, g.edges - {e}).components()) > count}
            blocks, components = biconnected_blocks(g)
            assert components == count, sorted(g.edges)
            assert sum(b.m for b in blocks) == g.m - len(bridges), sorted(g.edges)
            assert frozenset().union(*(b.edges for b in blocks)) == g.edges - bridges
            # the report: a cut vertex is one whose removal adds a component,
            # and a 2-connected graph has 3 or more vertices and stays
            # connected without any one of them
            rep = analyze_connectivity(g)
            assert rep.component_count == count, sorted(g.edges)
            cuts = {v for v in g.vertices if len(g.without([v]).components()) > count}
            assert rep.cut_vertices == cuts, sorted(g.edges)
            two = g.n >= 3 and g.is_connected() and all(g.without([v]).is_connected() for v in g.vertices)
            assert rep.is_two_connected == two, sorted(g.edges)
            # the solver refuses exactly the graphs that are neither 2-connected nor trees
            if two or is_near_tree(g, 0):
                solve_2connected(g, 0, 0, ExhaustiveColorings())
            else:
                with pytest.raises(InputError, match="requires a 2-connected graph"):
                    solve_2connected(g, 0, 0, ExhaustiveColorings())

    def test_cut_vertices_match_brute_force(self):
        # a cut vertex is one whose removal adds a component, trees included
        for n in range(1, 7):
            for g in connected_graphs(n):
                brute = {v for v in g.vertices if len(g.without([v]).components()) > 1}
                assert analyze_connectivity(g).cut_vertices == brute, sorted(g.edges)


class TestColoring:
    def test_tree_gets_two_colors(self):
        colors = near_tree_coloring(path_graph(range(1, 8)), 0)
        assert len(set(colors.values())) <= 2

    def test_c4_within_four_colors(self):
        colors = near_tree_coloring(C4, 1)
        assert len(set(colors.values())) <= 4
        assert all(colors[u] != colors[v] for u, v in C4.edges)

    def test_k4_within_six_colors(self):
        colors = near_tree_coloring(K4, 3)
        assert len(set(colors.values())) <= palette_size(3)
        assert all(colors[u] != colors[v] for u, v in K4.edges)

    def test_not_in_class_rejected(self):
        with pytest.raises(InputError):
            near_tree_coloring(K4, 1)

    def test_proper_and_within_budget_exhaustively(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                ell = excess(g)
                colors = near_tree_coloring(g, ell)
                assert set(colors) == set(g.vertices)
                assert all(colors[u] != colors[v] for u, v in g.edges)
                assert len(set(colors.values())) <= palette_size(ell)

    def test_proper_and_within_budget_on_deep_near_trees(self):
        # seeded trees of 50-400 vertices, each vertex hung on one of the
        # last few before it (deep breadth-first layers), shuffled ids, plus
        # ell = 0-8 extra edges
        rng = random.Random(20)
        for _ in range(60):
            n, ell = rng.randint(50, 400), rng.randint(0, 8)
            reach_back = rng.choice([1, 3, 10, n])
            ids = rng.sample(range(1, 10 * n), n)
            edges = {tuple(sorted((ids[i], ids[rng.randrange(max(0, i - reach_back), i)])))
                     for i in range(1, n)}
            while len(edges) < n - 1 + ell:
                edges.add(tuple(sorted(rng.sample(ids, 2))))
            g = Graph.build(ids, edges)
            colors = near_tree_coloring(g, ell)
            assert set(colors) == set(g.vertices)
            assert all(colors[u] != colors[v] for u, v in g.edges)
            assert len(set(colors.values())) <= palette_size(ell)


class TestClassClosure:
    def test_subdivision_and_contraction_stay_inside(self):
        # closure of the class under both operations, exhaustive on <= 7 vertices
        for n in range(3, 8):
            for g in connected_graphs(n):
                for ell in range(0, 3):
                    if not is_near_tree(g, ell):
                        continue
                    for e in sorted(g.edges):
                        assert is_near_tree(subdivide_edge(g, e), ell)
                        assert is_near_tree(contract_edges(g, [e])[0], ell)

    def test_vertex_split_stays_inside(self):
        for n in range(2, 7):
            for g in connected_graphs(n):
                for ell in range(0, 3):
                    if not is_near_tree(g, ell):
                        continue
                    for v in sorted(g.vertices):
                        nbrs = sorted(g.neighbors(v))
                        for r in range(len(nbrs) + 1):
                            for part in combinations(nbrs, r):
                                assert is_near_tree(split_vertex(g, v, set(part)), ell)


def test_palette_sizes():
    assert palette_size(0) == 2
    assert palette_size(1) == 4
    assert palette_size(2) == 6
    assert palette_size(3) == 6
    assert palette_size(4) == 6
    assert palette_size(5) == 8


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: edge(2, 2), (InputError, "self-loop on vertex 2"), id="edge-self-loop"),
    pytest.param(lambda: Graph.build([1, 2], [(1, 3)]),
                 (InputError, "edge (1,3) has an endpoint outside the vertex set"), id="build-outside"),
    pytest.param(lambda: cycle_graph([1, 2]), (InputError, "a cycle needs at least 3 vertices"),
                 id="cycle-of-two"),
])
def test_refusals(call, expected):
    assert outcome(call) == expected
