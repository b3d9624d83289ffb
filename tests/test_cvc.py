import random
from itertools import combinations

import pytest

from helpers import connected_graphs, outcome

from neartree.cvc import _boundary, min_connected_vertex_cover, min_shatter
from neartree.errors import InputError
from neartree.graph import Graph, cycle_graph, mask_index, path_graph, star_graph


def brute_cvc(g: Graph, budget: int) -> frozenset | None:
    """Reference: plain subset enumeration by size then lexicographic order."""
    if not g.edges:
        return frozenset()
    verts = sorted(g.vertices)
    for size in range(1, budget + 1):
        for cand in combinations(verts, size):
            cs = frozenset(cand)
            if all(u in cs or v in cs for u, v in g.edges):
                if g.subgraph(cs).is_connected():
                    return cs
    return None


def brute_shatter_core(g: Graph, x: frozenset) -> frozenset:
    """Reference: the smallest connected cover of G[x] holding every vertex of
    x with a neighbor outside x, subsets by size then lexicographic order."""
    inner = g.subgraph(x)
    outer = {v for v in x if g.neighbors(v) - x}
    for size in range(1, len(x) + 1):
        for cand in combinations(sorted(x), size):
            cs = frozenset(cand)
            if (outer <= cs and all(u in cs or v in cs for u, v in inner.edges)
                    and g.subgraph(cs).is_connected()):
                return cs
    raise AssertionError("x itself is such a cover")


def random_connected(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < p]
        g = Graph.build(range(1, n + 1), edges)
        if g.is_connected():
            return g


class TestCover:
    def test_p3(self):
        assert min_connected_vertex_cover(path_graph([1, 2, 3]), 2) == frozenset({2})

    def test_c4_needs_three(self):
        cover = min_connected_vertex_cover(cycle_graph([1, 2, 3, 4]), 3)
        assert len(cover) == 3
        assert cover == frozenset({1, 2, 3})  # lexicographically smallest optimum

    def test_star_center(self):
        assert min_connected_vertex_cover(star_graph(1, [2, 3, 4, 5]), 1) == frozenset({1})

    def test_budget_exceeded(self):
        assert min_connected_vertex_cover(cycle_graph([1, 2, 3, 4]), 2) is None

    def test_disconnected_rejected(self):
        with pytest.raises(InputError):
            min_connected_vertex_cover(Graph.build([1, 2, 3, 4], [(1, 2), (3, 4)]), 4)

    def test_matches_brute_on_all_small_graphs(self):
        for n in range(1, 8):
            for g in connected_graphs(n):
                expect = brute_cvc(g, g.n)
                got = min_connected_vertex_cover(g, g.n)
                assert got == expect, f"n={n} edges={sorted(g.edges)}"

    def test_matches_brute_on_random_8_to_10(self):
        for seed in range(50):
            n = 8 + seed % 3
            g = random_connected(n, 0.35, seed)
            assert min_connected_vertex_cover(g, n) == brute_cvc(g, n)


class TestShatter:
    def test_whole_star_no_boundary(self):
        g = star_graph(1, [2, 3, 4])
        core = min_shatter(g, g.vertices, budget=4)
        assert core == frozenset({1})
        assert g.vertices - core == frozenset({2, 3, 4})

    def test_path_with_both_ends_on_boundary(self):
        # path 2-3-4 inside C5: both ends see the outside
        g = cycle_graph([1, 2, 3, 4, 5])
        core = min_shatter(g, {2, 3, 4}, budget=3)
        assert core == frozenset({2, 3, 4})
        assert not {2, 3, 4} - core

    def test_singleton_component(self):
        g = path_graph([1, 2, 3])
        core = min_shatter(g, {2}, budget=1)
        assert core == frozenset({2}) and not {2} - core

    def test_core_is_valid_bag(self):
        # connected, covers the component's edges, contains the boundary
        for seed in range(30):
            g = random_connected(7, 0.4, 100 + seed)
            comp = min(g.components(), key=min)
            idx = mask_index(g)
            for size in (2, 3, 4):
                for sub in combinations(sorted(comp), size):
                    subset = frozenset(sub)
                    if not g.subgraph(subset).is_connected():
                        continue
                    core = min_shatter(g, subset, budget=len(subset))
                    inner = g.subgraph(subset)
                    assert core <= subset
                    assert g.subgraph(core).is_connected() or len(core) == 1
                    assert all(u in core or v in core for u, v in inner.edges)
                    assert idx.members(_boundary(idx.adj, idx.mask(subset))) <= core

    def test_matches_brute_on_all_small_graphs(self):
        for n in range(1, 7):
            for g in connected_graphs(n):
                for size in range(1, n + 1):
                    for sub in combinations(sorted(g.vertices), size):
                        x = frozenset(sub)
                        if not g.subgraph(x).is_connected():
                            continue
                        want = brute_shatter_core(g, x)
                        core = min_shatter(g, x, budget=len(x))
                        assert core <= x
                        assert (core, x - core) == (want, x - want), (sorted(g.edges), sub)

    def test_budget_respected(self):
        g = cycle_graph([1, 2, 3, 4, 5])
        assert min_shatter(g, {2, 3, 4}, budget=2) is None

    def test_foreign_vertex_is_an_input_error(self):
        g = cycle_graph([1, 2, 3, 4, 5])
        idx = mask_index(g)
        for call in (lambda: min_shatter(g, {1, 99}, 2), lambda: _boundary(idx.adj, idx.mask({99}))):
            with pytest.raises(InputError, match="vertex 99 is not in the graph"):
                call()


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: min_shatter(path_graph([1, 2, 3, 4]), {1, 3}, 3),
                 (InputError, "shatter needs a set inducing a connected subgraph"), id="disconnected-set"),
])
def test_refusals(call, expected):
    assert outcome(call) == expected
