"""Simple undirected graphs with stable vertex ids, contraction and near-tree tests.

A graph is "within excess ell of a tree" (a near-tree) when it is connected
and has at most |V| - 1 + ell edges, i.e. deleting at most ell edges leaves a
spanning tree.  Membership in that class, edge contraction with merge maps,
connectivity analysis and a bounded-palette proper coloring are the
primitives everything else builds on.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InputError, InternalError

Edge = tuple[int, int]
MergeMap = dict[int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical unordered pair."""
    if u == v:
        raise InputError(f"self-loop on vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: a vertex set and a set of canonical edge pairs."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    @staticmethod
    def build(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        vs = frozenset(vertices)
        es = frozenset(edge(u, v) for u, v in edges)
        for u, v in es:
            if u not in vs or v not in vs:
                raise InputError(f"edge ({u},{v}) has an endpoint outside the vertex set")
        return Graph(vs, es)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        ks = frozenset(keep)
        return Graph(ks, frozenset(e for e in self.edges if e[0] in ks and e[1] in ks))

    def without(self, drop: Iterable[int]) -> "Graph":
        return self.subgraph(self.vertices - frozenset(drop))

    def components(self) -> tuple[frozenset[int], ...]:
        """Connected components, sorted by smallest member id."""
        seen: set[int] = set()
        comps = []
        for start in sorted(self.vertices):
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            while queue:
                x = queue.popleft()
                for y in self.adjacency[x]:
                    if y not in comp:
                        comp.add(y)
                        queue.append(y)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        return len(self.components()) == 1


def path_graph(ids: Iterable[int]) -> Graph:
    seq = list(ids)
    return Graph.build(seq, [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)])


def cycle_graph(ids: Iterable[int]) -> Graph:
    seq = list(ids)
    if len(seq) < 3:
        raise InputError("a cycle needs at least 3 vertices")
    es = [(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))]
    return Graph.build(seq, es)


def complete_graph(ids: Iterable[int]) -> Graph:
    seq = list(ids)
    return Graph.build(seq, [(a, b) for i, a in enumerate(seq) for b in seq[i + 1:]])


def star_graph(center: int, leaves: Iterable[int]) -> Graph:
    ls = list(leaves)
    return Graph.build([center, *ls], [(center, x) for x in ls])


@dataclass(frozen=True)
class Instance:
    """A solving unit: graph, contraction budget k, excess allowance ell.

    ell is always nonnegative; a negative k is allowed and is always a no.
    """

    graph: Graph
    k: int
    ell: int

    def __post_init__(self):
        if self.ell < 0:
            raise InputError("excess allowance ell must be nonnegative")


def excess(g: Graph) -> int:
    """Edges beyond a spanning tree: |E| - (|V| - 1).  Meaningful for connected g."""
    return g.m - (g.n - 1)


def is_near_tree(g: Graph, ell: int) -> bool:
    """True iff g is connected and some ell edge deletions leave a spanning tree.

    Disconnected graphs are rejected rather than raising: the class contains
    only connected graphs.
    """
    return g.is_connected() and g.m <= g.n - 1 + ell


def contract_edges(g: Graph, f: Iterable[tuple[int, int]]) -> tuple[Graph, MergeMap]:
    """Contract every edge of f simultaneously.

    Connected groups of f-edges collapse to a single vertex named by the
    smallest original id in the group, so merge maps compose
    deterministically.  Multiplicities and loops produced by the contraction
    are dropped.
    """
    fset = frozenset(edge(u, v) for u, v in f)
    unknown = fset - g.edges
    if unknown:
        raise InputError(f"cannot contract edges missing from the graph: {sorted(unknown)}")

    parent: dict[int, int] = {v: v for v in g.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in fset:
        ru, rv = find(u), find(v)
        if ru != rv:
            # keep the smaller id as the representative
            if ru > rv:
                ru, rv = rv, ru
            parent[rv] = ru

    merge: MergeMap = {v: find(v) for v in g.vertices}
    new_vertices = frozenset(merge.values())
    new_edges = set()
    for u, v in g.edges:
        mu, mv = merge[u], merge[v]
        if mu != mv:
            new_edges.add(edge(mu, mv))
    return Graph(new_vertices, frozenset(new_edges)), merge


def biconnected_blocks(g: Graph) -> tuple[Graph, ...]:
    """The biconnected blocks of g: every edge lies in exactly one, a bridge
    is a block of its own, and isolated vertices lie in none.

    One iterative depth-first pass with low points (Hopcroft & Tarjan,
    "Efficient algorithms for graph manipulation", CACM 1973): when the
    subtree of w cannot reach above its parent v, the edges stacked since
    (v, w) form a block.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[Graph] = []
    for root in sorted(g.vertices):
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(g.adjacency[root]))]
        edge_stack: list[Edge] = []
        while stack:
            v, parent, todo = stack[-1]
            for w in todo:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    edge_stack.append(edge(v, w))
                    stack.append((w, v, iter(g.adjacency[w])))
                    break
                if w != parent and disc[w] < disc[v]:
                    edge_stack.append(edge(v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    closing = edge(parent, v)
                    block = []
                    while not block or block[-1] != closing:
                        block.append(edge_stack.pop())
                    blocks.append(Graph(frozenset(x for e in block for x in e), frozenset(block)))
    return tuple(blocks)


@dataclass(frozen=True)
class ConnectivityReport:
    components: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    is_two_connected: bool


def analyze_connectivity(g: Graph) -> ConnectivityReport:
    """Components, cut vertices (the vertices in two or more blocks), and
    2-connectivity (connected, >= 3 vertices, no cut vertex)."""
    comps = g.components()
    seen: set[int] = set()
    cuts: set[int] = set()
    for b in biconnected_blocks(g):
        cuts |= seen & b.vertices
        seen |= b.vertices
    two = len(comps) == 1 and g.n >= 3 and not cuts
    return ConnectivityReport(comps, frozenset(cuts), two)


def _spanning_tree_edges(g: Graph) -> set[Edge]:
    """BFS spanning tree from the smallest vertex; g must be connected."""
    root = min(g.vertices)
    seen = {root}
    tree: set[Edge] = set()
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in sorted(g.adjacency[x]):
            if y not in seen:
                seen.add(y)
                tree.add(edge(x, y))
                queue.append(y)
    return tree


def _bipartition_colors(g: Graph, color_a: int, color_b: int) -> dict[int, int]:
    """2-color a forest (per component, BFS parity)."""
    colors: dict[int, int] = {}
    for comp in g.components():
        root = min(comp)
        colors[root] = color_a
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in g.adjacency[x]:
                if y not in colors:
                    colors[y] = color_b if colors[x] == color_a else color_a
                    queue.append(y)
    return colors


def _degeneracy_greedy_colors(g: Graph, first_color: int) -> dict[int, int]:
    """Proper coloring by smallest-last (degeneracy) order, palette starting at first_color."""
    remaining = dict(g.adjacency)
    degs = {v: len(ns) for v, ns in remaining.items()}
    order: list[int] = []
    alive = set(remaining)
    while alive:
        v = min(alive, key=lambda x: (degs[x], x))
        order.append(v)
        alive.remove(v)
        for y in remaining[v]:
            if y in alive:
                degs[y] -= 1
    colors: dict[int, int] = {}
    for v in reversed(order):
        used = {colors[y] for y in g.adjacency[v] if y in colors}
        c = first_color
        while c in used:
            c += 1
        colors[v] = c
    return colors


def _ceil_sqrt(x: int) -> int:
    if x <= 0:
        return 0
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def palette_size(ell: int) -> int:
    """Color budget for near-trees of excess ell: 2*ceil(sqrt(ell)) + 2."""
    return 2 * _ceil_sqrt(ell) + 2


def near_tree_coloring(g: Graph, ell: int) -> dict[int, int]:
    """Proper coloring of a near-tree using at most 2*ceil(sqrt(ell)) + 2 colors.

    Construction: fix a spanning tree; the at most ell excess edges have at
    most 2*ell endpoints.  The subgraph induced on those endpoints is colored
    greedily in degeneracy order with colors 3, 4, ...; the rest is a forest
    and gets colors 1 and 2 by bipartition.  The degeneracy of any induced
    subgraph here is at most (1 + sqrt(1 + 8*ell)) / 2, which keeps the
    endpoint palette within 2*ceil(sqrt(ell)) for every ell >= 1.
    """
    if not is_near_tree(g, ell):
        raise InputError("graph is not within the stated excess of a tree")
    budget = palette_size(ell)
    tree = _spanning_tree_edges(g)
    extra = sorted(g.edges - tree)
    endpoints = frozenset(v for e in extra for v in e)

    coloring = _bipartition_colors(g.without(endpoints), 1, 2)
    if endpoints:
        coloring.update(_degeneracy_greedy_colors(g.subgraph(endpoints), 3))

    if len(set(coloring.values())) > budget:
        raise InternalError("near-tree coloring overflowed its palette")
    if any(coloring[u] == coloring[v] for u, v in g.edges):
        raise InternalError("near-tree coloring is not proper")
    return coloring
