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
        """Whether one flood of the adjacency map from any vertex reaches all."""
        if not self.vertices:
            return False
        adj, todo = self.adjacency, [next(iter(self.vertices))]
        seen = set(todo)
        while todo:
            for y in adj[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return len(seen) == self.n


def path_graph(ids: Iterable[int]) -> Graph:
    seq = list(ids)
    return Graph.build(seq, [(seq[i], seq[i + 1]) for i in range(len(seq) - 1)])


def cycle_graph(ids: Iterable[int]) -> Graph:
    seq = list(ids)
    if len(seq) < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return Graph.build(seq, zip(seq, seq[1:] + seq[:1]))


def complete_graph(ids: Iterable[int]) -> Graph:
    seq = list(ids)
    return Graph.build(seq, [(a, b) for i, a in enumerate(seq) for b in seq[i + 1:]])


def star_graph(center: int, leaves: Iterable[int]) -> Graph:
    ls = list(leaves)
    return Graph.build([center, *ls], [(center, x) for x in ls])


# ---------------------------------------------------------------------------
# bit-mask index: the representation of the coloring scan

@dataclass(frozen=True)
class MaskIndex:
    """A graph's vertices in a given order, and each one's neighbors as a bit
    mask over that order: bit i stands for verts[i]."""

    verts: tuple[int, ...]
    adj: tuple[int, ...]

    def mask(self, vs: Iterable[int]) -> int:
        vs, pos = set(vs), {v: i for i, v in enumerate(self.verts)}
        if outside := vs - pos.keys():
            raise InputError(f"vertex {min(outside)} is not in the graph")
        return sum(1 << pos[v] for v in vs)

    def members(self, mask: int) -> frozenset[int]:
        return frozenset(self.verts[i] for i in bits(mask))


def mask_index(g: Graph, order=None) -> MaskIndex:
    """g's index, its vertices sorted by the key `order` (by id when None)."""
    verts = tuple(sorted(g.vertices, key=order))
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in g.edges:
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]
    return MaskIndex(verts, tuple(adj))


def bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reach(adj: tuple[int, ...], mask: int) -> int:
    """The union of the neighborhoods of the vertices in mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def flood(adj: tuple[int, ...], seed: int, within: int) -> int:
    """The vertices of `within` reachable from `seed` inside it."""
    done = frontier = seed
    while frontier:
        frontier = reach(adj, frontier) & within & ~done
        done |= frontier
    return done


def is_connected_mask(adj: tuple[int, ...], mask: int) -> bool:
    """Whether mask induces a connected subgraph (the empty mask does)."""
    return flood(adj, mask & -mask, mask) == mask


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


def spanning_forest(edges: Iterable[Edge]) -> tuple[list[Edge], MergeMap]:
    """Union-find over `edges` in the order given, its parent map seeded only
    by their endpoints: the edges that joined two groups (a spanning forest
    of them), and the group of every vertex they touch, named by its
    smallest member.  Any other vertex is its own group, so callers read the
    map with `.get(v, v)`."""
    parent: dict[int, int] = {}
    forest = []
    for u, v in edges:
        ru, rv = parent.setdefault(u, u), parent.setdefault(v, v)
        while ru != (p := parent[ru]):  # path halving
            parent[ru] = ru = parent[p]
        while rv != (p := parent[rv]):
            parent[rv] = rv = parent[p]
        if ru != rv:
            if ru > rv:
                ru, rv = rv, ru
            parent[rv] = ru
            forest.append((u, v))
    for x, r in parent.items():  # point every vertex at its root
        while r != (p := parent[r]):
            r = p
        parent[x] = r
    return forest, parent


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

    merge = dict(zip(g.vertices, g.vertices))
    merge.update(spanning_forest(fset)[1])
    new_edges = set()
    for u, v in g.edges:
        mu, mv = merge[u], merge[v]
        if mu != mv:
            new_edges.add((mu, mv) if mu < mv else (mv, mu))
    return Graph(frozenset(merge.values()), frozenset(new_edges)), merge


def biconnected_blocks(g: Graph) -> tuple[tuple[Graph, ...], int]:
    """The biconnected blocks of g that hold a cycle, and the number of
    connected components of g: every edge outside a bridge lies in exactly
    one block, and bridges and isolated vertices lie in none, so a forest
    has none.

    First the pendant forest is peeled: every vertex of degree <= 1 goes,
    which may leave its neighbour at degree 1, until only the 2-core is
    left.  A vertex still of degree 0 when it goes is the last of a tree
    component.  Every block with a cycle lies in the 2-core, so one
    iterative depth-first pass with low points over the core alone finds
    them all (Hopcroft & Tarjan, "Efficient algorithms for graph
    manipulation", CACM 1973), each root one more component: when the
    subtree of w cannot reach above its parent v, the edges stacked since
    (v, w) form a block, a bridge when (v, w) is the only one.
    """
    adj = g.adjacency
    core = {v: len(ns) for v, ns in adj.items()}  # degree among the vertices not yet peeled
    components = 0
    peel = [v for v, d in core.items() if d < 2]
    while peel:
        v = peel.pop()
        if core.pop(v) == 0:
            components += 1
            continue
        for w in adj[v]:
            if w in core:  # the one neighbour left
                core[w] -= 1
                if core[w] == 1:
                    peel.append(w)
                break

    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[Graph] = []
    for root in sorted(core):
        if root in disc:
            continue
        components += 1
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(adj[root]))]
        edge_stack: list[Edge] = []
        while stack:
            v, parent, todo = stack[-1]
            for w in todo:
                if w not in core:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    edge_stack.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    if edge_stack[-1] == (parent, v):  # a bridge
                        edge_stack.pop()
                        continue
                    block = []
                    while not block or block[-1] != (parent, v):
                        block.append(edge_stack.pop())
                    blocks.append(Graph(frozenset(x for e in block for x in e),
                                        frozenset(edge(*e) for e in block)))
    return tuple(blocks), components


@dataclass(frozen=True)
class ConnectivityReport:
    component_count: int
    cut_vertices: frozenset[int]
    is_two_connected: bool


def analyze_connectivity(g: Graph) -> ConnectivityReport:
    """The number of components and the cut vertices (the vertices in two or
    more blocks, each bridge a block), both from one `biconnected_blocks`
    pass, and 2-connectivity (connected, >= 3 vertices, no cut vertex)."""
    blocks, count = biconnected_blocks(g)
    blocks_at = {v: g.degree(v) for v in g.vertices}  # each edge a block, then merged
    for b in blocks:
        for v in b.vertices:
            blocks_at[v] -= b.degree(v) - 1
    cuts = frozenset(v for v, at in blocks_at.items() if at >= 2)
    two = count == 1 and g.n >= 3 and not cuts
    return ConnectivityReport(count, cuts, two)


def _degeneracy_greedy_colors(g: Graph, first_color: int) -> dict[int, int]:
    """Proper coloring by smallest-last (degeneracy) order, palette starting at first_color."""
    order: list[int] = []
    alive = set(g.vertices)
    while alive:
        v = min(alive, key=lambda x: (len(g.adjacency[x] & alive), x))
        order.append(v)
        alive.remove(v)
    colors: dict[int, int] = {}
    for v in reversed(order):
        used = {colors[y] for y in g.adjacency[v] if y in colors}
        colors[v] = min(set(range(first_color, first_color + len(used) + 1)) - used)
    return colors


def _ceil_sqrt(x: int) -> int:
    return math.isqrt(x - 1) + 1 if x > 0 else 0


def palette_size(ell: int) -> int:
    """Color budget for near-trees of excess ell: 2*ceil(sqrt(ell)) + 2."""
    return 2 * _ceil_sqrt(ell) + 2


def near_tree_coloring(g: Graph, ell: int) -> dict[int, int]:
    """Proper coloring of a near-tree using at most 2*ceil(sqrt(ell)) + 2 colors.

    Construction: color each vertex 1 or 2 by the parity of its breadth-first
    layer from the smallest vertex.  An edge joins layers at most one apart,
    so only an edge inside one layer joins two vertices of the same color;
    no such edge is in the search tree, so there are at most ell of them,
    with at most 2*ell endpoints.  The subgraph induced on those endpoints is
    colored greedily in degeneracy order with colors 3, 4, ....  The
    degeneracy of any induced subgraph here is at most
    (1 + sqrt(1 + 8*ell)) / 2, which keeps the endpoint palette within
    2*ceil(sqrt(ell)) for every ell >= 1.
    """
    if not is_near_tree(g, ell):
        raise InputError("graph is not within the stated excess of a tree")
    budget = palette_size(ell)
    idx = mask_index(g)
    layers, seen = [1], 1  # bit 0 is the smallest vertex
    while layers[-1]:
        layers.append(reach(idx.adj, layers[-1]) & ~seen)
        seen |= layers[-1]
    coloring = {idx.verts[i]: 1 + d % 2 for d, layer in enumerate(layers) for i in bits(layer)}
    endpoints = {idx.verts[i] for layer in layers for i in bits(layer) if idx.adj[i] & layer}
    if endpoints:
        coloring.update(_degeneracy_greedy_colors(g.subgraph(endpoints), 3))

    if len(set(coloring.values())) > budget:
        raise InternalError("near-tree coloring overflowed its palette")
    if any(coloring[u] == coloring[v] for u, v in g.edges):
        raise InternalError("near-tree coloring is not proper")
    return coloring
