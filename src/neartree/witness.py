"""Witness structures: partitions of a graph into connected bags.

A witness structure certifies a contraction: each bag collapses to one
vertex of the contracted graph, and bag adjacency defines its edges.  The
cost of a structure is the number of contracted edges it needs, which is
sum(|bag| - 1) over all bags.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError
from .graph import Edge, Graph, edge, is_near_tree


@dataclass(frozen=True)
class WitnessStructure:
    """Partition of the vertex set into nonempty connected bags, canonically ordered."""

    bags: tuple[frozenset[int], ...]

    @staticmethod
    def of(bags: Iterable[Iterable[int]]) -> "WitnessStructure":
        normalized = tuple(sorted((frozenset(b) for b in bags), key=min))
        if any(not b for b in normalized):
            raise InputError("witness bags must be nonempty")
        return WitnessStructure(normalized)

    def cost(self) -> int:
        return sum(len(b) - 1 for b in self.bags)

    def bag_of(self, v: int) -> frozenset[int]:
        for b in self.bags:
            if v in b:
                return b
        raise InputError(f"vertex {v} is in no bag")


@dataclass(frozen=True)
class ContractionSolution:
    """An edge set F to contract, with its value capped at k + 1."""

    edges: frozenset[Edge]
    cost: int

    @staticmethod
    def of(edges: Iterable[tuple[int, int]], k: int) -> "ContractionSolution":
        es = frozenset(edge(u, v) for u, v in edges)
        return ContractionSolution(es, min(len(es), k + 1))


def witness_from_solution(g: Graph, f: Iterable[tuple[int, int]]) -> WitnessStructure:
    """Bags are the connected components of (V, f); untouched vertices become singletons."""
    fset = frozenset(edge(u, v) for u, v in f)
    if not fset <= g.edges:
        raise InputError("solution edges must belong to the graph")
    skeleton = Graph(g.vertices, fset)
    return WitnessStructure.of(skeleton.components())


def _is_partition(g: Graph, w: WitnessStructure) -> bool:
    seen: set[int] = set()
    for b in w.bags:
        if not b or (b & seen) or not b <= g.vertices:
            return False
        seen |= b
    return seen == g.vertices


def _split_bag(g: Graph, w: WitnessStructure) -> frozenset[int] | None:
    """The first bag that does not induce a connected subgraph, or None.

    One pass: the components of the graph of edges inside bags refine the
    bags, so a bag is connected exactly when it holds one component.
    """
    bag_of = {v: i for i, b in enumerate(w.bags) for v in b}
    inside = Graph(g.vertices, frozenset(e for e in g.edges if bag_of[e[0]] == bag_of[e[1]]))
    pieces = Counter(bag_of[min(c)] for c in inside.components())
    return next((b for i, b in enumerate(w.bags) if pieces[i] > 1), None)


def _contract_bags(g: Graph, w: WitnessStructure) -> Graph:
    rep: dict[int, int] = {}
    for b in w.bags:
        rep.update(dict.fromkeys(b, min(b)))
    q_edges = {edge(rep[u], rep[v]) for u, v in g.edges if rep[u] != rep[v]}
    return Graph(frozenset(rep.values()), frozenset(q_edges))


def quotient(g: Graph, w: WitnessStructure) -> Graph:
    """Contract every bag to a single vertex named by its smallest member.

    Matches the naming convention of contract_edges, so quotients and
    contractions compare by equality rather than just isomorphism.
    """
    if not _is_partition(g, w):
        raise InputError("bags do not partition the vertex set")
    bad = _split_bag(g, w)
    if bad is not None:
        raise InputError(f"bag {sorted(bad)} does not induce a connected subgraph")
    return _contract_bags(g, w)


@dataclass(frozen=True)
class WitnessCheck:
    valid: bool
    cost: int
    reason: str  # "ok" | "not-partition" | "disconnected-bag" | "quotient-outside-class" | "over-budget"


def verify_witness(g: Graph, w: WitnessStructure, ell: int, k: int) -> WitnessCheck:
    """Full validity check; never raises, reports the first failing condition."""
    cost = w.cost()
    if not _is_partition(g, w):
        return WitnessCheck(False, cost, "not-partition")
    if _split_bag(g, w) is not None:
        return WitnessCheck(False, cost, "disconnected-bag")
    if not is_near_tree(_contract_bags(g, w), ell):
        return WitnessCheck(False, cost, "quotient-outside-class")
    if cost > k:
        return WitnessCheck(False, cost, "over-budget")
    return WitnessCheck(True, cost, "ok")


def solution_edges(g: Graph, w: WitnessStructure) -> frozenset[Edge]:
    """A minimum edge set whose contraction realizes the witness: a spanning
    forest of each bag, chosen deterministically from sorted edges."""
    bag_of = {v: i for i, b in enumerate(w.bags) for v in b}
    parent = {v: v for v in g.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out: set[Edge] = set()
    for e in sorted(g.edges):
        if bag_of[e[0]] != bag_of[e[1]]:
            continue
        ru, rv = find(e[0]), find(e[1])
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            out.add(e)
    return frozenset(out)


def _leaf_bags(g: Graph, w: WitnessStructure) -> list[frozenset[int]]:
    """Bags whose quotient vertex has exactly one neighbor."""
    q = quotient(g, w)
    rep = {min(b): b for b in w.bags}
    return [rep[v] for v in sorted(q.vertices) if q.degree(v) == 1]


def normalize_leaves(g: Graph, w: WitnessStructure) -> WitnessStructure:
    """Rewrite the witness so every quotient-leaf bag is a singleton, at equal cost.

    Peeling step: take a leaf bag B with |B| >= 2 and its unique neighbor bag
    B'; fix a spanning tree of G[B]; pick a vertex u* of B adjacent to B' and
    a spanning-tree leaf v* != u*; move B - {v*} into B'.  The quotient is
    unchanged, one more leaf bag is a singleton, and the cost is preserved.
    Every choice point takes the lowest vertex id.
    """
    q = quotient(g, w)
    if q.n < 3:
        raise InputError("leaf normalization needs a quotient with at least 3 vertices")
    bags = list(w.bags)
    while True:
        current = WitnessStructure.of(bags)
        fat_leaves = [b for b in _leaf_bags(g, current) if len(b) >= 2]
        if not fat_leaves:
            return current
        b = min(fat_leaves, key=min)
        qg = quotient(g, current)
        neighbor_rep = next(iter(qg.neighbors(min(b))))
        b_next = current.bag_of(neighbor_rep)

        tree = _bag_spanning_tree(g, b)
        adjacent_to_next = sorted(
            v for v in b if any(x in b_next for x in g.neighbors(v))
        )
        u_star = adjacent_to_next[0]
        tree_leaves = sorted(v for v in b if _tree_degree(tree, v) <= 1 and v != u_star)
        v_star = tree_leaves[0]

        bags = [x for x in bags if x != b and x != b_next]
        bags.append(frozenset({v_star}))
        bags.append((b | b_next) - {v_star})


def _bag_spanning_tree(g: Graph, bag: frozenset[int]) -> frozenset[Edge]:
    return solution_edges(g.subgraph(bag), WitnessStructure((bag,)))


def _tree_degree(tree: frozenset[Edge], v: int) -> int:
    return sum(1 for e in tree if v in e)
