"""Witness structures: partitions of a graph into connected bags.

A witness structure certifies a contraction: each bag collapses to one
vertex of the contracted graph, and bag adjacency defines its edges.  The
cost of a structure is the number of contracted edges it needs, which is
sum(|bag| - 1) over all bags.

Every check runs on the graph core's one union-find (`spanning_forest`),
with no `Graph`, adjacency map or breadth-first search built per check.
`check_edges` is the one test of a contraction and of its class: an edge
set F must be a spanning forest of its groups, its contraction within the
class, and |F| <= k.  It checks a yes's F in `certify` (only then is F's
witness built), each candidate of the oracle, and the spanning forest of a
witness file's bags in `verify_witness`, once they are found connected.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, InternalError
from .graph import Edge, Graph, MergeMap, contract_edges, edge, spanning_forest


@dataclass(frozen=True)
class WitnessStructure:
    """Partition of the vertex set into nonempty connected bags, canonically ordered."""

    bags: tuple[frozenset[int], ...]

    @staticmethod
    def of(bags: Iterable[Iterable[int]]) -> "WitnessStructure":
        sets = [frozenset(b) for b in bags]
        if not all(sets):
            raise InputError("witness bags must be nonempty")
        return WitnessStructure(tuple(sorted(sets, key=min)))

    def cost(self) -> int:
        return sum(len(b) - 1 for b in self.bags)


def _witness(vertices: frozenset[int], group: MergeMap) -> WitnessStructure:
    """The bags of a union-find's groups, in order of their smallest member;
    every vertex outside `group` is a singleton."""
    members: dict[int, list[int]] = {}
    for v, rep in group.items():
        members.setdefault(rep, []).append(v)
    return WitnessStructure(tuple(frozenset(members[v]) if v in members else frozenset((v,))
                                  for v in sorted(vertices) if group.get(v, v) == v))


def witness_from_solution(g: Graph, f: Iterable[tuple[int, int]]) -> WitnessStructure:
    """Bags are the groups of the union-find over f; untouched vertices become singletons."""
    fset = frozenset(edge(u, v) for u, v in f)
    if not fset <= g.edges:
        raise InputError("solution edges must belong to the graph")
    return _witness(g.vertices, spanning_forest(fset)[1])


def _bag_forest(g: Graph, w: WitnessStructure) -> tuple[str, frozenset[Edge] | str]:
    """The check of a witness's bags: ("ok", their spanning forest from
    `solution_edges`), or "not-partition" or "disconnected-bag" and the
    error's message, which names the first bag, in bag order, that does not
    induce a connected subgraph.  The forest's groups refine the bags, so
    every bag is connected exactly when the forest has n - #bags edges.
    """
    if not all(w.bags) or sum(map(len, w.bags)) != g.n or frozenset().union(*w.bags) != g.vertices:
        return "not-partition", "bags do not partition the vertex set"
    forest = solution_edges(g, w)
    if len(forest) != g.n - len(w.bags):
        group = spanning_forest(forest)[1]
        bad = next(b for b in w.bags if len({group.get(v, v) for v in b}) > 1)
        return "disconnected-bag", f"bag {sorted(bad)} does not induce a connected subgraph"
    return "ok", forest


def quotient(g: Graph, w: WitnessStructure) -> Graph:
    """Contract every bag to a single vertex named by its smallest member.

    It is `contract_edges` of the bags' spanning forest, so quotients and
    contractions compare by equality rather than just isomorphism.
    """
    status, found = _bag_forest(g, w)
    if status != "ok":
        raise InputError(found)
    return contract_edges(g, found)[0]


@dataclass(frozen=True)
class WitnessCheck:
    valid: bool
    cost: int
    reason: str  # "ok" | "not-partition" | "disconnected-bag" | "quotient-outside-class" | "over-budget"


def verify_witness(g: Graph, w: WitnessStructure, ell: int, k: int) -> WitnessCheck:
    """Full validity check; never raises, reports the first failing condition:
    the bags' own check, then `check_edges` on their spanning forest, whose
    size is the witness's cost."""
    status, forest = _bag_forest(g, w)
    if status == "ok":
        status = check_edges(g, forest, k, ell)[0]
    return WitnessCheck(status == "ok", w.cost(), status)


@dataclass(frozen=True)
class ContractionSolution:
    """An edge set F to contract, its size, and the witness structure it
    induces, checked by `certify`."""

    edges: frozenset[Edge]
    cost: int
    witness: WitnessStructure


def check_edges(g: Graph, es: frozenset[Edge], k: int, ell: int) -> tuple[str, MergeMap]:
    """The one test of a contraction, for an edge set F of canonical pairs,
    in one pass over g's edges through F's groups: "ok", or the first
    failure of "not-a-forest" (F's union-find joins fewer than |F| times),
    "quotient-outside-class" and "over-budget" (|F| > k); and F's groups.
    The contraction, on n - |F| vertices, is within excess ell of a tree when
    its distinct pairs' union-find joins n - |F| - 1 times and they number at
    most n - |F| - 1 + ell.  An edge of F outside g is an InputError."""
    if not es <= g.edges:
        raise InputError("solution edges must belong to the graph")
    forest, group = spanning_forest(es)
    if len(forest) != len(es):
        return "not-a-forest", group
    pairs = set()
    for u, v in g.edges:
        a, b = group.get(u, u), group.get(v, v)
        if a != b:
            pairs.add((a, b) if a < b else (b, a))
    nodes = g.n - len(es)
    if len(pairs) > nodes - 1 + ell or len(spanning_forest(pairs)[0]) != nodes - 1:
        return "quotient-outside-class", group
    return ("over-budget" if len(es) > k else "ok"), group


def certify(g: Graph, edges: Iterable[tuple[int, int]], k: int, ell: int) -> ContractionSolution:
    """The one check of a yes: the edge set must pass `check_edges` within
    (k, ell), or the answer is a bug and raises InternalError."""
    es = frozenset(edge(u, v) for u, v in edges)
    reason, group = check_edges(g, es, k, ell)
    if reason != "ok":
        raise InternalError(f"solution failed verification ({reason})")
    return ContractionSolution(es, len(es), _witness(g.vertices, group))


def solution_edges(g: Graph, w: WitnessStructure) -> frozenset[Edge]:
    """A minimum edge set whose contraction realizes the witness: a spanning
    forest of each bag, chosen deterministically from sorted edges."""
    bag_of = {v: i for i, b in enumerate(w.bags) for v in b}
    inside = sorted(e for e in g.edges if bag_of[e[0]] == bag_of[e[1]])
    return frozenset(spanning_forest(inside)[0])


def normalize_leaves(g: Graph, w: WitnessStructure) -> WitnessStructure:
    """Rewrite the witness so every quotient-leaf bag is a singleton, at equal cost.

    Peeling step: take a leaf bag B with |B| >= 2 and its unique neighbor bag
    B'; fix a spanning tree of G[B] (the union-find over B's sorted edges);
    pick the lowest vertex u* of B adjacent to B' and the lowest tree leaf
    v* != u*; move B - {v*} into B'.  The cost is preserved, and the
    quotient, its leaves and their hubs are unchanged.  B touches only B',
    and a peel adds to B' only vertices of another leaf bag, so u* and v*
    do not depend on the order of the peels: one pass over the leaves of
    the quotient, built once, peels them all.
    """
    q = quotient(g, w)
    if q.n < 3:
        raise InputError("leaf normalization needs a quotient with at least 3 vertices")
    bag = {min(b): b for b in w.bags}
    for leaf in sorted(v for v in q.vertices if q.degree(v) == 1 and len(bag[v]) >= 2):
        b, hub = bag[leaf], next(iter(q.neighbors(leaf)))
        u_star = min(v for v in b if g.adjacency[v] & bag[hub])
        inner = sorted((v, x) for v in b for x in g.adjacency[v] & b if v < x)
        tree_degree = Counter(v for e in spanning_forest(inner)[0] for v in e)
        v_star = min(v for v in b if tree_degree[v] == 1 and v != u_star)
        bag[leaf], bag[hub] = frozenset({v_star}), bag[hub] | (b - {v_star})
    return WitnessStructure.of(bag.values())
