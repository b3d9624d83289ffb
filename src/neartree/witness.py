"""Witness structures: partitions of a graph into connected bags.

A witness structure certifies a contraction: each bag collapses to one
vertex of the contracted graph, and bag adjacency defines its edges.  The
cost of a structure is the number of contracted edges it needs, which is
sum(|bag| - 1) over all bags.

Every check runs on the graph core's one union-find (`spanning_forest`),
with no `Graph`, adjacency map or breadth-first search built per check.
`certify` checks a yes's edge set F itself: a spanning forest of its
groups, its contraction within the class, and |F| <= k; only then is F's
witness built.  `verify_witness` checks the bags of a witness file, and
shares the quotient's class test with `certify`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, InternalError
from .graph import Edge, Graph, MergeMap, edge, spanning_forest


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


def _bag_pairs(g: Graph, w: WitnessStructure) -> tuple[str, frozenset[int] | set[Edge] | None]:
    """One pass over g's edges: ("ok", the pairs of bag indices an edge
    joins), ("not-partition", None) or ("disconnected-bag", the first bag,
    in bag order, that does not induce a connected subgraph).

    The edges inside bags go to one union-find; since its groups refine the
    bags, every bag is connected exactly when its forest has n - #bags edges.
    """
    bag_of = {v: i for i, b in enumerate(w.bags) for v in b}
    if not all(w.bags) or len(bag_of) != sum(map(len, w.bags)) or bag_of.keys() != g.vertices:
        return "not-partition", None
    inside, pairs = [], set()
    for u, v in g.edges:
        i, j = bag_of[u], bag_of[v]
        if i == j:
            inside.append((u, v))
        else:
            pairs.add((i, j) if i < j else (j, i))
    forest, group = spanning_forest(inside)
    if len(forest) != g.n - len(w.bags):
        return "disconnected-bag", next(b for b in w.bags if len({group.get(v, v) for v in b}) > 1)
    return "ok", pairs


def _in_class(pairs: set[Edge], nodes: int, ell: int) -> bool:
    """Whether a quotient on `nodes` vertices with these distinct adjacent
    pairs is within excess ell of a tree: the pairs' union-find joins
    nodes - 1 times, and they number at most nodes - 1 + ell."""
    return len(pairs) <= nodes - 1 + ell and len(spanning_forest(pairs)[0]) == nodes - 1


def quotient(g: Graph, w: WitnessStructure) -> Graph:
    """Contract every bag to a single vertex named by its smallest member.

    Matches the naming convention of contract_edges, so quotients and
    contractions compare by equality rather than just isomorphism.
    """
    status, found = _bag_pairs(g, w)
    if status == "not-partition":
        raise InputError("bags do not partition the vertex set")
    if status == "disconnected-bag":
        raise InputError(f"bag {sorted(found)} does not induce a connected subgraph")
    rep = [min(b) for b in w.bags]
    return Graph(frozenset(rep), frozenset(edge(rep[i], rep[j]) for i, j in found))


@dataclass(frozen=True)
class WitnessCheck:
    valid: bool
    cost: int
    reason: str  # "ok" | "not-partition" | "disconnected-bag" | "quotient-outside-class" | "over-budget"


def verify_witness(g: Graph, w: WitnessStructure, ell: int, k: int) -> WitnessCheck:
    """Full validity check; never raises, reports the first failing condition.

    The quotient is within excess ell of a tree when its bag pairs connect
    all #bags vertices and number at most #bags - 1 + ell.
    """
    cost = w.cost()
    status, pairs = _bag_pairs(g, w)
    if status != "ok":
        return WitnessCheck(False, cost, status)
    if not _in_class(pairs, len(w.bags), ell):
        return WitnessCheck(False, cost, "quotient-outside-class")
    if cost > k:
        return WitnessCheck(False, cost, "over-budget")
    return WitnessCheck(True, cost, "ok")


@dataclass(frozen=True)
class ContractionSolution:
    """An edge set F to contract, its size, and the witness structure it
    induces, checked by `certify`."""

    edges: frozenset[Edge]
    cost: int
    witness: WitnessStructure


def check_edges(g: Graph, es: frozenset[Edge], k: int, ell: int) -> tuple[str, MergeMap]:
    """The check of an edge set F of canonical pairs, in one pass over g's
    edges through F's groups: "ok", or the first failure of "not-a-forest"
    (F's union-find joins fewer than |F| times), "quotient-outside-class"
    (the contraction, on n - |F| vertices) and "over-budget" (|F| > k); and
    F's groups.  An edge of F outside g is an InputError."""
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
    if not _in_class(pairs, g.n - len(es), ell):
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
    inside = (e for e in sorted(g.edges) if bag_of[e[0]] == bag_of[e[1]])
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
