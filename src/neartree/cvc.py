"""Exact connected vertex cover, and the shatter of a component built on it.

The cover solver replaces the literature's 2^k black box behind the same
interface: exact up to the given budget, canonical tie-breaking.  A shatter
of a vertex set X splits it into one connected cover of G[X] that contains
every boundary vertex of X, plus singletons.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import InputError, InternalError
from .graph import Graph


def _branch_covers(g: Graph, limit: int) -> set[frozenset[int]]:
    """All covers of size <= limit reachable by branching on an uncovered edge.

    Includes every minimal vertex cover within the limit, which is all the
    augmentation step below needs.
    """
    out: set[frozenset[int]] = set()
    edges = sorted(g.edges)

    def rec(chosen: frozenset[int]):
        if len(chosen) > limit:
            return
        uncovered = next((e for e in edges if e[0] not in chosen and e[1] not in chosen), None)
        if uncovered is None:
            out.add(chosen)
            return
        u, v = uncovered
        rec(chosen | {u})
        rec(chosen | {v})

    rec(frozenset())
    return out


def min_connected_vertex_cover(g: Graph, budget: int) -> frozenset[int] | None:
    """Minimum-size connected vertex cover if one of size <= budget exists.

    Iterative deepening on the total size: candidate covers come from edge
    branching, then each is connected by exhaustively adding leftover
    vertices.  Ties break toward the lexicographically smallest vertex set.
    The empty set counts as the (vacuously connected) cover of an edgeless
    graph.
    """
    if g.n > 1 and not g.is_connected():
        raise InputError("connected vertex cover needs a connected graph")
    if budget < 0:
        return None
    if not g.edges:
        return frozenset()

    for size in range(1, budget + 1):
        candidates: set[frozenset[int]] = set()
        for cover in _branch_covers(g, size):
            slack = size - len(cover)
            rest = sorted(g.vertices - cover)
            for extra in combinations(rest, slack):
                cand = cover | frozenset(extra)
                if g.subgraph(cand).is_connected():
                    candidates.add(cand)
        if candidates:
            return min(candidates, key=sorted)
    return None


@dataclass(frozen=True)
class Shatter:
    """One connected cover bag (the core) plus the leftover singleton parts."""

    core: frozenset[int]
    singletons: frozenset[int]

    def size(self) -> int:
        return len(self.core)


def boundary(g: Graph, x: Iterable[int]) -> frozenset[int]:
    """Vertices of x with at least one neighbor outside x."""
    xs = frozenset(x)
    return frozenset(v for v in xs if g.neighbors(v) - xs)


def min_shatter(g: Graph, x: Iterable[int], budget: int) -> Shatter | None:
    """Minimum shatter of x: the smallest connected vertex cover of G[x] that
    contains all boundary vertices of x, found by attaching a pendant to each
    boundary vertex and covering the augmented graph.

    A minimum connected cover never keeps a degree-one vertex, so the
    pendants force their anchors into the core without ever joining it.
    """
    xs = frozenset(x)
    sub = g.subgraph(xs)
    if not sub.is_connected():
        raise InputError("shatter needs a set inducing a connected subgraph")
    if len(xs) == 1:
        return Shatter(xs, frozenset()) if budget >= 1 else None

    anchors = sorted(boundary(g, xs))
    fresh = max(g.vertices) + 1
    pendant_edges = [(a, fresh + i) for i, a in enumerate(anchors)]
    aug = Graph.build(
        list(xs) + [p for _, p in pendant_edges],
        list(sub.edges) + pendant_edges,
    )
    core = min_connected_vertex_cover(aug, min(budget, len(xs)))
    if core is None:
        return None
    if any(p in core for _, p in pendant_edges) or not frozenset(anchors) <= core:
        raise InternalError("minimum cover took a pendant or missed a boundary vertex")
    return Shatter(core, xs - core)
