"""Exact connected vertex cover, and the shatter of a component built on it.

Both rest on one search over the bit masks of `graph.MaskIndex`: the
smallest connected vertex cover of G[x] that contains a required vertex
set, exact up to a budget, ties broken toward the lexicographically smallest
sorted vertex list.  A shatter of a vertex set X splits it into such a
cover that contains every boundary vertex of X (the core), plus singletons.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import InputError
from .graph import Graph, bits, is_connected_mask, mask_index


def _covers(adj: tuple[int, ...], x: int, chosen: int, budget: int):
    """Vertex covers of G[x] containing `chosen`, of at most `budget`
    vertices, each listed once: branch on the lowest vertex u with an
    uncovered edge, which joins the cover or leaves all its uncovered
    neighbors to it.  Every cover within the budget that contains `chosen`
    contains one of them."""
    if chosen.bit_count() > budget:
        return
    free = x & ~chosen
    for u in bits(free):
        loose = adj[u] & free
        if loose:
            yield from _covers(adj, x, chosen | 1 << u, budget)
            yield from _covers(adj, x, chosen | loose, budget)
            return
    yield chosen


def connected_cover(adj: tuple[int, ...], x: int, required: int, budget: int) -> int | None:
    """Smallest connected vertex cover of G[x] that contains `required`, if
    one of at most `budget` vertices exists; ties go to the lexicographically
    smallest sorted vertex list.  The empty set covers an edgeless G[x].

    Enumerate and expand (Moelle, Richter & Rossmanith, Theory Comput. Syst.
    2008): the covers of `_covers` are listed once, and each is expanded by
    the fewest extra vertices that connect it, extras tried in lexicographic
    order and never more than the best cover found so far allows.
    """
    found = []
    top = budget
    for cover in _covers(adj, x, required, budget):
        rest = [1 << i for i in bits(x & ~cover)]
        for size in range(top - cover.bit_count() + 1):
            joined = (cover | sum(extra) for extra in combinations(rest, size))
            hit = next((c for c in joined if is_connected_mask(adj, c)), None)
            if hit is not None:
                found.append(hit)
                top = hit.bit_count()
                break
    return min(found, key=lambda c: (c.bit_count(), list(bits(c))), default=None)


def _boundary(adj: tuple[int, ...], x: int) -> int:
    """The vertices of x with a neighbor outside x."""
    return sum(1 << i for i in bits(x) if adj[i] & ~x)


def shatter_core(adj: tuple[int, ...], x: int, budget: int) -> int | None:
    """Core of the minimum shatter of a connected x of two or more vertices:
    its smallest connected cover that contains x's boundary."""
    return connected_cover(adj, x, _boundary(adj, x), min(budget, x.bit_count()))


def min_connected_vertex_cover(g: Graph, budget: int) -> frozenset[int] | None:
    """Minimum-size connected vertex cover if one of size <= budget exists,
    ties broken toward the lexicographically smallest vertex set.  The empty
    set counts as the (vacuously connected) cover of an edgeless graph."""
    idx = mask_index(g)
    full = (1 << g.n) - 1
    if not is_connected_mask(idx.adj, full):
        raise InputError("connected vertex cover needs a connected graph")
    cover = connected_cover(idx.adj, full, 0, budget)
    return None if cover is None else idx.members(cover)


def min_shatter(g: Graph, x: Iterable[int], budget: int) -> frozenset[int] | None:
    """The core of the minimum shatter of x, the smallest connected vertex
    cover of G[x] that contains all boundary vertices of x (a single vertex
    is its own core), if it has at most `budget` vertices; every other vertex
    of x is a singleton part."""
    idx = mask_index(g)
    xm = idx.mask(x)
    if not xm or not is_connected_mask(idx.adj, xm):
        raise InputError("shatter needs a set inducing a connected subgraph")
    if xm.bit_count() == 1:
        core = xm if budget >= 1 else None
    else:
        core = shatter_core(idx.adj, xm, budget)
    return None if core is None else idx.members(core)
