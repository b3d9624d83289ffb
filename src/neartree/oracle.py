"""Brute-force ground truth for the contraction problem.

Deliberately dumb: enumerate candidate edge sets by increasing size, subsets
of each size in lexicographic edge order, and return the first one whose
contraction lands in the target class.  Everything else in the package is
tested against this.

One cap bounds the search, WORK_CAP edge visits: a full search passes over
all m edges once for each subset of at most min(k, m) of them, so it makes
m * sum(C(m, j) for j <= min(k, m)) visits.  It counts visits, not subsets,
because a subset costs more as m grows: 8 us at 24 edges, 38 us at 200, about
0.2-0.3 us per visit.  The cap is a full search of 24 edges at budget 6
(190,051 subsets, 24 visits each), about 1.5 s; it admits 2,135 edges at
k = 1, 208 at k = 2, 72 at k = 3 and 24 at k = 6.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import SizeCapError
from .graph import Edge, Graph, Instance

WORK_CAP = 24 * sum(comb(24, j) for j in range(7))  # 4,561,224 edge visits


def exact_opt(g: Graph, ell: int, k_max: int) -> tuple[frozenset[Edge], int] | None:
    """Smallest edge set F (|F| <= k_max) with g/F within excess ell of a tree.

    Canonical: searched by size then lexicographic edge order, so the
    returned optimum is reproducible.  Returns None when no set within the
    budget works, as for every negative budget.
    """
    if k_max < 0:
        return None
    visits = 0
    for size in range(min(k_max, g.m) + 1):  # stops summing once past the cap
        visits += g.m * comb(g.m, size)
        if visits > WORK_CAP:
            raise SizeCapError(f"oracle refuses {visits} or more edge visits ({g.m} edges, "
                               f"budget {k_max}), above the cap {WORK_CAP}")
    if not g.is_connected():
        return None  # contraction cannot join components

    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    edges = sorted(g.edges)
    pairs = [(index[u], index[v]) for u, v in edges]
    n = len(verts)
    target_slack = ell

    for size in range(0, min(k_max, len(edges)) + 1):
        for subset in combinations(range(len(edges)), size):
            parent = list(range(n))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            nv = n
            for ei in subset:
                a, b = pairs[ei]
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
                    nv -= 1
            quotient_edges = set()
            for a, b in pairs:
                ra, rb = find(a), find(b)
                if ra != rb:
                    quotient_edges.add((ra, rb) if ra < rb else (rb, ra))
            if len(quotient_edges) <= nv - 1 + target_slack:
                return frozenset(edges[i] for i in subset), size
    return None


def exact_decide(instance: Instance) -> bool:
    """Decision form; a negative budget is always a no."""
    k_eff = min(instance.k, instance.graph.m)
    return exact_opt(instance.graph, instance.ell, k_eff) is not None
