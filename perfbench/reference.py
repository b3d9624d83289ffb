"""Reference decisions computed without the code under test.

`oracle_min_cost` is an independent brute force: it tries edge sets by
increasing size and contracts each with a union-find.  `block_knapsack`
combines per-block cost profiles by a min-plus knapsack: excess is additive
over biconnected blocks and every edge lies in exactly one block, so a graph
made of blocks joined by bridges reaches excess <= ell with k contractions
exactly when the blocks can share out ell and k that way.
"""

from __future__ import annotations

from itertools import combinations

INF = float("inf")


def _quotient_excess(n: int, pairs, subset) -> int:
    """Excess of the graph after contracting the edges `subset` (by index)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    nv = n
    for i in subset:
        a, b = find(pairs[i][0]), find(pairs[i][1])
        if a != b:
            parent[max(a, b)] = min(a, b)
            nv -= 1
    seen = set()
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            seen.add((ra, rb) if ra < rb else (rb, ra))
    return len(seen) - (nv - 1)


def excess_profile(edges, k_max: int, ell_max: int) -> list[float]:
    """c[e] = fewest contractions (at most k_max, else INF) that bring the
    connected graph on `edges` to excess <= e, for e = 0..ell_max."""
    verts = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(verts)}
    pairs = [(index[u], index[v]) for u, v in edges]
    best = [INF] * (ell_max + 1)
    for size in range(0, min(k_max, len(pairs)) + 1):
        for subset in combinations(range(len(pairs)), size):
            exc = _quotient_excess(len(verts), pairs, subset)
            for e in range(max(exc, 0), ell_max + 1):
                if best[e] > size:
                    best[e] = size
        if best[0] <= size:
            break
    return best


def oracle_decide(edges, k: int, ell: int) -> bool:
    """Can at most k contractions bring the connected graph to excess <= ell?"""
    return excess_profile(edges, k, ell)[ell] <= k


def block_knapsack(blocks, k: int, ell: int) -> bool:
    """Min-plus knapsack over per-block profiles; bridges cost nothing."""
    best = [0.0] + [INF] * ell  # best[j]: fewest contractions using total excess j
    for b in blocks:
        prof = excess_profile(b, k, ell)
        nxt = [INF] * (ell + 1)
        for used, cost in enumerate(best):
            if cost == INF:
                continue
            for e in range(0, ell + 1 - used):
                if prof[e] != INF and cost + prof[e] < nxt[used + e]:
                    nxt[used + e] = cost + prof[e]
        best = nxt
    return min(best) <= k
