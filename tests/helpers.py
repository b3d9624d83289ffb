"""Test-side utilities: brute-force isomorphism and exhaustive enumeration of
small connected graphs up to isomorphism.  Desk scale only."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from neartree.graph import Graph, edge

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def degree_profile(g: Graph) -> tuple:
    return tuple(sorted(g.degree(v) for v in g.vertices))


def wl_signature(g: Graph, rounds: int = 3) -> tuple:
    """Color-refinement fingerprint; equal for isomorphic graphs."""
    colors = {v: g.degree(v) for v in g.vertices}
    for _ in range(rounds):
        raw = {
            v: (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
            for v in g.vertices
        }
        rank = {t: i for i, t in enumerate(sorted(set(raw.values())))}
        colors = {v: rank[raw[v]] for v in g.vertices}
    return (g.n, g.m, tuple(sorted(colors.values())))


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test with degree pruning; fine below ~9 vertices."""
    if g1.n != g2.n or g1.m != g2.m or degree_profile(g1) != degree_profile(g2):
        return False
    if wl_signature(g1) != wl_signature(g2):
        return False
    vs1 = sorted(g1.vertices, key=lambda v: (-g1.degree(v), v))
    vs2 = sorted(g2.vertices)

    def extend(i: int, mapping: dict[int, int], used: set[int]) -> bool:
        if i == len(vs1):
            return True
        a = vs1[i]
        for b in vs2:
            if b in used or g2.degree(b) != g1.degree(a):
                continue
            ok = True
            for prev in vs1[:i]:
                if g1.has_edge(a, prev) != g2.has_edge(b, mapping[prev]):
                    ok = False
                    break
            if ok:
                mapping[a] = b
                used.add(b)
                if extend(i + 1, mapping, used):
                    return True
                del mapping[a]
                used.discard(b)
        return False

    return extend(0, {}, set())


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices up to isomorphism, labeled 1..n.

    Built by extending the (n-1)-vertex list with a new vertex attached to
    every nonempty neighbor subset (complete: every connected graph has a
    non-cut vertex), deduplicated by refinement fingerprint plus brute
    isomorphism.
    """
    if n == 1:
        return (Graph.build([1], []),)
    base = connected_graphs(n - 1)
    buckets: dict[tuple, list[Graph]] = {}
    out: list[Graph] = []
    for g in base:
        old = sorted(g.vertices)
        for r in range(1, n):
            for nbrs in combinations(old, r):
                h = Graph.build(
                    old + [n], list(g.edges) + [(n, x) for x in nbrs]
                )
                sig = wl_signature(h)
                bucket = buckets.setdefault(sig, [])
                if not any(brute_isomorphic(h, other) for other in bucket):
                    bucket.append(h)
                    out.append(h)
    return tuple(out)


def all_edge_subsets(g: Graph, max_size: int):
    es = sorted(g.edges)
    for size in range(0, max_size + 1):
        yield from combinations(es, size)


def connected_partitions_brute(g: Graph) -> set[frozenset[frozenset[int]]]:
    """Reference enumeration of partitions into connected blocks (tiny n)."""
    verts = sorted(g.vertices)

    def rec(rest: frozenset[int]) -> list[list[frozenset[int]]]:
        if not rest:
            return [[]]
        v = min(rest)
        out = []
        others = sorted(rest - {v})
        for r in range(0, len(others) + 1):
            for extra in combinations(others, r):
                block = frozenset((v, *extra))
                if not g.subgraph(block).is_connected():
                    continue
                for tail in rec(rest - block):
                    out.append([block] + tail)
        return out

    return {frozenset(p) for p in rec(frozenset(verts))}


def split_vertex(g: Graph, v: int, part1: set[int]) -> Graph:
    """Replace v by adjacent v1, v2 whose neighborhoods partition N(v)."""
    n1 = frozenset(part1)
    n2 = g.neighbors(v) - n1
    fresh1 = max(g.vertices) + 1
    fresh2 = fresh1 + 1
    edges = [e for e in g.edges if v not in e]
    edges += [(fresh1, x) for x in n1]
    edges += [(fresh2, x) for x in n2]
    edges.append((fresh1, fresh2))
    return Graph.build((g.vertices - {v}) | {fresh1, fresh2}, edges)


def subdivide_edge(g: Graph, e: tuple[int, int]) -> Graph:
    u, v = e
    fresh = max(g.vertices) + 1
    edges = [x for x in g.edges if x != edge(u, v)]
    edges += [(u, fresh), (fresh, v)]
    return Graph.build(g.vertices | {fresh}, edges)


def glue_blocks(blocks: list[Graph], joins: list[int]) -> Graph:
    """Disjoint copies of `blocks` chained in order.  Block i + 1 hangs off
    vertex (i mod size) of block i: it shares that vertex when joins[i] is 0,
    and is reached from it by a path of joins[i] edges otherwise."""
    edges: list[tuple[int, int]] = []
    ids: list[int] = []
    nxt = 1
    for i, b in enumerate(blocks):
        order = sorted(b.vertices)
        if i == 0:
            new_ids = list(range(nxt, nxt + len(order)))
        else:
            anchor, length = ids[(i - 1) % len(ids)], joins[i - 1]
            if length == 0:
                new_ids = [anchor] + list(range(nxt, nxt + len(order) - 1))
            else:
                path = [anchor, *range(nxt, nxt + length)]
                edges += zip(path, path[1:])
                new_ids = list(range(path[-1], path[-1] + len(order)))
        ids = new_ids
        rename = dict(zip(order, ids))
        edges += [(rename[u], rename[v]) for u, v in b.edges]
        nxt = max(ids) + 1
    return Graph.build({v for e in edges for v in e}, edges)
