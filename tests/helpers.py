"""Test-side utilities: brute-force isomorphism and exhaustive enumeration of
small connected graphs up to isomorphism.  Desk scale only."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations

from neartree.errors import InputError
from neartree.graph import (
    Graph,
    Instance,
    bits,
    complete_graph,
    contract_edges,
    edge,
    excess,
    is_near_tree,
    reach,
)
from neartree.kernel import (
    CommonNbrContract,
    KernelTrace,
    degree_threshold,
    lossy_degree,
    partition_hir,
    reduce_false_twins,
    reduce_long_paths,
)
from neartree.witness import WitnessCheck, WitnessStructure, quotient, solution_edges

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def outcome(call):
    """What call() gives: its value, or (exception type, message) if it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


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


def shortest_cycle_through(g: Graph, max_length: int) -> dict[int, float]:
    """For each vertex, the length of a shortest cycle through it (inf when
    none has at most max_length edges), by walking every simple path that
    starts at the cycle's smallest vertex."""
    best = dict.fromkeys(g.vertices, float("inf"))

    def walk(path: list[int]):
        for y in g.neighbors(path[-1]):
            if y == path[0] and len(path) >= 3:
                for v in path:
                    best[v] = min(best[v], len(path))
            elif y > path[0] and y not in path and len(path) < max_length:
                walk(path + [y])

    for s in g.vertices:
        walk([s])
    return best


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


def set_partitions(items: list[int]):
    """Every partition of items into nonempty lists (Bell(len(items)) of them)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        yield [[first], *p]
        for i in range(len(p)):
            yield [*p[:i], [first, *p[i]], *p[i + 1:]]


# Graph-based witness checks, the reference for neartree.witness: the
# partition test, each bag's connectivity by a BFS of the graph of edges
# inside bags, and the quotient as a Graph tested with is_near_tree.

def is_partition(g: Graph, w: WitnessStructure) -> bool:
    seen: set[int] = set()
    for b in w.bags:
        if not b or (b & seen) or not b <= g.vertices:
            return False
        seen |= b
    return seen == g.vertices


def split_bag(g: Graph, w: WitnessStructure) -> frozenset[int] | None:
    """The first bag that does not induce a connected subgraph, or None."""
    bag_of = {v: i for i, b in enumerate(w.bags) for v in b}
    inside = Graph(g.vertices, frozenset(e for e in g.edges if bag_of[e[0]] == bag_of[e[1]]))
    pieces = Counter(bag_of[min(c)] for c in inside.components())
    return next((b for i, b in enumerate(w.bags) if pieces[i] > 1), None)


def contract_bags(g: Graph, w: WitnessStructure) -> Graph:
    rep: dict[int, int] = {}
    for b in w.bags:
        rep.update(dict.fromkeys(b, min(b)))
    q_edges = {edge(rep[u], rep[v]) for u, v in g.edges if rep[u] != rep[v]}
    return Graph(frozenset(rep.values()), frozenset(q_edges))


def quotient_reference(g: Graph, w: WitnessStructure) -> Graph:
    if not is_partition(g, w):
        raise InputError("bags do not partition the vertex set")
    bad = split_bag(g, w)
    if bad is not None:
        raise InputError(f"bag {sorted(bad)} does not induce a connected subgraph")
    return contract_bags(g, w)


def verify_witness_reference(g: Graph, w: WitnessStructure, ell: int, k: int) -> WitnessCheck:
    cost = w.cost()
    if not is_partition(g, w):
        return WitnessCheck(False, cost, "not-partition")
    if split_bag(g, w) is not None:
        return WitnessCheck(False, cost, "disconnected-bag")
    if not is_near_tree(contract_bags(g, w), ell):
        return WitnessCheck(False, cost, "quotient-outside-class")
    if cost > k:
        return WitnessCheck(False, cost, "over-budget")
    return WitnessCheck(True, cost, "ok")


def normalize_leaves_reference(g: Graph, w: WitnessStructure) -> WitnessStructure:
    """The peel loop of `normalize_leaves` one peel at a time: each peel
    takes the lowest fat leaf of the current quotient, fixes its bag's tree
    through `solution_edges` on the bag's subgraph, and rebuilds the quotient."""
    q = quotient(g, w)
    if q.n < 3:
        raise InputError("leaf normalization needs a quotient with at least 3 vertices")
    current = WitnessStructure.of(w.bags)
    while True:
        rep = {min(b): b for b in current.bags}
        fat_leaves = [rep[v] for v in sorted(q.vertices) if q.degree(v) == 1 and len(rep[v]) >= 2]
        if not fat_leaves:
            return current
        b = fat_leaves[0]
        b_next = rep[next(iter(q.neighbors(min(b))))]

        tree = _bag_spanning_tree(g, b)
        adjacent_to_next = sorted(
            v for v in b if any(x in b_next for x in g.neighbors(v))
        )
        u_star = adjacent_to_next[0]
        tree_leaves = sorted(v for v in b if _tree_degree(tree, v) <= 1 and v != u_star)
        v_star = tree_leaves[0]

        bags = [x for x in current.bags if x != b and x != b_next]
        current = WitnessStructure.of(bags + [frozenset({v_star}), (b | b_next) - {v_star}])
        q = quotient(g, current)


def _bag_spanning_tree(g: Graph, bag: frozenset[int]) -> frozenset[tuple[int, int]]:
    return solution_edges(g.subgraph(bag), WitnessStructure((bag,)))


def _tree_degree(tree: frozenset[tuple[int, int]], v: int) -> int:
    return sum(1 for e in tree if v in e)


def _touching(adj: tuple[int, ...], masks) -> list[int]:
    """For each mask, the positions of the other masks it has an edge to."""
    nbr = [0] * len(masks)
    for i, m in enumerate(masks):
        out = reach(adj, m) & ~m
        for j in range(i + 1, len(masks)):
            if out & masks[j]:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    return nbr


def _block_chromatic(masks: tuple[int, ...], adj: tuple[int, ...]) -> int:
    """Chromatic number of the block-adjacency graph (exact; tiny inputs)."""
    t = len(masks)
    nbr = _touching(adj, masks)
    order = sorted(range(t), key=lambda i: -nbr[i].bit_count())
    colors = [0] * t

    def colorable(limit: int, pos: int) -> bool:
        if pos == t:
            return True
        i = order[pos]
        used = {colors[j] for j in bits(nbr[i])}
        fresh_cap = max((colors[j] for j in order[:pos]), default=0) + 1
        for c in range(1, limit + 1):
            if c in used:
                continue
            colors[i] = c
            if colorable(limit, pos + 1):
                return True
            colors[i] = 0
            if c >= fresh_cap:
                break  # all unused colors above the current max are symmetric
        return False

    for limit in range(1, t + 1):
        if colorable(limit, 0):
            return limit
    return t


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


def subdivide_paths(g: Graph, inner: dict[tuple[int, int], int]) -> Graph:
    """Replace each edge e of `inner` by a path through inner[e] fresh vertices."""
    edges = [e for e in g.edges if e not in inner]
    fresh = max(g.vertices) + 1
    for (u, v), s in sorted(inner.items()):
        path = [u, *range(fresh, fresh + s), v]
        edges += zip(path, path[1:])
        fresh += s
    return Graph.build(g.vertices | set(range(max(g.vertices) + 1, fresh)), edges)


def subdivided_k33() -> Graph:
    """K3,3 on sides 1-3 and 4-6 with every edge subdivided twice: 24
    vertices, 27 edges, one block of excess 4 and girth 12."""
    return subdivide_paths(Graph.build(range(1, 7), [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]),
                           {(a, b): 2 for a in (1, 2, 3) for b in (4, 5, 6)})


def hypercube(d: int) -> Graph:
    """The d-cube on 1..2^d: two vertices are adjacent when their ids minus
    one differ in one bit.  Bipartite, girth 4, every vertex on a 4-cycle."""
    return Graph.build(range(1, 2 ** d + 1), [(u + 1, (u | 1 << b) + 1)
                                              for u in range(2 ** d) for b in range(d)
                                              if not u >> b & 1])


def girth(g: Graph) -> float:
    """Length of a shortest cycle (inf for a forest): for each edge (u, v),
    one more than the distance from u to v without it."""
    best = float("inf")
    for u, v in g.edges:
        dist, frontier = {u: 0}, [u]
        while frontier and v not in dist:
            nxt = []
            for x in frontier:
                for y in g.neighbors(x):
                    if y not in dist and {x, y} != {u, v}:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def three_long_runs() -> Graph:
    """K4 on 1..4 with edge 1-2 subdivided by 8 vertices, edge 3-4 by 10, and
    a ring of 9 more vertices closing a cycle through vertex 1: two long runs
    between distinct anchors and one through a single anchor."""
    g = subdivide_paths(complete_graph(range(1, 5)), {(1, 2): 8, (3, 4): 10})
    ring = [1, *range(g.n + 1, g.n + 10), 1]
    return Graph.build(g.vertices | set(ring), list(g.edges) + list(zip(ring, ring[1:])))


def common_neighborhood_reference(instance: Instance, alpha: float,
                                  ) -> tuple[Instance, CommonNbrContract | None]:
    """The lossy rule by its definition: try every d-subset of the high part
    in lexicographic order and contract the first one that k + ell + 2
    independent vertices share onto the lowest of them."""
    g, k, ell = instance.graph, instance.k, instance.ell
    d = lossy_degree(alpha)
    part = partition_hir(instance)
    if len(part.high) < d:
        return instance, None
    ind = sorted(part.independent)
    for hub_set in combinations(sorted(part.high), d):
        sharing = [v for v in ind if frozenset(hub_set) <= g.neighbors(v)]
        if len(sharing) >= k + ell + 2:
            star = tuple(sorted(edge(sharing[0], h) for h in hub_set))
            contracted, _ = contract_edges(g, star)
            return Instance(contracted, k - d + 1, ell), CommonNbrContract(star, d)
    return instance, None


def kernelize_reference(instance: Instance, alpha: float | None) -> tuple[Instance, KernelTrace]:
    """The kernel as a plain fixed point of the one-step rules: after every
    step, the decision rules (given alpha) and then every rule in order run
    again on the new graph.  alpha None applies only the two exact rules and
    decides nothing, as `kernelize_exact` does.  The lossy rule is
    `common_neighborhood_reference`, the scan over every hub set."""
    rules = [reduce_long_paths, reduce_false_twins]
    if alpha is not None:
        rules.append(lambda inst: common_neighborhood_reference(inst, alpha))
    steps = []
    cur = instance
    resolved = None
    while True:
        if alpha is not None:
            g, k = cur.graph, cur.k
            if k < 0 or not g.is_connected():
                resolved = "no"
            elif excess(g) <= cur.ell:
                resolved = "yes"
            elif k == 0:
                resolved = "no"
            if resolved is not None:
                break
        for rule in rules:
            cur, step = rule(cur)
            if step is not None:
                steps.append(step)
                break
        else:
            break
    return cur, KernelTrace(tuple(steps), resolved)


def twin_gadget(rng, a: int, t: int) -> Graph:
    """K_{a,t} (hubs 1..a) with a seeded pendant tree, a few subdivided
    paths (some closing a cycle through one end) and a few extra edges,
    under a seeded relabeling."""
    edges = [(h, a + 1 + i) for h in range(1, a + 1) for i in range(t)]
    n = a + t
    for _ in range(rng.randint(0, 20)):
        n += 1
        edges.append((rng.randint(1, n - 1), n))
    for _ in range(rng.randint(0, 2)):
        u, v, inner = rng.randint(1, n), rng.randint(1, n), rng.randint(2, 12)
        path = [u, *range(n + 1, n + inner + 1), v]
        n += inner
        edges += zip(path, path[1:])
    for _ in range(rng.randint(0, 3)):
        u, v = rng.randint(1, n), rng.randint(1, n)
        if u != v:
            edges.append((u, v))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return Graph.build(perm, ((perm[u - 1], perm[v - 1]) for u, v in edges))


def ballast_gadget(rng, k: int, ell: int) -> Graph:
    """K_{a,t} (a = 2-3 hubs, t <= 10 - a) whose hubs each carry
    degree_threshold(k, ell) + 0..3 pendant paths of length 2, so they stay
    high (the ballast is no twin class), with 0-2 chorded cycles hung on
    seeded vertices, under a seeded relabeling."""
    a = rng.randint(2, 3)
    t = rng.randint(1, 10 - a)
    edges = [(h, a + 1 + i) for h in range(1, a + 1) for i in range(t)]
    n = a + t
    for h in range(1, a + 1):
        for _ in range(degree_threshold(k, ell) + rng.randint(0, 3)):
            edges += [(h, n + 1), (n + 1, n + 2)]
            n += 2
    for _ in range(rng.randint(0, 2)):
        size = rng.randint(4, 6)
        ring = [rng.randint(1, n), *range(n + 1, n + size)]
        n += size - 1
        edges += [*zip(ring, ring[1:] + ring[:1]), (ring[0], ring[2])]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return Graph.build(perm, ((perm[u - 1], perm[v - 1]) for u, v in edges))


def planted_graph(rng, h: int, extra: int, blown: int) -> Graph:
    """A seeded tree on h vertices plus `extra` edges, with `blown` of its
    vertices each blown up into a two-vertex bag {v, twin}: every edge at v
    goes to v, to the twin, or to both.  Contracting the bags gives back the
    base graph, of excess `extra`, so (blown, extra) is a yes."""
    edges = {(rng.randrange(v), v) for v in range(1, h)}
    while len(edges) < h - 1 + extra:
        edges.add(tuple(sorted(rng.sample(range(h), 2))))
    for twin, v in enumerate(rng.sample(range(h), blown), start=h):
        kept = {(v, twin)}
        for e in sorted(edges):
            side = rng.randrange(3) if v in e else 0  # 0: keep e; 1: move it; 2: both
            if side:
                kept.add(edge(e[0] if e[1] == v else e[1], twin))
            if side != 1:
                kept.add(e)
        edges = kept
    return Graph.build(range(h + blown), edges)
