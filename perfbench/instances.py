"""Seeded instance generators for the four benchmark workloads.

Everything here is plain Python on edge lists; nothing imports neartree, so
the inputs and the reference decisions never depend on the code under test.
Graphs have vertex ids 1..n and edges (u, v) with u < v, and every generator
relabels its vertices with a seeded permutation, so that no planted
structure lines up with vertex ids.

Each workload has a fixed design: a short table of graph specs that pins
what drives an instance's cost (sizes, block shapes, budgets).  Every round
deals the whole table in a seed-shuffled order.  The shape of each graph
(tree shapes, which vertices are split or joined, where blocks and paths
hang) depends only on its round and spec; the seed draws the order, the
vertex labels and the colouring seeds of random mode.  A run attempts whole
rounds, so runs with different seeds time the same graph shapes under
other labels, orders and random draws: their spread measures the program
and the machine, not which graphs a seed happened to draw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from reference import block_knapsack, oracle_decide


@dataclass
class Instance:
    """One query: graph text, CLI arguments, and what its answer is checked against.

    `ref_job` holds the inputs of the reference decision, which is computed
    only for instances a run attempts.  `planted_yes` marks a query whose
    answer is yes by construction.
    """

    text: str
    k: int
    ell: int
    mode: str
    seed: int = 0
    iters: int | None = None
    planted_yes: bool = False
    ref_job: tuple = ()


def reference_decision(ins: Instance) -> bool | None:
    """Certified decision, or None where only a yes can be checked (its witness)."""
    if ins.planted_yes:
        return True
    if not ins.ref_job:
        return None
    kind, payload = ins.ref_job
    if kind == "blocks":
        return block_knapsack(payload, ins.k, ins.ell)
    return oracle_decide(payload, ins.k, ins.ell)


def _dealt(workload: str, specs: list, rng: random.Random):
    """Yield (spec, shape rng) forever, each round a fresh `rng` shuffle of the
    whole table.  The shape rng depends only on the round and the spec, so
    round r builds the same graph shapes whatever the seed."""
    for rnd in itertools.count():
        order = list(range(len(specs)))
        rng.shuffle(order)
        for j in order:
            yield specs[j], random.Random(f"{workload}/shape/{rnd}/{j}")


def _log_spaced(lo: int, hi: int, m: int) -> list[int]:
    """m sizes spread evenly on a log scale over [lo, hi]."""
    return [int(round(lo * (hi / lo) ** ((j + 0.5) / m))) for j in range(m)]


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def graph_text(n: int, edges) -> str:
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def _relabel(n: int, rng: random.Random):
    """Random bijection on 1..n, returned as a function on edge lists."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return lambda edges: sorted(_norm(perm[u - 1], perm[v - 1]) for u, v in edges)


def _cycle_with_chords(ids: list[int], chords: int, rng: random.Random) -> set[tuple[int, int]]:
    """A cycle through `ids` plus `chords` distinct chords: 2-connected, excess chords + 1."""
    s = len(ids)
    edges = {_norm(ids[i], ids[(i + 1) % s]) for i in range(s)}
    candidates = [_norm(ids[i], ids[j]) for i in range(s) for j in range(i + 2, s)
                  if not (i == 0 and j == s - 1)]
    rng.shuffle(candidates)
    edges.update(candidates[:chords])
    return edges


def _path_edges(u: int, v: int, inner) -> list[tuple[int, int]]:
    seq = [u, *inner, v]
    return [_norm(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]


# ---------------------------------------------------------------------------
# rand-2c: planted 2-connected graphs

RAND_ITERS = 30
RAND_K_ELL = ((2, 1), (3, 1), (2, 2), (3, 2))
RAND_DESIGN = [(n, k, ell) for n in range(12, 16) for k, ell in RAND_K_ELL]


def _split_vertex(adj: dict[int, set[int]], v: int, fresh: int, rng: random.Random):
    """Add `fresh` next to v, adjacent to one neighbour s of v (the triangle
    v-fresh-s) and taking over a random share of v's other neighbours.
    Contracting v-fresh undoes the split, so each split adds one unit of
    excess that one contraction removes; 2-connectivity is preserved."""
    nbrs = sorted(adj[v])
    rng.shuffle(nbrs)
    shared, rest = nbrs[0], nbrs[1:]
    moved = rest[:rng.randint(0, len(rest) - 1)] if rest else []
    adj[fresh] = set(moved) | {v, shared}
    adj[shared].add(fresh)
    for x in moved:
        adj[x].discard(v)
        adj[x].add(fresh)
        adj[v].discard(x)
    adj[v].add(fresh)


def gen_rand_2c(seed: int, count: int) -> list[Instance]:
    """A cycle plus ell - 1 chords (excess ell), blown up by k vertex splits
    (excess ell + k); each graph is asked at its planted k (a known yes) and
    at k - 1, where random mode may find nothing and no reference exists."""
    rng = random.Random(f"rand-2c/{seed}")
    out: list[Instance] = []
    for (n, k, ell), shape in _dealt("rand-2c", RAND_DESIGN, rng):
        if len(out) >= count:
            return out[:count]
        ids = list(range(1, n - k + 1))
        adj: dict[int, set[int]] = {v: set() for v in ids}
        for u, v in _cycle_with_chords(ids, ell - 1, shape):
            adj[u].add(v)
            adj[v].add(u)
        for fresh in range(n - k + 1, n + 1):
            _split_vertex(adj, shape.choice(sorted(adj)), fresh, shape)
        edges = {_norm(u, v) for u in adj for v in adj[u]}
        text = graph_text(n, _relabel(n, rng)(edges))
        for kq in (k, k - 1):
            out.append(Instance(text, kq, ell, "rand", seed=rng.randrange(1 << 30),
                                iters=RAND_ITERS, planted_yes=kq == k))


# ---------------------------------------------------------------------------
# exhaustive-blocks: a random tree with small 2-connected blocks hung on it

PENDANT_LEN = (550, 650)  # deeper than the solver's leaf-peeling recursion can go


def _blocks_design() -> list[tuple]:
    """16 specs (tree size, block shapes, k, ell below the total excess,
    pendant path?).  A block shape is a cycle on 5-8 vertices, with a chord
    (its span) on 5-7; one spec carries the long pendant path."""
    rng = random.Random("exhaustive-blocks/design")
    shapes = [(s, 0) for s in (5, 6, 7, 8)] + [(s, j) for s in (5, 6, 7)
                                               for j in range(2, s // 2 + 1)]
    specs = []
    for i, tree_n in enumerate(_log_spaced(30, 120, 16)):
        blocks = tuple(rng.choice(shapes) for _ in range(2 + i % 2))
        specs.append((tree_n, blocks, 1 + i % 3, 1 + i % 2 if i % 5 else 2, i == 9))
    return specs


BLOCKS_DESIGN = _blocks_design()


def gen_exhaustive_blocks(seed: int, count: int) -> list[Instance]:
    """Random recursive tree with 2-3 blocks (a cycle on 5-8 vertices, maybe
    with a chord), each sharing one vertex with the tree, asked at 1-2 below
    the total excess.  One graph in 16 also carries a pendant path of
    550-650 vertices.  The reference is the min-plus knapsack of the blocks'
    oracle profiles."""
    rng = random.Random(f"exhaustive-blocks/{seed}")
    out: list[Instance] = []
    for spec, shape in _dealt("exhaustive-blocks", BLOCKS_DESIGN, rng):
        tree_n, shapes, k, slack, pendant = spec
        if len(out) >= count:
            return out
        edges = {_norm(shape.randint(max(1, v - 40), v - 1), v) for v in range(2, tree_n + 1)}
        n = tree_n
        blocks = []
        for size, span in shapes:
            ids = [shape.randint(1, tree_n)] + list(range(n + 1, n + size))
            n += size - 1
            shape.shuffle(ids)
            block = _path_edges(ids[0], ids[0], ids[1:])  # the cycle
            if span:
                block.append(_norm(ids[0], ids[span]))
            blocks.append(block)
            edges.update(block)
        if pendant:
            length = shape.randint(*PENDANT_LEN)
            edges.update(_path_edges(shape.randint(1, tree_n), n + length, range(n + 1, n + length)))
            n += length
        total_excess = sum(1 + (span > 0) for _, span in shapes)
        relabel = _relabel(n, rng)
        out.append(Instance(graph_text(n, relabel(edges)), k, max(0, total_excess - slack),
                            "exhaustive", ref_job=("blocks", [relabel(b) for b in blocks])))


# ---------------------------------------------------------------------------
# derand-small: small connected graphs, four budgets each, family built per call

DERAND_DESIGN = [(8, extra) for extra in (1, 2, 3, 4)]  # (n, extra edges)
DERAND_QUERIES = ((1, 0), (2, 0), (1, 1), (2, 1))


def gen_derand_small(seed: int, count: int) -> list[Instance]:
    """Random tree plus 1-4 further edges, asked back to back at every
    (k, ell) in DERAND_QUERIES; the reference is the oracle."""
    rng = random.Random(f"derand-small/{seed}")
    out: list[Instance] = []
    for (n, extra), shape in _dealt("derand-small", DERAND_DESIGN, rng):
        if len(out) >= count:
            return out[:count]
        edges = {_norm(shape.randint(1, v - 1), v) for v in range(2, n + 1)}
        others = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                  if (u, v) not in edges]
        edges.update(shape.sample(others, extra))
        edges = _relabel(n, rng)(edges)
        text = graph_text(n, edges)
        for k, ell in DERAND_QUERIES:
            out.append(Instance(text, k, ell, "derand", ref_job=("oracle", edges)))


# ---------------------------------------------------------------------------
# kernel-exact: long induced paths and twin gadgets around a small core

KERNEL_ALPHA = 2.0
KERNEL_K_ELL = ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2))


def _kernel_design() -> list[tuple]:
    """12 specs (target n, k, ell, cycle length, chords, triangles, long
    paths, twins); every 4th is a twin-gadget spec with k = 1, ell = 0."""
    rng = random.Random("kernel-exact/design")
    specs = []
    for i, target_n in enumerate(_log_spaced(80, 350, 12)):
        if i % 4 == 3:
            specs.append((target_n, 1, 0, 3, 0, 0, 1, rng.randint(10, 30)))
            continue
        k, ell = KERNEL_K_ELL[i % 5]
        cycle_len, chords, triangles, paths = (rng.randint(3, 5), rng.randint(0, 1),
                                               rng.randint(0, 2), rng.randint(2, 3))
        while cycle_len + chords + 3 * triangles + paths * (k + 2) > 24:
            triangles -= 1  # the reduced graph must stay within the oracle's 24 edges
        specs.append((target_n, k, ell, cycle_len, chords, triangles, paths, 0))
    return specs


KERNEL_DESIGN = _kernel_design()


def gen_kernel_exact(seed: int, count: int) -> list[Instance]:
    """A core of short cycles whose other edges are subdivided into long
    induced paths; the twin-gadget graphs are a triangle with one long path
    and a K_{2,t} on it, at k = 1 and ell = 0, where the hubs have degree
    >= 9 and the twin rule fires.

    The kernel shrinks each long path to k + 2 inner vertices and each twin
    class until its hubs drop below the degree threshold, which keeps the
    reduced graph within the oracle's 24 edges.  The reference decides a copy
    the generator shortens itself: paths to k + 3 inner vertices, twins to
    2k + ell + 3, more than either rule needs to stay exact."""
    rng = random.Random(f"kernel-exact/{seed}")
    out: list[Instance] = []
    for spec, shape in _dealt("kernel-exact", KERNEL_DESIGN, rng):
        target_n, k, ell, cycle_len, chords, triangles, paths, t = spec
        if len(out) >= count:
            return out
        ids = list(range(1, cycle_len + 1))
        core = sorted(_cycle_with_chords(ids, chords, shape))
        long_edges = shape.sample(core, paths)
        n = cycle_len
        for _ in range(triangles):
            a = shape.choice(ids)
            core += [(a, n + 1), (a, n + 2), (n + 1, n + 2)]
            n += 2
        twins = list(range(n + 3, n + 3 + t))
        if t:
            hubs, anchor = (n + 1, n + 2), shape.choice(ids)
            core += [(anchor, h) for h in hubs] + [(h, w) for w in twins for h in hubs]
            n = twins[-1]
        rest = sorted(set(core) - set(long_edges))
        budget = max(target_n - n, paths * (k + 3))
        full, short = list(rest), list(rest)
        for i, (u, v) in enumerate(long_edges):
            length = budget // paths + (i < budget % paths)
            full += _path_edges(u, v, range(n + 1, n + length + 1))
            short += _path_edges(u, v, range(n + 1, n + k + 4))
            n += length
        dropped = set(twins[2 * k + ell + 3:])
        short = [e for e in short if not (set(e) & dropped)]
        relabel = _relabel(n, rng)
        out.append(Instance(graph_text(n, relabel(full)), k, ell, "kernel",
                            ref_job=("oracle", relabel(short))))


# instances in one round of each workload's design; a run attempts whole rounds
ROUND = {
    "rand-2c": 2 * len(RAND_DESIGN),
    "exhaustive-blocks": len(BLOCKS_DESIGN),
    "derand-small": len(DERAND_DESIGN) * len(DERAND_QUERIES),
    "kernel-exact": len(KERNEL_DESIGN),
}

GENERATORS = {
    "rand-2c": gen_rand_2c,
    "exhaustive-blocks": gen_exhaustive_blocks,
    "derand-small": gen_derand_small,
    "kernel-exact": gen_kernel_exact,
}
