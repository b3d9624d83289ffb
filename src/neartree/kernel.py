"""Lossy kernelization: reduction rules, size bound, and solution lifting.

Three rewrite rules shrink an instance while keeping any solution of the
reduced instance liftable: every long induced degree-2 path is shortened to
k + 2 interior vertices in one contraction, a vertex with enough false twins
disappears, and a large common neighborhood in the high-degree set is
contracted (the only lossy rule, losing at most a factor alpha).  A trace of
applied steps drives the lifting; replaying it forward on the original
instance reproduces the reduced one exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb

from .errors import InputError
from .graph import Edge, Graph, Instance, MergeMap, contract_edges, edge, excess

MAX_LOSSY_DEGREE = 16  # cap on d = ceil(alpha / (alpha - 1)); rejects alpha too close to 1


# ---------------------------------------------------------------------------
# trace records

@dataclass(frozen=True)
class LongPathContract:
    contracted: tuple[Edge, ...]  # edges inside the long runs


@dataclass(frozen=True)
class TwinDelete:
    vertex: int
    neighborhood: frozenset[int]


@dataclass(frozen=True)
class CommonNbrContract:
    contracted: tuple[Edge, ...]  # the star {v1 h_i}
    d: int


Step = LongPathContract | TwinDelete | CommonNbrContract


@dataclass(frozen=True)
class KernelTrace:
    """The applied steps in order.  A long-path step holds the edges of every
    long run contracted at once; it and the lossy step lift through the same
    merge-map inversion, and only the lossy step lowers the budget (by d - 1)."""

    steps: tuple[Step, ...]
    resolved: str | None = None  # None | "yes" | "no"


# ---------------------------------------------------------------------------
# degree split

@dataclass(frozen=True)
class HIRPartition:
    high: frozenset[int]         # degree >= 2(k+3)(k+2*ell) + 1
    independent: frozenset[int]  # all neighbors high
    rest: frozenset[int]


def degree_threshold(k: int, ell: int) -> int:
    return 2 * (k + 3) * (k + 2 * ell) + 1


def partition_hir(instance: Instance) -> HIRPartition:
    g, k, ell = instance.graph, instance.k, instance.ell
    theta = degree_threshold(k, ell)
    high = frozenset(v for v in g.vertices if g.degree(v) >= theta)
    independent = frozenset(v for v in g.vertices - high if g.neighbors(v) <= high)
    rest = g.vertices - high - independent
    return HIRPartition(high, independent, rest)


# ---------------------------------------------------------------------------
# rule: long induced degree-2 paths

def _long_path_edges(g: Graph, k: int) -> list[Edge]:
    """Edges whose contraction leaves every run of degree-2 vertices with at
    most k + 2 interior vertices.

    A run R is a connected component of the degree-2 vertices and its anchors
    are R's neighbors outside it (two for a chain, one when R closes a cycle
    through a single anchor, none when the graph is a cycle).  The longest
    induced path through R has q = |R| - 2 + |anchors| interior vertices, so
    R gives its first q - (k + 2) edges in sorted order.
    """
    deg2 = frozenset(v for v in g.vertices if g.degree(v) == 2)
    sub = g.subgraph(deg2)
    out: list[Edge] = []
    for run in sub.components():
        anchors = frozenset().union(*(g.neighbors(v) for v in run)) - run
        surplus = len(run) - 2 + len(anchors) - (k + 2)
        if surplus > 0:
            out += sorted({edge(v, w) for v in run for w in sub.neighbors(v)})[:surplus]
    return out


def reduce_long_paths(instance: Instance) -> tuple[Instance, LongPathContract | None]:
    """Shorten every long run in one contraction.  Runs are vertex-disjoint,
    no edge joins two of them, and contracting edges inside a run changes no
    degree, so this is one application of the rule per contracted edge."""
    g, k = instance.graph, instance.k
    targets = _long_path_edges(g, k)
    if not targets:
        return instance, None
    contracted, _ = contract_edges(g, targets)
    return Instance(contracted, k, instance.ell), LongPathContract(tuple(targets))


# ---------------------------------------------------------------------------
# rule: false twins in the independent part

def reduce_false_twins(instance: Instance) -> tuple[Instance, TwinDelete | None]:
    g, k, ell = instance.graph, instance.k, instance.ell
    part = partition_hir(instance)
    groups: dict[frozenset[int], list[int]] = {}
    for v in sorted(part.independent):
        groups.setdefault(g.neighbors(v), []).append(v)
    need = k + ell + 2  # twins besides the vertex itself
    eligible = [vs for vs in groups.values() if len(vs) - 1 >= need]
    if not eligible:
        return instance, None
    group = min(eligible, key=min)
    victim = max(group)
    step = TwinDelete(victim, g.neighbors(victim))
    return Instance(g.without([victim]), k, ell), step


# ---------------------------------------------------------------------------
# rule: shared d-neighborhood in the high-degree part (the lossy one)

def lossy_degree(alpha: float) -> int:
    if alpha <= 1:
        raise InputError("the approximation factor must exceed 1")
    d = ceil(alpha / (alpha - 1))
    if d > MAX_LOSSY_DEGREE:
        raise InputError(f"alpha={alpha} needs d={d} > {MAX_LOSSY_DEGREE}; choose alpha further from 1")
    return d


def reduce_common_neighborhood(instance: Instance, alpha: float,
                               ) -> tuple[Instance, CommonNbrContract | None]:
    g, k, ell = instance.graph, instance.k, instance.ell
    d = lossy_degree(alpha)
    part = partition_hir(instance)
    if len(part.high) < d:
        return instance, None
    need = k + ell + 2
    ind = sorted(part.independent)
    for hub_set in combinations(sorted(part.high), d):
        hubs = frozenset(hub_set)
        sharing = [v for v in ind if hubs <= g.neighbors(v)]
        if len(sharing) >= need:
            v1 = sharing[0]
            star = tuple(sorted(edge(v1, h) for h in hub_set))
            contracted, _ = contract_edges(g, star)
            return Instance(contracted, k - d + 1, ell), CommonNbrContract(star, d)
    return instance, None


# ---------------------------------------------------------------------------
# full kernelization

def size_bound(k: int, ell: int, d: int) -> int:
    """Explicit vertex bound for reduced undecided instances: the high part
    is at most 2(k+3)(k+2*ell), the rest at most 8(k+3)^2(k+2*ell)^2, and the
    independent part at most (k+ell+2) * (C(high, d-1) + C(high, d)).  The kernel
    does not decide by it: it fails for yes instances with large pendant
    trees, which no rule here removes."""
    h = 2 * (k + 3) * (k + 2 * ell)
    r = 8 * (k + 3) ** 2 * (k + 2 * ell) ** 2
    i = (k + ell + 2) * (comb(h, d - 1) + comb(h, d))
    return h + r + i


def _preliminary(instance: Instance) -> str | None:
    g, k, ell = instance.graph, instance.k, instance.ell
    if k < 0 or not g.is_connected():
        return "no"
    if excess(g) <= ell:
        return "yes"
    if k == 0:
        return "no"
    return None


def kernelize(instance: Instance, alpha: float) -> tuple[Instance, KernelTrace]:
    """Apply the three rules exhaustively (long paths, then twins, then common
    neighborhoods), interleaved with the basic decision rules.  Only those
    rules decide: an undecided result above `size_bound` stays undecided,
    because without a rule for degree-1 vertices the bound does not hold for
    yes instances (a large tree with one triangle needs one contraction)."""
    steps: list[Step] = []
    cur = instance
    resolved = None
    while True:
        resolved = _preliminary(cur)
        if resolved is not None:
            break
        cur, step = reduce_long_paths(cur)
        if step is not None:
            steps.append(step)
            continue
        cur, step = reduce_false_twins(cur)
        if step is not None:
            steps.append(step)
            continue
        cur, step = reduce_common_neighborhood(cur, alpha)
        if step is not None:
            steps.append(step)
            continue
        break
    return cur, KernelTrace(tuple(steps), resolved)


def kernelize_exact(instance: Instance) -> tuple[Instance, KernelTrace]:
    """Only the two decision-preserving rules, to a fixed point; no size flag."""
    steps: list[Step] = []
    cur = instance
    while True:
        cur, step = reduce_long_paths(cur)
        if step is not None:
            steps.append(step)
            continue
        cur, step = reduce_false_twins(cur)
        if step is not None:
            steps.append(step)
            continue
        break
    return cur, KernelTrace(tuple(steps), None)


# ---------------------------------------------------------------------------
# replay and lifting

def replay(original: Instance, trace: KernelTrace,
           ) -> tuple[list[Instance], list[MergeMap | None]]:
    """Forward application of the trace.  Returns every stage, source first,
    and for each step the merge map of its contraction (None for a twin
    deletion), which `lift_solution` inverts.

    Raises InputError when a step does not fit the graph it is applied to,
    which is the trace/instance-mismatch guard for lifting.
    """
    stages = [original]
    merges: list[MergeMap | None] = []
    cur = original
    for step in trace.steps:
        g, k, ell = cur.graph, cur.k, cur.ell
        if isinstance(step, TwinDelete):
            if step.vertex not in g.vertices:
                raise InputError(f"trace mismatch: vertex {step.vertex} absent")
            cur = Instance(g.without([step.vertex]), k, ell)
            merges.append(None)
        elif isinstance(step, (LongPathContract, CommonNbrContract)):
            contracted, merge = contract_edges(g, step.contracted)  # raises on absent edges
            if isinstance(step, CommonNbrContract):
                k -= step.d - 1
            cur = Instance(contracted, k, ell)
            merges.append(merge)
        else:
            raise InputError(f"unknown step {step!r}")
        stages.append(cur)
    return stages, merges


def _lift_through(f: frozenset[Edge], pre: Graph, merge: MergeMap) -> frozenset[Edge]:
    """Map edges of a contracted graph back into the graph before the
    contraction: each edge between two merged groups becomes the smallest
    edge of pre that joins the same two groups."""
    hosts: dict[Edge, Edge] = {}
    for u, v in sorted(pre.edges):
        if merge[u] != merge[v]:
            hosts.setdefault(edge(merge[u], merge[v]), (u, v))
    return frozenset(hosts[e] for e in f)


def lift_solution(original: Instance, trace: KernelTrace,
                  f_reduced: frozenset[Edge] | set[Edge],
                  replayed: tuple[list[Instance], list[MergeMap | None]] | None = None,
                  ) -> frozenset[Edge]:
    """Map a solution of the reduced instance back to the original one.

    Twin steps keep the edge set.  Both contraction steps map each edge back
    through the merge to the smallest edge joining the same two groups, and
    the lossy rule then adds its contracted star back.  Whenever the running
    solution already exceeds the budget of the stage it solves, the lift
    gives up and returns every original edge, as does a reduced instance
    flagged no.  `replayed` is `replay(original, trace)` when the caller
    already has it.
    """
    if trace.resolved == "no":
        return frozenset(original.graph.edges)
    stages, merges = replayed or replay(original, trace)
    f = frozenset(edge(u, v) for u, v in f_reduced)
    if not f <= stages[-1].graph.edges:
        raise InputError("reduced solution uses edges outside the reduced graph")

    for idx in range(len(trace.steps) - 1, -1, -1):
        step, merge = trace.steps[idx], merges[idx]
        if len(f) >= stages[idx + 1].k + 1:
            return frozenset(original.graph.edges)
        if merge is None:
            continue  # a twin deletion: edges of the smaller graph are edges of the larger one
        f = _lift_through(f, stages[idx].graph, merge)
        if isinstance(step, CommonNbrContract):
            f = f | frozenset(step.contracted)
    return f
