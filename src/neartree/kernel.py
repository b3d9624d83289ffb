"""Lossy kernelization: reduction rules, size bound, and solution lifting.

Three rewrite rules shrink an instance while keeping any solution of the
reduced instance liftable: every long induced degree-2 path is shortened to
k + 2 interior vertices in one contraction, a vertex with enough false twins
disappears, and a large common neighborhood in the high-degree set is
contracted (the only lossy rule, losing at most a factor alpha).  A trace of
applied steps drives the lifting; replaying it forward on the original
instance reproduces the reduced one exactly.

Rules run without a new graph per step.  Connectivity is tested once: a
contraction keeps it, and a deleted twin leaves twins with its neighbors.  The
long-path rule re-runs only after a lossy step: for k >= -1 a contraction in a
run keeps every degree, and a twin deletion lowers only hub degrees, never
below 4.  Twins go in runs, one rebuild each: while the degree split stands, no
other twin group changes, so the rule keeps picking the same one.

The lossy rule contracts onto d = ceil(alpha / (alpha - 1)) hubs and has one
cap, LOSSY_SUBSET_CAP, on the d-subsets of neighborhoods it lists.  No d is
too large, so any finite alpha above 1 is accepted: once d is above every
degree the rule lists nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from math import ceil, comb, inf

from .errors import InputError, SizeCapError
from .graph import Edge, Graph, Instance, MergeMap, contract_edges, edge, excess

LOSSY_SUBSET_CAP = 1 << 18  # cap on the d-subsets of neighborhoods the lossy rule lists


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
    R gives its first q - (k + 2) edges in sorted order.  Each run's edges are
    collected on its walk, both ways from any vertex; the runs come in order
    of their lowest vertex.
    """
    adj = g.adjacency
    seen: set[int] = set()
    runs: list[tuple[int, list[Edge]]] = []
    for start, ns in adj.items():
        if len(ns) != 2 or start in seen:
            continue
        run, anchors, inside = {start}, set(), []
        for cur in ns:
            prev = start
            while len(adj[cur]) == 2 and cur not in run:  # up to an anchor or round a cycle
                run.add(cur)
                inside.append((prev, cur) if prev < cur else (cur, prev))
                a, b = adj[cur]
                prev, cur = cur, b if a == prev else a
            if len(adj[cur]) != 2:
                anchors.add(cur)
            else:  # back at start round a cycle: its last edge, and no second walk
                inside.append((prev, cur) if prev < cur else (cur, prev))
                break
        seen |= run
        surplus = len(run) - 2 + len(anchors) - (k + 2)
        if surplus > 0:
            runs.append((min(run), sorted(inside)[:surplus]))
    return [e for _, es in sorted(runs) for e in es]


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

def _twin_run(instance: Instance, part: HIRPartition) -> tuple[frozenset[int], list[int]]:
    """The rule's group (the eligible one with the lowest member), its shared
    neighborhood, and the members the one-step rule deletes in a row, largest
    first, until the group is not eligible or a hub is not high.  No decision
    rule cuts a run short: k + ell + 2 members on d >= 2 hubs keep cycle rank
    (d - 1)(k + ell + 1) > ell at k >= 1, and a leaf (d = 1) is on no cycle."""
    g, k, ell = instance.graph, instance.k, instance.ell
    groups: dict[frozenset[int], list[int]] = {}
    for v in sorted(part.independent):
        groups.setdefault(g.neighbors(v), []).append(v)
    need = k + ell + 2  # twins besides the vertex itself
    eligible = [vs for vs in groups.values() if len(vs) - 1 >= need]
    if not eligible:
        return frozenset(), []
    group = min(eligible, key=min)
    hubs, theta = g.neighbors(group[0]), degree_threshold(k, ell)
    runs = min([len(group) - max(need, 0)] + [g.degree(h) - theta + 1 for h in hubs])
    return hubs, group[::-1][:runs]


def reduce_false_twins(instance: Instance) -> tuple[Instance, TwinDelete | None]:
    """One application: the first deletion of the rule's twin run."""
    hubs, victims = _twin_run(instance, partition_hir(instance))
    if not victims:
        return instance, None
    reduced = Instance(instance.graph.without(victims[:1]), instance.k, instance.ell)
    return reduced, TwinDelete(victims[0], hubs)


# ---------------------------------------------------------------------------
# rule: shared d-neighborhood in the high-degree part (the lossy one)

def lossy_degree(alpha: float) -> int:
    """The lossy rule's hub-set size, for any finite alpha above 1."""
    if not 1 < alpha < inf:  # NaN fails both comparisons
        raise InputError(f"the approximation factor must be finite and exceed 1 (got {alpha})")
    return ceil(alpha / (alpha - 1))


def reduce_common_neighborhood(instance: Instance, alpha: float,
                               part: HIRPartition | None = None,  # the split, if known
                               ) -> tuple[Instance, CommonNbrContract | None]:
    """The lexicographically smallest d-set of hubs that k + ell + 2
    independent vertices share, with the lowest of them, v1, contracted onto
    it.  An independent vertex has only high neighbors, so counting the
    d-subsets of each one's neighborhood finds every shared hub set; more
    than LOSSY_SUBSET_CAP of them raise SizeCapError before any is listed."""
    g, k, ell = instance.graph, instance.k, instance.ell
    d = lossy_degree(alpha)
    part = part or partition_hir(instance)
    if (subsets := sum(comb(g.degree(v), d) for v in part.independent)) > LOSSY_SUBSET_CAP:
        raise SizeCapError(f"the lossy rule at d={d} would list {subsets} hub sets, above the "
                           f"cap {LOSSY_SUBSET_CAP}; choose alpha further from 1")
    sharers: dict[tuple[int, ...], list[int]] = {}
    for v in sorted(part.independent):
        for hub_set in combinations(sorted(g.neighbors(v)), d):
            sharers.setdefault(hub_set, []).append(v)
    shared = [hubs for hubs, vs in sharers.items() if len(vs) >= k + ell + 2]
    if not shared:
        return instance, None
    hub_set = min(shared)
    star = tuple(sorted(edge(sharers[hub_set][0], h) for h in hub_set))
    contracted, _ = contract_edges(g, star)
    return Instance(contracted, k - d + 1, ell), CommonNbrContract(star, d)


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
    """The basic decision rules on a connected instance."""
    if instance.k >= 0 and excess(instance.graph) <= instance.ell:
        return "yes"
    return "no" if instance.k <= 0 else None


def _apply_rules(cur: Instance, alpha: float | None) -> tuple[Instance, KernelTrace]:
    """Long paths, then twins, then (given alpha) common neighborhoods, to a
    fixed point; given alpha, the decision rules run before every step."""
    steps: list[Step] = []
    paths_due = True  # whether the long-path rule may apply
    while alpha is None or _preliminary(cur) is None:
        if paths_due:
            cur, step = reduce_long_paths(cur)
            # below k = -1 a run can close into a parallel edge, changing degrees
            paths_due = step is not None and cur.k < -1
            if step is not None:
                steps.append(step)
                continue
        part = partition_hir(cur)
        hubs, victims = _twin_run(cur, part)
        if victims:
            steps += (TwinDelete(v, hubs) for v in victims)
            cur = Instance(cur.graph.without(victims), cur.k, cur.ell)
            continue
        cur, step = (cur, None) if alpha is None else reduce_common_neighborhood(cur, alpha, part)
        if step is None:
            break
        steps.append(step)
        paths_due = True
    return cur, KernelTrace(tuple(steps), None if alpha is None else _preliminary(cur))


def kernelize(instance: Instance, alpha: float) -> tuple[Instance, KernelTrace]:
    """The three rules and the basic decision rules to a fixed point.  Only
    those decide: without a rule for degree-1 vertices `size_bound` does not
    hold for yes instances (a large tree with one triangle needs one
    contraction), so an undecided result above it stays undecided."""
    lossy_degree(alpha)  # refuse a bad alpha before any step
    if not instance.graph.is_connected():
        return instance, KernelTrace((), "no")
    return _apply_rules(instance, alpha)


def kernelize_exact(instance: Instance) -> tuple[Instance, KernelTrace]:
    """Only the two decision-preserving rules, to a fixed point; no size flag."""
    return _apply_rules(instance, None)


# ---------------------------------------------------------------------------
# replay and lifting

def replay(original: Instance, trace: KernelTrace,
           ) -> tuple[list[Instance], list[MergeMap | None]]:
    """Forward application of the trace.  Returns every stage, source first,
    and for each step the merge map of its contraction (None for a twin
    deletion), which `lift_solution` inverts.  A run of twin deletions is one
    rebuild, so each of its steps has the stage after the whole run.

    Raises InputError when a step does not fit the graph it is applied to,
    which is the trace/instance-mismatch guard for lifting: a twin step's
    vertex must be present with exactly its recorded neighborhood, a
    contraction's edges must be present, and a lossy step must contract a
    star of d edges.
    """
    stages = [original]
    merges: list[MergeMap | None] = []
    for twins, run in groupby(trace.steps, lambda step: isinstance(step, TwinDelete)):
        g, k, ell = stages[-1].graph, stages[-1].k, stages[-1].ell
        if twins:
            gone: set[int] = set()
            for step in run:
                if step.vertex not in g.vertices or step.vertex in gone:
                    raise InputError(f"trace mismatch: vertex {step.vertex} absent")
                if g.neighbors(step.vertex) - gone != step.neighborhood:
                    raise InputError(f"trace mismatch: twin {step.vertex} has other neighbors")
                gone.add(step.vertex)
            stages += [Instance(g.without(gone), k, ell)] * len(gone)
            merges += [None] * len(gone)
            continue
        for step in run:
            if not isinstance(step, (LongPathContract, CommonNbrContract)):
                raise InputError(f"unknown step {step!r}")
            if isinstance(step, CommonNbrContract) and (  # d >= 2 edges sharing one vertex
                    step.d < 2 or len(step.contracted) != step.d
                    or len(frozenset.intersection(*map(frozenset, step.contracted))) != 1):
                raise InputError(f"trace mismatch: commonnbr step is not a star of d={step.d} edges")
            g, merge = contract_edges(g, step.contracted)  # raises on absent edges
            k -= step.d - 1 if isinstance(step, CommonNbrContract) else 0
            stages.append(Instance(g, k, ell))
            merges.append(merge)
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
