"""Coloring-driven solver for contracting a graph to a near-tree.

An instance splits exactly into its biconnected blocks: excess adds up over
blocks, every edge lies in exactly one block, and contraction creates
parallel edges only inside a block.  One Hopcroft-Tarjan pass finds the
blocks.  Bridges never need a contraction.  Each other block B gets a cost
profile c_B(e), the cheapest witness found that brings B to excess <= e for
e = 0..ell, capped at the budget the earlier blocks leave; a min-plus
knapsack over the profiles decides the instance, and the union of the
chosen per-block edge sets is the solution.  The last (largest) block stops
at the first witness that completes a feasible knapsack, so a graph with one
block that needs contractions is scanned exactly as a 2-connected instance.

Within a block, vertex colorings with at most 2*ceil(sqrt(ell)) + 2 colors
propose witnesses: the monochromatic components of a coloring are
classified (contract whole, keep as singletons, or split via a minimum
shatter) and refined into a witness structure, abandoned as soon as its
cost passes the budget.  Contracting all but one vertex of a block always
reaches excess 0 at cost n_B - 2; every cheaper witness has a quotient of
at least 3 vertices, the case the coloring argument covers.

Soundness is unconditional: every returned solution is re-verified before it
leaves this module.  Completeness of exhaustive mode rests on the fact that
the refinement outcome depends on a coloring only through its monochromatic
components, so it suffices to enumerate partitions of the vertex set into
connected blocks whose block-adjacency graph is properly colorable with the
palette at hand; those are exactly the component partitions of all q^n
colorings, and there are far fewer of them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from .cvc import Shatter, boundary, min_shatter
from .errors import InputError, InternalError, SizeCapError
from .graph import (
    Graph,
    Instance,
    analyze_connectivity,
    biconnected_blocks,
    excess,
    is_near_tree,
    palette_size,
)
from .witness import (
    ContractionSolution,
    WitnessStructure,
    quotient,
    solution_edges,
    verify_witness,
    witness_from_solution,
)

EXHAUSTIVE_VERTEX_CAP = 10


# ---------------------------------------------------------------------------
# modes

@dataclass(frozen=True)
class RandomColorings:
    seed: int
    iterations: int | None = None  # None: min(class bound, 10 * q^n)


@dataclass(frozen=True)
class ExhaustiveColorings:
    pass


@dataclass(frozen=True)
class FamilyColorings:
    """Iterate an explicit list of colorings, e.g. a universal family."""

    functions: tuple[tuple[int, ...], ...]
    domain: int  # functions map [domain] -> colors; vertex ids must be <= domain

    @cached_property
    def distinct(self) -> tuple[tuple[int, ...], ...]:
        """One representative per induced partition of the domain.

        The refinement outcome of a coloring depends only on its color
        classes, and a partition of the domain fixes the partition of every
        subset, so functions sharing a partition are interchangeable
        everywhere in the recursion.  First occurrence wins.
        """
        seen: set[tuple[int, ...]] = set()
        out = []
        for f in self.functions:
            key = tuple(map(f.index, f))  # first position of each color
            if key not in seen:
                seen.add(key)
                out.append(f)
        return tuple(out)


def default_iterations(g: Graph, k: int, ell: int) -> int:
    """min((2*ceil(sqrt(ell)) + 2)^(6k + 8*ell), 10 * q^n); both are fall-backs,
    explicit iteration counts are preferred."""
    q = palette_size(ell)
    return min(q ** (6 * k + 8 * ell), 10 * q ** g.n)


# ---------------------------------------------------------------------------
# colorings and their components

@dataclass(frozen=True)
class Coloring:
    """Total color assignment with a declared palette size."""

    assignment: tuple[tuple[int, int], ...]  # sorted (vertex, color) pairs
    q: int

    @staticmethod
    def of(mapping: dict[int, int], q: int) -> "Coloring":
        if any(c < 1 or c > q for c in mapping.values()):
            raise InputError("color outside the declared palette")
        return Coloring(tuple(sorted(mapping.items())), q)

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)


def monochromatic_components(g: Graph, coloring: Coloring) -> list[frozenset[int]]:
    """Maximal connected same-color vertex sets; a partition of V, sorted by min id."""
    colors = coloring.as_dict()
    if set(colors) != set(g.vertices):
        raise InputError("coloring must be total on the vertex set")
    comps: list[frozenset[int]] = []
    seen: set[int] = set()
    for start in sorted(g.vertices):
        if start in seen:
            continue
        c = colors[start]
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y not in comp and colors[y] == c:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


# ---------------------------------------------------------------------------
# component classification (contract-all / all-singletons / shatter)

CONTRACT_ALL = "contract-all"
ALL_SINGLETONS = "all-singletons"
SHATTER = "shatter"


@dataclass(frozen=True)
class ComponentCase:
    kind: str  # CONTRACT_ALL | ALL_SINGLETONS | SHATTER
    component: frozenset[int]
    boundary: frozenset[int] | None = None  # only for SHATTER


def _induced_path_ends(g: Graph, x: frozenset[int]) -> tuple[int, int] | None:
    """If G[x] is a path, return its two end vertices."""
    sub = g.subgraph(x)
    if sub.m != len(x) - 1 or not sub.is_connected():
        return None
    ends = [v for v in x if sub.degree(v) == 1]
    if len(ends) != 2:
        return None
    return min(ends), max(ends)


def classify_component(g: Graph, x: frozenset[int],
                       partition: list[frozenset[int]]) -> ComponentCase:
    """Decide how a monochromatic component contributes witness bags.

    Contract whole: G[x] is an induced path whose interior vertices all have
    degree 2 in g and some single other block of the partition is adjacent
    to both path ends.  All singletons: same path shape but no such block.
    Everything else: shatter.  Size-1 components are trivially singletons.
    """
    if len(x) == 1:
        return ComponentCase(ALL_SINGLETONS, x)
    ends = _induced_path_ends(g, x)
    if ends is not None:
        a, b = ends
        interior = x - {a, b}
        if all(g.degree(v) == 2 for v in interior):
            for other in partition:
                if other == x:
                    continue
                if (g.neighbors(a) & other) and (g.neighbors(b) & other):
                    return ComponentCase(CONTRACT_ALL, x)
            return ComponentCase(ALL_SINGLETONS, x)
    return ComponentCase(SHATTER, x, boundary(g, x))


# ---------------------------------------------------------------------------
# refining a component partition into a witness structure

def _shatter(g: Graph, x: frozenset[int], budget: int, memo: dict) -> Shatter | None:
    """min_shatter(g, x, budget), remembered per component: the minimum does
    not depend on the budget, and a miss stays a miss under a smaller one."""
    if x in memo:
        asked, sh = memo[x]
        if sh is not None:
            return sh if sh.size() <= budget else None
        if budget <= asked:
            return None
    sh = min_shatter(g, x, budget)
    memo[x] = (budget, sh)
    return sh


def _refine_components(g: Graph, comps: tuple[frozenset[int], ...], budget: int,
                       shatters: dict) -> tuple[WitnessStructure, int] | None:
    """Minimum-cost witness structure obtainable from this component partition,
    or None once its cost passes `budget`.

    Contract-all components become one bag, all-singleton ones fall apart,
    and the rest split at a minimum shatter whose core may hold at most
    budget + 1 - spent vertices.  Every component is classified in g itself:
    contracting a contract-all component changes neither the induced
    subgraph, the boundary nor the degree-2 interior of any other component,
    nor which components touch its path ends.  `shatters` remembers minimum
    shatters across the calls of one scan.  Class membership is the caller's
    problem.
    """
    parts = sorted(comps, key=min)
    spent = 0
    bags: list[frozenset[int]] = []
    for x in parts:
        case = classify_component(g, x, parts)
        if case.kind == CONTRACT_ALL:
            spent += len(x) - 1
            bags.append(x)
        elif case.kind == SHATTER:
            sh = _shatter(g, x, budget + 1 - spent, shatters)
            if sh is None:
                return None
            spent += sh.size() - 1
            bags.append(sh.core)
            bags.extend(frozenset({v}) for v in sorted(sh.singletons))
        else:
            bags.extend(frozenset({v}) for v in sorted(x))
        if spent > budget:
            return None
    return WitnessStructure.of(bags), spent


def refine_coloring(g: Graph, coloring: Coloring, k: int, ell: int,
                    ) -> tuple[WitnessStructure, int] | None:
    """Witness structure extracted from one coloring, or None if it costs more
    than k or its quotient is not within excess ell of a tree."""
    refined = _refine_components(g, tuple(monochromatic_components(g, coloring)), k, {})
    if refined is None or not is_near_tree(quotient(g, refined[0]), ell):
        return None
    return refined


# ---------------------------------------------------------------------------
# exhaustive enumeration of coloring-distinct component partitions

def _mask_refs(g: Graph) -> tuple[list[int], list[int]]:
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in g.edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return verts, adj


def _connected_mask(mask: int, adj: list[int]) -> bool:
    span = mask & -mask
    while True:
        grow = span
        m = span
        while m:
            b = m & -m
            grow |= adj[b.bit_length() - 1] & mask
            m ^= b
        if grow == span:
            break
        span = grow
    return span == mask


def _connected_blocks_with_min(rest: int, adj: list[int]) -> list[int]:
    """All connected subsets of `rest` containing its lowest bit."""
    low = rest & -rest
    others = rest ^ low
    out = []
    sub = others
    while True:
        cand = sub | low
        if _connected_mask(cand, adj):
            out.append(cand)
        if sub == 0:
            break
        sub = (sub - 1) & others
    return sorted(out)


def _mask_to_set(mask: int, verts: list[int]) -> frozenset[int]:
    out = set()
    while mask:
        b = mask & -mask
        out.add(verts[b.bit_length() - 1])
        mask ^= b
    return frozenset(out)


def _connected_partitions(rest: int, adj: list[int]):
    """Partitions of `rest` into connected blocks (as masks), lazily."""
    if not rest:
        yield ()
        return
    for block in _connected_blocks_with_min(rest, adj):
        for tail in _connected_partitions(rest ^ block, adj):
            yield (block, *tail)


def _mask_partitions(g: Graph):
    """Every partition of V(g) into connected blocks (sorted by min id), with
    a callable returning the chromatic number of its block-adjacency graph."""
    verts, adj = _mask_refs(g)
    for masks in _connected_partitions((1 << len(verts)) - 1, adj):
        blocks = tuple(sorted((_mask_to_set(m, verts) for m in masks), key=min))
        yield blocks, partial(_block_chromatic, masks, adj)


@lru_cache(maxsize=64)
def _partition_lookup(g: Graph) -> dict[frozenset[frozenset[int]], tuple[int, int]]:
    """Partition -> (cost, quotient excess) of its refinement, for every
    partition of V(g) into connected blocks.

    Lets family mode skip re-refinement across budgets: a coloring's
    component partition is always a partition into connected blocks, so it
    has an entry.
    """
    out, shatters = {}, {}
    for blocks, _ in _mask_partitions(g):
        structure, cost = _refine_components(g, blocks, g.n, shatters)
        out[frozenset(blocks)] = (cost, excess(quotient(g, structure)))
    return out


def _block_chromatic(masks: tuple[int, ...], adj: list[int]) -> int:
    """Chromatic number of the block-adjacency graph (exact; tiny inputs)."""
    t = len(masks)
    nbr = [0] * t
    for i in range(t):
        mi = masks[i]
        reach = 0
        m = mi
        while m:
            b = m & -m
            reach |= adj[b.bit_length() - 1]
            m ^= b
        for j in range(i + 1, t):
            if reach & masks[j]:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i

    order = sorted(range(t), key=lambda i: -bin(nbr[i]).count("1"))
    colors = [0] * t

    def colorable(limit: int, pos: int) -> bool:
        if pos == t:
            return True
        i = order[pos]
        used = set()
        m = nbr[i]
        while m:
            b = m & -m
            used.add(colors[b.bit_length() - 1])
            m ^= b
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


# ---------------------------------------------------------------------------
# one block: the witnesses a mode proposes, kept as a cost profile

def _mode_partitions(b: Graph, k: int, ell: int, mode):
    """Component partitions of block b in the order the mode proposes them,
    each with a callable returning how many colors realize it (exhaustive
    mode), or None when a coloring within the palette produced it."""
    if isinstance(mode, ExhaustiveColorings):
        if b.n > EXHAUSTIVE_VERTEX_CAP:
            raise SizeCapError(
                f"exhaustive mode is capped at {EXHAUSTIVE_VERTEX_CAP} vertices (got {b.n})")
        yield from _mask_partitions(b)
        return
    q = palette_size(ell)
    verts = sorted(b.vertices)
    if isinstance(mode, RandomColorings):
        rng = random.Random(mode.seed)
        iters = mode.iterations if mode.iterations is not None else default_iterations(b, k, ell)
        colorings = ({v: rng.randint(1, q) for v in verts} for _ in range(iters))
    elif isinstance(mode, FamilyColorings):
        if verts[-1] > mode.domain:
            raise InputError("family domain too small for the vertex ids")
        # a family built for a larger excess allowance may color past this
        # palette; extra colors only split components further, which is
        # sound (re-verified) and keeps the realized-assignment argument
        q = max(q, max((max(f) for f in mode.distinct), default=q))
        colorings = _distinct_restrictions(mode.distinct, verts)
    else:
        raise InputError(f"unknown mode {mode!r}")
    seen: set[tuple[frozenset[int], ...]] = set()
    for colors in colorings:
        comps = tuple(monochromatic_components(b, Coloring.of(colors, q)))
        if comps not in seen:
            seen.add(comps)
            yield comps, None


def _distinct_restrictions(functions, verts: list[int]):
    """The functions restricted to verts, one per induced partition."""
    tried: set[tuple[int, ...]] = set()
    for f in functions:
        seq = [f[v - 1] for v in verts]
        signature = tuple(map(seq.index, seq))
        if signature not in tried:
            tried.add(signature)
            yield dict(zip(verts, seq))


def _block_profile(b: Graph, k: int, ell: int, mode, prev: list, first_hit: bool,
                   ) -> list[tuple[int, WitnessStructure] | None]:
    """Cheapest witnesses found for block b: entry e is (cost, structure)
    bringing b to excess <= e, or None.

    `prev` is the knapsack over the blocks before b (prev[j]: fewest
    contractions bringing them to total excess <= j), so a partition is only
    refined under the cap min(k - prev[ell], c_B(0) - 1): a dearer witness
    fits no solution or improves no entry.  With `first_hit` the scan stops
    at the first witness that completes a feasible knapsack.
    """
    best: list[tuple[int, WitnessStructure] | None] = [None] * (ell + 1)

    def improves(cost: int, x: int) -> bool:
        return x <= ell and (best[x] is None or cost < best[x][0])

    def offer(cost: int, x: int, structure: WitnessStructure) -> bool:
        """Record a witness reaching excess x; True once the scan can stop."""
        for e in range(x, ell + 1):
            if best[e] is None or cost < best[e][0]:
                best[e] = (cost, structure)
        if first_hit and x <= ell and prev[ell - x] + cost <= k:
            return True
        return best[0] is not None and best[0][0] <= 1  # only cost 0 would improve

    v = min(b.vertices)
    if (offer(0, excess(b), WitnessStructure.of([{u} for u in b.vertices]))
            or offer(b.n - 2, 0, WitnessStructure.of([{v}, b.vertices - {v}]))
            or prev[ell] >= k):
        return best

    lookup = (_partition_lookup(b)
              if isinstance(mode, FamilyColorings) and b.n <= EXHAUSTIVE_VERTEX_CAP else None)
    shatters: dict = {}
    for comps, colors_needed in _mode_partitions(b, k, ell, mode):
        budget = min(k - prev[ell], best[0][0] - 1)
        if lookup is not None:
            cost, x = lookup[frozenset(comps)]
            if cost > budget or not improves(cost, x):
                continue
        refined = _refine_components(b, comps, budget, shatters)
        if refined is None:
            continue
        structure, cost = refined
        x = excess(quotient(b, structure))
        if colors_needed is not None and improves(cost, x):
            # the partition counts at allowance e only if q(e) colors realize it
            chi = colors_needed()
            x = max(x, next(e for e in itertools.count() if palette_size(e) >= chi))
        if improves(cost, x) and offer(cost, x, structure):
            break
    return best


# ---------------------------------------------------------------------------
# general graphs: a min-plus knapsack over the blocks

def solve(instance: Instance,
          mode: RandomColorings | ExhaustiveColorings | FamilyColorings,
          ) -> ContractionSolution | None:
    """Full solver.  Returned solutions always verify against the instance."""
    g, k, ell = instance.graph, instance.k, instance.ell
    if k < 0:
        return None
    if is_near_tree(g, ell):
        return ContractionSolution.of(frozenset(), k)
    if not g.is_connected() or k == 0:
        return None

    # bridges have excess 0 and never need a contraction; the largest block goes last
    blocks = sorted((b for b in biconnected_blocks(g) if b.m > 1),
                    key=lambda b: (b.n, b.m, min(b.vertices)))
    cost: list[float] = [0] * (ell + 1)  # cost[j]: fewest contractions, total excess <= j
    picks: list[tuple] = [()] * (ell + 1)  # the (block, witness) pairs behind cost[j]
    for i, b in enumerate(blocks):
        profile = _block_profile(b, k, ell, mode, cost, first_hit=i == len(blocks) - 1)
        new_cost, new_picks = [float("inf")] * (ell + 1), [()] * (ell + 1)
        for j in range(ell + 1):
            for e, entry in enumerate(profile[:j + 1]):
                if entry is not None and cost[j - e] + entry[0] < new_cost[j]:
                    new_cost[j] = cost[j - e] + entry[0]
                    new_picks[j] = picks[j - e] + ((b, entry[1]),)
        cost, picks = new_cost, new_picks
        if cost[ell] > k:
            return None

    edges = frozenset().union(*(solution_edges(b, w) for b, w in picks[ell]))
    check = verify_witness(g, witness_from_solution(g, edges), ell, k)
    if not check.valid:
        raise InternalError(f"solver output failed verification ({check.reason})")
    return ContractionSolution.of(edges, k)


def solve_2connected(g: Graph, k: int, ell: int,
                     mode: RandomColorings | ExhaustiveColorings | FamilyColorings,
                     ) -> ContractionSolution | None:
    """`solve` on a 2-connected graph, or on one already in the class: a single
    block, scanned until its first witness within budget."""
    if k >= 0 and not is_near_tree(g, ell) and not analyze_connectivity(g).is_two_connected:
        raise InputError("coloring solver requires a 2-connected graph")
    return solve(Instance(g, k, ell), mode)

