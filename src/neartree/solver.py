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

All three modes scan a block on one bit-mask index built once per block
(`graph.MaskIndex`): colorings become color-class masks split into
components by one mask flood, classification counts bits, the shatter is
`cvc.shatter_core` on the same masks, and the quotient's excess comes from
bag reach masks; a witness structure is built only for a witness that
improves the block's profile.  The set-based public functions
(`monochromatic_components`, `classify_component`, `refine_coloring`) are
thin adapters over that core.

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
from functools import partial

from .cvc import shatter_core
from .errors import InputError, InternalError, SizeCapError
from .graph import (
    Graph,
    Instance,
    MaskIndex,
    analyze_connectivity,
    biconnected_blocks,
    bits,
    excess,
    flood,
    is_connected_mask,
    is_near_tree,
    mask_index,
    palette_size,
    reach,
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
    """Iterate an explicit list of colorings, e.g. a universal family.

    Each function colors one block at a time by rank: position i colors the
    i-th smallest vertex of the block.  A family universal for t-subsets of
    [domain] realizes every assignment on every subset of at most t
    positions of any prefix, so it serves every block of at most `domain`
    vertices, whatever their ids.
    """

    functions: tuple[tuple[int, ...], ...]
    domain: int  # functions map [domain] -> colors; blocks may have <= domain vertices


def default_iterations(n: int, k: int, ell: int) -> int:
    """min((2*ceil(sqrt(ell)) + 2)^(6k + 8*ell), 10 * q^n) for a block of n
    vertices; both are fall-backs, explicit iteration counts are preferred."""
    q = palette_size(ell)
    return min(q ** (6 * k + 8 * ell), 10 * q ** n)


# ---------------------------------------------------------------------------
# colorings and their components, as masks over the block's index

def _classes(colors) -> list[int]:
    """Color-class masks of a coloring listed in index order."""
    classes: dict[int, int] = {}
    for i, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << i
    return list(classes.values())


def _components(adj: tuple[int, ...], classes: list[int]) -> tuple[int, ...]:
    """Monochromatic components: the components of every color class, by
    lowest vertex."""
    comps = []
    for rest in classes:
        while rest:
            comps.append(flood(adj, rest & -rest, rest))
            rest ^= comps[-1]
    return tuple(sorted(comps, key=lambda m: m & -m))


def _coloring_parts(g: Graph, coloring: dict[int, int]) -> tuple[MaskIndex, tuple[int, ...]]:
    if set(coloring) != set(g.vertices):
        raise InputError("coloring must be total on the vertex set")
    idx = mask_index(g)
    return idx, _components(idx.adj, _classes(coloring[v] for v in idx.verts))


def monochromatic_components(g: Graph, coloring: dict[int, int]) -> list[frozenset[int]]:
    """Maximal connected same-color vertex sets; a partition of V, sorted by min id."""
    idx, parts = _coloring_parts(g, coloring)
    return [idx.members(x) for x in parts]


# ---------------------------------------------------------------------------
# component classification (contract-all / all-singletons / shatter)

CONTRACT_ALL = "contract-all"
ALL_SINGLETONS = "all-singletons"
SHATTER = "shatter"


@dataclass(frozen=True)
class ComponentCase:
    kind: str  # CONTRACT_ALL | ALL_SINGLETONS | SHATTER
    component: frozenset[int]


def _classify(adj: tuple[int, ...], x: int, parts) -> str:
    """Kind of a connected component x of the partition `parts` (masks).

    Contract whole: G[x] is an induced path (no vertex of degree above two,
    exactly two ends) whose interior vertices have no neighbor outside x, and
    some single other part is adjacent to both path ends.  All singletons:
    same path shape but no such part.  Everything else: shatter.  Size-1
    components are trivially singletons.
    """
    if x & (x - 1) == 0:
        return ALL_SINGLETONS
    ends = []
    for i in bits(x):
        inner = (adj[i] & x).bit_count()
        if inner > 2:
            return SHATTER
        if inner == 1:
            ends.append(i)
    if len(ends) != 2 or reach(adj, x & ~(1 << ends[0]) & ~(1 << ends[1])) & ~x:
        return SHATTER
    near_a, near_b = adj[ends[0]] & ~x, adj[ends[1]] & ~x
    return CONTRACT_ALL if any(p & near_a and p & near_b for p in parts) else ALL_SINGLETONS


def classify_component(g: Graph, x: frozenset[int],
                       partition: list[frozenset[int]]) -> ComponentCase:
    """Decide how a monochromatic component contributes witness bags (see
    `_classify`); a set that does not induce a connected subgraph is shattered."""
    idx = mask_index(g)
    xm = idx.mask(x)
    kind = (_classify(idx.adj, xm, [idx.mask(p) for p in partition])
            if is_connected_mask(idx.adj, xm) else SHATTER)
    return ComponentCase(kind, frozenset(x))


# ---------------------------------------------------------------------------
# refining a component partition into a witness structure

def _shatter(adj: tuple[int, ...], x: int, budget: int, memo: dict) -> int | None:
    """shatter_core(adj, x, budget), remembered per component: the minimum
    does not depend on the budget, and a miss stays a miss under a smaller one."""
    if x in memo:
        asked, core = memo[x]
        if core is not None:
            return core if core.bit_count() <= budget else None
        if budget <= asked:
            return None
    core = shatter_core(adj, x, budget)
    memo[x] = (budget, core)
    return core


def _refine(adj: tuple[int, ...], parts: tuple[int, ...], budget: int,
            shatters: dict) -> tuple[list[int], int] | None:
    """Bags (masks) and cost of the minimum-cost witness structure obtainable
    from this component partition, or None once its cost passes `budget`.

    Contract-all components become one bag, all-singleton ones fall apart,
    and the rest split at a minimum shatter whose core may hold at most
    budget + 1 - spent vertices.  Every component is classified in the block
    itself: contracting a contract-all component changes neither the induced
    subgraph, the boundary nor the degree-2 interior of any other component,
    nor which components touch its path ends.  `shatters` remembers minimum
    shatters across the calls of one scan.  Class membership is the caller's
    problem.
    """
    spent = 0
    bags: list[int] = []
    for x in parts:
        kind = _classify(adj, x, parts)
        if kind == CONTRACT_ALL:
            spent += x.bit_count() - 1
            bags.append(x)
        elif kind == SHATTER:
            core = _shatter(adj, x, budget + 1 - spent, shatters)
            if core is None:
                return None
            spent += core.bit_count() - 1
            bags.append(core)
            bags.extend(1 << i for i in bits(x & ~core))
        else:
            bags.extend(1 << i for i in bits(x))
        if spent > budget:
            return None
    return bags, spent


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


def _quotient_excess(adj: tuple[int, ...], bags: list[int]) -> int:
    """Excess of the graph with every bag contracted: adjacent bag pairs
    - (bags - 1)."""
    return sum(n.bit_count() for n in _touching(adj, bags)) // 2 - len(bags) + 1


def refine_coloring(g: Graph, coloring: dict[int, int], k: int, ell: int,
                    ) -> tuple[WitnessStructure, int] | None:
    """Witness structure extracted from one coloring, or None if it costs more
    than k or its quotient is not within excess ell of a tree."""
    idx, parts = _coloring_parts(g, coloring)
    refined = _refine(idx.adj, parts, k, {})
    if refined is None:
        return None
    structure = WitnessStructure.of(map(idx.members, refined[0]))
    return (structure, refined[1]) if is_near_tree(quotient(g, structure), ell) else None


# ---------------------------------------------------------------------------
# exhaustive enumeration of coloring-distinct component partitions

def _connected_blocks_with_min(rest: int, adj: tuple[int, ...]) -> list[int]:
    """All connected subsets of `rest` containing its lowest bit."""
    low = rest & -rest
    others = rest ^ low
    out = []
    sub = others
    while True:
        cand = sub | low
        if is_connected_mask(adj, cand):
            out.append(cand)
        if sub == 0:
            break
        sub = (sub - 1) & others
    return sorted(out)


def _connected_partitions(rest: int, adj: tuple[int, ...], blocks: dict | None = None):
    """Partitions of `rest` into connected blocks (as masks, by lowest
    vertex), lazily; `blocks` keeps each remaining mask's blocks for the scan."""
    if not rest:
        yield ()
        return
    blocks = {} if blocks is None else blocks
    if rest not in blocks:
        blocks[rest] = _connected_blocks_with_min(rest, adj)
    for block in blocks[rest]:
        for tail in _connected_partitions(rest ^ block, adj, blocks):
            yield (block, *tail)


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


# ---------------------------------------------------------------------------
# one block: the witnesses a mode proposes, kept as a cost profile

def _mode_partitions(adj: tuple[int, ...], k: int, ell: int, mode):
    """Component partitions (masks) of the block in the order the mode
    proposes them, each with a callable returning how many colors realize it
    (exhaustive mode), or None when a coloring within the palette produced
    it.  Family functions color the block's vertices by rank, so the
    family's domain bounds the block size, not the vertex ids."""
    n = len(adj)
    if isinstance(mode, ExhaustiveColorings):
        if n > EXHAUSTIVE_VERTEX_CAP:
            raise SizeCapError(
                f"exhaustive mode is capped at {EXHAUSTIVE_VERTEX_CAP} vertices (got {n})")
        for masks in _connected_partitions((1 << n) - 1, adj):
            yield masks, partial(_block_chromatic, masks, adj)
        return
    if isinstance(mode, RandomColorings):
        q = palette_size(ell)
        rng = random.Random(mode.seed)
        iters = mode.iterations if mode.iterations is not None else default_iterations(n, k, ell)
        colorings = ([rng.randint(1, q) for _ in range(n)] for _ in range(iters))
    elif isinstance(mode, FamilyColorings):
        if n > mode.domain:
            raise InputError(
                f"family domain {mode.domain} is smaller than a block of {n} vertices")
        # extra colors past this palette only split components further,
        # which is sound (re-verified)
        colorings = (f[:n] for f in mode.functions)
    else:
        raise InputError(f"unknown mode {mode!r}")
    # the refinement outcome depends on a coloring only through its color
    # classes (its signature: the first position of each color), and then
    # only through its components; the first coloring of each is kept
    tried: set[tuple[int, ...]] = set()
    seen: set[tuple[int, ...]] = set()
    for colors in colorings:
        signature = tuple(map(colors.index, colors))
        if signature in tried:
            continue
        tried.add(signature)
        parts = _components(adj, _classes(colors))
        if parts not in seen:
            seen.add(parts)
            yield parts, None


def _block_profile(b: Graph, k: int, ell: int, mode, prev: list, first_hit: bool,
                   ) -> list[tuple[int, WitnessStructure] | None]:
    """Cheapest witnesses found for block b: entry e is (cost, structure)
    bringing b to excess <= e, or None.

    `prev` is the knapsack over the blocks before b (prev[j]: fewest
    contractions bringing them to total excess <= j), so a partition is only
    refined under the cap min(k - prev[ell], c_B(0) - 1): a dearer witness
    fits no solution or improves no entry.  With `first_hit` the scan stops
    at the first witness that completes a feasible knapsack.  The scan runs
    on b's mask index; a structure is built only for a witness that
    improves an entry.
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

    idx = mask_index(b)
    shatters: dict = {}
    for parts, colors_needed in _mode_partitions(idx.adj, k, ell, mode):
        refined = _refine(idx.adj, parts, min(k - prev[ell], best[0][0] - 1), shatters)
        if refined is None:
            continue
        bags, cost = refined
        x = _quotient_excess(idx.adj, bags)
        if colors_needed is not None and improves(cost, x):
            # the partition counts at allowance e only if q(e) colors realize it
            chi = colors_needed()
            x = max(x, next(e for e in itertools.count() if palette_size(e) >= chi))
        if improves(cost, x) and offer(cost, x, WitnessStructure.of(map(idx.members, bags))):
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

