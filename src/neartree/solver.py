"""Coloring-driven solver for contracting a graph to a near-tree.

An instance splits exactly into its biconnected blocks: excess adds up over
blocks, every edge lies in exactly one block, and contraction creates
parallel edges only inside a block.  One pass finds the blocks and the
number of components: it peels the pendant forest, then runs a
Hopcroft-Tarjan search on the 2-core that is left, so the tree part of a
graph is walked once.  Bridges never need a contraction.  Each other
block B gets a cost profile c_B(e), the cheapest witness found that brings
B to excess <= e for e = 0..ell, capped at the budget the earlier blocks
leave; a min-plus knapsack over the profiles decides the instance, and the
union of the chosen per-block edge sets is the solution.  The last
(largest) block stops at the first witness that completes a feasible
knapsack, so a graph with one block that needs contractions is scanned
exactly as a 2-connected instance.

Within a block, exhaustive mode offers each connected partition the lemma
below leaves as its own witness; other modes draw vertex colorings with at
most 2*ceil(sqrt(ell)) + 2 colors, whose monochromatic components are
classified (contract whole, keep as singletons, or split via a minimum
shatter) and refined into a witness, abandoned once its cost passes the
budget.  Contracting all but one vertex of a block always reaches excess 0
at cost n_B - 2; every cheaper witness has a quotient of at least 3
vertices, the case the coloring argument covers.

Only vertices on short cycles are scanned, in every mode and at any size.
Lemma: in a witness of least cost among those of cost <= c and quotient
excess <= e, every vertex x of a bag X of two or more lies on a cycle of at
most c + 2 edges.  Splitting X into {x} and the components of G[X] - x
lowers the cost, keeps every bag connected, and raises the excess only where
another bag Y touches two new parts, closing a cycle through x of at most
(|X| - 1) + (|Y| - 1) + 2 <= c + 2 edges.  So `_block_profile` scans only
the live vertices, those on a cycle of at most budget + 2 edges, found once
at the budget its scan starts with (a smaller one gives a subset); every
other vertex is a singleton part, and a block with none is not scanned.

Every mode scans a block on one bit-mask index (`graph.MaskIndex`), its
live vertices first, each group in shape order (see `solve`), so the scan
follows the graph's shape, not its ids.  A coloring enters as its color classes
(`_classes`), split into components by one mask flood; the shatter is
`cvc.shatter_core` on the same masks, and the quotient's excess comes from
bag reach masks (the complete mode counts bag pairs as it scans).  A part's
shape (a path, or shattered) is worked out once per scan; only whether a
path contracts depends on the other parts.  The set-based public functions
(`monochromatic_components`, `classify_component`, `cvc.min_shatter`)
return what that core computes, as vertex sets and kind strings.

Soundness is unconditional: every returned solution, the early one included,
comes from `witness.certify`, which verifies its witness or raises.
Completeness of exhaustive mode: by the lemma every bag of two or more
vertices of a cheapest witness lies among the live vertices, and each bag is
connected, so the witness is a connected partition of the live vertices plus
frozen singletons.  The scan offers every such partition of every block, at
cost t - #parts for t live vertices, in one loop over a stack of open
prefixes.  It drops a prefix once its cost passes the budget, which only
falls during a scan, or its bags, frozen singletons included, span cycle
rank above ell: the quotient of a prefix is an induced subgraph of the whole
quotient, so nothing dropped could fill a profile entry.  A scan that weighs
more than SCAN_WORK_CAP parts and partitions is refused.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, partial
from math import comb

from .cvc import shatter_core
from .errors import InputError, SizeCapError
from .graph import (
    Graph,
    Instance,
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
from .witness import ContractionSolution, WitnessStructure, certify, solution_edges

SCAN_WORK_CAP = 1 << 20  # candidate parts plus partitions one block's exhaustive scan weighs
RANDOM_DEFAULT_CAP = 1 << 16  # default colorings per block; an explicit count is never capped


# ---------------------------------------------------------------------------
# modes

@dataclass(frozen=True)
class RandomColorings:
    seed: int
    iterations: int | None = None  # None: `default_iterations`

    def __post_init__(self):
        if self.iterations is not None and self.iterations < 1:
            raise InputError(f"random mode needs at least 1 coloring per block (got {self.iterations})")


@dataclass(frozen=True)
class ExhaustiveColorings:
    """The complete mode: every block's connected partitions, each offered as
    itself (see `_witnesses`)."""


@dataclass(frozen=True)
class FamilyColorings:
    """Iterate an explicit list of colorings, e.g. a universal family.

    Each function colors one block at a time by rank: position i colors the
    i-th live vertex of the block in shape order (see `_block_profile`), each
    other vertex a part of its own.  A family universal for t-subsets of [domain] realizes every assignment on every
    subset of at most t positions of any prefix, so it serves every block of
    at most `domain` live vertices, in whatever order they are listed.
    """

    functions: tuple[tuple[int, ...], ...]
    domain: int  # functions map [domain] -> colors, position i to the i-th live vertex
    by_size: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def distinct(self, n: int) -> list[tuple[int, ...]]:
        """The distinct color-class forms of the functions on [n], in order."""
        if n not in self.by_size:
            self.by_size[n] = list(_distinct(_classes(f[:n]) for f in self.functions))
        return self.by_size[n]


Mode = RandomColorings | ExhaustiveColorings | FamilyColorings


def default_iterations(n: int, k: int, ell: int) -> int:
    """min((2*ceil(sqrt(ell)) + 2)^(6k + 8*ell), 10 * q^n) for a block of n
    live vertices; both are fall-backs, explicit counts are preferred.  A
    default above RANDOM_DEFAULT_CAP raises SizeCapError instead of starting
    a loop that would not end at desk scale.  Since q >= 2, q^(n + 4) > 10 * q^n
    bounds the exponent, so a huge k costs nothing."""
    q = palette_size(ell)
    iters = min(q ** min(6 * k + 8 * ell, n + 4), 10 * q ** n)
    if iters > RANDOM_DEFAULT_CAP:
        raise SizeCapError(f"random mode's default of {iters} colorings for {n} vertices on "
                           f"short cycles passes the cap {RANDOM_DEFAULT_CAP}; give --iters")
    return iters


# ---------------------------------------------------------------------------
# colorings and their components, as masks over the block's index

def _classes(colors) -> tuple[int, ...]:
    """The class masks of a coloring listed in index order, by lowest vertex:
    the one form of a coloring the scan refines (a family's forms are
    deduplicated per block size, random draws only by their components)."""
    classes: dict[int, int] = {}
    for i, c in enumerate(colors):
        classes[c] = classes.get(c, 0) | 1 << i
    return tuple(classes.values())


def _distinct(items):
    """The first of each distinct item, lazily."""
    seen = set()
    for x in items:
        if x not in seen:
            seen.add(x)
            yield x


def _components(adj: tuple[int, ...], classes: tuple[int, ...]) -> tuple[int, ...]:
    """Monochromatic components: the components of every color class, by
    lowest vertex."""
    comps = []
    for rest in classes:
        while rest:
            comps.append(flood(adj, rest & -rest, rest))
            rest ^= comps[-1]
    return tuple(sorted(comps, key=lambda m: m & -m))


def monochromatic_components(g: Graph, coloring: dict[int, int]) -> list[frozenset[int]]:
    """Maximal connected same-color vertex sets; a partition of V, sorted by min id."""
    if set(coloring) != set(g.vertices):
        raise InputError("coloring must be total on the vertex set")
    idx = mask_index(g)
    return [idx.members(x) for x in _components(idx.adj, _classes(coloring[v] for v in idx.verts))]


# ---------------------------------------------------------------------------
# component classification (contract-all / all-singletons / shatter)

CONTRACT_ALL = "contract-all"
ALL_SINGLETONS = "all-singletons"
SHATTER = "shatter"


def _shape(adj: tuple[int, ...], x: int) -> tuple[int, int] | None:
    """What classifying a connected part x needs of x alone: None when x
    shatters, else the outside neighbors of its path ends.  x is a path
    when G[x] is an induced path (no vertex of degree above two, exactly two
    ends) whose interior has no neighbor outside x; a single vertex is a
    path without ends, (0, 0)."""
    if x & (x - 1) == 0:
        return 0, 0
    ends = []
    for i in bits(x):
        inner = (adj[i] & x).bit_count()
        if inner > 2:
            return None
        if inner == 1:
            ends.append(i)
    if len(ends) != 2 or reach(adj, x & ~(1 << ends[0]) & ~(1 << ends[1])) & ~x:
        return None
    return adj[ends[0]] & ~x, adj[ends[1]] & ~x


def _contracts(shape: tuple[int, int], parts) -> bool:
    """What it needs of the partition: a path contracts whole when some
    single other part is adjacent to both its ends, else it falls apart."""
    near_a, near_b = shape
    return bool(near_a and near_b) and any(p & near_a and p & near_b for p in parts)


def classify_component(g: Graph, x: frozenset[int], partition: list[frozenset[int]]) -> str:
    """How a monochromatic component contributes witness bags, as its kind:
    CONTRACT_ALL, ALL_SINGLETONS or SHATTER (see `_shape` and `_contracts`);
    a set that does not induce a connected subgraph is shattered."""
    idx = mask_index(g)
    xm = idx.mask(x)
    shape = _shape(idx.adj, xm) if is_connected_mask(idx.adj, xm) else None
    return (SHATTER if shape is None else CONTRACT_ALL
            if _contracts(shape, [idx.mask(p) for p in partition]) else ALL_SINGLETONS)


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
            shape, shatters: dict) -> tuple[list[int], int] | None:
    """Bags (masks) and cost of the minimum-cost witness structure obtainable
    from this component partition, or None once its cost passes `budget`.

    Contract-all components become one bag, all-singleton ones fall apart,
    and the rest split at a minimum shatter whose core may hold at most
    budget + 1 - spent vertices.  Every component is classified in the block
    itself: contracting a contract-all component changes neither the induced
    subgraph, the boundary nor the degree-2 interior of any other component,
    nor which components touch its path ends.  `shape` (`_shape` of a part)
    and `shatters` may remember each part across the calls of one scan.
    Class membership is the caller's problem.
    """
    spent = 0
    bags: list[int] = []
    for x in parts:
        path = shape(x)
        if path is None:
            core = _shatter(adj, x, budget + 1 - spent, shatters)
            if core is None:
                return None
            spent += core.bit_count() - 1
            bags.append(core)
            bags.extend(1 << i for i in bits(x & ~core))
        elif _contracts(path, parts):
            spent += x.bit_count() - 1
            bags.append(x)
        else:
            bags.extend(1 << i for i in bits(x))
        if spent > budget:
            return None
    return bags, spent


def _quotient_excess(adj: tuple[int, ...], bags: list[int]) -> int:
    """Excess of the graph with every bag contracted: adjacent bag pairs
    - (bags - 1)."""
    pairs = 0
    for i, m in enumerate(bags):
        out = reach(adj, m) & ~m
        for j in range(i + 1, len(bags)):
            if out & bags[j]:
                pairs += 1
    return pairs - len(bags) + 1


# ---------------------------------------------------------------------------
# exhaustive enumeration of connected partitions

def _connected_parts(adj: tuple[int, ...], rest: int, size: int) -> list[tuple[int, int]]:
    """(part, its neighbours outside it) for each connected subset of `rest`
    holding its lowest vertex and at most `size` vertices, by part mask, each
    grown once: the branches after the one that takes a neighbour bar it."""
    out = []

    def grow(part: int, near: int, barred: int, room: int) -> None:
        out.append((part, near))
        free = near & rest & ~barred if room else 0
        while free:
            v = free & -free
            grow(part | v, (near | adj[v.bit_length() - 1]) & ~(part | v), barred, room - 1)
            barred |= v
            free ^= v

    low = rest & -rest
    grow(low, adj[low.bit_length() - 1], 0, size - 1)
    return sorted(out)


def _connected_partitions(full: int, adj: tuple[int, ...], budget, ell: int):
    """Partitions of a non-empty `full` into connected parts (masks, by lowest
    vertex), lazily and in mask order, each with its adjacent pairs of bags;
    every other vertex of the index is a frozen singleton, a bag ahead of the
    parts.  A part holds at most budget() - spent + 1 vertices, spent the cost
    of the parts before it, and a prefix goes once its bags have more than
    ell + |bags| - 1 adjacent pairs: both cuts are exact (module docstring).
    One stack holds the open prefixes.  Parts are listed once per (remaining
    mask, size bound).  Past SCAN_WORK_CAP parts, counted before each
    listing, and partitions yielded, SizeCapError."""
    work = 0
    listed: dict[tuple[int, int], list[tuple[int, int]]] = {}
    frozen = (1 << len(adj)) - 1 & ~full
    stack = []

    def weigh(amount: int) -> None:
        nonlocal work
        work += amount
        if work > SCAN_WORK_CAP:
            raise SizeCapError(f"a block of {full.bit_count()} vertices on short cycles passes the "
                               f"exhaustive scan's work cap of {SCAN_WORK_CAP} parts and partitions")

    def enter(rest: int, prefix: tuple[int, ...], pairs: int, spent: int) -> None:
        size = min(budget() - spent + 1, rest.bit_count())
        if (parts := listed.get((rest, size))) is None:
            weigh(sum(comb(rest.bit_count() - 1, j) for j in range(size)))
            parts = listed[rest, size] = _connected_parts(adj, rest, size)
        stack.append((rest, prefix, pairs, spent, iter(parts)))

    enter(full, (), sum((adj[i] & frozen).bit_count() for i in bits(frozen)) // 2, 0)
    while stack:
        rest, prefix, pairs, spent, parts = stack[-1]
        room = ell + len(prefix) + frozen.bit_count() - pairs  # adjacent pairs the next part may add
        for part, near in parts:
            touching = (near & frozen).bit_count()
            for p in prefix:
                if p & near:
                    touching += 1
            cost = spent + part.bit_count() - 1
            if cost <= budget() and touching <= room:
                if part != rest:
                    enter(rest ^ part, prefix + (part,), pairs + touching, cost)
                    break
                weigh(1)
                yield prefix + (part,), pairs + touching
        else:
            stack.pop()


# ---------------------------------------------------------------------------
# one block: the witnesses a mode proposes, kept as a cost profile

def _witnesses(adj: tuple[int, ...], t: int, frozen: tuple[int, ...], k: int, ell: int,
               mode, budget):
    """Witnesses (bags as masks, cost, quotient excess) the mode proposes for
    a block whose t live vertices come first in its index, each followed by
    the `frozen` singletons of the others, none free and none dearer than
    budget().  Exhaustive mode offers each connected partition of the live
    vertices as itself (see the module docstring), its quotient excess from
    the scan's count of adjacent bags, frozen ones included.  A coloring's
    components are refined into a witness, its excess from bag reach masks.
    Family functions color the live vertices by rank, so the domain bounds t."""
    if isinstance(mode, ExhaustiveColorings):
        for parts, pairs in _connected_partitions((1 << t) - 1, adj, budget, ell):
            if len(parts) < t:
                yield parts + frozen, t - len(parts), pairs - len(parts) - len(frozen) + 1
        return
    if isinstance(mode, RandomColorings):
        q = palette_size(ell)
        rng = random.Random(mode.seed)
        iters = mode.iterations if mode.iterations is not None else default_iterations(t, k, ell)
        classes = (_classes([rng.randint(1, q) for _ in range(t)]) for _ in range(iters))
    elif isinstance(mode, FamilyColorings):
        # extra colors past this palette only split components further,
        # which is sound (re-verified)
        classes = mode.distinct(t)
    else:
        raise InputError(f"unknown mode {mode!r}")
    # per scan and keyed by part mask: each part's shape and minimum shatter
    shape, shatters = cache(partial(_shape, adj)), {}
    for parts in _distinct(_components(adj, c) for c in classes):
        refined = _refine(adj, parts + frozen, budget(), shape, shatters)
        if refined is not None and refined[1]:
            yield *refined, _quotient_excess(adj, refined[0])


def _live(adj: tuple[int, ...], length: int) -> int:
    """The vertices on some cycle of at most `length` edges: x and y are, for
    an edge xy, when a breadth-first search from y without the edge reaches a
    neighbor of x within length - 2 steps.  Edges with both ends live are skipped."""
    live = 0
    for x in range(len(adj)):
        for y in bits(adj[x] >> x + 1 << x + 1):
            if live >> x & live >> y & 1:
                continue
            seen, frontier = 1 << y, adj[y] & ~(1 << x)
            for _ in range(length - 2):
                if frontier & adj[x]:
                    live |= 1 << x | 1 << y
                    break
                seen |= frontier
                frontier = reach(adj, frontier) & ~seen
    return live


def _block_profile(b: Graph, rank, k: int, ell: int, mode, prev: list, first_hit: bool,
                   ) -> list[tuple[int, WitnessStructure] | None]:
    """Cheapest witnesses found for block b: entry e is (cost, structure)
    bringing b to excess <= e, or None.

    `prev` is the knapsack over the blocks before b (prev[j]: fewest
    contractions bringing them to total excess <= j), so a witness is only
    proposed under the cap min(k - prev[ell], c_B(0) - 1): a dearer witness
    fits no solution or improves no entry.  With `first_hit` the scan stops
    at the first witness that completes a feasible knapsack.  Only vertices
    on a cycle of at most cap + 2 edges are partitioned (see the module
    docstring), first on b's mask index, each group in shape order (`rank`);
    a structure is built only for a witness that improves an entry.
    """
    best: list[tuple[int, WitnessStructure] | None] = [None] * (ell + 1)

    def offer(cost: int, x: int, structure: WitnessStructure) -> bool:
        """Record a witness reaching excess x; True once the scan can stop."""
        for e in range(x, ell + 1):
            if best[e] is None or cost < best[e][0]:
                best[e] = (cost, structure)
        if first_hit and x <= ell and prev[ell - x] + cost <= k:
            return True
        return best[0] is not None and best[0][0] <= 1  # only cost 0 would improve

    v = min(b.vertices, key=rank)
    if (offer(0, excess(b), WitnessStructure.of([{u} for u in b.vertices]))
            or offer(b.n - 2, 0, WitnessStructure.of([{v}, b.vertices - {v}]))
            or prev[ell] >= k):
        return best

    def budget() -> int:
        return min(k - prev[ell], best[0][0] - 1)

    idx = mask_index(b, rank)
    if not (live := _live(idx.adj, budget() + 2)):
        return best  # no witness within the budget lowers b's excess
    members, t = idx.members(live), live.bit_count()
    if isinstance(mode, FamilyColorings) and t > mode.domain:
        raise InputError(f"family domain {mode.domain} is smaller than a block of {t} vertices "
                         "on short cycles")
    idx = mask_index(b, lambda u: (u not in members, rank(u)))  # the live vertices first
    frozen = tuple(1 << i for i in range(t, b.n))
    for bags, cost, x in _witnesses(idx.adj, t, frozen, k, ell, mode, budget):
        if (x <= ell and (best[x] is None or cost < best[x][0])
                and offer(cost, x, WitnessStructure.of(map(idx.members, bags)))):
            break
    return best


# ---------------------------------------------------------------------------
# general graphs: a min-plus knapsack over the blocks

def solve(instance: Instance, mode: Mode) -> ContractionSolution | None:
    """Full solver.  Every solution it returns is certified: its witness was
    verified against the instance by `witness.certify`, which raises
    InternalError instead of returning an unchecked yes."""
    g, k, ell = instance.graph, instance.k, instance.ell
    if k < 0:
        return None
    # the blocks leave out bridges, which never need a contraction
    blocks, components = biconnected_blocks(g)
    if components != 1:
        return None
    if excess(g) <= ell:
        return certify(g, (), k, ell)
    if k == 0:
        return None

    # shape order: by degree, then the sorted degrees of the neighbours, ties by id
    order = sorted({v for b in blocks for v in b.vertices},
                   key=lambda v: (g.degree(v), sorted(map(g.degree, g.neighbors(v))), v))
    rank = {v: i for i, v in enumerate(order)}.__getitem__
    # the largest goes last; two blocks share at most one vertex, so no two tie
    blocks = sorted(blocks, key=lambda b: (b.n, b.m, sorted(map(rank, b.vertices))))
    cost: list[float] = [0] * (ell + 1)  # cost[j]: fewest contractions, total excess <= j
    picks: list = [None] * (ell + 1)  # behind cost[j]: linked (block, witness, rest) or None
    for i, b in enumerate(blocks):
        profile = _block_profile(b, rank, k, ell, mode, cost, first_hit=i == len(blocks) - 1)
        # cost[] never increases, so an entry no cheaper than one before it never
        # beats that one, and ties go to the smaller e: only the cheaper steps count
        steps, least = [], float("inf")
        for e, entry in enumerate(profile):
            if entry is not None and entry[0] < least:
                steps.append((e, *entry))
                least = entry[0]
        new_cost, new_picks = [float("inf")] * (ell + 1), [None] * (ell + 1)
        for j in range(ell + 1):
            for e, c, w in steps:
                if e > j:
                    break
                if cost[j - e] + c < new_cost[j]:
                    new_cost[j] = cost[j - e] + c
                    new_picks[j] = (b, w, picks[j - e])
        cost, picks = new_cost, new_picks
        if cost[ell] > k:
            return None

    edges, node = set(), picks[ell]
    while node is not None:
        b, w, node = node
        edges |= solution_edges(b, w)
    return certify(g, edges, k, ell)


def solve_2connected(g: Graph, k: int, ell: int, mode: Mode) -> ContractionSolution | None:
    """`solve` on a 2-connected graph, or on one already in the class: a single
    block, scanned until its first witness within budget.  A graph is
    2-connected exactly when it is one block holding every edge."""
    if k >= 0 and not is_near_tree(g, ell) and biconnected_blocks(g)[0] != (g,):
        raise InputError("coloring solver requires a 2-connected graph")
    return solve(Instance(g, k, ell), mode)

