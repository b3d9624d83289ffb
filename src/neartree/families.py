"""Splitters, universal coloring families, and their composition.

A family of functions [n] -> [q] is an (n, k, q)-splitter when every k-subset
of the domain is split evenly (class sizes within 1 of each other) by some
member, and (n, k, q)-universal when every assignment of values to every
k-subset is realized exactly by some member.  Families here are explicit
function tables, built at desk scale and checked by brute force; asymptotic
sizes from the literature are out of scope, property correctness is not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, log

import numpy as np

from .errors import InputError, SizeCapError

SPLITTER = "splitter"
UNIVERSAL = "universal"
PERFECT_HASH = "perfect-hash"

VERIFY_CAP = 4_000_000
GREEDY_CAP = 2_000_000
POOL_RANDOM = 192
POOL_BLOCK = 64


@dataclass(frozen=True)
class FunctionFamily:
    """Explicit list of total functions [n] -> [q] with a declared property."""

    n: int
    q: int
    kind: str  # SPLITTER | UNIVERSAL | PERFECT_HASH
    k: int
    functions: tuple[tuple[int, ...], ...]
    meta: str = ""

    def __post_init__(self):
        for f in self.functions:
            if len(f) != self.n or any(c < 1 or c > self.q for c in f):
                raise InputError("family contains a function outside [n] -> [q]")

    def __len__(self) -> int:
        return len(self.functions)


def _dedupe(funcs: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    seen = set()
    out = []
    for f in funcs:
        if f not in seen:
            seen.add(f)
            out.append(f)
    return tuple(out)


# ---------------------------------------------------------------------------
# splitters

def build_interval_splitter(n: int, k: int, q: int) -> FunctionFamily:
    """Threshold functions: for split points x_1 < ... < x_(q-1) in [n], map x
    to the index of the interval (x_(j-1), x_j] containing it, with x_0 = 0
    and x_q = n.  One function per choice of split points; every k-subset is
    split evenly by the choice aligned with its sorted order."""
    if not (1 <= k <= n and 1 <= q <= n):
        raise InputError("interval splitter needs 1 <= k, q <= n")
    funcs = []
    for points in combinations(range(1, n + 1), q - 1):
        cuts = (0,) + points + (n,)
        f = []
        for x in range(1, n + 1):
            j = next(i for i in range(1, q + 1) if cuts[i - 1] < x <= cuts[i])
            f.append(j)
        funcs.append(tuple(f))
    return FunctionFamily(n, q, SPLITTER, k, _dedupe(funcs),
                          meta=f"interval({n},{k},{q})")


def _next_prime(x: int) -> int:
    def is_prime(v: int) -> bool:
        if v < 2:
            return False
        i = 2
        while i * i <= v:
            if v % i == 0:
                return False
            i += 1
        return True

    while not is_prime(x):
        x += 1
    return x


def build_hash_splitter(n: int, k: int) -> FunctionFamily:
    """(n, k, k^2)-splitter via multiplicative hashing: with p the smallest
    prime >= max(n, k^2 + 1), the maps x -> ((a*x) mod p) mod k^2 over all
    a in [p-1] leave every k-subset injective (hence evenly split) under some
    a.  Size O(n), far from the literature's O(poly(k) log n), which is fine
    here: downstream only needs the property.  When n <= k^2 the identity
    embedding alone suffices."""
    if n < 1 or k < 1:
        raise InputError("hash splitter needs n, k >= 1")
    q = k * k
    if n <= q:
        ident = tuple(range(1, n + 1))
        return FunctionFamily(n, q, SPLITTER, k, (ident,), meta=f"hash-identity({n},{k})")
    p = _next_prime(max(n, q + 1))
    funcs = []
    for a in range(1, p):
        funcs.append(tuple(((a * x) % p) % q + 1 for x in range(1, n + 1)))
    return FunctionFamily(n, q, SPLITTER, k, _dedupe(funcs), meta=f"hash({n},{k},p={p})")


# ---------------------------------------------------------------------------
# universal families by greedy covering

def _greedy_size_bound(n: int, k: int, q: int) -> int:
    """Ceiling of (k ln n + k ln q) / ln(q^k / (q^k - 1)), plus one."""
    if q == 1 or k == 0:
        return 1
    denom = log(q ** k / (q ** k - 1))
    return int((k * log(max(n, 2)) + k * log(q)) / denom) + 1


def build_universal_greedy(n: int, k: int, q: int, seed: int = 0) -> FunctionFamily:
    """(n, k, q)-universal family by greedy set cover over the constraints
    {(S, phi) : |S| = k, phi : S -> [q]}.

    Each round scores a candidate pool (uniformly random functions plus
    functions constant on the blocks of a random balanced partition, both
    refreshed per round) and keeps the function covering the most uncovered
    constraints; a round that covers nothing falls back to a bespoke function
    built from one uncovered constraint, so termination is unconditional.
    When k = n the constraints are in bijection with the functions and the
    full table is returned directly.
    """
    if n < 1 or q < 1 or k < 0 or k > n:
        raise InputError("universal family needs 0 <= k <= n and q >= 1")
    total = comb(n, k) * q ** k
    if total > GREEDY_CAP:
        raise SizeCapError(f"constraint space {total} exceeds the greedy cap {GREEDY_CAP}")

    meta = f"greedy({n},{k},{q})"
    if k == 0 or q == 1:
        return FunctionFamily(n, q, UNIVERSAL, k, ((1,) * n,), meta=meta)
    if k == n:
        full = tuple(product(range(1, q + 1), repeat=n))
        return FunctionFamily(n, q, UNIVERSAL, k, full, meta=meta + "-full")

    subsets = [list(s) for s in combinations(range(n), k)]
    weights = np.array([q ** (k - 1 - i) for i in range(k)], dtype=np.int64)
    uncovered: list[set[int]] = [set(range(q ** k)) for _ in subsets]
    remaining = total
    rng = random.Random(seed * 1_000_003 + n * 10_007 + k * 101 + q)
    chosen: list[tuple[int, ...]] = []

    def coverage_counts(pool: np.ndarray) -> np.ndarray:
        counts = np.zeros(len(pool), dtype=np.int64)
        for si, s in enumerate(subsets):
            codes = (pool[:, s] - 1) @ weights
            mask = np.fromiter((c in uncovered[si] for c in codes.tolist()),
                               dtype=bool, count=len(pool))
            counts += mask
        return counts

    def absorb(func: np.ndarray) -> int:
        newly = 0
        for si, s in enumerate(subsets):
            code = int((func[s] - 1) @ weights)
            if code in uncovered[si]:
                uncovered[si].discard(code)
                newly += 1
        return newly

    while remaining > 0:
        pool = _candidate_pool(n, q, rng)
        counts = coverage_counts(pool)
        best = int(counts.argmax())
        if counts[best] == 0:
            func = _bespoke_repair(n, q, subsets, uncovered)
        else:
            func = pool[best]
        covered = absorb(np.asarray(func, dtype=np.int64))
        if covered == 0:  # the pool's best went stale against an empty gain
            func = _bespoke_repair(n, q, subsets, uncovered)
            covered = absorb(np.asarray(func, dtype=np.int64))
        remaining -= covered
        chosen.append(tuple(int(c) for c in func))

    return FunctionFamily(n, q, UNIVERSAL, k, _dedupe(chosen), meta=meta)


def _candidate_pool(n: int, q: int, rng: random.Random) -> np.ndarray:
    rows = [[rng.randint(1, q) for _ in range(n)] for _ in range(POOL_RANDOM)]
    for _ in range(POOL_BLOCK):
        blocks = max(2, min(n, 2 * q))
        labels = [rng.randrange(blocks) for _ in range(n)]
        values = [rng.randint(1, q) for _ in range(blocks)]
        rows.append([values[labels[i]] for i in range(n)])
    return np.array(rows, dtype=np.int64)


def _bespoke_repair(n: int, q: int, subsets, uncovered) -> tuple[int, ...]:
    """One function realizing the first uncovered constraint exactly."""
    for si, s in enumerate(subsets):
        if uncovered[si]:
            code = min(uncovered[si])
            f = [1] * n
            for pos in reversed(s):
                f[pos] = code % q + 1
                code //= q
            return tuple(f)
    raise AssertionError("repair called with nothing uncovered")


# ---------------------------------------------------------------------------
# composition

def _ceil_log2(k: int) -> int:
    return max(1, (k - 1).bit_length())


def compose_universal(n: int, k: int, q: int, seed: int = 0) -> FunctionFamily:
    """(n, k, q)-universal family composed from three smaller families.

    A hash splitter maps the domain injectively (per k-subset) into [k^2]; an
    interval splitter carves [k^2] into b = ceil(log2 k) blocks so that each
    block holds at most ceil(k / b) of the hashed elements; a universal
    family on [k^2] for subsets of that size supplies the block colorings.
    Every tuple (f_a, f_b, g_1..g_b) becomes the composite
    x -> g_(f_b(f_a(x)))(f_a(x)).
    """
    if n < 1 or k < 1 or q < 1:
        raise InputError("composition needs n, k, q >= 1")
    if k > n:
        raise InputError("composition needs k <= n")
    ksq = k * k
    b = _ceil_log2(k)
    part = max(1, -(-k // b))  # ceil(k / b); at most k <= k^2

    fam_a = build_hash_splitter(n, k)
    fam_b = build_interval_splitter(ksq, k, b)
    fam_d = build_universal_greedy(ksq, part, q, seed=seed)

    combos = len(fam_a) * len(fam_b) * len(fam_d) ** b
    if combos > 1_500_000:
        raise SizeCapError(f"composition would emit {combos} functions")

    funcs: list[tuple[int, ...]] = []
    d_funcs = fam_d.functions
    for fa in fam_a.functions:
        for fb in fam_b.functions:
            block_of = [fb[fa[x] - 1] for x in range(n)]  # block index per domain point
            hashed = [fa[x] for x in range(n)]
            for picks in product(range(len(d_funcs)), repeat=b):
                g = [d_funcs[i] for i in picks]
                funcs.append(tuple(g[block_of[x] - 1][hashed[x] - 1] for x in range(n)))
    return FunctionFamily(n, q, UNIVERSAL, k, _dedupe(funcs),
                          meta=f"compose({n},{k},{q};b={b},part={part})")


# ---------------------------------------------------------------------------
# verification

def verify_family(fam: FunctionFamily) -> bool:
    """Exhaustively check the declared property.  Universal: every assignment
    on every k-subset is realized.  Splitter: every k-subset is split evenly
    by some member.  Perfect hash: every k-subset is mapped injectively by
    some member."""
    n, k, q = fam.n, fam.k, fam.q
    if k > n:
        return True  # no k-subsets to check
    if fam.kind == UNIVERSAL:
        work = comb(n, k) * q ** k
    else:
        work = comb(n, k)
    if work > VERIFY_CAP:
        raise SizeCapError(f"verification space {work} exceeds the cap {VERIFY_CAP}")
    if not fam.functions:
        return k == 0 and fam.kind != UNIVERSAL

    if fam.kind == UNIVERSAL:
        if k == 0:
            return True
        table = np.array(fam.functions, dtype=np.int64) - 1
        weights = np.array([q ** (k - 1 - i) for i in range(k)], dtype=np.int64)
        want = q ** k
        for s in combinations(range(n), k):
            codes = table[:, list(s)] @ weights
            if len(np.unique(codes)) != want:
                return False
        return True

    if fam.kind == SPLITTER:
        for s in combinations(range(n), k):
            if not any(_splits_evenly(f, s, q) for f in fam.functions):
                return False
        return True

    if fam.kind == PERFECT_HASH:
        for s in combinations(range(n), k):
            if not any(len({f[i] for i in s}) == k for f in fam.functions):
                return False
        return True

    raise InputError(f"unknown family kind {fam.kind!r}")


def _splits_evenly(f: tuple[int, ...], s: tuple[int, ...], q: int) -> bool:
    counts = [0] * q
    for i in s:
        counts[f[i] - 1] += 1
    return max(counts) - min(counts) <= 1


# ---------------------------------------------------------------------------
# solver integration

def coloring_family(n: int, k: int, ell: int, seed: int = 0) -> FunctionFamily:
    """Universal family sized for derandomizing the coloring solver: palette
    2*ceil(sqrt(ell)) + 2, subset size 6k + 8*ell clamped to n (the class
    argument needs that many vertices colored specifically; n is the size of
    the largest block, and a smaller block is covered whole)."""
    from .graph import palette_size

    target = min(n, 6 * k + 8 * ell)
    return build_universal_greedy(n, target, palette_size(ell), seed=seed)
