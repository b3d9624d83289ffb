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
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, isqrt, log

import numpy as np

from .errors import InputError, InternalError, SizeCapError

SPLITTER = "splitter"
UNIVERSAL = "universal"
PERFECT_HASH = "perfect-hash"

VERIFY_CAP = 4_000_000
GREEDY_CAP = 2_000_000
POOL_RANDOM = 192
POOL_BLOCK = 64
SCORE_CELLS = 1 << 20


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


# ---------------------------------------------------------------------------
# splitters

def build_interval_splitter(n: int, k: int, q: int) -> FunctionFamily:
    """Threshold functions: for split points x_1 < ... < x_(q-1) in [n], map x
    to the index of the interval (x_(j-1), x_j] containing it, with x_0 = 0
    and x_q = n.  One function per choice of split points; every k-subset is
    split evenly by the choice aligned with its sorted order."""
    if not (1 <= k <= n and 1 <= q <= n):
        raise InputError("interval splitter needs 1 <= k, q <= n")
    # x lies in interval 1 + #{split points below x}; distinct points give distinct maps
    funcs = tuple(tuple(bisect_left(points, x) + 1 for x in range(1, n + 1))
                  for points in combinations(range(1, n + 1), q - 1))
    return FunctionFamily(n, q, SPLITTER, k, funcs, meta=f"interval({n},{k},{q})")


def _next_prime(x: int) -> int:
    while x < 2 or any(x % i == 0 for i in range(2, isqrt(x) + 1)):
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
    funcs = (tuple(((a * x) % p) % q + 1 for x in range(1, n + 1)) for a in range(1, p))
    return FunctionFamily(n, q, SPLITTER, k, tuple(dict.fromkeys(funcs)),
                          meta=f"hash({n},{k},p={p})")


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
    {(S, phi) : |S| = k, phi : S -> [q]}, one boolean array by cell id: a
    k-subset's row times q^k plus the assignment's code.  Each round scores
    a pool (`_candidate_pool`, seeded by (n, k, q, seed)) once and picks its
    best while that covers as many uncovered constraints as the round's
    first pick; a pick takes from every candidate one count per newly
    covered constraint it realizes too, so the counts stay exact.  A pool
    covering nothing gives way to a bespoke function, so termination is
    unconditional; the result must pass `verify_family`.  The same seed
    gives the same family.  When k = n the full table is returned directly.
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

    subsets = np.array(list(combinations(range(n), k)), dtype=np.intp)
    offsets = np.arange(0, total, q ** k, dtype=np.int32)
    uncovered = np.ones(total, dtype=bool)
    rng = random.Random(f"greedy/{n}/{k}/{q}/{seed}")
    chosen: list[tuple[int, ...]] = []

    # a pool's cell table is kept whole if it fits SCORE_CELLS, else sliced by subsets
    chunk = max(1, SCORE_CELLS // (POOL_RANDOM + POOL_BLOCK))

    def cells(digits: np.ndarray, rows) -> np.ndarray:
        """(rows, functions) cell ids: function j's colors minus 1 are column
        j of digits, read in base q over the subset, first position highest."""
        sub = subsets[rows]
        out = digits[sub[:, 0]]
        for col in sub.T[1:]:
            out *= q
            out += digits[col]
        out += offsets[rows, None]
        return out

    def pool_cells(rows) -> np.ndarray:
        """cells(pool, rows) for the current pool, read off its table when kept."""
        return cells(pool, rows) if table is None else table[rows]

    while uncovered.any():
        pool = _candidate_pool(n, q, rng)
        table = cells(pool, slice(None)) if len(subsets) <= chunk else None
        counts = sum(uncovered[pool_cells(slice(i, i + chunk))].sum(0)
                     for i in range(0, len(subsets), chunk))
        if not counts.any():
            pool, table, counts = _bespoke_repair(n, q, subsets, uncovered), None, np.ones(1, int)
        first = counts.max()
        # a candidate loses one count per newly covered row where its code is the pick's
        while counts[best := counts.argmax()] == first:
            hit = cells(pool[:, [best]], slice(None))[:, 0] if table is None else table[:, best]
            new = uncovered[hit].nonzero()[0]
            uncovered[hit] = False
            chosen.append(tuple((pool[:, best] + 1).tolist()))
            for i in range(0, len(new), chunk):
                rows = new[i:i + chunk]
                counts -= (pool_cells(rows) == hit[rows, None]).sum(0)

    fam = FunctionFamily(n, q, UNIVERSAL, k, tuple(chosen), meta=meta)
    if not verify_family(fam):  # a miss over this family is printed as a certified no
        raise InternalError(f"greedy({n},{k},{q}) built a family that is not universal")
    return fam


def _candidate_pool(n: int, q: int, rng: random.Random) -> np.ndarray:
    """Candidate functions as columns of colors minus 1, shape (n, pool):
    POOL_RANDOM uniform ones, then POOL_BLOCK constant on the blocks of a
    random partition.  Each entry is a random 16-bit word mod its range (bias
    below range / 2^16), one block of bytes per pool from the stdlib
    generator: numpy.random, and its import, stay out of the derand path."""
    blocks = max(2, min(n, 2 * q))
    cut = n * POOL_RANDOM, n * (POOL_RANDOM + POOL_BLOCK)
    words = np.frombuffer(rng.randbytes(2 * (cut[1] + blocks * POOL_BLOCK)), dtype="<u2")
    uniform = (words[:cut[0]] % q).reshape(n, POOL_RANDOM)
    labels = (words[cut[0]:cut[1]] % blocks).reshape(n, POOL_BLOCK)
    colors = (words[cut[1]:] % q).reshape(blocks, POOL_BLOCK)
    return np.hstack([uniform, np.take_along_axis(colors, labels, axis=0)]).astype(np.int32)


def _bespoke_repair(n: int, q: int, subsets: np.ndarray, uncovered: np.ndarray) -> np.ndarray:
    """A column of colors minus 1 realizing the first uncovered constraint exactly."""
    si, code = divmod(int(uncovered.argmax()), q ** subsets.shape[1])
    f = np.zeros((n, 1), dtype=np.int32)
    for pos in reversed(subsets[si].tolist()):
        f[pos] = code % q
        code //= q
    return f


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
            for picks in product(range(len(d_funcs)), repeat=b):
                g = [d_funcs[i] for i in picks]
                funcs.append(tuple(g[block_of[x] - 1][fa[x] - 1] for x in range(n)))
    return FunctionFamily(n, q, UNIVERSAL, k, tuple(dict.fromkeys(funcs)),
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
            if not np.bincount(codes, minlength=want).all():
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
    the largest block, and a smaller block is covered whole).  Built by
    `build_universal_greedy`, whose seeded generator makes it deterministic
    for a given seed; at the clamp it is the full q^n table."""
    from .graph import palette_size

    target = min(n, 6 * k + 8 * ell)
    return build_universal_greedy(n, target, palette_size(ell), seed=seed)
