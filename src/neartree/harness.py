"""File formats, instance generators, and the command-line front end.

Graph text format: first line "p <n> <m>", then m lines "e <u> <v>" with
1-based vertex ids; "c" starts a comment.  Witness structures are one bag
per line (space-separated ids).  Families carry a "family <n> <q> <kind>
<k>" header, one function per line.  Kernel traces are line-oriented step
logs that replay against the original instance: "instance k <k> ell <ell>",
"reduced-k <k'>", "resolved none|yes|no", then one line per step, "step
longpath u1 v1 u2 v2 ..." (the edges of every long run, contracted at once),
"step twin <v> <neighbors>" or "step commonnbr <d> u1 v1 u2 v2 ...".

Exit codes: 0 decided yes (kernel mode: not decided no; resolved=none prints
decision=not-found), 1 decided no (in rand mode, and in derand mode with a
family file not verified universal: no witness found, printed as
decision=not-found, which certifies nothing, unless the solver decided it
before any coloring), 2 error.  A yes is checked in
one place, `witness.certify`, which hands its verified witness on to be
written; a failed check is an internal error (exit 2, no result line).
Lift runs the same check, `witness.check_edges`, on the lifted edge set,
and a set that fails it is a no.
Exhaustive mode and derand mode without a family file run one solver mode,
`solver.ExhaustiveColorings`, which takes no seed.  Output files are
rewritten in place, a regular file cut at the new end, so a failed write
(exit 2, no result line) may leave old text past the new.
"""

from __future__ import annotations

import argparse
import os
import random
import stat
import sys
import traceback
from dataclasses import dataclass

from .errors import InputError, ParseError, SizeCapError
from .families import (
    UNIVERSAL,
    FunctionFamily,
    build_hash_splitter,
    build_interval_splitter,
    build_universal_greedy,
    compose_universal,
    verify_family,
)
from .graph import Graph, Instance, biconnected_blocks, edge, palette_size
from .kernel import (
    CommonNbrContract,
    KernelTrace,
    LongPathContract,
    TwinDelete,
    kernelize,
    lift_solution,
    replay,
)
from .oracle import exact_opt
from .solver import ExhaustiveColorings, FamilyColorings, RandomColorings, solve
from .witness import (
    ContractionSolution,
    WitnessStructure,
    certify,
    check_edges,
    verify_witness,
)

DESK_VERTEX_CAP = 64


# ---------------------------------------------------------------------------
# graph text format

def _records(text: str):
    """(line number, fields) of each line that is neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield lineno, line.split()


def _ints(fields, message: str, lineno: int) -> list[int]:
    """The fields as integers, or ParseError(message, lineno)."""
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise ParseError(message, lineno) from None


def parse_graph(text: str) -> Graph:
    """The graph text format (module docstring), read in one loop that tests
    for an edge line first; it skips the blank and comment lines that
    `_records` skips for the other formats."""
    n = m = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "e":
            if n is None:
                raise ParseError("edge before header", lineno)
            if len(parts) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint outside 1..{n}", lineno)
            if u == v:
                raise ParseError("self-loop", lineno)
            e = (u, v) if u < v else (v, u)
            if e in edges:
                raise ParseError(f"duplicate edge {e}", lineno)
            edges.add(e)
        elif parts[0][0] == "c":
            continue
        elif parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 3:
                raise ParseError("header must be 'p <n> <m>'", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("header counts must be integers", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("header counts must be nonnegative", lineno)
        else:
            raise ParseError(f"unknown line kind {parts[0]!r}", lineno)
    if n is None:
        raise ParseError("missing 'p' header", 1)
    if m != len(edges):
        raise ParseError(f"header announced {m} edges, found {len(edges)}", 1)
    return Graph(frozenset(range(1, n + 1)), frozenset(edges))  # edges checked above


def serialize_graph(g: Graph) -> str:
    """Vertices renumbered 1..n in sorted-id order; round trips up to that relabeling."""
    rank = {v: i for i, v in enumerate(sorted(g.vertices), start=1)}
    edges = sorted(edge(rank[a], rank[b]) for a, b in g.edges)
    return "\n".join([f"p {g.n} {g.m}"] + [f"e {u} {v}" for u, v in edges]) + "\n"


# ---------------------------------------------------------------------------
# witness and edge-set text formats

def serialize_witness(w: WitnessStructure) -> str:
    return "\n".join(" ".join(map(str, sorted(b))) if len(b) > 1 else str(*b) for b in w.bags) + "\n"


def parse_witness(text: str) -> WitnessStructure:
    bags = []
    for lineno, parts in _records(text):
        bags.append(_ints(parts, "bag lines hold integers", lineno))
        if len(set(bags[-1])) < len(bags[-1]):
            twice = next(v for i, v in enumerate(bags[-1]) if v in bags[-1][:i])
            raise ParseError(f"vertex {twice} named twice in one bag", lineno)
    if not bags:
        raise ParseError("empty witness", 1)
    return WitnessStructure.of(bags)


def serialize_edge_set(edges) -> str:
    lines = [f"e {u} {v}" for u, v in sorted(edges)]
    return ("\n".join(lines) + "\n") if lines else ""


def parse_edge_set(text: str) -> frozenset[tuple[int, int]]:
    out = set()
    for lineno, parts in _records(text):
        if parts[0] == "e":
            parts = parts[1:]
        if len(parts) != 2:
            raise ParseError("edge lines are 'e <u> <v>' or '<u> <v>'", lineno)
        u, v = _ints(parts, "edge endpoints must be integers", lineno)
        if u == v:
            raise ParseError("self-loop", lineno)
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


# ---------------------------------------------------------------------------
# family text format

def serialize_family(fam: FunctionFamily) -> str:
    lines = [" ".join(map(str, f)) for f in fam.functions]
    return "\n".join([f"family {fam.n} {fam.q} {fam.kind} {fam.k}"] + lines) + "\n"


def parse_family(text: str) -> FunctionFamily:
    header = None
    funcs = []
    for lineno, parts in _records(text):
        if parts[0] == "family":
            if header is not None:
                raise ParseError("duplicate family header", lineno)
            if len(parts) != 5:
                raise ParseError("header must be 'family <n> <q> <kind> <k>'", lineno)
            n, q, k = _ints(parts[1:3] + parts[4:], "family header fields must be numeric", lineno)
            if n < 0 or q < 0 or k < 0:
                raise ParseError("family header counts must be nonnegative", lineno)
            header = (n, q, parts[3], k)
        else:
            if header is None:
                raise ParseError("function line before family header", lineno)
            funcs.append(tuple(_ints(parts, "function lines hold integers", lineno)))
            if len(funcs[-1]) != header[0]:
                raise ParseError(f"function length differs from n={header[0]}", lineno)
            if any(c < 1 or c > header[1] for c in funcs[-1]):
                raise ParseError(f"color outside 1..{header[1]}", lineno)
    if header is None:
        raise ParseError("missing family header", 1)
    n, q, kind, k = header
    return FunctionFamily(n, q, kind, k, tuple(funcs))


# ---------------------------------------------------------------------------
# kernel trace text format

def serialize_trace(original: Instance, reduced: Instance, trace: KernelTrace) -> str:
    lines = [
        "c kernel trace",
        f"instance k {original.k} ell {original.ell}",
        f"reduced-k {reduced.k}",
        f"resolved {trace.resolved or 'none'}",
    ]
    for step in trace.steps:
        if isinstance(step, TwinDelete):
            ns = " ".join(str(x) for x in sorted(step.neighborhood))
            lines.append(f"step twin {step.vertex} {ns}")
            continue
        flat = " ".join(f"{u} {v}" for u, v in step.contracted)
        if isinstance(step, LongPathContract):
            lines.append(f"step longpath {flat}")
        else:
            lines.append(f"step commonnbr {step.d} {flat}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple[int, int, KernelTrace]:
    """Returns (original k, ell, trace); the reduced budget is re-derived by replay."""
    k = ell = None
    resolved: str | None = None
    steps = []
    for lineno, parts in _records(text):
        kind = " ".join(parts[:2]) if parts[0] == "step" else parts[0]
        if kind == "instance":
            if len(parts) != 5 or parts[1] != "k" or parts[3] != "ell":
                raise ParseError("instance line must be 'instance k <k> ell <ell>'", lineno)
            k, ell = _ints(parts[2::2], "instance budgets must be integers", lineno)
        elif kind == "reduced-k":
            pass  # derivable
        elif kind == "resolved":
            if len(parts) != 2 or parts[1] not in ("none", "yes", "no"):
                raise ParseError("resolved line must be 'resolved none|yes|no'", lineno)
            resolved = None if parts[1] == "none" else parts[1]
        elif kind == "step twin":
            ids = _ints(parts[2:], "twin step vertices must be integers", lineno)
            if not ids:
                raise ParseError("twin step must be 'step twin <v> <neighbors>'", lineno)
            steps.append(TwinDelete(ids[0], frozenset(ids[1:])))
        elif kind in ("step longpath", "step commonnbr"):
            flat = _ints(parts[2:], "contraction step fields must be integers", lineno)
            d = None
            if kind == "step commonnbr":
                if not flat:
                    raise ParseError("commonnbr step must be 'step commonnbr <d> u1 v1 ...'", lineno)
                d = flat.pop(0)
            if len(flat) % 2:
                raise ParseError("contracted edges come as vertex pairs", lineno)
            pairs = tuple((u, v) if u < v else (v, u) for u, v in zip(flat[::2], flat[1::2]))
            if any(u == v for u, v in pairs):
                raise ParseError("self-loop", lineno)
            steps.append(LongPathContract(pairs) if d is None else CommonNbrContract(pairs, d))
        else:
            raise ParseError(f"unknown trace line {kind!r}", lineno)
    if k is None or ell is None:
        raise ParseError("trace missing instance line", 1)
    return k, ell, KernelTrace(tuple(steps), resolved)


# ---------------------------------------------------------------------------
# instance generators

def gen_hardness_gadget(g: Graph, k: int, ell: int) -> Instance:
    """Attach ell cycles of length k + 3, pairwise meeting at the lowest-id
    vertex.  Transfers the tree-contraction decision of (g, k) to the
    excess-ell problem: each cycle is its own block of excess 1, and
    collapsing one costs k + 1 contractions, more than the budget, so the
    cycles use up the excess budget exactly and the base must become a tree."""
    if not g.is_connected():
        raise InputError("gadget base must be connected")
    if ell < 1:
        raise InputError("gadget needs ell >= 1")
    if k < 1:
        raise InputError("gadget needs k >= 1 (at k = 0 the base is just tested for being a tree)")
    anchor = min(g.vertices)
    fresh = max(g.vertices) + 1
    verts = set(g.vertices)
    edges = set(g.edges)
    for _ in range(ell):
        ring = [fresh + i for i in range(k + 2)]
        fresh += k + 2
        verts.update(ring)
        chain = [anchor, *ring, anchor]
        edges.update(edge(a, b) for a, b in zip(chain, chain[1:]))
    return Instance(Graph(frozenset(verts), frozenset(edges)), k, ell)


def gen_random_instance(n: int, edge_prob: float, k: int, ell: int, seed: int) -> Instance:
    """Connected Erdos-Renyi-style graph, resampled until connected."""
    if not 0 < edge_prob <= 1:
        raise InputError("edge probability must be in (0, 1]")
    if n < 1 or n > DESK_VERTEX_CAP:
        raise InputError(f"n must be in 1..{DESK_VERTEX_CAP}")
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < edge_prob]
        g = Graph.build(range(1, n + 1), edges)
        if g.is_connected():
            return Instance(g, k, ell)


# ---------------------------------------------------------------------------
# command line

@dataclass
class RunConfig:
    mode: str
    k: int = 0
    ell: int = 0
    alpha: float = 2.0
    seed: int = 0
    iters: int | None = None
    infile: str | None = None
    out: str | None = None
    trace: str | None = None
    family_file: str | None = None
    witness: str | None = None
    sol: str | None = None
    kind: str = "universal"
    n: int = 0
    q: int = 0
    fam_k: int = 0


def _read(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# the inputs each graph-reading mode reads besides the graph: flag -> required
_MODE_INPUTS = {"exact": {}, "rand": {}, "exhaustive": {}, "derand": {"family_file": False},
               "kernel": {}, "verify": {"witness": True}, "lift": {"trace": True, "sol": True}}


def _check_inputs(cfg: RunConfig):
    """Refuse a required input never given (only an explicit '-' reads stdin,
    so it is never read as empty), then a run in which two inputs read stdin
    (--in unset or '-', or another input given as '-'): the second would
    read it empty."""
    inputs = _MODE_INPUTS[cfg.mode]
    for flag, required in inputs.items():
        if required and getattr(cfg, flag) is None:
            raise InputError(f"--mode {cfg.mode} needs --{flag} ('-' reads stdin)")
    readers = ["--in"] if cfg.infile in (None, "-") else []
    readers += [f"--{flag.replace('_', '-')}" for flag in inputs if getattr(cfg, flag) == "-"]
    if len(readers) > 1:
        raise InputError(f"--mode {cfg.mode}: only one input can read stdin, not {' and '.join(readers)}")


def _write(path: str | None, text: str):
    if path is not None:
        data = text.encode("utf-8")
        # no O_TRUNC: emptying a file before a rewrite costs more than cutting it after
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            done = 0
            while done < len(data):
                done += os.write(fd, data[done:])
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, done)
        finally:
            os.close(fd)


def _result_line(decision: bool | None, cost: int, mode: str, seed: int, extra: str = "") -> str:
    """decision None: nothing found, which is not a certified no."""
    word = "not-found" if decision is None else ("yes" if decision else "no")
    base = f"result decision={word} cost={cost} mode={mode} seed={seed}"
    return base + (f" {extra}" if extra else "")


def _emit_solution(cfg: RunConfig, sol: ContractionSolution | None, certified: bool = True) -> int:
    if sol is None:
        # a miss that certifies nothing is not-found; the exit code stays 1
        print(_result_line(False if certified else None, cfg.k + 1, cfg.mode, cfg.seed))
        return 1
    _write(cfg.out, serialize_witness(sol.witness))
    listing = ",".join(f"{u}-{v}" for u, v in sorted(sol.edges)) or "none"
    print(_result_line(True, sol.cost, cfg.mode, cfg.seed, extra=f"edges={listing}"))
    return 0


def _certifies_no(fam: FunctionFamily, g: Graph, k: int, ell: int) -> bool:
    """Whether a family-mode miss on g is a certified no: the family must be
    universal, with palette_size(ell) colors or more, for subsets of
    min(largest block, 6k + 8 ell) positions or more (and no more than its
    domain, where universality would hold vacuously), and pass verification
    within its cap."""
    largest = max((b.n for b in biconnected_blocks(g)[0]), default=1)
    if not (fam.kind == UNIVERSAL and fam.q >= palette_size(ell)
            and min(largest, 6 * k + 8 * ell) <= fam.k <= fam.n):
        return False
    try:
        return verify_family(fam)
    except SizeCapError:
        return False


def run(cfg: RunConfig) -> int:
    # '-' reads stdin for an input; as an output it would only name a file '-'
    for flag in ("out",) * (cfg.mode != "verify") + ("trace",) * (cfg.mode == "kernel"):
        if getattr(cfg, flag) == "-":
            raise InputError(f"--{flag} cannot be '-': outputs go to files, and '-' reads stdin")
    if cfg.mode == "family":  # reads no graph
        if cfg.family_file and cfg.out:
            raise InputError("--mode family verifies --family-file or builds one into --out, not both")
        if cfg.family_file:
            fam = parse_family(_read(cfg.family_file))
            ok = verify_family(fam)
            print(_result_line(ok, len(fam), cfg.mode, cfg.seed))
            return 0 if ok else 1
        builders = {
            "interval": lambda: build_interval_splitter(cfg.n, cfg.fam_k, cfg.q),
            "hash": lambda: build_hash_splitter(cfg.n, cfg.fam_k),
            "universal": lambda: build_universal_greedy(cfg.n, cfg.fam_k, cfg.q, seed=cfg.seed),
            "compose": lambda: compose_universal(cfg.n, cfg.fam_k, cfg.q, seed=cfg.seed),
        }
        if cfg.kind not in builders:
            raise InputError(f"unknown family kind {cfg.kind!r}")
        fam = builders[cfg.kind]()
        _write(cfg.out, serialize_family(fam))
        print(_result_line(True, len(fam), cfg.mode, cfg.seed))
        return 0

    if cfg.mode not in _MODE_INPUTS:
        raise InputError(f"unknown mode {cfg.mode!r}")
    _check_inputs(cfg)
    g = parse_graph(_read(cfg.infile))

    if cfg.mode == "lift":
        k0, ell0, trace = parse_trace(_read(cfg.trace))
        f_reduced = parse_edge_set(_read(cfg.sol))
        original = Instance(g, k0, ell0)
        # the reduced graph was written renumbered 1..n; translate the
        # solution back into the trace's (original merged) ids
        stages, merges = replay(original, trace)
        order = sorted(stages[-1].graph.vertices)
        back = dict(enumerate(order, start=1))
        outside = sorted(v for e in f_reduced for v in e if v not in back)
        if outside:
            raise InputError(f"solution vertex {outside[0]} outside the reduced graph's 1..{len(order)}")
        f_reduced = frozenset(edge(back[u], back[v]) for u, v in f_reduced)
        lifted = lift_solution(original, trace, f_reduced, (stages, merges))
        valid = check_edges(g, lifted, k0, ell0)[0] == "ok"  # yes for a spanning forest within k
        _write(cfg.out, serialize_edge_set(lifted))
        print(_result_line(valid, min(len(lifted), k0 + 1), cfg.mode, cfg.seed))
        return 0 if valid else 1

    instance = Instance(g, cfg.k, cfg.ell)  # the one check of ell; a negative k is a no
    if cfg.mode == "exact":
        res = exact_opt(g, cfg.ell, min(cfg.k, g.m))
        return _emit_solution(cfg, None if res is None else certify(g, res[0], cfg.k, cfg.ell))

    if cfg.mode == "verify":
        w = parse_witness(_read(cfg.witness))
        check = verify_witness(g, w, cfg.ell, cfg.k)
        print(_result_line(check.valid, check.cost, cfg.mode, cfg.seed)
              + ("" if check.valid else f" reason={check.reason}"))
        return 0 if check.valid else 1

    if cfg.mode == "kernel":
        reduced, trace = kernelize(instance, cfg.alpha)
        _write(cfg.out, serialize_graph(reduced.graph))
        _write(cfg.trace, serialize_trace(instance, reduced, trace))
        decided_no = trace.resolved == "no"
        decision = None if trace.resolved is None else not decided_no
        print(_result_line(decision, cfg.k + 1 if decided_no else reduced.k, cfg.mode, cfg.seed)
              + f" reduced_n={reduced.graph.n} reduced_k={reduced.k} resolved={trace.resolved or 'none'}")
        return 1 if decided_no else 0

    # rand, exhaustive, derand
    if cfg.mode == "rand":
        mode = RandomColorings(cfg.seed, cfg.iters)
    elif cfg.mode == "derand" and cfg.family_file:
        fam = parse_family(_read(cfg.family_file))
        mode = FamilyColorings(fam.functions, fam.n)
    else:
        mode = ExhaustiveColorings()
    sol = solve(instance, mode)
    certified = True
    if sol is None and isinstance(mode, (RandomColorings, FamilyColorings)):
        # certified if solve decided it before any coloring (k <= 0 or a
        # disconnected graph), or if the family is verified universal
        certified = (cfg.k <= 0 or not g.is_connected()
                     or isinstance(mode, FamilyColorings) and _certifies_no(fam, g, cfg.k, cfg.ell))
    return _emit_solution(cfg, sol, certified)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="neartree",
        description="contract a graph to within ell extra edges of a tree",
    )
    p.add_argument("--mode", required=True,
                   choices=["exact", "rand", "exhaustive", "derand", "kernel",
                            "lift", "verify", "family"])
    p.add_argument("--k", type=int, default=0, help="contraction budget")
    p.add_argument("--ell", type=int, default=0, help="excess-edge allowance")
    p.add_argument("--alpha", type=float, default=2.0, help="lossy factor (> 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=None, help="random-mode colorings")
    p.add_argument("--in", dest="infile", default=None, help="input graph ('-' = stdin)")
    p.add_argument("--out", default=None, help="output file (witness / reduced graph / family)")
    p.add_argument("--trace", default=None, help="kernel trace file (written by kernel, read by lift)")
    p.add_argument("--family-file", default=None, help="family file to load or verify")
    p.add_argument("--witness", default=None, help="witness file for --mode verify ('-' = stdin)")
    p.add_argument("--sol", default=None, help="reduced-solution edge list for --mode lift ('-' = stdin)")
    p.add_argument("--kind", default="universal",
                   choices=["interval", "hash", "universal", "compose"],
                   help="family builder for --mode family")
    p.add_argument("--n", type=int, default=0, help="family domain size")
    p.add_argument("--q", type=int, default=0, help="family range size")
    p.add_argument("--fam-k", type=int, default=0, help="family subset size")
    return p


def main(argv: list[str] | None = None) -> int:
    cfg = RunConfig(**vars(_build_parser().parse_args(argv)))
    try:
        return run(cfg)
    except (InputError, ParseError, SizeCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a crash is an error, never a decision
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
