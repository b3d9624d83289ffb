"""One closed-loop pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

One client: each instance starts only after the previous one is decided.
The speed probe of perfbench/speed.py runs just before each instance,
outside its timing.
Every instance goes through `neartree.harness.run` exactly as the CLI
would, with the graph text on stdin and outputs in files.  A pass attempts
the first `limit` instances; it stops early only once `deadline` seconds
have passed, a guard that keeps a much slower program within the run's
time limit.  After the timed phase the worker re-verifies every yes with
`verify_witness` and writes one record per attempted instance.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

if sys.flags.optimize:
    sys.exit("worker: refusing to run under python -O; the solver's soundness checks are asserts")

from neartree import harness
from neartree.harness import RunConfig, parse_edge_set, parse_graph, parse_witness
from neartree.witness import verify_witness, witness_from_solution
from speed import probe


def _call(cfg: RunConfig, stdin_text: str | None) -> tuple[int, str]:
    """Run one CLI invocation in-process; returns (exit code, stdout)."""
    sys.stdin = io.StringIO(stdin_text or "")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = harness.run(cfg)  # looked up on the module, so a traced run sees its span
    return rc, out.getvalue()


def _field(line: str, key: str) -> str | None:
    for tok in line.split():
        if tok.startswith(key + "="):
            return tok[len(key) + 1:]
    return None


def _solve_one(ins: dict, tmp: str) -> tuple[str, str]:
    """Decide one instance the way a CLI user would.  Returns (status, output):
    status is "yes", "no", "error" or "crash"; output is the witness (bags) or
    the lifted edge set to re-verify."""
    k, ell = ins["k"], ins["ell"]
    out = os.path.join(tmp, "out.txt")
    if ins["mode"] != "kernel":
        cfg = RunConfig(mode=ins["mode"], k=k, ell=ell, seed=ins["seed"],
                        iters=ins["iters"], infile="-", out=out)
        rc, _ = _call(cfg, ins["text"])
        if rc == 0:
            with open(out, encoding="utf-8") as fh:
                return "yes", fh.read()
        return ("no", "") if rc == 1 else ("error", f"exit {rc}")

    # kernel -> exact on the written reduced graph -> lift -> verify (inside lift)
    red, trace, sol = (os.path.join(tmp, f) for f in ("reduced.graph", "trace.txt", "sol.txt"))
    rc, line = _call(RunConfig(mode="kernel", k=k, ell=ell, alpha=ins["alpha"], infile="-",
                               out=red, trace=trace), ins["text"])
    if rc != 0:
        return ("no", "") if rc == 1 else ("error", f"kernel exit {rc}")
    if _field(line, "resolved") == "yes":
        edges = ""
    else:
        rc, line = _call(RunConfig(mode="exact", k=int(_field(line, "reduced_k")), ell=ell,
                                   infile=red), None)
        if rc != 0:
            return ("no", "") if rc == 1 else ("error", f"exact exit {rc}")
        listing = _field(line, "edges")
        edges = "" if listing == "none" else "".join(
            f"e {p.replace('-', ' ')}\n" for p in listing.split(","))
    with open(sol, "w", encoding="utf-8") as fh:
        fh.write(edges)
    rc, _ = _call(RunConfig(mode="lift", infile="-", trace=trace, sol=sol, out=out), ins["text"])
    if rc == 0:
        with open(out, encoding="utf-8") as fh:
            return "yes", fh.read()
    return ("error", "lifted solution does not verify") if rc == 1 else ("error", f"lift exit {rc}")


def _verify(ins: dict, output: str) -> str:
    """Re-check a yes outside the timed phase; returns "ok" or a reason."""
    try:
        g = parse_graph(ins["text"])
        if ins["mode"] == "kernel":
            w = witness_from_solution(g, parse_edge_set(output))
        else:
            w = parse_witness(output)
        check = verify_witness(g, w, ins["ell"], ins["k"])
    except Exception as exc:  # a malformed output is a failed check, not a crash of the benchmark
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return "ok" if check.valid else check.reason


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    instances, tmp = job["instances"], job["tmp"]
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    records = []  # [index into instances, status, seconds, detail, probe seconds]
    outputs = []
    limit, deadline = job["limit"], job["deadline"]
    clock = time.perf_counter
    start = clock()
    i = 0
    while i < limit and clock() - start < deadline:
        idx = i % len(instances)
        ins = instances[idx]
        speed = probe()
        if tracer is not None:
            tracer.begin_instance(i)
        t0 = clock()
        try:
            status, output = _solve_one(ins, tmp)
        except Exception as exc:  # detected by exception, never by exit code
            status, output = "crash", f"{type(exc).__name__}: {str(exc)[:200]}"
        records.append([idx, status, clock() - t0, "", speed])
        outputs.append(output)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary(len(records))
        tracer.write_spans(job["spans"])

    for rec, output in zip(records, outputs):
        if rec[1] == "yes":
            rec[3] = _verify(instances[rec[0]], output)
        elif rec[1] in ("error", "crash"):
            rec[3] = output

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"records": records, "peak_rss_mb": peak_rss_mb,
                   "layers": layers}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
