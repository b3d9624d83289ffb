"""neartree benchmark: seeded workloads timed from graph text to a verified decision.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rand-2c --seed 1 --seconds 25 --trace 0

Each workload runs as a closed loop with one client in a fresh worker
interpreter (perfbench/worker.py), so caches and peak memory never carry
over between workloads or passes.  A run attempts a fixed number of
instances, whole rounds of the workload's design, as many as fill about
--seconds at the workload's rate on the machine the benchmark was built on;
so the same seed and --seconds always attempt the same instances.  The
program sees only graph text, through `neartree.harness.run`, the function
behind the CLI.  After the timed phase every yes is re-verified and every
decision is checked against a reference computed here without the code
under test (perfbench/reference.py).
Times are reported in reference seconds, rescaled by an interpreter-speed
probe taken beside each measurement (perfbench/speed.py); the text lines
also show the measured seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs an untraced pass
over half as many rounds and then a traced pass over the same instances,
checks that both reach the same decisions, and prints per-layer metrics
(per-instance means) and the tracing overhead.  The last line of stdout is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from instances import GENERATORS, KERNEL_ALPHA, ROUND, reference_decision  # noqa: E402
from speed import factor, probe, rescale  # noqa: E402

# instances per second on the machine and at the commit that defined the
# benchmark; they fix how many rounds a run attempts, never what it reports
RATE = {"rand-2c": 9.0, "exhaustive-blocks": 5.5, "derand-small": 4.4, "kernel-exact": 7.5}
# a pass stops early past this many times --seconds, so a much slower
# program still ends within the run's time limit; it then attempts fewer
DEADLINE_FACTOR = 4.0
DEADLINE_MAX_S = 110.0
# setup probes before and again after the timed phase, so one slow spell of
# the machine does not set setup_s
SETUP_REPEATS = 5
UNITS = {"decide_s.p50": "s", "decide_s.p90": "s", "decided_per_s": "1/s", "ok_share": "share",
         "yes_share": "share", "setup_s": "s", "peak_rss_mb": "MB", "tracing.p50_overhead_s": "s"}


def _child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # keep the workload process single-threaded
    return env


def measure_setup(env: dict[str, str], repeats: int) -> list[tuple[float, float]]:
    """(reference, measured) seconds from a fresh interpreter until numpy and
    neartree are imported, each rescaled by probes taken just before it."""
    cmd = [sys.executable, "-c", "import numpy, neartree, neartree.harness"]
    times = []
    for _ in range(repeats):
        speed = statistics.median(probe() for _ in range(3))
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        raw = time.perf_counter() - t0
        times.append((raw * factor(speed), raw))
    return times


def planned(workload: str, seconds: float) -> int:
    """Instances a run attempts: whole design rounds filling about `seconds`."""
    size = ROUND[workload]
    return size * max(1, round(seconds * RATE[workload] / size))


def run_pass(job: dict, tmp: str, env: dict[str, str], tag: str) -> dict:
    job_path = os.path.join(tmp, f"job-{tag}.json")
    res_path = os.path.join(tmp, f"result-{tag}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path, res_path],
                          env=env, timeout=job["deadline"] + 60)
    if proc.returncode != 0:
        raise RuntimeError(f"worker pass {tag} exited with {proc.returncode}")
    with open(res_path, encoding="utf-8") as fh:
        res = json.load(fh)
    probes = [rec[4] for rec in res["records"]]
    res["reference_seconds"] = rescale([rec[2] for rec in res["records"]], probes)
    res["speed"] = factor(statistics.median(probes))  # measured -> reference seconds
    return res


def classify(instances, res: dict) -> list[dict]:
    """Outcome per attempted instance.  A failure is an exception, an error
    exit, a yes whose witness does not verify, or a decision contradicting a
    certified reference; only the last two are wrong answers."""
    refs: dict[int, bool | None] = {}
    out = []
    for (idx, status, raw, detail, _), seconds in zip(res["records"], res["reference_seconds"]):
        ins = instances[idx]
        if idx not in refs:
            refs[idx] = reference_decision(ins)
        ref = refs[idx]
        # a random-mode "no" means nothing was found, never a certified no
        decision = "not-found" if status == "no" and ins.mode == "rand" else status
        wrong = ((status == "yes" and (detail != "ok" or ref is False))
                 or (decision == "no" and ref is True))
        out.append({"idx": idx, "decision": decision, "seconds": seconds, "raw": raw,
                    "failed": wrong or status in ("error", "crash"), "wrong": wrong,
                    "reference": ref, "detail": detail})
    return out


def quantile(sorted_xs: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def end_to_end(outcomes: list[dict], key: str = "seconds") -> dict[str, float]:
    """A failed instance counts as infinitely slow.  The closed loop's wall
    time is the sum of the instances' times: between instances it runs only
    the speed probe."""
    times = sorted(math.inf if o["failed"] else o[key] for o in outcomes)
    wall = sum(o[key] for o in outcomes)
    ok = sum(not o["failed"] for o in outcomes)
    ref_yes = [o for o in outcomes if o["reference"] is True]
    hits = sum(o["decision"] == "yes" and not o["failed"] for o in ref_yes)
    return {
        "decide_s.p50": quantile(times, 0.5),
        "decide_s.p90": quantile(times, 0.9),
        "decided_per_s": ok / wall,
        "ok_share": ok / len(outcomes),
        "yes_share": hits / len(ref_yes) if ref_yes else math.nan,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_share"):
        return "share"
    return "s/inst" if name.endswith("_s") else "count/inst"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        print("error: do not run under python -O; the solver's soundness checks are asserts",
              file=sys.stderr)
        return 2
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "neartree", "harness.py")):
        print(f"error: no neartree sources under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2

    tmp = os.path.join(root, ".perfbench_run", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        return _run(args, root, tmp)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, root: str, tmp: str) -> int:
    env = _child_env(root)
    limit = planned(args.workload, args.seconds / 2 if args.trace else args.seconds)
    deadline = min(DEADLINE_FACTOR * args.seconds, DEADLINE_MAX_S)
    instances = GENERATORS[args.workload](args.seed, limit)
    job = {
        "limit": limit,
        "deadline": deadline / 2 if args.trace else deadline,
        "trace": False,
        "tmp": tmp,
        "instances": [{"text": i.text, "k": i.k, "ell": i.ell, "mode": i.mode, "seed": i.seed,
                       "iters": i.iters, "alpha": KERNEL_ALPHA} for i in instances],
    }

    if not args.trace:
        measure_setup(env, 1)  # compiles the bytecode, which a user pays once
        setup = measure_setup(env, SETUP_REPEATS)
        res = run_pass(job, tmp, env, "timed")
        setup += measure_setup(env, SETUP_REPEATS)
        outcomes = classify(instances, res)
        metrics = end_to_end(outcomes)
        metrics["setup_s"] = statistics.median(ref for ref, _ in setup)
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        measured = dict(end_to_end(outcomes, key="raw"),
                        setup_s=statistics.median(raw for _, raw in setup))
        correct = not any(o["wrong"] for o in outcomes)
    else:
        # untraced and traced passes over the same instances, each in a fresh process
        plain = run_pass(job, tmp, env, "untraced")
        spans = os.path.join(root, ".perfbench_run", f"spans-{args.workload}-{args.seed}.json")
        traced = run_pass(dict(job, trace=True, limit=len(plain["records"]), deadline=deadline,
                               spans=spans), tmp, env, "traced")
        out_plain = classify(instances, plain)
        outcomes = classify(instances, traced)
        mismatched = [i for i, (a, b) in enumerate(zip(out_plain, outcomes))
                      if a["decision"] != b["decision"]]
        for i in mismatched[:5]:
            print(f"trace mismatch at instance {i}: untraced {out_plain[i]['decision']}, "
                  f"traced {outcomes[i]['decision']}", file=sys.stderr)
        metrics = {name: value * traced["speed"] if name.endswith("_s") else value
                   for name, value in traced["layers"].items()}
        metrics["tracing.p50_overhead_s"] = (
            end_to_end(outcomes)["decide_s.p50"] - end_to_end(out_plain)["decide_s.p50"])
        measured = {}
        correct = not mismatched and not any(o["wrong"] for o in outcomes)
        print(f"spans written to {os.path.relpath(spans, root)}")

    attempted = len(outcomes)
    failed = sum(o["failed"] for o in outcomes)
    decisions: dict[str, int] = {}
    for o in outcomes:
        decisions[o["decision"]] = decisions.get(o["decision"], 0) + 1
        if o["failed"]:
            print(f"failed: instance {o['idx']} {o['decision']} {o['detail']}", file=sys.stderr)
    if attempted < limit:
        print(f"warning: the deadline cut the run at {attempted} of {limit} instances",
              file=sys.stderr)
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:  # e.g. more than a tenth of the instances failed, so the p90 is infinite
        print(f"error: no finite value for {', '.join(bad)}", file=sys.stderr)
        return 1
    units = {name: UNITS.get(name) or _layer_unit(name) for name in metrics}
    print(f"workload {args.workload} seed {args.seed}: closed loop, one client; "
          f"{attempted} attempted, {failed} failed; decisions {decisions}")
    for name, value in metrics.items():
        extra = f"  (measured {measured[name]:.6g})" if name in measured else ""
        print(f"  {name} = {value:.6g} {units[name]}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
