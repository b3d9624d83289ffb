"""Interpreter-speed probe, so that timings do not follow the machine's slow spells.

On a shared machine the same pure-Python work runs 20-40 % faster or slower
for tens of seconds at a time, which swamps a 30-second run.  The worker
runs `probe()` (about 3 ms of the dict, set and tuple work the solver is
made of) just before every instance, outside its timing, and each timing is
rescaled to a reference speed:

    reference seconds = measured seconds * (PROBE_REF_S / median of nearby probes) ** ELASTICITY

On a machine where the probe takes PROBE_REF_S, reference and measured
seconds agree.  run.py prints the measured values beside the rescaled ones.
The program's times follow the machine's spells less steeply than the
probe's: rescaling by the full probe ratio overcorrected, and over 18
recorded runs of three workloads an exponent of 0.75 left the smallest
run-to-run spread (exhaustive-blocks decide_s.p90 over eight seeds: 0.14
at 1, 0.08 at 0.75).  The factor depends only on the machine, so a change
in the program's own speed still shows in full.
"""

from __future__ import annotations

import statistics
import time

PROBE_REF_S = 0.003
PROBE_WINDOW = 2  # probes on each side of an instance that set its speed
ELASTICITY = 0.75


def probe() -> float:
    t0 = time.perf_counter()
    table: dict[int, frozenset[int]] = {}
    acc = 0
    for i in range(4000):
        s = frozenset((i, i + 1, i + 2))
        table[i & 255] = s
        acc += len(s & table.get((i + 1) & 255, s))
    return time.perf_counter() - t0


def factor(probe_s: float) -> float:
    """Measured seconds -> reference seconds, at a speed where the probe took probe_s."""
    return (PROBE_REF_S / probe_s) ** ELASTICITY


def rescale(seconds: list[float], probes: list[float]) -> list[float]:
    """Reference seconds for each timing; probes[i] ran just before seconds[i]."""
    out = []
    for i, s in enumerate(seconds):
        near = probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        out.append(s * factor(statistics.median(near)))
    return out
