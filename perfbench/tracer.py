"""Spans around the public functions of each neartree layer, recorded from outside.

`Tracer.install` replaces each traced function at every name a neartree
module binds it to: modules import with `from .x import y`, so the caller
looks the function up in its own namespace (`neartree.solver.min_shatter`,
`neartree.harness.coloring_family`), not in the defining module.  Each span
keeps its function, start, end, parent span and instance id in memory; the
spans are written out once, when the run ends.  `Graph.subgraph` and
`Graph.components` run tens of thousands of times per instance and are only
counted.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (layer, name in the defining module) for every spanned function
SPANNED = (
    ("harness", "run"),
    ("harness", "parse_graph"),
    ("solver", "solve"),
    ("solver", "solve_2connected"),
    ("solver", "monochromatic_components"),
    ("solver", "classify_component"),
    ("cvc", "min_shatter"),
    ("cvc", "min_connected_vertex_cover"),
    ("graph", "analyze_connectivity"),
    ("graph", "contract_edges"),
    ("witness", "quotient"),
    ("witness", "verify_witness"),
    ("witness", "solution_edges"),
    ("witness", "witness_from_solution"),
    ("oracle", "exact_opt"),
    ("families", "coloring_family"),
    ("families", "build_universal_greedy"),
    ("kernel", "kernelize"),
    ("kernel", "partition_hir"),
    ("kernel", "replay"),
    ("kernel", "lift_solution"),
)
COUNTED_METHODS = (("graph", "Graph", "subgraph"), ("graph", "Graph", "components"))


def _extra(name: str, args, result, tally: dict):
    """Work counts measured at the layer boundary, beside the spans."""
    if name == "cvc.min_shatter":
        tally["cvc.min_shatter.input_vertices"] += len(args[1])
    elif name == "solver.solve_2connected":
        tally["solver.solve_2connected.hits"] += result is not None
    elif name == "families.coloring_family":
        tally["families.coloring_family.functions"] += len(result)
    elif name == "kernel.kernelize":
        reduced, trace = result
        tally["kernel.kernelize.steps"] += len(trace.steps)
        tally["kernel.kernelize.reduced_n_share_sum"] += reduced.graph.n / max(1, args[0].graph.n)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.parent = array("i")
        self.inst = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counts: dict[str, int] = {}
        self.tally: dict[str, float] = {
            "cvc.min_shatter.input_vertices": 0,
            "solver.solve_2connected.hits": 0,
            "families.coloring_family.functions": 0,
            "kernel.kernelize.steps": 0,
            "kernel.kernelize.reduced_n_share_sum": 0.0,
        }
        self.instance = -1
        self._stack: list[list] = []  # [span index, child time]
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {name: m for name, m in sys.modules.items()
                if name == "neartree" or name.startswith("neartree.")}
        for layer, attr in SPANNED:
            orig = getattr(mods[f"neartree.{layer}"], attr)
            wrapped = self._span(f"{layer}.{attr}", orig)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, val))
                        setattr(m, key, wrapped)
        for layer, cls_name, attr in COUNTED_METHODS:
            cls = getattr(mods[f"neartree.{layer}"], cls_name)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._count(f"{layer}.{cls_name}.{attr}", orig))

    def uninstall(self):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    def begin_instance(self, iid: int):
        self.instance = iid
        self._stack.clear()  # a crash may have unwound past open spans

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.fid)
            tracer.fid.append(fid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.inst.append(tracer.instance)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.self_s.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if stack and stack[-1] is frame:
                    stack.pop()
                    if stack:
                        stack[-1][1] += t1 - t0
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.self_s[idx] = t1 - t0 - frame[1]
            _extra(name, args, result, tracer.tally)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------------

    def summary(self, instances: int) -> dict[str, float]:
        """Per-instance means: calls, total_s (outermost spans only) and self_s
        of every spanned function, plus the boundary counts."""
        n = max(1, instances)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        selfs = [0.0] * len(self.names)
        for i in range(len(self.fid)):
            f = self.fid[i]
            calls[f] += 1
            selfs[f] += self.self_s[i]
            p = self.parent[i]
            while p >= 0 and self.fid[p] != f:
                p = self.parent[p]
            if p < 0:
                total[f] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for f, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[f] / n
            out[f"{name}.total_s"] = total[f] / n
            out[f"{name}.self_s"] = selfs[f] / n
        for name, c in self.counts.items():
            out[f"{name}.calls"] = c / n
        t = self.tally
        fids = {name: f for f, name in enumerate(self.names)}
        s2c = calls[fids["solver.solve_2connected"]]
        kern = calls[fids["kernel.kernelize"]]
        out["cvc.min_shatter.input_vertices"] = t["cvc.min_shatter.input_vertices"] / n
        out["solver.solve_2connected.hit_share"] = (
            t["solver.solve_2connected.hits"] / s2c if s2c else 0.0)
        out["families.coloring_family.functions"] = t["families.coloring_family.functions"] / n
        out["kernel.kernelize.steps"] = t["kernel.kernelize.steps"] / n
        out["kernel.kernelize.reduced_n_share"] = (
            t["kernel.kernelize.reduced_n_share_sum"] / kern if kern else 0.0)
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "functions": self.names,
                "columns": ["function", "parent", "instance", "start", "end"],
                "function": self.fid.tolist(),
                "parent": self.parent.tolist(),
                "instance": self.inst.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            }, fh)
