"""Spans and counts at the boundaries of meaf's modules, for traced runs.

A traced run replaces public functions in meaf's module namespaces with
wrappers that record a span (name, start, end, parent, phase) around
each call, plus counts taken from the arguments or the result.  The
program looks these names up at call time (bench.sweep_capacity calls
bench.dtas, exact_solve calls solvers.build_network and
_kernels.dinic_kernel), so the wrappers also see the calls the package
makes internally.  Spans stay in memory until the run ends.

A phase is ("setup", k) or ("round", k).  A layer metric is the median,
over the phases of the kind in which the layer ran, of its per-phase
total; a layer that never ran reads 0.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("synth.generate_s", "s"),
    ("model.write_instance_s", "s"),
    ("model.instance_bytes", "bytes"),
    ("model.read_instance_s", "s"),
    ("heuristics.dtas_s", "s"),
    ("heuristics.flow_rows", "count"),
    ("model.verify_s", "s"),
    ("model.write_allocation_s", "s"),
    ("model.allocation_bytes", "bytes"),
    ("heuristics.carl_asc_s", "s"),
    ("model.with_capacities_s", "s"),
    ("bench.inverse_gini_s", "s"),
    ("bench.tail_drop_s", "s"),
    ("solvers.exact_s", "s"),
    ("solvers.exact_self_s", "s"),
    ("solvers.lp_lower_bound_s", "s"),
    ("flowcore.max_flow_calls", "count"),
    ("flowcore.max_flow_s", "s"),
    ("flowcore.build_network_s", "s"),
    ("flowcore.min_cost_flow_s", "s"),
    ("flowcore.cost_bits", "count"),
]

# counts that report the largest value seen in a phase instead of a total
_MAX_COUNTS = {"flowcore.cost_bits"}


def _file_bytes(name):
    # write_instance / write_allocation take (object, path)
    return lambda result, args: [(name, os.path.getsize(args[1]))]


class NullTracer:
    """Untraced runs: no wrappers, no spans."""

    phase = ("warmup", 0)

    def install(self, meaf_modules) -> None:
        pass

    def uninstall(self) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict = defaultdict(int)  # (name, phase) -> value
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.phase = ("warmup", 0)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.phase])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for cname, value in count(result, args):
                    key = (cname, self.phase)
                    if cname in _MAX_COUNTS:
                        counts[key] = max(counts[key], value)
                    else:
                        counts[key] += value
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self, meaf_modules) -> None:
        _kernels, bench, heuristics, model, solvers, synth = meaf_modules
        flow_rows = lambda res, args: [("heuristics.flow_rows", int(res.allocation.flow_user.size))]
        cost_bits = lambda net, args: (
            [("flowcore.cost_bits", int(net.cost_den).bit_length())] if net.arc_cost is not None else []
        )
        self.wrap(synth, "generate", "synth.generate")
        self.wrap(model, "write_instance", "model.write_instance",
                  _file_bytes("model.instance_bytes"))
        self.wrap(model, "read_instance", "model.read_instance")
        self.wrap(model, "verify_allocation", "model.verify")
        self.wrap(model, "write_allocation", "model.write_allocation",
                  _file_bytes("model.allocation_bytes"))
        self.wrap(model.Instance, "with_capacities", "model.with_capacities")
        # bench imported dtas by name, so its binding is wrapped separately
        self.wrap(heuristics, "dtas", "heuristics.dtas", flow_rows)
        self.wrap(bench, "dtas", "heuristics.dtas", flow_rows)
        self.wrap(heuristics, "carl", "heuristics.carl_asc")
        self.wrap(bench, "inverse_gini", "bench.inverse_gini")
        self.wrap(bench, "tail_drop_eval", "bench.tail_drop")
        self.wrap(solvers, "exact_solve", "solvers.exact")
        self.wrap(solvers, "lp_lower_bound", "solvers.lp_lower_bound")
        self.wrap(solvers, "build_network", "flowcore.build_network", cost_bits)
        self.wrap(solvers, "min_cost_max_flow", "flowcore.min_cost_flow")
        self.wrap(_kernels, "dinic_kernel", "flowcore.max_flow",
                  lambda res, args: [("flowcore.max_flow_calls", 1)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self, phases) -> dict:
        """Per-layer values as {name: {"value", "unit"}} over the given phases."""
        per: dict = defaultdict(lambda: defaultdict(int))
        child = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            per[name + "_s"][phase] += end - start
            per[name + "_self_s"][phase] += end - start - child[i]
        for (name, phase), value in self.counts.items():
            per[name][phase] += value
        out = {}
        for name, unit in LAYER_METRICS:
            by_phase = per.get(name, {})
            kinds = {phase[0] for phase in by_phase}
            values = [by_phase.get(p, 0) for p in phases if p[0] in kinds]
            value = statistics.median(values) if values else 0
            if unit != "s" and value == int(value):
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "phase"], "spans": self.spans},
                fh,
            )
