"""Per-module tracing from outside the program.

`Tracer` wraps public functions and methods of the `ocsim` modules with spans
(name, parent span, start, end) kept in memory in flat arrays, and a few hot
helpers with call counters only: a span on `objective`, `aggregate_of` or
`observer.project` costs more than the work it would measure. A layer's self
time is its spans' durations minus the durations of their child spans.
"""
from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from perfbench import workloads

# (module, attribute path, span name); every span is reported as
# `<name>.calls` and `<name>.self_s`
SPANS = (
    ("kernel", "Kernel.send", "kernel.send"),
    ("kernel", "Kernel.run_until", "kernel.run_until"),
    ("kernel", "export_trace_jsonl", "kernel.export_trace_jsonl"),
    ("negotiation", "run_negotiation", "negotiation.run_negotiation"),
    ("negotiation", "NegotiationAgent.handle", "negotiation.NegotiationAgent.handle"),
    ("negotiation", "NegotiationAgent.respond", "negotiation.NegotiationAgent.respond"),
    ("negotiation", "NegotiationAgent.initiate", "negotiation.NegotiationAgent.initiate"),
    ("negotiation", "decode_memory", "negotiation.decode_memory"),
    ("negotiation", "merge_memories", "negotiation.merge_memories"),
    ("negotiation", "encode_memory", "negotiation.encode_memory"),
    ("negotiation", "choose_best_schedule", "negotiation.choose_best_schedule"),
    ("attack", "tamper", "attack.tamper"),
    ("observer", "run_observer", "observer.run_observer"),
    ("observer", "run_multi_leveled", "observer.run_multi_leveled"),
    ("observer", "build_observations", "observer.build_observations"),
    ("observer", "train_statistical", "observer.train_statistical"),
    ("observer", "detect_statistical", "observer.detect_statistical"),
    ("observer", "detect_constraint", "observer.detect_constraint"),
    ("observer", "detect_traffic", "observer.detect_traffic"),
    ("observer", "scope_filter", "observer.scope_filter"),
    ("controller", "centralized_react", "controller.centralized_react"),
    ("controller", "decentralized_react", "controller.decentralized_react"),
    ("controller", "multi_leveled_react", "controller.multi_leveled_react"),
    ("topology", "build_small_world", "topology.build_small_world"),
    ("metrics", "evaluate_run", "metrics.evaluate_run"),
    ("metrics", "export_csv", "metrics.export_csv"),
    ("metrics", "export_evaluation_json", "metrics.export_evaluation_json"),
    ("plots", "emit_plots", "plots.emit_plots"),
    ("runner", "Simulation.__init__", "runner.Simulation.__init__"),
    ("runner", "run_scenario", "runner.run_scenario"),
    ("model", "generate_default_scenario", "model.generate_default_scenario"),
    ("model", "validate_scenario", "model.validate_scenario"),
    ("cli", "execute_run", "cli.execute_run"),
)

# (module, attribute path, counter name): counted, never timed
COUNTERS = (
    ("negotiation", "objective", "negotiation.objective.calls"),
    ("negotiation", "aggregate_of", "negotiation.aggregate_of.calls"),
    ("observer", "project", "observer.observations_built"),
    ("topology", "rebuild_excluding", "topology.rebuild_excluding.calls"),
    ("topology", "is_connected", "topology.is_connected.calls"),
)

MODULES = ("model", "topology", "kernel", "negotiation", "attack", "observer",
           "controller", "metrics", "plots", "runner", "cli")

# spans whose outcome is counted too: (span name, outcome counter, test on (args, result))
OUTCOMES = {
    # merge_memories returns (merged, changed)
    "negotiation.merge_memories": ("negotiation.merge.changed", lambda args, res: res[1]),
    # tamper returns its input unchanged unless it falsifies the wire view
    "attack.tamper": ("attack.tamper.falsified", lambda args, res: res is not args[0]),
}


def _ocsim_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "ocsim" or name.startswith("ocsim.")) and m is not None]


class Tracer:
    """Context manager: while active, the targets above are wrapped. A
    module-level function is replaced wherever an imported `ocsim` module
    holds it, so `from .x import f` bindings are traced too."""

    def __init__(self):
        self.names = []                  # span name table
        self.span_name = array("i")      # per span: index into names
        self.span_parent = array("i")    # per span: parent span, -1 at the top
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self._patches = []               # (owner, attribute, original)

    # --- wrapping ---

    def _spanned(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        outcome = OUTCOMES.get(name)
        stack, names_of, parents = self._stack, self.span_name, self.span_parent
        starts, ends, counts = self.span_start, self.span_end, self.counts

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names_of.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if outcome is not None and outcome[1](args, result):
                counts[outcome[0]] += 1
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module_name, path, make):
        module = sys.modules.get(f"ocsim.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            # a target the program no longer has must not read as a 0 s layer
            raise LookupError(f"ocsim.{module_name}.{path} not found in the program")
        wrapped = make(original)
        if owner_name:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        for m in _ocsim_modules():
            for name, value in list(vars(m).items()):
                if value is original:
                    self._patches.append((m, name, original))
                    setattr(m, name, wrapped)

    def __enter__(self):
        for module_name, path, name in SPANS:
            self._patch(module_name, path, lambda fn, n=name: self._spanned(n, fn))
        for module_name, path, name in COUNTERS:
            self._patch(module_name, path, lambda fn, n=name: self._counted(n, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # --- results ---

    def span_totals(self):
        """Per span name: (calls, self seconds)."""
        n = len(self.span_start)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
        return calls, self_s

    def write_spans(self, path) -> None:
        """All spans, columnar: span i is (names[name[i]], parent[i], start[i], end[i])."""
        with open(path, "w") as f:
            json.dump({"names": self.names, "name": list(self.span_name),
                       "parent": list(self.span_parent), "start": list(self.span_start),
                       "end": list(self.span_end)}, f)
            f.write("\n")


def run_totals(run):
    """The per-layer counts a run's outputs give, as a Counter to sum over runs."""
    delivered = workloads.delivered_count(run.result)
    return Counter({"kernel.delivered": delivered,
                    "kernel.suppressed": len(run.result.trace.events) - delivered,
                    "kernel.trace_bytes": run.trace_bytes,
                    "observer.reports": len(run.result.reports),
                    "controller.actions": len(run.result.actions)})


def per_layer_metrics(tracer, totals, traced_wall_s, untraced_wall_s):
    """Every per-layer metric as name -> (value, unit), and the numerator and
    denominator behind each ratio as name -> (num, den). `totals` sums
    `run_totals` over the traced runs."""
    calls, self_s = tracer.span_totals()
    counts = tracer.counts
    metrics = {}
    for _, _, name in SPANS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(module + ".")), "s")
    for _, _, name in COUNTERS:
        metrics[name] = (counts[name], "count")

    merges = calls["negotiation.merge_memories"]
    changed = counts["negotiation.merge.changed"]
    broadcasts = calls["negotiation.NegotiationAgent.respond"] + \
        calls["negotiation.NegotiationAgent.initiate"]
    falsified = counts["attack.tamper.falsified"]
    overhead = traced_wall_s - untraced_wall_s
    ratios = {
        "negotiation.merge.useful_ratio": (changed, merges),
        "negotiation.decodes_per_broadcast": (calls["negotiation.decode_memory"], broadcasts),
        "attack.tamper.falsified_ratio": (falsified, calls["attack.tamper"]),
        "observer.projections_per_event": (counts["observer.observations_built"],
                                           totals["kernel.delivered"]),
        "trace.overhead_ratio": (overhead, untraced_wall_s),
    }
    metrics.update({
        "kernel.delivered": (totals["kernel.delivered"], "count"),
        "kernel.suppressed": (totals["kernel.suppressed"], "count"),
        "kernel.trace_bytes": (totals["kernel.trace_bytes"], "B"),
        "negotiation.merge.changed": (changed, "count"),
        "negotiation.broadcasts": (broadcasts, "count"),
        "attack.tamper.falsified": (falsified, "count"),
        "observer.reports": (totals["observer.reports"], "count"),
        "controller.actions": (totals["controller.actions"], "count"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.untraced_wall_s": (untraced_wall_s, "s"),
        "trace.overhead_s": (overhead, "s"),
    })
    for name, (num, den) in ratios.items():
        metrics[name] = (num / den if den else 0.0, "ratio")
    return metrics, ratios
