"""ocsim benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 15 --trace 0

Untraced (`--trace 0`): run whole cycles of generated inputs until `--seconds`
of run time have passed, and once more the first input, whose output digest
must match the first run's. Between the runs, set up the workload's scenario
in fresh interpreters (setup_s). Every run's outputs are checked. Prints one line
per metric, then the end-to-end metrics as the last line, in JSON.

Traced (`--trace 1`): run one cycle of inputs untraced, traced (every
module's public functions wrapped in spans) and untraced again; print the
per-module metrics and write the spans to `.perfbench-out/`. Counts repeat
exactly for a seed.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer as tracer_mod, workloads  # noqa: E402

SETUP_REPEATS = 25

END_TO_END_UNITS = {"setup_s": "s", "run_s.p50": "s", "interval_ms.p50": "ms",
                    "interval_ms.tail": "ms", "events_per_s": "1/s", "peak_rss_mb": "MB"}


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def setup_time(w, seed, index):
    """Host seconds of import + scenario generation + Simulation.__init__ for
    the workload's input `index`, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-m", "perfbench.probe_setup", w.to_json(), str(seed), str(index)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Attempted and failed runs, with the reasons of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label, problems):
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"{label}: {p}" for p in problems)


def _attempt(w, seed, index, workdir, tally, label, want_digest=False, expect_digest=None):
    """One checked run: returns (run, host seconds of scenario generation plus
    run), or (None, None) when it raised. With `expect_digest`, a run whose
    output digest differs fails."""
    try:
        t0 = perf_counter()
        config = workloads.make_config(w, seed, index)
        run = workloads.execute(w, config, workdir, want_digest or expect_digest is not None)
        elapsed = perf_counter() - t0 - run.digest_s
    except Exception as exc:  # a run that raises is a failed run, not a crash
        tally.record(label, [f"{type(exc).__name__}: {exc}"])
        return None, None
    problems = workloads.check(w, config, run.result)
    if expect_digest is not None and run.digest != expect_digest:
        problems.append(f"output digest {run.digest} != {expect_digest}")
    tally.record(label, problems)
    return run, elapsed


def measure(w, seed, seconds, workdir, setup_repeats=SETUP_REPEATS):
    """The untraced measurement: returns (metrics, tally, digest, notes).
    The set-ups are spread evenly over the fewest runs a measurement makes,
    so that their median sees the same drift of machine speed as the runs."""
    tally = Tally()
    setup, walls, intervals, delivered = [], [], [], []
    run_s = 0.0
    fewest_runs = w.min_cycles * len(w.cycle) + 1

    def set_up(count):
        while len(setup) < count:
            setup.append(setup_time(w, seed, len(setup)))

    def attempt(index, label, **digest_args):
        """Run and keep the samples; returns the digest, if any."""
        nonlocal run_s
        set_up(math.ceil(setup_repeats * min(1.0, tally.attempted / fewest_runs)))
        t0 = perf_counter()
        run, _ = _attempt(w, seed, index, workdir, tally, label, **digest_args)
        run_s += perf_counter() - t0
        if run is None:
            return None
        walls.append(run.wall_s)
        intervals.extend(run.intervals_ms)
        delivered.append(workloads.delivered_count(run.result))
        digest = run.digest
        del run
        gc.collect()
        return digest

    index = 0
    for cycle in itertools.count(1):
        for _ in w.cycle:
            digest = attempt(index, f"input {index}", want_digest=index == 0)
            if index == 0:
                first_digest = digest
            index += 1
        if cycle >= w.min_cycles and run_s >= seconds:
            break
    attempt(0, "input 0 repeated", expect_digest=first_digest)
    set_up(setup_repeats)
    if not walls:
        raise SystemExit("every run raised: " + "; ".join(tally.failures))

    tail, beyond = percentile(intervals, w.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s.p50": statistics.median(walls),
        "interval_ms.p50": statistics.median(intervals),
        "interval_ms.tail": tail,
        "events_per_s": sum(delivered) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups in fresh interpreters between the runs",
        "run_s.p50": f"median of {len(walls)} runs",
        "interval_ms.p50": f"median of {len(intervals)} intervals",
        "interval_ms.tail": f"p{w.tail_pct:g}, {beyond} of {len(intervals)} intervals beyond it",
        "events_per_s": f"{sum(delivered)} delivered / {sum(walls):.3f} s",
        "peak_rss_mb": "ru_maxrss of this interpreter",
    }
    return metrics, tally, first_digest, notes


def traced(w, seed, workdir, spans_path=None):
    """One cycle of inputs untraced, traced, and untraced again: returns
    (metrics, ratios, tally, tracer, digests). Each pass's wall covers
    scenario generation and the runs; the untraced wall is the faster of the
    two untraced passes. Every input's digest must agree across the passes."""
    tally = Tally()
    tracer = tracer_mod.Tracer()
    digests = [None] * len(w.cycle)
    untraced_walls, traced_wall = [], None
    totals = Counter()
    for active in (False, True, False):
        label, wall = "traced" if active else "untraced", 0.0
        with tracer if active else contextlib.nullcontext():
            for index in range(len(w.cycle)):
                run, elapsed = _attempt(w, seed, index, workdir, tally,
                                        f"{label} input {index}",
                                        want_digest=True, expect_digest=digests[index])
                if run is None:
                    raise SystemExit(f"{label} run raised: " + "; ".join(tally.failures))
                digests[index] = run.digest
                wall += elapsed
                if active:
                    totals += tracer_mod.run_totals(run)
                del run
                gc.collect()
        if active:
            traced_wall = wall
        else:
            untraced_walls.append(wall)
    metrics, ratios = tracer_mod.per_layer_metrics(tracer, totals, traced_wall,
                                                   min(untraced_walls))
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return metrics, ratios, tally, tracer, digests


def result_line(metrics, units, tally):
    return json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]

    out_root = ROOT / ".perfbench-out"
    out_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_root, prefix="work-")
    try:
        if args.trace:
            spans_path = out_root / f"spans-{w.name}-seed{args.seed}.json"
            metrics, ratios, tally, tracer, digests = traced(w, args.seed, workdir, spans_path)
            print(f"workload {w.name} seed {args.seed}: traced run of inputs 0-{len(digests) - 1}, "
                  f"spans -> {spans_path.relative_to(ROOT)}")
            for index, digest in enumerate(digests):
                print(f"  input {index} digest {digest}")
            wall = metrics["trace.wall_s"][0]
            for module in tracer_mod.MODULES:
                s = metrics[f"{module}.self_s"][0]
                print(f"  module {module:<12} self {s:9.4f} s  {100 * s / wall:5.1f}% of traced wall")
            for name, (value, unit) in metrics.items():
                extra = f"  ({ratios[name][0]:g} / {ratios[name][1]:g})" if name in ratios else ""
                print(f"  {name:<46} {value:.6g} {unit}{extra}")
            values = {name: v for name, (v, _) in metrics.items()}
            units = {name: u for name, (_, u) in metrics.items()}
        else:
            values, tally, digest, notes = measure(w, args.seed, args.seconds, workdir)
            units = END_TO_END_UNITS
            print(f"workload {w.name} seed {args.seed}: input 0 digest {digest}")
            for name, value in values.items():
                print(f"  {name:<17} {value:12.6g} {units[name]:<4}  {notes[name]}")
            print(f"  {'failed_ratio':<17} {tally.failed / tally.attempted:12.6g} ratio  "
                  f"{tally.failed} of {tally.attempted} runs failed")
        for failure in tally.failures:
            print(f"  FAILED {failure}")
        print(result_line(values, units, tally))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
