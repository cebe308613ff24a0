"""The benchmark's own tests, on tiny versions of its workloads."""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], n_agents=8, num_intervals=12,
                               incident_interval=6, control_interval=9, min_cycles=1)


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    w = tiny("sweep-default")
    return [bench.traced(w, 3, tmp_path_factory.mktemp("work")) for _ in range(2)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(name, tmp_path):
    values, tally, digest, _ = bench.measure(tiny(name), 1, 0, tmp_path, setup_repeats=3)
    line = json.loads(bench.result_line(values, bench.END_TO_END_UNITS, tally))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == len(tiny(name).cycle) + 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert len(digest) == 64


def test_traced_run_prints_every_per_layer_metric_with_its_unit(traced_twice):
    metrics, _, tally, _, _ = traced_twice[0]
    line = json.loads(bench.result_line({k: v for k, (v, _) in metrics.items()},
                                        {k: u for k, (_, u) in metrics.items()}, tally))
    assert line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_module_self_times_sum_to_at_most_the_traced_wall(traced_twice):
    metrics = traced_twice[0][0]
    total = sum(metrics[f"{m}.self_s"][0] for m in bench.tracer_mod.MODULES)
    assert 0 < total <= metrics["trace.wall_s"][0]


def test_traced_counts_repeat_exactly(traced_twice):
    (first, *_), (second, *_) = traced_twice
    counts = [k for k, (_, unit) in first.items() if unit in ("count", "B")]
    assert counts and {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_traced_and_untraced_digests_match(traced_twice, tmp_path):
    _, _, tally, tracer, digests = traced_twice[0]
    # traced() fails any run whose digest differs from the untraced pass
    assert tally.attempted == 3 * len(digests) and not tally.failures
    untraced = bench._attempt(tiny("sweep-default"), 3, 0, tmp_path, bench.Tally(),
                              "again", want_digest=True)[0]
    assert untraced.digest == digests[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tail_percentile_has_ten_intervals_beyond_it_at_the_fewest_runs(name):
    w = workloads.WORKLOADS[name]
    fewest_runs = w.min_cycles * len(w.cycle) + 1
    assert bench.percentile([0.0] * (fewest_runs * w.num_intervals), w.tail_pct)[1] >= 10


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "scale-32",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_target_the_program_lacks_is_an_error(monkeypatch):
    monkeypatch.setattr(bench.tracer_mod, "SPANS",
                        (("kernel", "Kernel.no_such_method", "kernel.no_such_method"),))
    with pytest.raises(LookupError, match="Kernel.no_such_method"):
        with bench.tracer_mod.Tracer():
            pass
