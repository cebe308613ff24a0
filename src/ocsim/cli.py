"""Experiment orchestration CLI: run one scenario, sweep the architecture
matrix, compare completed runs.

Exit codes: 0 success, 2 validation/usage failure, 3 runtime fault. The
subcommands raise, and `main` alone maps a fault to its code: a
`model.ScenarioError` to one `violation:` line per problem and 2, any other
exception to one `runtime fault:` line and 3 (`compare` prints its own
`refused:` lines). A validated scenario never ends in `DegradedSystemError`
(see README).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import sys

from . import metrics as met
from . import model
from .controller import action_record
from .kernel import DEFAULT_TICK_CAP, export_trace_jsonl
from .observer import report_record
from .plots import emit_plots
from .runner import run_scenario

ARCH_FIELDS = ("observer_arch", "info_level", "controller_arch")


def config_hashes(config: model.ScenarioConfig):
    d = model.scenario_to_dict(config)
    full = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    base_d = {k: v for k, v in d.items() if k not in ARCH_FIELDS}
    base = hashlib.sha256(json.dumps(base_d, sort_keys=True).encode()).hexdigest()
    return full, base


def _output_root(args_out):
    return args_out or os.environ.get("OCSIM_OUTPUT_ROOT", "runs")


def execute_run(config, out_dir, scenario_path="", tick_cap=DEFAULT_TICK_CAP, run_id=None):
    """Run a scenario, then write the five run artifacts: trace, records
    CSV, evaluation JSON, plots directory, manifest. Returns the manifest
    and the run's `RunResult`. A run that raises (`model.ScenarioError` for
    a scenario that cannot run) writes nothing."""
    result = run_scenario(config, tick_cap=tick_cap)
    os.makedirs(out_dir, exist_ok=True)
    export_trace_jsonl(result.trace, os.path.join(out_dir, "trace.jsonl"))
    met.export_csv(result.records, result.evaluation, os.path.join(out_dir, "records.csv"))
    extra = {
        "reports": [report_record(r) for r in result.reports],
        "actions": [action_record(a) for a in result.actions],
        "blacklist": sorted(result.blacklist),
        "gossip_completion_tick": result.gossip_completion_tick,
        "control_tick": result.control_tick,
    }
    met.export_evaluation_json(result.evaluation, result.margins,
                               os.path.join(out_dir, "evaluation.json"), extra=extra)
    emit_plots(result.records, result.margins, os.path.join(out_dir, "plots"),
               incident=config.incident_interval, control=config.control_interval)
    full_hash, base_hash = config_hashes(config)
    run_id = run_id or f"{config.seed}-{config.observer_arch}-L{config.info_level}-{config.controller_arch}"
    manifest = {"run_id": run_id, "scenario_path": str(scenario_path),
                "config_hash": full_hash, "base_hash": base_hash,
                "output_dir": str(out_dir), "status": "completed"}
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest, result


def _load_scenario(args):
    """The scenario of `args.scenario` with `--seed` applied. Raises
    `model.ScenarioError` listing each reason it cannot be loaded or
    `--tick-cap` cannot run; whether the scenario can run is the run's check."""
    violations = []
    if args.tick_cap < 1:
        violations.append(f"--tick-cap {args.tick_cap}: must be >= 1")
    try:
        config = model.load_scenario(args.scenario)
    except model.ScenarioError as exc:
        violations += exc.violations
    except (OSError, ValueError, RecursionError) as exc:  # json nests by recursion
        violations.append(f"cannot load {args.scenario}: {exc}")
    if violations:
        raise model.ScenarioError(violations)
    if args.seed is not None:
        config.seed = args.seed
    return config


def cmd_run(args) -> int:
    config = _load_scenario(args)
    out_dir = _output_root(args.out)
    manifest, _ = execute_run(config, out_dir, scenario_path=args.scenario,
                              tick_cap=args.tick_cap)
    print(f"run {manifest['run_id']} completed -> {out_dir}")
    return 0


def _parse_list(value, cast=str):
    """The distinct values of a comma-separated list, in order of first mention."""
    return list(dict.fromkeys(cast(x) for x in value.split(",") if x)) if value else []


def cmd_sweep(args) -> int:
    base = _load_scenario(args)
    observers = _parse_list(args.observer) or [base.observer_arch]
    try:
        levels = _parse_list(args.level, int) or [base.info_level]
    except ValueError as exc:
        raise model.ScenarioError([f"--level {args.level!r}: {exc}"]) from exc
    controllers = _parse_list(args.controller) or [base.controller_arch]
    # the cells share the base's parts: a run never mutates its config
    cells = [dataclasses.replace(base, observer_arch=ob, info_level=lv, controller_arch=ct)
             for ob, lv, ct in itertools.product(observers, levels, controllers)]
    # every cell is checked before any runs; a violation of the base shows
    # in every cell, and is listed once however many cells share it
    violations = {}
    for cell in cells:
        violations.update(dict.fromkeys(model.validate_scenario(cell)))
    if violations:
        raise model.ScenarioError(list(violations))
    out_root = _output_root(args.out)
    os.makedirs(out_root, exist_ok=True)
    compromised = {a.agent_id for a in base.agents if a.is_compromised}
    summary = []
    for cell in cells:
        ob, lv, ct = cell.observer_arch, cell.info_level, cell.controller_arch
        cell_id = f"{ob}-L{lv}-{ct}"
        cell_dir = os.path.join(out_root, cell_id)
        row = {"cell": cell_id, "observer": ob, "level": lv, "controller": ct}
        try:
            manifest, result = execute_run(cell, cell_dir, scenario_path=args.scenario,
                                           tick_cap=args.tick_cap, run_id=cell_id)
            row["status"] = manifest["status"]
            row["detected"] = any(r.suspect in compromised for r in result.reports)
            per_phase = result.evaluation["per_phase"]
            for phase in met.PHASES:
                for m in met.METRICS:
                    row[f"{phase}.{m}.out_fraction"] = per_phase[phase][m]["out_fraction"]
        except Exception as exc:
            row["status"] = f"failed: {exc}"
            row["detected"] = ""
        summary.append(row)
    columns = ["cell", "observer", "level", "controller", "status", "detected"]
    columns += [f"{p}.{m}.out_fraction" for p in met.PHASES for m in met.METRICS]
    summary_path = os.path.join(out_root, "summary.csv")
    with open(summary_path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([str(row.get(c, "")) for c in columns] for row in summary)
    print(f"sweep: {len(summary)} cells -> {summary_path}")
    for row in summary:
        print(f"  {row['cell']}: status={row['status']} detected={row['detected']}")
    return 0


def _load_run(d):
    """(manifest, evaluation, cells) of run dir `d`, where `cells` maps each
    (phase, metric) to its (out, total, above). Raises OSError if a file
    cannot be read, and ValueError, LookupError, TypeError or RecursionError
    (json nests by recursion) if one is not JSON or lacks a field that
    compare reads."""
    with open(os.path.join(d, "manifest.json")) as f:
        manifest = json.load(f)
    with open(os.path.join(d, "evaluation.json")) as f:
        evaluation = json.load(f)["evaluation"]
    if not (isinstance(manifest, dict)
            and all(isinstance(manifest.get(k), str) for k in ("run_id", "status", "base_hash"))):
        raise ValueError("manifest.json needs the strings run_id, status and base_hash")
    cells = {}
    for phase in met.PHASES:
        for m in met.METRICS:
            a = evaluation["per_phase"][phase][m]
            cells[phase, m] = (a["out"], a["total"], a["above"])
    return manifest, evaluation, cells


def cmd_compare(args) -> int:
    runs = []
    for d in args.run_dirs:
        try:
            manifest, evaluation, cells = _load_run(d)
        except OSError as exc:
            print(f"refused: cannot read run dir {d}: {exc}", file=sys.stderr)
            return 2
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            print(f"refused: run dir {d} has a malformed or incomplete manifest.json or "
                  f"evaluation.json: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        runs.append((d, manifest, evaluation, cells))
    if len(runs) < 2:
        print("refused: need at least 2 run dirs", file=sys.stderr)
        return 2
    for d, manifest, _, _ in runs:
        if manifest["status"] != "completed":
            print(f"refused: run {d} is not completed", file=sys.stderr)
            return 2
    base_hashes = {m["base_hash"] for _, m, _, _ in runs}
    if len(base_hashes) != 1:
        print("refused: runs have different base scenarios (only architecture "
              "fields may differ)", file=sys.stderr)
        return 2
    print(f"comparison of {len(runs)} runs (shared base {base_hashes.pop()[:12]}):")
    for phase in met.PHASES:
        print(f"  phase {phase}:")
        for m in met.METRICS:
            line = []
            for _, manifest, _, cells in runs:
                out, total, above = cells[phase, m]
                line.append(f"{manifest['run_id']}: out={out}/{total} (above={above})")
            print(f"    {m}: " + " | ".join(line))
    identical = len({json.dumps(ev, sort_keys=True) for _, _, ev, _ in runs}) == 1
    print("no differences" if identical else "runs differ (see table above)")
    return 0


def cmd_init(args) -> int:
    if args.agents < model.MIN_AGENTS:
        raise model.ScenarioError([f"--agents {args.agents}: must be >= {model.MIN_AGENTS}"])
    config = model.generate_default_scenario(args.seed, args.agents)
    if args.controller:
        config.controller_arch = args.controller
    violations = model.validate_scenario(config)
    if violations:
        raise model.ScenarioError(violations)
    model.save_scenario(config, args.scenario)
    print(f"wrote default scenario ({args.agents} agents, seed {args.seed}) -> {args.scenario}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ocsim",
                                     description="Agent-based energy community simulator with "
                                                 "observer/controller robustness architectures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tick-cap", type=int, default=DEFAULT_TICK_CAP)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run the observer x level x controller matrix")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--observer", default="")
    p.add_argument("--level", default="")
    p.add_argument("--controller", default="")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tick-cap", type=int, default=DEFAULT_TICK_CAP)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="compare completed runs sharing a base scenario")
    p.add_argument("run_dirs", nargs="+")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("init", help="write a default scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--agents", type=int, default=8)
    p.add_argument("--controller", default="")
    p.set_defaults(func=cmd_init)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except model.ScenarioError as exc:
        for v in exc.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime fault contract
        print(f"runtime fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
