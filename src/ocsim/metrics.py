"""Per-interval metrics, normal-operation margins, three-phase evaluation, export."""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

PHASES = ("Normal", "Disruption", "ControlActive")
METRICS = ("convergence_ticks", "solution_quality", "message_count")
CSV_COLUMNS = ("interval", "phase", "convergence_ticks", "solution_quality",
               "message_count", "convergence_in_range", "quality_in_range",
               "messages_in_range")


class InsufficientDataError(RuntimeError):
    pass


@dataclass
class IntervalRecord:
    interval: int
    convergence_ticks: int
    solution_quality: float
    message_count: int
    phase: str

    def metric(self, name):
        return getattr(self, name)


@dataclass
class Margin:
    lower: float
    upper: float
    target: float


@dataclass
class MarginSet:
    convergence_ticks: Margin
    solution_quality: Margin
    message_count: Margin

    def metric(self, name) -> Margin:
        return getattr(self, name)


def classify_phase(interval: int, config) -> str:
    if not (0 <= interval < config.num_intervals):
        raise ValueError(f"interval {interval} out of range [0, {config.num_intervals})")
    if interval < config.incident_interval:
        return "Normal"
    if interval < config.control_interval:
        return "Disruption"
    return "ControlActive"


def compute_margins(baseline) -> MarginSet:
    """Margins from normal operation: per metric lower = min, upper = max,
    target = mean."""
    if not baseline:
        raise InsufficientDataError("empty baseline window")
    if any(r.phase != "Normal" for r in baseline):
        raise InsufficientDataError("baseline must contain Normal-phase records only")
    margins = {}
    for m in METRICS:
        vals = [r.metric(m) for r in baseline]
        margins[m] = Margin(lower=min(vals), upper=max(vals),
                            target=sum(vals) / len(vals))
    return MarginSet(**margins)


def in_range(value, margin: Margin) -> bool:
    """Strictly outside the closed interval counts as a deviation; the
    extremes that defined the margins are themselves in-range."""
    return margin.lower <= value <= margin.upper


def evaluate_run(records, margins: MarginSet) -> dict:
    """Per interval and metric: in-range flag; per phase and metric:
    out-of-range counts and fractions (split into above/below)."""
    per_interval = []
    agg = {p: {m: {"total": 0, "out": 0, "above": 0, "below": 0} for m in METRICS}
           for p in PHASES}
    for r in records:
        flags = {}
        for m in METRICS:
            margin = margins.metric(m)
            v = r.metric(m)
            ok = in_range(v, margin)
            flags[m] = ok
            a = agg[r.phase][m]
            a["total"] += 1
            if not ok:
                a["out"] += 1
                if v > margin.upper:
                    a["above"] += 1
                else:
                    a["below"] += 1
        per_interval.append({"interval": r.interval, "phase": r.phase, "in_range": flags})
    for p in PHASES:
        for m in METRICS:
            a = agg[p][m]
            a["out_fraction"] = (a["out"] / a["total"]) if a["total"] else 0.0
    return {"per_interval": per_interval, "per_phase": agg}


def _fmt(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_csv(records, evaluation, path) -> None:
    """Stable column order; byte-identical for identical runs; floats are
    written with repr so a parse-back round-trips exactly."""
    flags = {e["interval"]: e["in_range"] for e in evaluation["per_interval"]}
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in records:
            fl = flags[r.interval]
            w.writerow([_fmt(x) for x in (
                r.interval, r.phase, r.convergence_ticks, r.solution_quality,
                r.message_count,
                fl["convergence_ticks"], fl["solution_quality"], fl["message_count"])])


def export_evaluation_json(evaluation, margins, path, extra) -> None:
    doc = {"margins": asdict(margins), "evaluation": evaluation}
    doc.update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
