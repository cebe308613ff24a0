import csv

import pytest
from hypothesis import given, strategies as st

from ocsim import metrics as met
from ocsim.metrics import (InsufficientDataError, IntervalRecord, Margin,
                           classify_phase, compute_margins, evaluate_run,
                           in_range)


def _record(interval, phase, ticks=100, quality=0.0, messages=50):
    return IntervalRecord(interval=interval, convergence_ticks=ticks,
                          solution_quality=quality, message_count=messages,
                          phase=phase)


# --- phase classification ---

def test_phase_boundaries_follow_the_config(scenario):
    assert classify_phase(0, scenario) == "Normal"
    assert classify_phase(scenario.incident_interval - 1, scenario) == "Normal"
    assert classify_phase(scenario.incident_interval, scenario) == "Disruption"
    assert classify_phase(scenario.control_interval - 1, scenario) == "Disruption"
    assert classify_phase(scenario.control_interval, scenario) == "ControlActive"
    assert classify_phase(scenario.num_intervals - 1, scenario) == "ControlActive"


def test_phase_rejects_out_of_range_intervals(scenario):
    with pytest.raises(ValueError):
        classify_phase(-1, scenario)
    with pytest.raises(ValueError):
        classify_phase(scenario.num_intervals, scenario)


# --- margins ---

def test_margins_are_min_max_with_mean_target():
    baseline = [_record(i, "Normal", ticks=t, quality=q, messages=m)
                for i, (t, q, m) in enumerate([(90, 0.0, 40), (110, 2.0, 60),
                                               (100, 1.0, 50)])]
    margins = compute_margins(baseline)
    assert (margins.convergence_ticks.lower, margins.convergence_ticks.upper,
            margins.convergence_ticks.target) == (90, 110, 100)
    assert (margins.solution_quality.lower, margins.solution_quality.upper,
            margins.solution_quality.target) == (0.0, 2.0, 1.0)
    assert (margins.message_count.lower, margins.message_count.upper,
            margins.message_count.target) == (40, 60, 50)


def test_margins_require_normal_phase_baseline():
    with pytest.raises(InsufficientDataError):
        compute_margins([])
    with pytest.raises(InsufficientDataError):
        compute_margins([_record(25, "Disruption")])


@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=1, max_size=30))
def test_margin_extremes_are_themselves_in_range(values):
    baseline = [_record(i, "Normal", quality=v) for i, v in enumerate(values)]
    margin = compute_margins(baseline).solution_quality
    assert all(in_range(v, margin) for v in values)


def test_in_range_is_a_closed_interval():
    margin = Margin(lower=1.0, upper=3.0, target=2.0)
    assert in_range(1.0, margin) and in_range(3.0, margin)
    assert not in_range(0.999, margin) and not in_range(3.001, margin)


# --- evaluation ---

def test_evaluation_splits_deviations_above_and_below():
    baseline = [_record(i, "Normal", quality=float(i)) for i in range(3)]
    margins = compute_margins(baseline)  # quality margin [0, 2]
    records = baseline + [_record(20, "Disruption", quality=9.0),
                          _record(21, "Disruption", quality=-1.0),
                          _record(40, "ControlActive", quality=1.0)]
    ev = evaluate_run(records, margins)
    disruption = ev["per_phase"]["Disruption"]["solution_quality"]
    assert disruption == {"total": 2, "out": 2, "above": 1, "below": 1,
                          "out_fraction": 1.0}
    assert ev["per_phase"]["Normal"]["solution_quality"]["out"] == 0
    assert ev["per_phase"]["ControlActive"]["solution_quality"]["out"] == 0
    flagged = {e["interval"]: e["in_range"]["solution_quality"]
               for e in ev["per_interval"]}
    assert flagged[20] is False and flagged[40] is True


def test_empty_phase_has_zero_out_fraction():
    baseline = [_record(i, "Normal") for i in range(3)]
    ev = evaluate_run(baseline, compute_margins(baseline))
    assert ev["per_phase"]["Disruption"]["solution_quality"]["out_fraction"] == 0.0


# --- export ---

def _parse_csv(path):
    with open(path) as f:
        return [IntervalRecord(interval=int(row["interval"]), phase=row["phase"],
                               convergence_ticks=int(row["convergence_ticks"]),
                               solution_quality=float(row["solution_quality"]),
                               message_count=int(row["message_count"]))
                for row in csv.DictReader(f)]


def test_csv_round_trip_is_exact(tmp_path):
    records = [_record(0, "Normal", ticks=96, quality=0.1 + 0.2, messages=41),
               _record(1, "Normal", ticks=108, quality=0.0, messages=47)]
    margins = compute_margins(records)
    path = tmp_path / "records.csv"
    met.export_csv(records, evaluate_run(records, margins), path)
    back = _parse_csv(path)
    assert back == records  # repr floats round-trip exactly


def test_csv_export_is_byte_stable(tmp_path):
    records = [_record(i, "Normal", quality=i * 0.3) for i in range(5)]
    ev = evaluate_run(records, compute_margins(records))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    met.export_csv(records, ev, a)
    met.export_csv(records, ev, b)
    assert a.read_bytes() == b.read_bytes()


def test_evaluation_json_includes_margins_and_extras(tmp_path):
    records = [_record(i, "Normal") for i in range(3)]
    margins = compute_margins(records)
    path = tmp_path / "evaluation.json"
    met.export_evaluation_json(evaluate_run(records, margins), margins, path,
                               extra={"blacklist": ["a03"]})
    text = path.read_text()
    assert '"margins"' in text and '"blacklist"' in text
