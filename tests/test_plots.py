import pytest

from ocsim.metrics import IntervalRecord, compute_margins
from ocsim.plots import emit_plots

INCIDENT, CONTROL = 2, 4


def _records(phases):
    return [IntervalRecord(interval=i, convergence_ticks=12 * (i + 1), solution_quality=0.5 * i,
                           message_count=40 + i, phase=phase)
            for i, phase in enumerate(phases)]


def _svgs(phases, tmp_path):
    records = _records(phases)
    margins = compute_margins([r for r in records if r.phase == "Normal"])
    paths = emit_plots(records, margins, tmp_path / "plots", incident=INCIDENT, control=CONTROL)
    assert len(paths) == 3
    return [open(p).read() for p in paths]


@pytest.mark.parametrize("phases,markers,warning", [
    (["Normal"] * 2 + ["Disruption"] * 2 + ["ControlActive"] * 2, True, None),
    (["Normal"] * 6, False, None),
    (["Normal"] * 2 + ["Disruption"] * 4, True, "missing phase(s): ControlActive"),
])
def test_phase_markers_and_the_missing_phase_warning(phases, markers, warning, tmp_path):
    for svg in _svgs(phases, tmp_path):
        assert (f">incident {INCIDENT}<" in svg) is markers
        assert (f">control {CONTROL}<" in svg) is markers
        if warning is None:
            assert "warning:" not in svg
        else:
            assert f">warning: {warning}<" in svg
