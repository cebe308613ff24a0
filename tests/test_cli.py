import json

import pytest

from ocsim import model
from ocsim.cli import main


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    assert main(["init", "--scenario", str(path), "--seed", "1"]) == 0
    return path


def test_init_writes_a_valid_scenario(scenario_file):
    config = model.load_scenario(scenario_file)
    assert model.validate_scenario(config) == []
    assert config.seed == 1 and len(config.agents) == 8


def test_init_refuses_a_community_too_small_for_its_topology(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    assert main(["init", "--scenario", str(path), "--agents", "4"]) == 2
    assert "n_agents" in capsys.readouterr().err
    assert not path.exists()


def test_run_writes_all_artifacts(tmp_path, scenario_file, capsys):
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    for name in ("trace.jsonl", "records.csv", "evaluation.json", "manifest.json"):
        assert (out / name).stat().st_size > 0
    assert (out / "plots").is_dir()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert "completed" in capsys.readouterr().out


def test_run_rejects_invalid_scenario(tmp_path, scenario_file, capsys):
    config = model.load_scenario(scenario_file)
    config.info_level = 9
    bad = tmp_path / "bad.json"
    model.save_scenario(config, bad)
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "violation" in capsys.readouterr().err


def test_seed_override_changes_the_run(tmp_path, scenario_file):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--scenario", str(scenario_file), "--out", str(a)])
    main(["run", "--scenario", str(scenario_file), "--out", str(b), "--seed", "9"])
    assert (a / "records.csv").read_bytes() != (b / "records.csv").read_bytes()


def test_sweep_runs_the_matrix_and_summarizes(tmp_path, scenario_file, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
               "--observer", "Decentralized", "--level", "3,4",
               "--controller", "Centralized"])
    assert rc == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3  # header + two cells
    assert (out / "Decentralized-L3-Centralized" / "records.csv").exists()
    assert (out / "Decentralized-L4-Centralized" / "records.csv").exists()
    assert "2 cells" in capsys.readouterr().out


def test_compare_requires_a_shared_base(tmp_path, scenario_file, capsys):
    out = tmp_path / "sweep"
    main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
          "--observer", "Decentralized", "--level", "4",
          "--controller", "Centralized,Decentralized"])
    a = out / "Decentralized-L4-Centralized"
    b = out / "Decentralized-L4-Decentralized"
    assert main(["compare", str(a), str(b)]) == 0
    assert "phase ControlActive" in capsys.readouterr().out
    # a run from a different seed has a different base hash
    other_scenario = tmp_path / "other.json"
    main(["init", "--scenario", str(other_scenario), "--seed", "2"])
    c = tmp_path / "other-run"
    main(["run", "--scenario", str(other_scenario), "--out", str(c)])
    assert main(["compare", str(a), str(c)]) == 2
    assert "different base" in capsys.readouterr().err


def test_compare_refuses_missing_run_dir(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "nope"), str(tmp_path / "nada")]) == 2
    assert "cannot read" in capsys.readouterr().err
