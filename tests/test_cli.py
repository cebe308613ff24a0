import csv
import json
import shutil

import pytest

from ocsim import cli, model, runner
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
    assert capsys.readouterr().err.splitlines() == ["violation: --agents 4: must be >= 5"]
    assert not path.exists()


def test_init_refuses_an_unknown_controller(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    assert main(["init", "--scenario", str(path), "--controller", "Bogus"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "violation: controller_arch: unknown value 'Bogus'"]
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


@pytest.mark.parametrize("root", ["custom", None])
def test_run_without_out_writes_under_the_output_root(tmp_path, scenario_file, monkeypatch,
                                                      root):
    """`OCSIM_OUTPUT_ROOT` sets where a run without `--out` writes; unset,
    that is `./runs`."""
    monkeypatch.chdir(tmp_path)
    if root is None:
        monkeypatch.delenv("OCSIM_OUTPUT_ROOT", raising=False)
    else:
        monkeypatch.setenv("OCSIM_OUTPUT_ROOT", str(tmp_path / root))
    assert main(["run", "--scenario", str(scenario_file)]) == 0
    out = tmp_path / (root or "runs")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert (out / "trace.jsonl").stat().st_size > 0
    if root is not None:
        assert not (tmp_path / "runs").exists()


def test_run_rejects_invalid_scenario(tmp_path, scenario_file, capsys):
    config = model.load_scenario(scenario_file)
    config.info_level = 9
    bad = tmp_path / "bad.json"
    model.save_scenario(config, bad)
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "violation" in capsys.readouterr().err


@pytest.mark.parametrize("section,name,value", [
    (None, "num_intervals", "60"), (None, "num_intervals", 60.0),
    ("delay_model", "max_ticks", 2.5), (None, "info_level", True)])
def test_run_rejects_a_wrongly_typed_integer_with_exit_2(tmp_path, scenario_file, capsys,
                                                         section, name, value):
    d = json.loads(scenario_file.read_text())
    (d[section] if section else d)[name] = value
    scenario_file.write_text(json.dumps(d))
    assert main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "x")]) == 2
    path = f"{section}.{name}" if section else name
    assert f"violation: {path}: expected an integer, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _missing_file(path):
    return path.parent / "missing.json"


def _invalid_json(path):
    path.write_text("{not json")
    return path


def _deeply_nested(path):
    path.write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}")
    return path


def _missing_attack_start(path):
    d = json.loads(path.read_text())
    del d["attack"]["active_from_interval"]
    path.write_text(json.dumps(d))
    return path


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("spoil,message", [(_missing_file, "No such file"),
                                           (_invalid_json, "Expecting"),
                                           (_deeply_nested, "recursion"),
                                           (_missing_attack_start, "active_from_interval")])
def test_a_scenario_that_cannot_be_loaded_exits_2(tmp_path, scenario_file, capsys,
                                                  command, spoil, message):
    bad = spoil(scenario_file)
    assert main([command, "--scenario", str(bad), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("violation: ") and message in err
    assert not (tmp_path / "x").exists()


def _spoil(changes):
    """A spoiler that sets each `section.name` (or top-level name) of `changes`."""
    def spoil(path):
        d = json.loads(path.read_text())
        for dotted, value in changes.items():
            section, _, name = dotted.rpartition(".")
            (d[section] if section else d)[name] = value
        path.write_text(json.dumps(d))  # writes NaN and Infinity as Python's json reads them
        return path
    return spoil


def _three_agents(path):
    d = json.loads(path.read_text())
    return _spoil({"agents": d["agents"][:3], "topology_params.k": 2})(path)


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("spoil,violations", [
    (_spoil({"attack.scale_factor": float("nan")}),
     ["attack.scale_factor: non-finite value nan"]),
    (_spoil({"attack.offset_kw": float("-inf")}), ["attack.offset_kw: non-finite value -inf"]),
    (_spoil({"attack.scale_factor": "3"}), ["attack.scale_factor: expected a number, got '3'"]),
    (_spoil({"topology_params.rewire_probability": "x",
             "attack.replacement": [1.0, float("nan")]}),
     ["topology_params.rewire_probability: expected a number, got 'x'",
      "attack.replacement[1]: non-finite value nan"]),
    (_spoil({"agents": []}), ["topology_params.k: must be even and 2 <= k < n, got k=4, n=0",
                              "agents: Centralized control rebuilds the topology after an "
                              "exclusion and needs at least 4 agents, got 0"]),
    (_three_agents, ["agents: Centralized control rebuilds the topology after an "
                     "exclusion and needs at least 4 agents, got 3"])])
def test_a_malformed_scenario_exits_2_with_one_line_per_violation(
        tmp_path, scenario_file, capsys, command, spoil, violations):
    bad = spoil(scenario_file)
    assert main([command, "--scenario", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"violation: {v}" for v in violations]
    assert not (tmp_path / "x").exists()


def test_sweep_refuses_a_level_that_is_not_an_integer(tmp_path, scenario_file, capsys):
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(tmp_path / "x"),
                 "--level", "1,x"]) == 2
    assert "--level '1,x'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flags,violations", [
    (["--controller", "Bogus"], ["controller_arch: unknown value 'Bogus'"]),
    (["--observer", "Decentralized,Panopticon", "--level", "0,4,9",
      "--controller", "Centralized,Nope"],
     ["info_level: must be in 1..4, got 0", "controller_arch: unknown value 'Nope'",
      "info_level: must be in 1..4, got 9", "observer_arch: unknown value 'Panopticon'"])])
def test_sweep_refuses_a_bad_axis_value_before_any_cell_runs(tmp_path, scenario_file, capsys,
                                                              monkeypatch, flags, violations):
    monkeypatch.setattr(cli, "execute_run", lambda *a, **k: pytest.fail("a cell ran"))
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.splitlines() == [f"violation: {v}" for v in violations]
    assert not out.exists()


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


def test_sweep_runs_each_distinct_cell_once(tmp_path, scenario_file, monkeypatch, capsys):
    runs = []
    execute_run = cli.execute_run

    def counting(config, out_dir, **kwargs):
        runs.append(out_dir)
        return execute_run(config, out_dir, **kwargs)

    monkeypatch.setattr(cli, "execute_run", counting)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--observer", "MultiLeveled,MultiLeveled", "--level", "2,2,02",
                 "--controller", "None,None"]) == 0
    assert runs == [str(out / "MultiLeveled-L2-None")]
    with open(out / "summary.csv", newline="") as f:
        assert [row["cell"] for row in csv.DictReader(f)] == ["MultiLeveled-L2-None"]
    assert "1 cells" in capsys.readouterr().out


def test_summary_quotes_a_failure_message_holding_a_comma(tmp_path, scenario_file):
    out = tmp_path / "sweep,1"
    blocked = {}
    for level in (3, 4):
        # a directory where the trace goes: every cell fails writing it, and
        # the error message quotes a path holding a comma
        blocked[level] = out / f"Decentralized-L{level}-Centralized" / "trace.jsonl"
        blocked[level].mkdir(parents=True)
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out),
                 "--observer", "Decentralized", "--level", "3,4",
                 "--controller", "Centralized"]) == 0
    with open(out / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    for row, level in zip(rows, (3, 4)):
        assert None not in row  # no field beyond the header
        assert row["status"] == f"failed: [Errno 21] Is a directory: '{blocked[level]}'"


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("cap", ["0", "-1"])
def test_a_tick_cap_below_one_is_refused(tmp_path, scenario_file, capsys, command, cap):
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario_file), "--out", str(out),
                 "--tick-cap", cap]) == 2
    assert capsys.readouterr().err.splitlines() == [f"violation: --tick-cap {cap}: must be >= 1"]
    assert not out.exists()


def test_a_small_tick_cap_reaches_the_run(tmp_path, scenario_file, capsys):
    assert main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "out"),
                 "--tick-cap", "5"]) == 3
    assert capsys.readouterr().err.startswith("runtime fault: tick cap 5 exceeded")
    assert not (tmp_path / "out").exists()  # the run raised before anything was written


def test_init_into_a_missing_directory_exits_3(tmp_path, capsys):
    path = tmp_path / "missing" / "s.json"
    assert main(["init", "--scenario", str(path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime fault: [Errno 2] No such file")
    assert not (tmp_path / "missing").exists()


def test_sweep_into_an_existing_file_exits_3(tmp_path, scenario_file, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["sweep", "--scenario", str(scenario_file), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("runtime fault: [Errno 17] File exists")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("flags,checks", [
    (["run"], [4]),  # the run's own check
    (["sweep", "--level", "3,4"], [3, 4, 3, 4])],  # each cell before any runs, then each run
    ids=["run", "sweep"])
def test_each_run_path_checks_its_scenario_once(tmp_path, scenario_file, monkeypatch,
                                                 flags, checks):
    """Counted by info level through both bindings: the CLI's `model` and the
    `Simulation`'s `runner`."""
    calls = []
    validate = model.validate_scenario

    def counting(config):
        calls.append(config.info_level)
        return validate(config)

    monkeypatch.setattr(model, "validate_scenario", counting)
    monkeypatch.setattr(runner, "validate_scenario", counting)
    assert main(flags + ["--scenario", str(scenario_file), "--out", str(tmp_path / "x")]) == 0
    assert calls == checks


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


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("completed")
    main(["init", "--scenario", str(root / "scenario.json"), "--seed", "1"])
    assert main(["run", "--scenario", str(root / "scenario.json"), "--out", str(root / "run")]) == 0
    return root / "run"


def _truncate(path):
    path.write_text(path.read_text()[:len(path.read_text()) // 2])


def _edit(change):
    def edit(path):
        d = json.loads(path.read_text())
        change(d)
        path.write_text(json.dumps(d))
    return edit


@pytest.mark.parametrize("name,spoil,reason", [
    ("manifest.json", _truncate, "JSONDecodeError"),
    ("manifest.json", _edit(lambda d: d.pop("base_hash")), "base_hash"),
    ("manifest.json", _edit(lambda d: d.clear()), "run_id"),
    ("evaluation.json", _truncate, "JSONDecodeError"),
    ("evaluation.json", _edit(lambda d: d["evaluation"]["per_phase"].pop("Normal")),
     "KeyError: 'Normal'"),
    ("evaluation.json", _edit(lambda d: d.pop("evaluation")), "KeyError: 'evaluation'")])
def test_compare_refuses_a_malformed_run_dir(tmp_path, completed_run, capsys, name, spoil,
                                              reason):
    broken = tmp_path / "broken"
    shutil.copytree(completed_run, broken)
    spoil(broken / name)
    assert main(["compare", str(completed_run), str(broken)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"refused: run dir {broken} has a malformed or incomplete ")
    assert reason in err and len(err.splitlines()) == 1
