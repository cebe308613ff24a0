"""Golden lock: SHA-256 digests of seed-1 outputs.

Refactors and performance changes must leave every digest below unchanged.
A digest that moves means the program's behaviour moved; change it only in a
change that means to alter behaviour and says so.
"""
import dataclasses
import hashlib
import json

import pytest

from ocsim.cli import execute_run
from ocsim.kernel import export_trace_jsonl
from ocsim.model import AttackConfig, generate_default_scenario
from ocsim.runner import run_scenario

# controller_arch -> artifact written by cli.execute_run -> SHA-256
ARTIFACT_DIGESTS = {
    "Centralized": {
        "records.csv": "1930507e969a8dd7cdebb5e7700f9231b5af68caacf0974f6926acf4794a18e4",
        "evaluation.json": "05fdf42ee83cae706e939da591a737ae8e3583b6f5d2606fdc87670c72b4849d",
        "trace.jsonl": "c0ad41a74f1474de69a79d13760964991a8edbb73de3284bb7ffeb0e87e12ab8",
    },
    "Decentralized": {
        "records.csv": "f4d3a5ce6c314e1aa9114d9460bd947196137567163258e6702b73a77338f00d",
        "evaluation.json": "9023db23b4bd4b5e4b8a53d182e9ea994d5d5a6306ee349c43ccb03a50f8204d",
        "trace.jsonl": "a98e9c911bfd2c7e0ec346c4c88626c6f2ff813caa868bb09fc272c3ec0362de",
    },
    "MultiLeveled": {
        "records.csv": "2a744b15c8b8b91d024d140a4c814706866724236da4ab7fffc14251024d04c1",
        "evaluation.json": "d7efc522b277380976e3cbd5dd51de2cac3fb10431f244f53ac675f3e04b7748",
        "trace.jsonl": "900b6fb3e63a3631a579935dd72d824549c1fad6107e89fac62b3f752ca8aeb9",
    },
}

# artifact -> SHA-256 of cli.execute_run for 16 agents under Centralized
# control: working memories hold more than 8 entries, and the attacker is
# blacklisted and cut off
LARGE_RUN_DIGESTS = {
    "records.csv": "b10d0f552717a51088391570487d850bf7e2cae02b4b6b74e7ac301734806a9d",
    "evaluation.json": "bae4accf7e7a55b630eb3b388ec9ed7410d976ffbf889f952c4a154aa914aa87",
    "trace.jsonl": "3b5c6864d53707d06ec337d3af03567320d2c44e5ad7da8e937d761ecfe4acb3",
}

# artifact -> SHA-256 of cli.execute_run under Centralized control with the
# attack's scale at 2.7: the falsified values leave the setpoint grid, so the
# agents sum their working memories in order (runner.exact_sums)
OFF_GRID_DIGESTS = {
    "records.csv": "30bf929e66b4d3e40e7f2feabd6d6550906a5a63f18be819b0a8f40868368c3f",
    "evaluation.json": "1605a98beb7943af74f90689807a78cbc96c95dae198cd0250ff054199c1302a",
    "trace.jsonl": "c41d49fedea48f8d3cf365ac905e02b2ca5993ebba865dd5c5ee157d7a64ba44",
}

# SHA-256 of an empty report list: nothing was flagged
NO_REPORTS = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"

# (info_level, tampered) -> SHA-256 of the report list of a Decentralized
# observer run without a controller; level 3 is the one tampered run that the
# robust z-score detector flags first
REPORT_DIGESTS = {
    (2, True): NO_REPORTS,
    (2, False): NO_REPORTS,
    (3, True): "972a2e6fcc6f2a646079f7beeb306d04998fa105252c3331a8efa3685d57bcee",
    (4, True): "ce17bee07da2dca1769d45e2e2f3ff4b9fd5ae1e278b893e0fb93d864f8da203",
    (4, False): NO_REPORTS,
}

# (observer_arch, info_level) -> SHA-256 of the tampered report list without a
# controller; each flags a04 under its own scope's label (Centralized,
# GroupedByType(Wind), GroupedRandom(g0))
SCOPED_REPORT_DIGESTS = {
    ("Centralized", 3): "dee8b5a7219940c1311fdc3f9bd02f05856e799dfec27f9c593edb6be9bd9706",
    ("Centralized", 4): "941300a0c1320c2f38e5beaa158d0b645111b291a5422699a38e8f11b5cefb4d",
    ("GroupedByType", 3): "e8f1a249e94d7d367a5c678e22641b189fc85f5248db52156ddaa9b1aa6b46b1",
    ("GroupedByType", 4): "7665c53fb39b587f83cb0522abf2c83d9567904d5a7e2e4c954defa2e49b8caa",
    ("GroupedRandom", 3): "4260d1b0113c48598593a093e68c7722292201f6a9e5b59dd2b8baa2b14c0c0c",
    ("GroupedRandom", 4): "c838abd6debb352592f32e5bf7ec15848f86ee4dec72d39d391e0f1dfdf729b4",
}

# attack mode -> (report list, trace.jsonl) SHA-256 of a level-4 Decentralized
# observer run without a controller; pins the wire view `attack.tamper` writes
# for the two modes the default scenario does not use. The off-grid Replace
# values make sums whose float depends on the order of addition, so its
# digests pin the left-to-right objective on every Python (sum() compensates
# from 3.12 on)
ATTACKS = {
    "Offset": AttackConfig(mode="Offset", offset_kw=1.5),
    "Replace": AttackConfig(mode="Replace", replacement=[9.0, 9.0, 9.0, 9.0]),
    "Replace off-grid": AttackConfig(mode="Replace", replacement=[0.1, 0.2, 0.3, 0.0]),
}
ATTACK_DIGESTS = {
    "Offset": ("08d21e265d4c4e0da3d07acecce605621b4d54cbd460ba663b7be6a62639a587",
               "795b9877abe11fcb84a27b9578c1cc0fb9c585c6da0d9deb8f2a3b1b965d87b5"),
    "Replace": ("dfe5b2c4b35d9b62ae3a23ba81530de3f938b19066a68293bbb16bc6ad375304",
                "3aeeb330dc1a52db5356f8abb0d0fac6b167b03237b85e4e9ea3d263abd42450"),
    "Replace off-grid": ("f9aa19b7f590e783d4ab4fe1c1ca88965d3319175c0332dc079dc405f40f34d8",
                         "2cc5b88199795647fae617a3da52d5976ec1d2a0269fa8632a2a540959571802"),
}


def _file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def artifact_digests(controller, out_dir, n_agents=8, scale_factor=None):
    cfg = dataclasses.replace(generate_default_scenario(seed=1, n_agents=n_agents),
                              controller_arch=controller)
    if scale_factor is not None:
        cfg = dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack,
                                                                  scale_factor=scale_factor))
    execute_run(cfg, str(out_dir))
    return {name: _file_digest(out_dir / name) for name in ARTIFACT_DIGESTS[controller]}


def _observer_run(level, attack=None, arch="Decentralized"):
    cfg = dataclasses.replace(generate_default_scenario(seed=1), observer_arch=arch,
                              info_level=level, controller_arch="None")
    if attack is not None:
        cfg = dataclasses.replace(cfg, attack=attack)
    return run_scenario(cfg)


def _reports_digest(reports):
    rows = [[r.suspect, r.first_flagged_interval, r.score, r.detector,
             r.scope.describe() if r.scope else None]
            for r in reports]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def report_digest(level, tampered):
    attack = None
    if not tampered:
        cfg = generate_default_scenario(seed=1)
        attack = dataclasses.replace(cfg.attack, active_from_interval=cfg.num_intervals)
    return _reports_digest(_observer_run(level, attack).reports)


@pytest.mark.parametrize("controller", sorted(ARTIFACT_DIGESTS))
def test_run_artifacts_match_their_golden_digests(controller, tmp_path):
    assert artifact_digests(controller, tmp_path) == ARTIFACT_DIGESTS[controller]


def test_a_16_agent_run_matches_its_golden_digests(tmp_path):
    assert artifact_digests("Centralized", tmp_path, n_agents=16) == LARGE_RUN_DIGESTS


def test_an_off_grid_attack_run_matches_its_golden_digests(tmp_path):
    assert artifact_digests("Centralized", tmp_path, scale_factor=2.7) == OFF_GRID_DIGESTS


@pytest.mark.parametrize("level,tampered", sorted(REPORT_DIGESTS))
def test_observer_reports_match_their_golden_digests(level, tampered):
    assert report_digest(level, tampered) == REPORT_DIGESTS[(level, tampered)]


@pytest.mark.parametrize("arch,level", sorted(SCOPED_REPORT_DIGESTS))
def test_scoped_observer_reports_match_their_golden_digests(arch, level):
    reports = _observer_run(level, arch=arch).reports
    assert _reports_digest(reports) == SCOPED_REPORT_DIGESTS[(arch, level)]


@pytest.mark.parametrize("mode", sorted(ATTACK_DIGESTS))
def test_attack_modes_match_their_golden_digests(mode, tmp_path):
    result = _observer_run(4, ATTACKS[mode])
    export_trace_jsonl(result.trace, tmp_path / "trace.jsonl")
    digests = (_reports_digest(result.reports), _file_digest(tmp_path / "trace.jsonl"))
    assert digests == ATTACK_DIGESTS[mode]
