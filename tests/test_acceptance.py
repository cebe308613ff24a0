"""System-level acceptance: eight end-to-end claims over 20 seeds each.

Every test prints one ``[PASS]``/``[FAIL]`` line for its criterion. The runs
are shared through module fixtures that keep only per-run aggregates, never
whole traces, so the suite stays within a small memory envelope.
"""
import dataclasses
import gc
import random

import pytest

from ocsim import negotiation as neg
from ocsim.kernel import Kernel, export_trace_jsonl
from ocsim.metrics import export_csv
from ocsim.model import UnitModel, generate_default_scenario, load_scenario, save_scenario
from ocsim.runner import run_scenario
from ocsim.topology import build_small_world

SEEDS = list(range(1, 21))
CONTROLLERS = ("Centralized", "Decentralized", "MultiLeveled")


def _verdict(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _summarize(res):
    """Reduce one run to the aggregates the criteria need."""
    suspects = frozenset(res.blacklist)
    gct = res.gossip_completion_tick
    exclusion_ok = bool(suspects) and gct is not None
    if exclusion_ok:
        for e in res.trace.events:
            m = e.message
            if (e.delivered and m.delivered_tick > gct
                    and (m.sender in suspects or m.receiver in suspects)):
                exclusion_ok = False
                break
    notice_intervals = [e.message.interval for e in res.trace.events
                        if e.delivered and e.message.kind == "BlacklistNotice"]
    gossip_span_ok = (not notice_intervals
                      or max(notice_intervals) - res.config.control_interval
                      < len(res.config.agents) - 1)
    return {
        "per_phase": res.evaluation["per_phase"],
        "blacklist": suspects,
        "compromised": next(a.agent_id for a in res.config.agents
                            if a.is_compromised),
        "exclusion_ok": exclusion_ok,
        "gossip_span_ok": gossip_span_ok,
    }


@pytest.fixture(scope="module")
def sweep():
    """20 seeds x 3 controller architectures, default attack scenario."""
    out = {}
    for arch in CONTROLLERS:
        for seed in SEEDS:
            cfg = dataclasses.replace(generate_default_scenario(seed),
                                      controller_arch=arch)
            res = run_scenario(cfg)
            out[(arch, seed)] = _summarize(res)
            del res
            gc.collect()
    return out


@pytest.fixture(scope="module")
def detection():
    """Per information level and seed: did the right detector flag the
    compromised agent, and does anything fire on an untampered twin run?"""
    hits = {level: 0 for level in (1, 2, 3, 4)}
    false_positives = {level: 0 for level in (1, 2, 3, 4)}
    wanted = {3: "robust_z", 4: "constraint"}
    for level in (1, 2, 3, 4):
        for seed in SEEDS:
            cfg = dataclasses.replace(generate_default_scenario(seed),
                                      observer_arch="Decentralized",
                                      info_level=level, controller_arch="None")
            res = run_scenario(cfg)
            compromised = next(a.agent_id for a in cfg.agents if a.is_compromised)
            if any(r.suspect == compromised
                   and (level not in wanted or r.detector == wanted[level])
                   for r in res.reports):
                hits[level] += 1
            del res
            gc.collect()
            untampered = dataclasses.replace(
                cfg, attack=dataclasses.replace(cfg.attack,
                                                active_from_interval=cfg.num_intervals))
            res = run_scenario(untampered)
            if res.reports:
                false_positives[level] += 1
            del res
            gc.collect()
    return hits, false_positives


def _phase_stats(summary, phase, metric):
    return summary["per_phase"][phase][metric]


def test_criterion_1_quality_signature(sweep):
    ok = True
    for arch in ("Centralized", "Decentralized"):
        for seed in SEEDS:
            s = sweep[(arch, seed)]
            normal = _phase_stats(s, "Normal", "solution_quality")
            disruption = _phase_stats(s, "Disruption", "solution_quality")
            active = _phase_stats(s, "ControlActive", "solution_quality")
            ok &= normal["out"] == 0
            ok &= disruption["above"] / disruption["total"] >= 0.80
            ok &= (active["total"] - active["out"]) / active["total"] >= 0.95
    _verdict(1, "three-phase solution-quality signature "
                "(Normal within, Disruption above, ControlActive within)", ok)


def test_criterion_2_convergence_neutrality(sweep):
    ok = True
    for arch in ("Centralized", "Decentralized"):
        for seed in SEEDS:
            for phase in ("Normal", "Disruption", "ControlActive"):
                a = _phase_stats(sweep[(arch, seed)], phase, "convergence_ticks")
                ok &= (a["total"] - a["out"]) / a["total"] >= 0.95
    _verdict(2, "convergence durations stay within margins in all phases", ok)


def test_criterion_3_message_count_contrast(sweep):
    central_clean = sum(
        1 for seed in SEEDS
        if _phase_stats(sweep[("Centralized", seed)],
                        "ControlActive", "message_count")["above"] == 0)
    decentralized_spiky = sum(
        1 for seed in SEEDS
        if _phase_stats(sweep[("Decentralized", seed)],
                        "ControlActive", "message_count")["above"] >= 1)
    ok = central_clean >= 18 and decentralized_spiky >= 18
    _verdict(3, "centralized control is silent on the bus, decentralized "
                f"control spikes (clean {central_clean}/20, "
                f"spiky {decentralized_spiky}/20)", ok)


def test_criterion_4_information_level_detection_boundary(detection):
    hits, false_positives = detection
    n = len(SEEDS)
    ok = (hits[1] <= 0.10 * n and hits[2] <= 0.10 * n
          and hits[3] >= 0.90 * n and hits[4] >= 0.90 * n
          and all(false_positives[level] <= 0.05 * n for level in (1, 2, 3, 4)))
    _verdict(4, "levels 1-2 blind, level-3 statistical and level-4 constraint "
                f"detectors reliable (hits {dict(hits)}, "
                f"false positives {dict(false_positives)})", ok)


def test_criterion_5_exclusion_soundness(sweep):
    ok = all(s["exclusion_ok"] and s["gossip_span_ok"] for s in sweep.values())
    _verdict(5, "no delivered traffic to or from a blacklisted agent after "
                "gossip completion, completion within n-1 intervals", ok)


def test_criterion_6_architecture_end_state_equivalence(sweep):
    ok = True
    for seed in SEEDS:
        blacklists = {sweep[(arch, seed)]["blacklist"] for arch in CONTROLLERS}
        ok &= len(blacklists) == 1
        ok &= blacklists.pop() == {sweep[(CONTROLLERS[0], seed)]["compromised"]}
    _verdict(6, "all three controller architectures reach the identical "
                "final blacklist", ok)


def test_criterion_7_determinism(tmp_path):
    ok = True
    for arch in ("Centralized", "Decentralized"):
        cfg = dataclasses.replace(generate_default_scenario(seed=1),
                                  controller_arch=arch)
        scenario_path = tmp_path / f"{arch}.json"
        save_scenario(cfg, scenario_path)
        exports = []
        for repeat in ("first", "second"):
            res = run_scenario(load_scenario(scenario_path))
            trace_path = tmp_path / f"{arch}-{repeat}-trace.jsonl"
            csv_path = tmp_path / f"{arch}-{repeat}-records.csv"
            export_trace_jsonl(res.trace, trace_path)
            export_csv(res.records, res.evaluation, csv_path)
            exports.append((trace_path.read_bytes(), csv_path.read_bytes()))
            del res
            gc.collect()
        ok &= exports[0] == exports[1]
    _verdict(7, "repeated runs from the same scenario file export "
                "byte-identical traces and CSVs", ok)


def _small_community(seed, slots=4):
    rng = random.Random(f"acceptance-oracle:{seed}")
    ids = [f"a{i:02d}" for i in range(6)]
    target = [0.0] * slots
    agents = {}
    for aid in ids:
        schedules = [tuple(round(rng.uniform(-4, 4), 2) for _ in range(slots))
                     for _ in range(rng.randint(2, 5))]
        unit = UnitModel(unit_id=f"u-{aid}", unit_type="Household",
                         feasible_schedules=schedules)
        agents[aid] = neg.NegotiationAgent(aid, unit, target)
    topology = build_small_world(ids, 2, 0.2, seed)
    for aid, agent in agents.items():
        agent.neighbors = set(topology.neighbors(aid))
    kernel = Kernel(seed, 1, 3)
    for aid, agent in agents.items():
        kernel.register(aid, (lambda a: lambda k, m: a.handle(k, m))(agent))
    return kernel, agents, ids, target


def test_criterion_8_oracle_equivalence():
    slots = 4
    ok = True
    # converged assignments beat every single-agent deviation
    for seed in SEEDS:
        kernel, agents, ids, target = _small_community(seed)
        assignment, _ = neg.run_negotiation(kernel, agents, ids[0], {})
        ok &= set(assignment) == set(ids)
        base = neg.objective(neg.aggregate_of(assignment, slots), target)
        for aid in ids:
            for schedule in agents[aid].feasible:
                trial = dict(assignment)
                trial[aid] = tuple(schedule)
                alt = neg.objective(neg.aggregate_of(trial, slots), target)
                ok &= alt >= base - 1e-9
    # the local best response matches a brute-force argmin
    rng = random.Random("acceptance-argmin")
    mismatches = 0
    for _ in range(1000):
        schedules = [tuple(rng.uniform(-5, 5) for _ in range(slots))
                     for _ in range(rng.randint(1, 8))]
        others = [rng.uniform(-10, 10) for _ in range(slots)]
        target = [rng.uniform(-3, 3) for _ in range(slots)]
        objectives = [neg.objective([o + s for o, s in zip(others, sched)], target)
                      for sched in schedules]
        want = min(range(len(schedules)), key=lambda i: (objectives[i], i))
        if neg.choose_best_schedule(schedules, others, target) != want:
            mismatches += 1
    ok &= mismatches == 0
    _verdict(8, "negotiation matches exhaustive enumeration "
                f"(deviation-optimal on {len(SEEDS)} instances, "
                f"argmin mismatches {mismatches}/1000)", ok)
