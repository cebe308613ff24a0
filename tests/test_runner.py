import copy
import dataclasses
import gc
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ocsim import negotiation as neg
from ocsim import observer as obs
from ocsim import runner
from ocsim.kernel import Kernel, Message, NonConvergenceError, TraceEvent
from ocsim.metrics import classify_phase
from ocsim.model import (ATTACK_MODES, CONTROLLER_ARCHS, OBSERVER_ARCHS, SETPOINT_GRID,
                         AttackConfig, ScenarioError, generate_default_scenario,
                         validate_scenario)
from ocsim.runner import CONVERGENCE_RESOLUTION, Simulation, exact_sums, run_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import digest_result  # noqa: E402


@pytest.fixture(scope="module")
def centralized_run():
    return run_scenario(dataclasses.replace(generate_default_scenario(seed=1),
                                            controller_arch="Centralized"))


@pytest.fixture(scope="module")
def decentralized_run():
    return run_scenario(dataclasses.replace(generate_default_scenario(seed=1),
                                            controller_arch="Decentralized"))


def test_one_record_per_interval_with_correct_phases(centralized_run):
    res = centralized_run
    assert [r.interval for r in res.records] == list(range(res.config.num_intervals))
    for r in res.records:
        assert r.phase == classify_phase(r.interval, res.config)


def test_durations_are_reported_at_telemetry_resolution(centralized_run):
    for r in centralized_run.records:
        assert r.convergence_ticks % CONVERGENCE_RESOLUTION == 0
        assert r.convergence_ticks > 0


def test_trace_counts_match_records(centralized_run):
    recount = centralized_run.trace.recount()
    for r in centralized_run.records:
        assert r.message_count == recount.get(r.interval, 0)


def test_compromised_agent_is_detected_and_blacklisted(centralized_run):
    res = centralized_run
    compromised = next(a.agent_id for a in res.config.agents if a.is_compromised)
    assert any(r.suspect == compromised for r in res.reports)
    assert res.blacklist == {compromised}


def test_detection_happens_within_three_intervals_of_the_incident(centralized_run):
    res = centralized_run
    compromised = next(a.agent_id for a in res.config.agents if a.is_compromised)
    first = min(r.first_flagged_interval for r in res.reports
                if r.suspect == compromised)
    assert res.config.incident_interval <= first <= res.config.incident_interval + 3


def test_centralized_control_reassigns_the_suspects_unit(centralized_run):
    res = centralized_run
    handovers = [a for a in res.actions if a.kind == "TaskReassignment"]
    assert len(handovers) == 1
    new_owner = handovers[0].new_owner
    owned = {u.unit_id for u in res.agents[new_owner].units}
    assert handovers[0].unit_id in owned


def test_decentralized_control_gossips_the_blacklist(decentralized_run):
    res = decentralized_run
    compromised = next(a.agent_id for a in res.config.agents if a.is_compromised)
    honest = set(res.agents) - {compromised}
    for aid in honest:
        assert compromised in res.agents[aid].blacklist
    notices = [e for e in res.trace.events
               if e.delivered and e.message.kind == "BlacklistNotice"]
    assert notices
    assert all(e.message.interval == res.config.control_interval for e in notices)


def test_no_control_without_a_controller():
    cfg = dataclasses.replace(generate_default_scenario(seed=2),
                              controller_arch="None")
    res = run_scenario(cfg)
    assert res.blacklist == set()
    assert res.control_tick is None
    assert res.reports  # detection still runs, it just has no executive


def test_quality_degrades_only_while_the_attack_is_unmitigated(centralized_run):
    by_phase = {}
    for r in centralized_run.records:
        by_phase.setdefault(r.phase, []).append(r.solution_quality)
    assert max(by_phase["Normal"]) < min(q for q in by_phase["Disruption"])
    assert max(by_phase["ControlActive"]) <= max(by_phase["Normal"])


def _untampered(observer_arch, info_level):
    cfg = dataclasses.replace(generate_default_scenario(seed=1), observer_arch=observer_arch,
                              info_level=info_level, controller_arch="None")
    return dataclasses.replace(cfg, attack=dataclasses.replace(
        cfg.attack, active_from_interval=cfg.num_intervals))


def test_the_observer_trains_once_per_part(monkeypatch):
    """The training window is fixed once detection starts, so an untampered
    run that never reports trains its one part once, over all 8 agents its
    scopes watch, not once per scope or per detection interval."""
    cfg = _untampered("Decentralized", 4)
    trained = []
    finish = obs.ValueFold.finish

    def counting(fold):
        trained.append(set(fold.counts))
        return finish(fold)

    monkeypatch.setattr(obs.ValueFold, "finish", counting)
    res = run_scenario(cfg)
    assert res.reports == []
    assert trained == [{a.agent_id for a in cfg.agents}]
    assert len(cfg.agents) == 8


def _holds_an_event(root):
    """Whether a TraceEvent or Message is reachable from `root` through
    containers and the attributes of ocsim objects."""
    seen, todo = set(), [root]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, (TraceEvent, Message)):
            return True
        if isinstance(o, dict):
            todo.extend(o.keys())
            todo.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            todo.extend(o)
        elif type(o).__module__.startswith("ocsim."):
            todo.extend(getattr(o, "__dict__", {}).values())
            todo.extend(getattr(o, name) for name in getattr(type(o), "__slots__", ())
                        if hasattr(o, name))
    return False


@pytest.mark.parametrize("observer_arch,info_level", [("Centralized", 3), ("Centralized", 2),
                                                      ("MultiLeveled", 4)])
def test_the_incident_interval_reads_only_its_own_events(monkeypatch, observer_arch,
                                                         info_level):
    """Training folds each interval as it finishes and keeps no event, so the
    first detection interval reads its own delivered events and not the
    training window again."""
    cfg = _untampered(observer_arch, info_level)
    read = []  # (method, events it was handed)
    for name in ("fold", "detect"):
        def reading(self, events, *args, _name=name, _method=getattr(obs.TrainedObserver, name)):
            read.append((_name, list(events)))
            return _method(self, events, *args)
        monkeypatch.setattr(obs.TrainedObserver, name, reading)
    sim = Simulation(cfg)
    observe = sim._observe
    delivered = []
    held = []

    def observing(interval, events):
        delivered.append([e for e in events if e.delivered])
        if interval == cfg.incident_interval:
            held.append(_holds_an_event(sim._observer))
        observe(interval, events)

    sim._observe = observing
    sim.run()
    incident = cfg.incident_interval
    assert [name for name, _ in read] == ["fold"] * incident + ["detect"] * (
        cfg.num_intervals - incident)
    for interval, (_, events) in enumerate(read):
        assert events and len(events) == len(delivered[interval])
        assert all(a is b for a, b in zip(events, delivered[interval]))
    assert held == [False]  # the folded training window left no event behind


@pytest.mark.parametrize("observer_arch", ["Decentralized", "MultiLeveled"])
def test_a_short_training_window_is_refused(observer_arch):
    """Validation refuses fewer than MIN_TRAINING_INTERVALS intervals before
    the incident with one rule for every level, so no run starts."""
    base = generate_default_scenario(seed=1)
    for level in (1, 2, 3, 4):
        cfg = dataclasses.replace(base, observer_arch=observer_arch, info_level=level,
                                  incident_interval=obs.MIN_TRAINING_INTERVALS - 1,
                                  attack=dataclasses.replace(base.attack, active_from_interval=4))
        assert validate_scenario(cfg) == [
            "incident_interval: need >= 5 training intervals before it"]
        with pytest.raises(ScenarioError) as exc:
            run_scenario(cfg)
        assert exc.value.violations == validate_scenario(cfg)


def test_the_collector_is_off_during_a_run_and_back_on_after_it(monkeypatch):
    collecting = []
    run = neg.run_negotiation

    def recording(*args, **kwargs):
        collecting.append(gc.isenabled())
        return run(*args, **kwargs)

    monkeypatch.setattr(neg, "run_negotiation", recording)
    assert gc.isenabled()
    run_scenario(generate_default_scenario(seed=1))
    assert gc.isenabled()
    assert collecting == [False] * 60


def test_a_failing_run_switches_the_collector_back_on():
    assert gc.isenabled()
    with pytest.raises(NonConvergenceError):
        run_scenario(generate_default_scenario(seed=1), tick_cap=5)
    assert gc.isenabled()


@pytest.mark.parametrize("controller_arch", ["Centralized", "Decentralized", "MultiLeveled"])
def test_the_tick_cap_bounds_each_delivery_loop_not_the_run(monkeypatch, controller_arch):
    """A run whose longest delivery loop spans L ticks completes under a cap
    of L and fails under L - 1, though its clock ends far beyond L."""
    config = dataclasses.replace(generate_default_scenario(seed=1),
                                 controller_arch=controller_arch)
    loops = []
    run_until = Kernel.run_until

    def recording(kernel, flush):
        start = kernel.clock
        loops.append((start, run_until(kernel, flush)))
        return loops[-1][1]

    monkeypatch.setattr(Kernel, "run_until", recording)
    run_scenario(config)
    monkeypatch.undo()
    longest = max(end - start for start, end in loops)
    assert loops[-1][1] > 10 * longest  # the run's clock passes the cap many times over
    assert len(run_scenario(config, tick_cap=longest).records) == config.num_intervals
    with pytest.raises(NonConvergenceError, match=f"^tick cap {longest - 1} exceeded"):
        run_scenario(config, tick_cap=longest - 1)


def test_a_run_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        run_scenario(generate_default_scenario(seed=1))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_run_leaves_objects_frozen_by_the_caller_alone():
    gc.freeze()
    try:
        before = gc.get_freeze_count()
        run_scenario(generate_default_scenario(seed=1))
        assert gc.get_freeze_count() == before
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("observer", ["Centralized", "Decentralized", "GroupedByType",
                                      "GroupedRandom", "MultiLeveled"])
@pytest.mark.parametrize("controller", ["Centralized", "Decentralized", "MultiLeveled"])
def test_a_run_makes_no_cyclic_garbage(controller, observer):
    """The collector is off during a run only because a run leaves nothing
    for it to collect."""
    gc.collect()
    result = run_scenario(dataclasses.replace(generate_default_scenario(seed=1),
                                              controller_arch=controller,
                                              observer_arch=observer))
    # the result is still referenced: only what the run left behind counts
    assert gc.collect() == 0


@pytest.mark.parametrize("controller", ["Centralized", "Decentralized", "MultiLeveled"])
def test_a_dropped_result_is_freed_without_the_cyclic_collector(controller):
    gc.collect()
    result = run_scenario(dataclasses.replace(generate_default_scenario(seed=1),
                                              controller_arch=controller))
    del result
    assert gc.collect() == 0


@pytest.mark.parametrize("controller", ["Centralized", "Decentralized", "MultiLeveled"])
def test_no_wire_form_memo_outlives_the_run(controller):
    result = run_scenario(dataclasses.replace(generate_default_scenario(seed=1),
                                              controller_arch=controller))
    assert all(not agent.forms for agent in result.agents.values())


def test_a_receiver_copies_a_delivered_update_only_where_it_drops_an_agent(monkeypatch,
                                                                         decentralized_run):
    """Every accepted update is decoded on delivery. A receiver whose
    blacklist misses the content adopts its entries dict, and one that misses
    the candidate gets the memo's decode of the wire candidate; one that
    misses both shares the memo's decode of the content; one that drops an
    agent gets copies without it. Under decentralized control the
    receivers' blacklists differ while the blacklist gossip spreads."""
    decodes = []
    decode = neg.decode_memory

    def recording(content, drop=(), **kwargs):
        memory = decode(content, drop, **kwargs)
        memoized = kwargs["forms"].get(id(content["best"]), (None, None))[1]
        shared = kwargs["forms"].get(id(content), (None, None))[1]
        decodes.append((content, set(drop), memory, memoized, memory is shared))
        return memory

    monkeypatch.setattr(neg, "decode_memory", recording)
    result = run_scenario(decentralized_run.config)
    assert digest_result(result) == digest_result(decentralized_run)
    hits = 0
    for content, drop, memory, memoized, shared in decodes:
        entries, raw = content["entries"], content["best"]
        assert shared == (drop.isdisjoint(entries) and
                          (raw is None or drop.isdisjoint(raw["assignment"])))
        if drop.isdisjoint(entries):
            assert memory.entries is entries
        else:
            hits += 1
            assert list(memory.entries) == [aid for aid in entries if aid not in drop]
        if raw is not None and drop.isdisjoint(raw["assignment"]):
            assert memory.best_candidate is memoized
            assert memory.best_candidate.assignment is raw["assignment"]
        elif raw is not None:
            assert memory.best_candidate is not memoized
            assert drop.isdisjoint(memory.best_candidate.assignment)
    assert 0 < hits < len(decodes)


def test_each_reply_computes_one_best_response(monkeypatch):
    """An agent's first reply of an interval creates its own entry from the
    best response it computes anyway: one `choose_best_schedule` per
    `respond` or `initiate`."""
    calls = dict.fromkeys(["choose_best_schedule", "respond", "initiate"], 0)
    for owner, name in ((neg, "choose_best_schedule"), (neg.NegotiationAgent, "respond"),
                        (neg.NegotiationAgent, "initiate")):
        def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    run_scenario(generate_default_scenario(seed=1))
    assert calls["choose_best_schedule"] == calls["respond"] + calls["initiate"] > 0


@pytest.mark.parametrize("controller", ["None", "Centralized", "Decentralized", "MultiLeveled"])
def test_the_queue_drains_within_each_interval(monkeypatch, controller):
    """Every negotiation episode and every control sub-phase starts and ends
    with an empty kernel queue, so each message is delivered in the interval
    that `Kernel.send` stamped on it."""
    phases = []

    def drained(name, original, kernel_of):
        def wrapper(*args, **kwargs):
            kernel = kernel_of(args)
            start = len(kernel.trace.events)
            assert not kernel._queue, f"{name} starts with messages in flight"
            result = original(*args, **kwargs)
            assert not kernel._queue, f"{name} ends with messages in flight"
            assert {e.message.interval for e in kernel.trace.events[start:]} <= \
                {kernel.current_interval}
            phases.append(name)
            return result
        return wrapper

    monkeypatch.setattr(neg, "run_negotiation",
                        drained("negotiation", neg.run_negotiation, lambda args: args[0]))
    monkeypatch.setattr(Simulation, "_apply_control",
                        drained("control", Simulation._apply_control, lambda args: args[0].kernel))
    cfg = dataclasses.replace(generate_default_scenario(seed=1), controller_arch=controller)
    run_scenario(cfg)
    assert phases.count("negotiation") == cfg.num_intervals
    assert phases.count("control") == (controller != "None")


_on_grid = st.integers(-12, 12).map(lambda i: i * SETPOINT_GRID)


# off the setpoint grid and not dyadic either: running sums of values
# falsified by these round differently from ordered sums
_inexact = st.sampled_from([2.7, 0.1, -1.3])


@st.composite
def _small_scenarios(draw):
    """A small scenario with any observer, level and controller, any attack
    on and off the setpoint grid, any compromised agent or none, and any
    delays, degree and rewiring that validation may accept. Most draws
    falsify a non-battery agent's values off the grid from the incident on,
    where running sums would change the outputs."""
    n_agents = draw(st.integers(5, 9))
    base = generate_default_scenario(draw(st.integers(1, 10**6)), n_agents)
    num_intervals = draw(st.integers(8, 14))
    incident = draw(st.integers(obs.MIN_TRAINING_INTERVALS, num_intervals - 2))
    slots = base.intervals_per_negotiation
    attack = dataclasses.replace(
        base.attack, mode=draw(st.sampled_from(ATTACK_MODES)),
        scale_factor=draw(_inexact | st.sampled_from([-1.0, 0.0, 2.0, 3.0]) | st.floats(-4, 4)),
        offset_kw=draw(_inexact | _on_grid | st.floats(-3, 3)),
        replacement=tuple(draw(st.lists(_on_grid | st.floats(-5, 5),
                                        min_size=slots, max_size=slots))),
        active_from_interval=draw(st.sampled_from([incident, incident, num_intervals])))
    # a non-battery agent, no compromised agent, or a battery (every fourth
    # unit from the third)
    compromised = draw(st.sampled_from([i for i in range(n_agents) if i % 4 != 2]) | st.none()
                       | st.sampled_from(range(2, n_agents, 4)))
    agents = [dataclasses.replace(a, is_compromised=i == compromised)
              for i, a in enumerate(base.agents)]
    min_ticks = draw(st.integers(0, 5))
    return dataclasses.replace(
        base, num_intervals=num_intervals, agents=agents, attack=attack,
        incident_interval=incident,
        control_interval=draw(st.integers(incident + 1, num_intervals - 1)),
        observer_arch=draw(st.sampled_from(OBSERVER_ARCHS)), info_level=draw(st.integers(1, 4)),
        controller_arch=draw(st.sampled_from(CONTROLLER_ARCHS)),
        delay_model=dataclasses.replace(base.delay_model, min_ticks=min_ticks,
                                        max_ticks=draw(st.integers(min_ticks, 5))),
        topology_params=dataclasses.replace(base.topology_params, k=draw(st.sampled_from([2, 4])),
                                            rewire_probability=draw(st.floats(0, 1))))


@pytest.mark.hashseed
@given(_small_scenarios())
@settings(max_examples=200, deadline=None)
def test_every_accepted_scenario_runs(cfg):
    """A scenario that validation accepts runs to its end, or fails only with
    the documented runtime faults (exit 3 of `ocsim run`)."""
    assume(not validate_scenario(cfg))
    try:
        result = run_scenario(cfg)
    except (NonConvergenceError, obs.InsufficientTrainingError):
        return
    assert len(result.records) == cfg.num_intervals


def _outcome(cfg):
    try:
        return digest_result(run_scenario(cfg))
    except (NonConvergenceError, obs.InsufficientTrainingError) as e:
        return repr(e)


def _ordered_outcome(cfg):
    """The outcome of `cfg` with every working memory summed in order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "exact_sums", lambda config: False)
        return _outcome(cfg)


def _with_attack(cfg, **attack):
    return dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack, **attack))


# seeds 1-3 under Centralized control, falsified off the setpoint grid
OFF_GRID_ATTACKS = [{"mode": "Scale", "scale_factor": 2.7}, {"mode": "Offset", "offset_kw": 0.1}]


def _off_grid_run(seed, attack):
    base = dataclasses.replace(generate_default_scenario(seed), num_intervals=30,
                               incident_interval=10, control_interval=20,
                               controller_arch="Centralized")
    return _with_attack(base, active_from_interval=10, **attack)


def _off_grid_examples(test):
    for seed in (1, 2, 3):
        for attack in OFF_GRID_ATTACKS:
            test = example(_off_grid_run(seed, attack))(test)
    return test


@pytest.mark.hashseed
@_off_grid_examples
@given(_small_scenarios())
@settings(max_examples=70, deadline=None)
def test_running_sums_leave_every_run_as_the_ordered_sums_do(cfg):
    """Whichever way the grid gate decides, a run ends exactly as it does
    with every working memory summed in order."""
    assume(not validate_scenario(cfg))
    assert _outcome(cfg) == _ordered_outcome(cfg)


@pytest.mark.parametrize("attack", OFF_GRID_ATTACKS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_off_grid_examples_take_the_ordered_sums(seed, attack):
    """Falsified values off the setpoint grid would round differently in
    running sums, so the property's explicit examples run on ordered sums."""
    assert not exact_sums(_off_grid_run(seed, attack))


@pytest.mark.parametrize("attack,exact", [
    (AttackConfig(mode="Scale", scale_factor=3.0), True),
    (AttackConfig(mode="Scale", scale_factor=-2.0), True),
    (AttackConfig(mode="Scale", scale_factor=0.0), True),
    (AttackConfig(mode="Scale", scale_factor=2.7), False),
    (AttackConfig(mode="Offset", offset_kw=1.5), True),
    (AttackConfig(mode="Offset", offset_kw=0.1), False),
    (AttackConfig(mode="Replace", replacement=(9.0, -0.25, 0.0, 1.75)), True),
    (AttackConfig(mode="Replace", replacement=(9.0, -0.3, 0.0, 1.75)), False),
    (AttackConfig(mode="Scale", scale_factor=2.0 ** 60), False),
])
def test_the_grid_gate_keeps_running_sums_only_where_every_sum_is_exact(attack, exact):
    cfg = generate_default_scenario(seed=1)
    assert exact_sums(dataclasses.replace(cfg, attack=attack)) is exact


def test_an_attack_that_never_falsifies_keeps_running_sums():
    """Off-grid attack parameters do not matter when no agent is compromised
    or the attack starts at `num_intervals`."""
    cfg = _with_attack(generate_default_scenario(seed=1), scale_factor=2.7)
    assert not exact_sums(cfg)
    assert exact_sums(_with_attack(cfg, active_from_interval=cfg.num_intervals))
    honest = [dataclasses.replace(a, is_compromised=False) for a in cfg.agents]
    assert exact_sums(dataclasses.replace(cfg, agents=honest))


@pytest.mark.parametrize("scale_factor,exact", [(3.0, True), (2.7, False)])
def test_on_grid_runs_never_sum_the_others_in_order(monkeypatch, scale_factor, exact):
    """On the grid a reply takes the others' aggregate from the running sums;
    off it, every `respond` or `initiate` sums the others in order once."""
    replying = []  # the id of the agent whose reply is running
    calls = dict.fromkeys(["others", "replies"], 0)
    for name in ("respond", "initiate"):
        def counting(agent, *args, _original=getattr(neg.NegotiationAgent, name), **kwargs):
            calls["replies"] += 1
            replying.append(agent.agent_id)
            try:
                return _original(agent, *args, **kwargs)
            finally:
                replying.pop()
        monkeypatch.setattr(neg.NegotiationAgent, name, counting)

    def aggregate_of(assignment, slots, _original=neg.aggregate_of):
        calls["others"] += bool(replying) and replying[-1] not in assignment
        return _original(assignment, slots)
    monkeypatch.setattr(neg, "aggregate_of", aggregate_of)
    run_scenario(_with_attack(generate_default_scenario(seed=1), scale_factor=scale_factor))
    assert calls["replies"] > 0
    assert calls["others"] == (0 if exact else calls["replies"])


@pytest.mark.parametrize("controller", ["Decentralized", "MultiLeveled"])
def test_the_local_reaction_starts_at_the_suspects_lowest_id_neighbor(controller):
    """The controller co-located with the observer nearest the anomaly acts
    first: the compromised agent's lowest-id neighbor in the initial
    topology (at seed 1 that is not the lowest-id agent overall)."""
    sim = Simulation(dataclasses.replace(generate_default_scenario(seed=1),
                                         controller_arch=controller))
    compromised = next(a.agent_id for a in sim.config.agents if a.is_compromised)
    neighbors = sim.central.topology.neighbors(compromised)
    assert min(neighbors) != min(set(sim.agents) - {compromised})
    result = sim.run()
    assert [(a.issuer, a.target) for a in result.actions if a.kind == "ExcludeLocal"] == \
        [(min(neighbors), compromised)]


@pytest.mark.parametrize("controller,kinds", [
    ("Centralized", {"TopologyPush", "TaskReassignment"}),
    ("Decentralized", {"ExcludeLocal", "BlacklistNotice"}),
    ("MultiLeveled", {"ExcludeLocal", "BlacklistNotice", "EscalationReport",
                      "TopologyPush", "TaskReassignment"}),
])
def test_the_action_log_and_the_bus_agree(controller, kinds):
    """Each logged action is on the bus, sent by its issuer at its issued
    tick: a topology push to each survivor, a task handover to the new
    owner, a notice to its target, an escalation to the central controller.
    No issuer sends a control message at an issued tick without its action.
    The notices that agents pass on (`NegotiationAgent._notice`) go out
    later, when they arrive."""
    result = run_scenario(dataclasses.replace(generate_default_scenario(seed=1),
                                              controller_arch=controller))
    assert {a.kind for a in result.actions} == kinds
    survivors = sorted(set(result.agents) - result.blacklist)
    expected = Counter()
    for a in result.actions:
        if a.kind == "TopologyPush":
            expected.update((a.issuer, a.issued_tick, "TopologyPush", s) for s in survivors)
        elif a.kind == "TaskReassignment":
            expected[(a.issuer, a.issued_tick, "TaskHandover", a.new_owner)] += 1
        elif a.kind == "BlacklistNotice":
            expected[(a.issuer, a.issued_tick, "BlacklistNotice", a.target)] += 1
        elif a.kind == "EscalationReport":
            expected[(a.issuer, a.issued_tick, "EscalationReport", "central")] += 1
    issued = {(a.issuer, a.issued_tick) for a in result.actions}
    control_kinds = {"TopologyPush", "TaskHandover", "BlacklistNotice", "EscalationReport"}
    sent = Counter((m.sender, m.sent_tick, m.kind, m.receiver)
                   for m in (e.message for e in result.trace.events)
                   if m.kind in control_kinds and (m.sender, m.sent_tick) in issued)
    assert sent == expected


@pytest.mark.parametrize("controller", ["Centralized", "Decentralized", "MultiLeveled"])
def test_every_endpoint_answers_its_own_messages(controller):
    """The kernel holds only the bound `handle` of each agent and of the
    central controller, so a deep copy of an unrun simulation delivers to its
    own agents and runs to the digest of the original."""
    sim = Simulation(dataclasses.replace(generate_default_scenario(seed=1),
                                         controller_arch=controller))
    twin = copy.deepcopy(sim)
    for s in (sim, twin):
        endpoints = {**s.agents, "central": s.central}
        assert s.kernel.handlers.keys() == endpoints.keys()
        for aid, handler in s.kernel.handlers.items():
            assert handler.__self__ is endpoints[aid]
            assert handler.__func__ is type(endpoints[aid]).handle
    twin_result = twin.run()
    # the twin's run reached none of the original's agents, nor its delay stream
    assert not sim.kernel.trace.events
    assert all(not agent.memory.entries for agent in sim.agents.values())
    assert digest_result(twin_result) == digest_result(sim.run())
