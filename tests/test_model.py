import copy
import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ocsim import model
from ocsim.model import (SETPOINT_GRID, AttackConfig, ScenarioConfig, TopologyParams,
                         UnitModel, generate_default_scenario, quantize, scenario_from_dict,
                         scenario_to_dict, validate_scenario)
from ocsim.runner import Simulation, run_scenario


# --- setpoint grid ---

@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_quantize_lands_on_grid(v):
    q = quantize(v)
    steps = q / SETPOINT_GRID
    assert math.isclose(steps, round(steps), abs_tol=1e-9)


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_quantize_moves_at_most_half_a_step(v):
    assert abs(quantize(v) - v) <= SETPOINT_GRID / 2 + 1e-9


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_quantize_is_idempotent(v):
    q = quantize(v)
    assert quantize(q) == q


def test_quantize_half_rounds_up_deterministically():
    # exactly between two grid points: always the upper one
    assert quantize(0.125) == 0.25
    assert quantize(-0.125) == 0.0


# --- schedule generation ---

def test_generated_schedules_are_flat_and_on_grid(scenario):
    for spec in scenario.agents:
        for sched in spec.unit.feasible_schedules:
            assert len(sched) == scenario.intervals_per_negotiation
            assert len(set(sched)) == 1  # one setpoint held across the slots
            assert quantize(sched[0]) == pytest.approx(sched[0])


def test_unit_type_sign_conventions(scenario):
    for spec in scenario.agents:
        values = [s[0] for s in spec.unit.feasible_schedules]
        if spec.unit.unit_type in ("Wind", "PV"):
            assert all(v <= 0 for v in values)  # production
        elif spec.unit.unit_type == "Household":
            assert all(v >= 0 for v in values)  # consumption
        else:
            assert min(values) < 0 < max(values)  # storage swings both ways


def test_battery_ladders_alternate_bulk_and_trim():
    cfg = generate_default_scenario(seed=3, n_agents=12)
    batteries = [a for a in cfg.agents if a.unit.unit_type == "Battery"]
    assert len(batteries) == 3
    spans = [max(s[0] for s in b.unit.feasible_schedules)
             - min(s[0] for s in b.unit.feasible_schedules) for b in batteries]
    assert spans[0] > spans[1]  # bulk covers a wider range than trim
    assert spans[0] == spans[2]  # ranks alternate
    trim_levels = sorted(s[0] for s in batteries[1].unit.feasible_schedules)
    diffs = {round(b - a, 6) for a, b in zip(trim_levels, trim_levels[1:])}
    assert diffs == {SETPOINT_GRID}  # trim has one rung per grid step


def test_default_scenario_is_deterministic():
    a = scenario_to_dict(generate_default_scenario(seed=7))
    b = scenario_to_dict(generate_default_scenario(seed=7))
    assert a == b
    assert a != scenario_to_dict(generate_default_scenario(seed=8))


def test_default_scenario_compromises_one_non_storage_agent(scenario):
    compromised = [a for a in scenario.agents if a.is_compromised]
    assert len(compromised) == 1
    assert compromised[0].unit.unit_type != "Battery"


def test_default_scenario_rejects_tiny_communities():
    with pytest.raises(ValueError):
        generate_default_scenario(seed=1, n_agents=3)


def test_default_scenario_refuses_a_community_its_topology_cannot_hold():
    # k=4 neighbours need at least five agents
    with pytest.raises(ValueError, match="n_agents must be >= 5"):
        generate_default_scenario(seed=1, n_agents=4)
    assert validate_scenario(generate_default_scenario(seed=1, n_agents=5)) == []


# --- validation ---

def test_default_scenario_validates_clean(scenario):
    assert validate_scenario(scenario) == []


def test_validation_flags_phase_ordering(scenario):
    bad = dataclasses.replace(scenario, incident_interval=40, control_interval=30)
    assert any("control before incident" in v for v in validate_scenario(bad))
    bad = dataclasses.replace(scenario, control_interval=60)
    assert any("incident" in v for v in validate_scenario(bad))


def test_an_incident_at_interval_zero_is_one_violation(scenario):
    """The lower bound of incident_interval is the training window's: the
    phase ordering rule does not report it again."""
    bad = dataclasses.replace(scenario, incident_interval=0, attack=dataclasses.replace(
        scenario.attack, active_from_interval=0))
    assert validate_scenario(bad) == [
        "incident_interval: need >= 5 training intervals before it"]


@pytest.mark.parametrize("start,accepted", [(19, False), (20, True), (21, False), (40, False),
                                            (59, False), (60, True), (99, True)])
def test_the_attack_starts_at_the_incident_or_never(scenario, start, accepted):
    """Phases are labelled from incident_interval (20 here), so an attack may
    start only there, or at num_intervals (60) or later for an untampered
    twin."""
    cfg = dataclasses.replace(scenario, attack=dataclasses.replace(
        scenario.attack, active_from_interval=start))
    assert validate_scenario(cfg) == ([] if accepted else [
        "attack.active_from_interval: must be incident_interval, where the phases say the "
        "attack starts, or >= num_intervals for no attack"])


def test_validation_flags_unknown_enums(scenario):
    bad = dataclasses.replace(scenario, observer_arch="Oracle", info_level=9,
                              controller_arch="Magic")
    violations = validate_scenario(bad)
    assert len(violations) == 3


def test_validation_flags_duplicate_ids(scenario):
    agents = list(scenario.agents)
    agents.append(dataclasses.replace(agents[0]))
    bad = dataclasses.replace(scenario, agents=agents)
    violations = validate_scenario(bad)
    assert any("duplicate id" in v and "agent_id" in v for v in violations)
    assert any("duplicate id" in v and "unit_id" in v for v in violations)


def test_validation_flags_schedule_shape(scenario):
    unit = UnitModel(unit_id="ux", unit_type="PV", feasible_schedules=[(1.0, 2.0)])
    agents = scenario.agents + [model.AgentSpec(agent_id="ax", unit=unit)]
    bad = dataclasses.replace(scenario, agents=agents,
                              topology_params=scenario.topology_params)
    assert any("length 2" in v for v in validate_scenario(bad))
    unit2 = UnitModel(unit_id="uy", unit_type="PV",
                      feasible_schedules=[(1.0, float("nan"), 1.0, 1.0)])
    bad = dataclasses.replace(scenario, agents=scenario.agents
                              + [model.AgentSpec(agent_id="ay", unit=unit2)])
    assert any("non-finite" in v for v in validate_scenario(bad))


def test_validation_flags_noop_scale_attack(scenario):
    bad = dataclasses.replace(scenario, attack=AttackConfig(mode="Scale", scale_factor=1.0))
    assert any("no-op" in v for v in validate_scenario(bad))


def test_validation_flags_noop_offset_attack(scenario):
    bad = dataclasses.replace(scenario, attack=AttackConfig(mode="Offset", offset_kw=0.0))
    assert validate_scenario(bad) == ["attack.offset_kw: Offset 0 is a no-op attack"]
    with pytest.raises(ValueError, match="attack.offset_kw"):
        Simulation(bad)
    ok = dataclasses.replace(scenario, attack=AttackConfig(mode="Offset", offset_kw=-0.5))
    assert validate_scenario(ok) == []


def test_validation_flags_replace_without_replacement(scenario):
    bad = dataclasses.replace(scenario, attack=AttackConfig(mode="Replace"))
    assert any("replacement" in v for v in validate_scenario(bad))


@pytest.mark.parametrize("length", [3, 5])
def test_validation_flags_replacement_of_the_wrong_length(scenario, length):
    bad = dataclasses.replace(scenario, attack=AttackConfig(
        mode="Replace", replacement=[9.0] * length))
    assert validate_scenario(bad) == [
        f"attack.replacement: length {length} != intervals_per_negotiation 4"]
    with pytest.raises(ValueError, match="attack.replacement"):
        Simulation(bad)


def test_validation_flags_a_second_compromised_agent(scenario):
    agents = [dataclasses.replace(a, is_compromised=a.is_compromised or i == 0)
              for i, a in enumerate(scenario.agents)]
    first = next(a.agent_id for a in agents if a.is_compromised)
    second = [i for i, a in enumerate(agents) if a.is_compromised][1]
    bad = dataclasses.replace(scenario, agents=agents)
    assert validate_scenario(bad) == [
        f"agents[{second}].is_compromised: only one compromised agent is "
        f"supported, {first!r} already is"]
    with pytest.raises(ValueError, match="is_compromised"):
        Simulation(bad)


def _replace_path(config, path, value):
    head, _, name = path.rpartition(".")
    if not head:
        return dataclasses.replace(config, **{name: value})
    return dataclasses.replace(config, **{head: dataclasses.replace(
        getattr(config, head), **{name: value})})


@pytest.mark.parametrize("value", ["60", 60.0, 2.5, True])
@pytest.mark.parametrize("path", [
    "num_intervals", "intervals_per_negotiation", "incident_interval", "control_interval",
    "info_level", "delay_model.min_ticks", "delay_model.max_ticks", "topology_params.k",
    "attack.active_from_interval"])
def test_validation_reports_a_wrongly_typed_integer_field(scenario, path, value):
    bad = _replace_path(scenario, path, value)
    assert validate_scenario(bad) == [f"{path}: expected an integer, got {value!r}"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("path", [
    "attack.scale_factor", "attack.offset_kw", "topology_params.rewire_probability"])
def test_validation_refuses_a_non_finite_real(scenario, path, value):
    bad = _replace_path(scenario, path, value)
    assert validate_scenario(bad) == [f"{path}: non-finite value {value!r}"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_validation_refuses_a_non_finite_replacement_value(scenario, value):
    bad = dataclasses.replace(scenario, attack=AttackConfig(
        mode="Replace", replacement=(1.0, 1.0, value, 1.0)))
    assert validate_scenario(bad) == [f"attack.replacement[2]: non-finite value {value!r}"]


@pytest.mark.parametrize("path,value,kind", [
    ("topology_params.rewire_probability", "x", "a number"),
    ("attack.scale_factor", "3", "a number"),
    ("attack.offset_kw", True, "a number"),
    ("observer_arch", 3, "a string"),
    ("attack.replacement", "1,1,1,1", "a list")])
def test_validation_reports_a_wrongly_typed_field(scenario, path, value, kind):
    bad = _replace_path(scenario, path, value)
    assert validate_scenario(bad) == [f"{path}: expected {kind}, got {value!r}"]


def test_validation_refuses_an_empty_community(scenario):
    for controller in model.CONTROLLER_ARCHS:
        bad = dataclasses.replace(scenario, agents=[], controller_arch=controller)
        assert "topology_params.k: must be even and 2 <= k < n, got k=4, n=0" \
            in validate_scenario(bad)


def _community(scenario, n, controller):
    """The first `n` default agents, the first one compromised, on a k=2 ring."""
    agents = [dataclasses.replace(a, is_compromised=i == 0)
              for i, a in enumerate(scenario.agents[:n])]
    return dataclasses.replace(scenario, agents=agents, controller_arch=controller,
                               topology_params=TopologyParams(k=2))


@pytest.mark.parametrize("controller", ["Centralized", "MultiLeveled"])
def test_validation_refuses_a_community_a_topology_rebuild_cannot_hold(scenario, controller):
    # excluding one of 3 leaves 2 agents, too few for the rebuilt k=2 ring
    assert validate_scenario(_community(scenario, 3, controller)) == [
        f"agents: {controller} control rebuilds the topology after an exclusion "
        f"and needs at least 4 agents, got 3"]
    result = run_scenario(_community(scenario, 4, controller))
    assert result.blacklist == {scenario.agents[0].agent_id}


@pytest.mark.parametrize("controller", ["None", "Decentralized"])
def test_three_agents_suffice_without_a_topology_rebuild(scenario, controller):
    assert validate_scenario(_community(scenario, 3, controller)) == []


def test_validation_never_raises_on_garbage():
    cfg = ScenarioConfig(seed=0, num_intervals=0, intervals_per_negotiation=0)
    violations = validate_scenario(cfg)
    assert violations  # a pile of violations, but no exception


# --- scenario file round-trip ---

def test_scenario_json_round_trip(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    model.save_scenario(scenario, path)
    loaded = model.load_scenario(path)
    assert scenario_to_dict(loaded) == scenario_to_dict(scenario)


def test_scenario_dict_round_trip_preserves_attack_replacement(scenario):
    cfg = dataclasses.replace(
        scenario, attack=AttackConfig(mode="Replace", replacement=(1.0, 1.0, 1.0, 1.0)))
    back = scenario_from_dict(scenario_to_dict(cfg))
    assert back.attack.replacement == (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("path,value,violation", [
    (("attack", "scale_factor"), float("nan"), "attack.scale_factor: non-finite value nan"),
    (("attack", "replacement"), [1.0, float("inf")],
     "attack.replacement[1]: non-finite value inf"),
    (("agents", 2, "unit", "feasible_schedules", 1, 3), "1.0",
     "agents[2].unit.feasible_schedules[1][3]: expected a number, got '1.0'"),
    (("agents", 0, "is_compromised"), 0, "agents[0].is_compromised: expected a boolean, got 0"),
    (("delay_model",), [1, 5], "delay_model: expected an object, got [1, 5]"),
    (("attack", "modus"), "Scale", "attack.modus: unknown key")])
def test_loading_reports_each_problem_under_its_path(path, value, violation):
    d = copy.deepcopy(INIT_SEED_1)
    _at(d, path[:-1])[path[-1]] = value
    with pytest.raises(model.ScenarioError) as exc:
        scenario_from_dict(d)
    assert exc.value.violations == [violation]


def test_loading_lists_every_missing_key():
    d = copy.deepcopy(INIT_SEED_1)
    del d["seed"], d["attack"]["active_from_interval"], d["agents"][1]["unit"]
    with pytest.raises(model.ScenarioError) as exc:
        scenario_from_dict(d)
    assert exc.value.violations == ["agents[1].unit: missing key",
                                    "attack.active_from_interval: missing key",
                                    "seed: missing key"]


# --- no scenario file makes loading or validation raise ---

# what `ocsim init --seed 1` writes
INIT_SEED_1 = json.loads(json.dumps(scenario_to_dict(generate_default_scenario(seed=1))))


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


JSON_VALUES = st.one_of(
    st.text(max_size=3), st.floats(), st.integers(), st.booleans(), st.none(),
    st.lists(st.one_of(st.floats(), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@settings(max_examples=600, deadline=None)
@given(path=st.sampled_from(list(_paths(INIT_SEED_1))), drop=st.booleans(), value=JSON_VALUES)
@example(path=("topology_params", "rewire_probability"), drop=False, value="x")
@example(path=("attack", "scale_factor"), drop=False, value="3")
@example(path=("agents",), drop=False, value=[])
def test_a_mutated_scenario_loads_and_validates_without_raising(path, drop, value):
    d = copy.deepcopy(INIT_SEED_1)
    parent = _at(d, path[:-1])
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        config = scenario_from_dict(d)
    except model.ScenarioError as exc:
        assert exc.violations and all(type(v) is str for v in exc.violations)
        return
    assert all(type(v) is str for v in validate_scenario(config))
