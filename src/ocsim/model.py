"""Domain model: units, agents, scenario configuration and scenario file I/O.

All power values are in kW, signed: production is negative, consumption is
positive, so perfect self-consumption corresponds to an aggregate of zero.
"""
from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field, asdict
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .observer import MIN_TRAINING_INTERVALS

UNIT_TYPES = ("Wind", "PV", "Battery", "Household")

# Inverter/charger setpoints are quantized: units can only realize power
# levels on this grid (kW). Everything downstream (schedules, availability
# scaling) snaps to it.
SETPOINT_GRID = 0.25


def quantize(value: float) -> float:
    """Snap a power value to the setpoint grid (round half away from zero
    is avoided; half always rounds up, deterministically)."""
    return round(math.floor(value / SETPOINT_GRID + 0.5) * SETPOINT_GRID, 6)
OBSERVER_ARCHS = ("Centralized", "Decentralized", "GroupedByType", "GroupedRandom", "MultiLeveled")
CONTROLLER_ARCHS = ("None", "Centralized", "Decentralized", "MultiLeveled")
ATTACK_MODES = ("Scale", "Offset", "Replace")


@dataclass
class UnitModel:
    unit_id: str
    unit_type: str
    feasible_schedules: list[tuple[float, ...]]  # non-empty; kW per slot


@dataclass
class AgentSpec:
    agent_id: str
    unit: UnitModel
    is_compromised: bool = False


@dataclass
class AttackConfig:
    mode: str = "Scale"
    scale_factor: float = 3.0
    offset_kw: float = 0.0
    replacement: tuple[float, ...] | None = None
    active_from_interval: int = 20


@dataclass
class TopologyParams:
    k: int = 4
    rewire_probability: float = 0.1


@dataclass
class DelayModel:
    min_ticks: int = 1
    max_ticks: int = 5


@dataclass
class ScenarioConfig:
    seed: int
    num_intervals: int = 60
    intervals_per_negotiation: int = 4
    agents: list[AgentSpec] = field(default_factory=list)
    topology_params: TopologyParams = field(default_factory=TopologyParams)
    attack: AttackConfig = field(default_factory=AttackConfig)
    observer_arch: str = "MultiLeveled"
    info_level: int = 4
    controller_arch: str = "Centralized"
    incident_interval: int = 20
    control_interval: int = 36
    delay_model: DelayModel = field(default_factory=DelayModel)


# --- the schema: the annotations above type every field ---

class ScenarioError(ValueError):
    """A scenario that does not fit the schema; `violations` lists each
    problem, prefixed with the path of its field."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = violations


_KINDS = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}
_NUMBERS = (int, float)
_FINITE = sys.float_info.max
_fields = cache(get_type_hints)  # a scenario dataclass's field annotations by name


def _typed(value, hint, path, v, load):
    """Check `value` against the annotation `hint`, appending each problem to
    `v` under `path`. With `load`, `value` is parsed JSON, and the result is
    built from it: an object becomes the annotated dataclass and an array the
    annotated list or tuple. Otherwise `value` was built in code, where a
    list and a tuple are alike, and is returned as is."""
    if type(hint) is UnionType:  # `X | None`
        if value is None:
            return None
        hint = get_args(hint)[0]
    if hint in _KINDS:  # one rule per kind: a bool is not a number, a number is finite
        if hint is float and type(value) in _NUMBERS:
            if not -_FINITE <= value <= _FINITE:
                v.append(f"{path}: non-finite value {value!r}")
        elif type(value) is not hint:
            v.append(f"{path}: expected {_KINDS[hint]}, got {value!r}")
        return value
    container = get_origin(hint)
    if container is None:  # a scenario dataclass: its fields are the keys
        given = value if load else vars(value) if isinstance(value, hint) else None
        if type(given) is not dict:
            kind = "an object" if load else hint.__name__
            v.append(f"{path or 'scenario'}: expected {kind}, got {value!r}")
            return None
        prefix = f"{path}." if path else ""
        hints = _fields(hint)
        v.extend(f"{prefix}{key}: unknown key" for key in given if key not in hints)
        kwargs = {name: _typed(given[name], h, prefix + name, v, load)
                  for name, h in hints.items() if name in given}
        v.extend(f"{prefix}{name}: missing key" for name in hints if name not in given)
        if not load:
            return value
        return hint(**kwargs) if len(kwargs) == len(hints) else None
    if type(value) not in (list, tuple):
        v.append(f"{path}: expected a list, got {value!r}")
        return None
    item = get_args(hint)[0]
    if item is float and all(type(x) in _NUMBERS and -_FINITE <= x <= _FINITE for x in value):
        items = value  # the bulk of a scenario: element paths only for a bad element
    else:
        items = [_typed(x, item, f"{path}[{i}]", v, load) for i, x in enumerate(value)]
    return container(items) if load else value


def validate_scenario(config: ScenarioConfig) -> list:
    """Check every model invariant; returns a list of violations (empty = ok).

    Each violation is a string prefixed with the path of the offending field.
    Violations are data, not faults: this never raises. Every field is
    type-checked against its annotation first, and type violations are
    reported alone, since the other checks compare the values.
    """
    v = []
    _typed(config, ScenarioConfig, "", v, load=False)
    if v:
        return v
    if config.num_intervals < 1:
        v.append("num_intervals: must be >= 1")
    if config.intervals_per_negotiation < 1:
        v.append("intervals_per_negotiation: must be >= 1")
    if not (config.incident_interval < config.control_interval < config.num_intervals):
        if config.control_interval <= config.incident_interval:
            v.append("control_interval: control before incident")
        else:
            v.append("incident_interval/control_interval: must satisfy "
                     "incident < control < num_intervals")
    if config.incident_interval < MIN_TRAINING_INTERVALS:  # the observer's training window
        v.append(f"incident_interval: need >= {MIN_TRAINING_INTERVALS} "
                 "training intervals before it")
    if config.observer_arch not in OBSERVER_ARCHS:
        v.append(f"observer_arch: unknown value {config.observer_arch!r}")
    if config.controller_arch not in CONTROLLER_ARCHS:
        v.append(f"controller_arch: unknown value {config.controller_arch!r}")
    if config.info_level not in (1, 2, 3, 4):
        v.append(f"info_level: must be in 1..4, got {config.info_level}")
    if config.delay_model.min_ticks < 0 or config.delay_model.max_ticks < config.delay_model.min_ticks:
        v.append("delay_model: need 0 <= min_ticks <= max_ticks")
    tp = config.topology_params
    n = len(config.agents)
    if tp.k % 2 != 0 or tp.k < 2 or tp.k >= n:
        v.append(f"topology_params.k: must be even and 2 <= k < n, got k={tp.k}, n={n}")
    if config.controller_arch in ("Centralized", "MultiLeveled") and n < 4:
        # these rebuild the topology after an exclusion: 2 <= k < survivors
        v.append(f"agents: {config.controller_arch} control rebuilds the topology "
                 f"after an exclusion and needs at least 4 agents, got {n}")
    if not (0.0 <= tp.rewire_probability <= 1.0):
        v.append("topology_params.rewire_probability: must be in [0,1]")

    at = config.attack
    if config.incident_interval != at.active_from_interval < config.num_intervals:
        v.append("attack.active_from_interval: must be incident_interval, where the phases "
                 "say the attack starts, or >= num_intervals for no attack")
    if at.mode not in ATTACK_MODES:
        v.append(f"attack.mode: unknown value {at.mode!r}")
    if at.mode == "Scale" and 0.99 <= at.scale_factor <= 1.01:
        v.append("attack.scale_factor: Scale within [0.99, 1.01] is a no-op attack")
    if at.mode == "Offset" and at.offset_kw == 0:
        v.append("attack.offset_kw: Offset 0 is a no-op attack")
    if at.mode == "Replace" and at.replacement is None:
        v.append("attack.replacement: Replace mode requires a replacement schedule")
    elif at.mode == "Replace" and len(at.replacement) != config.intervals_per_negotiation:
        v.append(f"attack.replacement: length {len(at.replacement)} != "
                 f"intervals_per_negotiation {config.intervals_per_negotiation}")

    seen_agent, seen_unit = set(), set()
    compromised = None
    for i, a in enumerate(config.agents):
        path = f"agents[{i}]"
        if a.agent_id in seen_agent:
            v.append(f"{path}.agent_id: duplicate id {a.agent_id!r}")
        seen_agent.add(a.agent_id)
        u = a.unit
        if u.unit_id in seen_unit:
            v.append(f"{path}.unit.unit_id: duplicate id {u.unit_id!r}")
        seen_unit.add(u.unit_id)
        if u.unit_type not in UNIT_TYPES:
            v.append(f"{path}.unit.unit_type: unknown type {u.unit_type!r}")
        if not u.feasible_schedules:
            v.append(f"{path}.unit.feasible_schedules: feasible_schedules empty")
        for j, s in enumerate(u.feasible_schedules):
            if len(s) != config.intervals_per_negotiation:
                v.append(f"{path}.unit.feasible_schedules[{j}]: length {len(s)} != "
                         f"intervals_per_negotiation {config.intervals_per_negotiation}")
                break
        if a.is_compromised:
            if compromised is not None:
                v.append(f"{path}.is_compromised: only one compromised agent is "
                         f"supported, {compromised!r} already is")
            compromised = a.agent_id
    return v


def _unit_schedules(rng: random.Random, unit_type: str, slots: int, battery_rank: int) -> list:
    """Seeded candidate set for one unit; all values on the setpoint grid.

    Wind/PV/Household: ten candidates, a per-unit base level and nine
    flexibility steps around it, so reported values cluster (anomaly
    detection gets a stable signature). Battery: a ladder of
    charge/discharge levels; batteries alternate between a bulk unit (wide
    range, coarse rungs) and a trim unit (narrow range, one rung per grid
    step), so together they can absorb a large offset and still land exactly
    on the target.
    """
    if unit_type == "Battery":
        if battery_rank % 2 == 0:  # bulk: wide range, coarse rungs
            levels = [round(-7.0 + 1.75 * j, 6) for j in range(9)]
        else:  # trim: narrow range, one rung per grid step
            levels = [round(-1.5 + SETPOINT_GRID * j, 6) for j in range(13)]
        return [tuple(level for _ in range(slots)) for level in levels]
    if unit_type == "Wind":
        base = -rng.uniform(1.2, 2.4)
    elif unit_type == "PV":
        base = -rng.uniform(1.0, 2.0)
    else:  # Household; sized so production and consumption roughly balance
        base = rng.uniform(2.0, 3.2)
    base = quantize(base)
    schedules = [tuple(base for _ in range(slots))]
    for _ in range(9):
        level = base + rng.choice((-0.5, -0.25, 0.25, 0.5))
        schedules.append(tuple(round(level, 6) for _ in range(slots)))
    return schedules


MIN_AGENTS = 5


def generate_default_scenario(seed: int, n_agents: int = 8) -> ScenarioConfig:
    """Deterministic default neighborhood-grid scenario.

    Unit types rotate round-robin; one compromised agent is picked by a seeded
    draw among the non-storage units (scaling a storage unit's near-symmetric
    values gives no usable detection signature, so storage is not a default
    attack target; set AgentSpec.is_compromised by hand to override).
    At least MIN_AGENTS agents: the small-world degree k=4 needs k < n.
    """
    if n_agents < MIN_AGENTS:
        raise ValueError(f"n_agents must be >= {MIN_AGENTS}, got {n_agents}")
    rng = random.Random(f"ocsim-scenario:{seed}")
    config = ScenarioConfig(seed=seed)
    slots = config.intervals_per_negotiation
    agents = config.agents
    n_batteries = 0
    for i in range(n_agents):
        unit_type = UNIT_TYPES[i % len(UNIT_TYPES)]
        schedules = _unit_schedules(rng, unit_type, slots, battery_rank=n_batteries)
        if unit_type == "Battery":
            n_batteries += 1
        unit = UnitModel(unit_id=f"u{i:02d}", unit_type=unit_type,
                         feasible_schedules=schedules)
        agents.append(AgentSpec(agent_id=f"a{i:02d}", unit=unit))
    candidates = [a for a in agents if a.unit.unit_type != "Battery"]
    rng.choice(candidates).is_compromised = True
    return config


# --- scenario file round-trip (JSON: key/value + nested lists) ---

def scenario_to_dict(config: ScenarioConfig) -> dict:
    return asdict(config)


def scenario_from_dict(d: dict) -> ScenarioConfig:
    """Build a config from parsed JSON, or raise ScenarioError listing every
    missing, unknown or mistyped field."""
    v = []
    config = _typed(d, ScenarioConfig, "", v, load=True)
    if v:
        raise ScenarioError(v)
    return config


def save_scenario(config: ScenarioConfig, path) -> None:
    with open(path, "w") as f:
        json.dump(scenario_to_dict(config), f, indent=2, sort_keys=True)
        f.write("\n")


def load_scenario(path) -> ScenarioConfig:
    """Raises OSError for an unreadable file, ValueError for invalid JSON and
    ScenarioError for JSON that does not fit the schema."""
    with open(path) as f:
        return scenario_from_dict(json.load(f))
