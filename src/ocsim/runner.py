"""End-to-end simulation: negotiation intervals, attack, observer, controller.

One run executes `num_intervals` negotiation episodes on a single kernel.
The attack falsifies the compromised agent's wire view from the incident
interval on; the observer folds each completed interval's events into its
training state before the incident and into anomaly reports from it on; the
controller reacts at the configured control interval.
"""
from __future__ import annotations

import functools
import gc
import random
from dataclasses import dataclass
from itertools import chain

from . import attack as attack_mod
from . import controller as ctrl
from . import negotiation as neg
from . import observer as obs
from .kernel import DEFAULT_TICK_CAP, Kernel
from .metrics import IntervalRecord, classify_phase, compute_margins, evaluate_run
from .model import SETPOINT_GRID, ScenarioConfig, ScenarioError, validate_scenario
from .topology import build_small_world

# convergence durations are reported at the metrics pipeline's telemetry
# resolution (ticks are far finer than any monitoring system samples)
CONVERGENCE_RESOLUTION = 12


def _report_duration(raw_ticks: int) -> int:
    return -(-raw_ticks // CONVERGENCE_RESOLUTION) * CONVERGENCE_RESOLUTION


def _on_grid(value) -> bool:
    return float(value / SETPOINT_GRID).is_integer()


def exact_sums(config: ScenarioConfig) -> bool:
    """Whether the agents may keep running sums (negotiation.WorkingMemory):
    honest values are on the grid (`_rebuild_feasible` quantizes them), and
    wire values are under an integer `Scale`, an `Offset` or `Replace` on
    the grid, or an attack that never falsifies; all sums stay below 2**51 kW."""
    at = config.attack
    # one slot of all agents: each unit's largest value, jittered by up to
    # 12% and rounded to the grid
    honest = sum(2 * max(map(abs, chain(*spec.unit.feasible_schedules))) + 1
                 for spec in config.agents)
    if (at.active_from_interval >= config.num_intervals
            or not any(spec.is_compromised for spec in config.agents)):
        wire = 0.0
    elif at.mode == "Scale" and float(at.scale_factor).is_integer():
        wire = abs(at.scale_factor) * honest
    elif at.mode == "Offset" and _on_grid(at.offset_kw):
        wire = honest + abs(at.offset_kw)
    elif at.mode == "Replace" and all(map(_on_grid, at.replacement)):
        wire = max(map(abs, at.replacement))
    else:
        return False
    return 4 * (honest + wire) < 2 ** 51  # a swap takes one value out, one in


@dataclass
class RunResult:
    config: ScenarioConfig
    records: list
    trace: object
    reports: list
    actions: list
    blacklist: set
    gossip_completion_tick: int | None
    control_tick: int | None
    margins: object
    evaluation: dict
    agents: dict


class Simulation:
    """One run. Every bus endpoint answers its own messages: the kernel holds
    the bound `handle` of each agent and of the central controller, and none
    of them refers back to the simulation or the kernel, so a run makes no
    reference cycle and a copy of an unrun simulation delivers to its own
    agents."""

    def __init__(self, config: ScenarioConfig, tick_cap: int = DEFAULT_TICK_CAP):
        violations = validate_scenario(config)
        if violations:
            raise ScenarioError(violations)
        self.config = config

        self.agents = {}
        exact = exact_sums(config)
        for spec in config.agents:
            agent = neg.NegotiationAgent(spec.agent_id, spec.unit)
            agent.exact_sums = exact
            agent.react_lag = random.Random(
                f"ocsim-react:{config.seed}:{spec.agent_id}").randint(8, 64)
            self.agents[spec.agent_id] = agent
            if spec.is_compromised:
                agent.tamper = functools.partial(attack_mod.tamper, sender=spec.agent_id,
                                                 config=config.attack)

        tp = config.topology_params
        topology = build_small_world(self.agents, tp.k, tp.rewire_probability, config.seed)
        for aid, agent in self.agents.items():
            agent.neighbors = set(topology.neighbors(aid))

        dm = config.delay_model
        self.kernel = Kernel(config.seed, dm.min_ticks, dm.max_ticks, tick_cap=tick_cap)
        self.reports = []
        self.actions = []
        self.central = ctrl.CentralController(topology, self.agents, self.actions, config.seed)
        for aid, agent in self.agents.items():
            self.kernel.register(aid, agent.handle)
        self.kernel.register(ctrl.CENTRAL_ID, self.central.handle)
        self.control_tick = None  # set once, when control is applied
        self.gossip_completion_tick = None
        # folds each interval before the incident; finished at the incident
        unit_types = {spec.agent_id: spec.unit.unit_type for spec in config.agents}
        self._observer = obs.TrainedObserver(config.observer_arch, config.info_level,
                                             list(self.agents), unit_types, config.seed)

    # --- per-interval unit availability ---

    # cycling volatility pattern (calm and turbulent quarter-hours alternate,
    # like a day profile): the per-interval span scales how far each unit's
    # availability strays from its base
    JITTER_SPANS = (0.02, 0.12, 0.06, 0.09, 0.04)

    def _interval_jitter(self, interval):
        """Availability factor per unit and interval (weather, demand drift),
        from a dedicated seeded stream. Storage is not weather-bound, so
        batteries keep their nominal ladder."""
        span = self.JITTER_SPANS[interval % len(self.JITTER_SPANS)]
        jitter = {}
        for agent in self.agents.values():
            for unit in agent.units:
                if unit.unit_type == "Battery":
                    continue
                rng = random.Random(f"ocsim-jitter:{self.config.seed}:{interval}:{unit.unit_id}")
                jitter[unit.unit_id] = 1.0 + rng.uniform(-span, span)
        return jitter

    # --- observer ---

    def _observe(self, interval, events):
        """Hand the observer one finished interval. Intervals before the
        incident are folded into its training state; at the incident its
        models are finished, and from then on it scores each interval until
        the first report or the control action."""
        cfg = self.config
        delivered = [e for e in events if e.delivered]
        if interval < cfg.incident_interval:
            self._observer.fold(delivered)
        elif self.control_tick is None and not self.reports:
            if interval == cfg.incident_interval:
                # control comes after the incident and reports only from it,
                # so the first detection interval always reaches this branch
                self._observer.finish()
            self.reports.extend(self._observer.detect(
                delivered, {aid: agent.feasible_set for aid, agent in self.agents.items()}))

    # --- controller ---

    def _apply_control(self, report):
        """A control sub-phase, run to quiescence before the next episode.
        Centralized is a clean cutover: the topology push and task handover.
        A decentralized reaction has no global synchronisation point: the
        blacklist gossip spreads peer to peer, and each local controller
        excludes after its own reaction lag and re-negotiates from scratch.
        That extra traffic lands in the current interval's message count, so
        it shows on the bus, not in the next consensus. Control
        runs once; when it is done, every agent excluded by the central
        controller or by any local one is cut off the bus, and
        `kernel.excluded` is the run's blacklist from then on."""
        arch = self.config.controller_arch
        kernel = self.kernel
        self.control_tick = kernel.clock
        host = self.central.local_host(report.suspect)
        if arch == "Centralized":
            ctrl.centralized_react(kernel, self.central, report.suspect)
        elif arch == "Decentralized":
            ctrl.decentralized_react(kernel, host, report.suspect, self.actions)
        else:
            ctrl.multi_leveled_react(kernel, host, report, self.actions)
        neg.gossip_to_quiescence(kernel, self.agents)
        self.gossip_completion_tick = kernel.clock
        kernel.excluded.update(self.central.blacklist.union(
            *(agent.blacklist for agent in self.agents.values())))

    # --- main loop ---

    def run(self) -> RunResult:
        # A run makes no cyclic garbage (see the class), so the cyclic
        # collector is off for the whole run: its collections would only
        # re-walk the retained trace. The caller's setting is restored at the
        # end, and the caller's next collection walks what the run kept once.
        collecting = gc.isenabled()
        gc.disable()
        try:
            cfg = self.config
            records = []
            for interval in range(cfg.num_intervals):
                self.kernel.current_interval = interval
                trace_start = len(self.kernel.trace.events)
                if (self.reports and self.control_tick is None
                        and interval >= cfg.control_interval and cfg.controller_arch != "None"):
                    self._apply_control(ctrl.select_report(self.reports))
                active = sorted(set(self.agents) - self.kernel.excluded)
                rng = random.Random(f"ocsim-init:{cfg.seed}:{interval}")
                initiator = rng.choice(active)
                assignment, duration = neg.run_negotiation(
                    self.kernel, self.agents, initiator, self._interval_jitter(interval))
                aggregate = neg.aggregate_of(assignment, cfg.intervals_per_negotiation)
                quality = neg.objective(aggregate)
                records.append(IntervalRecord(
                    interval=interval, convergence_ticks=_report_duration(duration),
                    solution_quality=quality,
                    message_count=self.kernel.trace.interval_counts.get(interval, 0),
                    phase=classify_phase(interval, cfg)))
                self._observe(interval, self.kernel.trace.events[trace_start:])
            margins = compute_margins([r for r in records if r.phase == "Normal"])
            evaluation = evaluate_run(records, margins)
            return RunResult(config=cfg, records=records, trace=self.kernel.trace,
                             reports=self.reports, actions=self.actions,
                             blacklist=set(self.kernel.excluded),
                             gossip_completion_tick=self.gossip_completion_tick,
                             control_tick=self.control_tick, margins=margins,
                             evaluation=evaluation, agents=self.agents)
        finally:
            if collecting:
                gc.enable()


def run_scenario(config: ScenarioConfig, **kwargs) -> RunResult:
    return Simulation(config, **kwargs).run()
