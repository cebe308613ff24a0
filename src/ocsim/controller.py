"""Controller actions and the three mitigation architectures.

Actions: isolate compromised assets, adapt the communication topology,
reassign the excluded agent's task. Every architecture decides on a suspect,
the agent an observer reported, and in one step logs each action to the
run's action list and sends the message that carries it; the receiving agent
applies it (`NegotiationAgent.handle`). The centralized controller pushes a
rebuilt topology and reassigns the unit; the decentralized controller gossips
blacklist notices through the neighbor graph; the multi-leveled controller
does both, escalating to the central instance (bus endpoint `CENTRAL_ID`)
over the ordinary message bus.
"""
from __future__ import annotations

from dataclasses import dataclass

from .observer import DETECTOR_RANK
from .topology import rebuild_excluding, DegradedSystemError

CENTRAL_ID = "central"

# ticks between a local controller's decision and its first messages
# hitting the wire (a processing latency)
REACTION_LATENCY = 12


@dataclass
class ControlAction:
    kind: str  # ExcludeLocal | BlacklistNotice | TopologyPush | TaskReassignment | EscalationReport
    issuer: str
    issued_tick: int
    target: str | None = None          # suspect or recipient agent
    unit_id: str | None = None         # for TaskReassignment
    new_owner: str | None = None       # for TaskReassignment


def select_report(reports):
    """Pick the report to act on. A constraint violation is proof of
    falsified values; statistical flags may also hit honest agents that
    legitimately adjusted to the falsified data, so constraint reports take
    precedence."""
    return min(reports, key=lambda r: (DETECTOR_RANK.get(r.detector, 3),
                                       r.first_flagged_interval, r.suspect))


def reassign_task(candidates, load_by_agent) -> str:
    """Deterministic new owner: the candidate managing the fewest units,
    ties broken lexicographically."""
    candidates = sorted(candidates)
    if not candidates:
        raise DegradedSystemError("no candidate agents left for task reassignment")
    return min(candidates, key=lambda a: (load_by_agent.get(a, 0), a))


class CentralController:
    """The central controller's endpoint on the bus. It owns the topology it
    last pushed and its blacklist, acts on the suspect of each escalation
    report, and logs its actions to the run's one action list."""

    def __init__(self, topology, agents, actions, seed):
        self.topology = topology
        self.blacklist = set()
        self.agents = agents
        self.actions = actions
        self.seed = seed

    def handle(self, kernel, msg):
        if msg.kind == "EscalationReport":
            centralized_react(kernel, self, msg.content["suspect"])

    def local_host(self, suspect):
        """The local controller nearest the anomaly: the suspect's lowest-id
        neighbor (a validated topology is connected, so there is one)."""
        return self.agents[min(self.topology.neighbors(suspect))]


def centralized_react(kernel, central: CentralController, suspect):
    """One topology push to each survivor and one task handover, issued by
    `central`; a re-report about a blacklisted suspect logs and sends nothing.
    `rebuild_excluding` refuses to leave fewer than three survivors."""
    if suspect in central.blacklist:
        return
    central.blacklist.add(suspect)
    topology = central.topology = rebuild_excluding(central.topology, central.blacklist,
                                                    seed=central.seed)
    survivors = sorted(topology.nodes)
    central.actions.append(ControlAction(kind="TopologyPush", issuer=CENTRAL_ID,
                                         issued_tick=kernel.clock))
    content = {"generation": topology.generation,
               "adjacency": {a: sorted(topology.neighbors(a)) for a in survivors},
               "excluded": sorted(central.blacklist)}
    kernel.broadcast(CENTRAL_ID, survivors, "TopologyPush", content)
    unit = central.agents[suspect].units[0]
    owner = reassign_task(survivors, {aid: len(a.units) for aid, a in central.agents.items()})
    central.actions.append(ControlAction(kind="TaskReassignment", issuer=CENTRAL_ID,
                                         issued_tick=kernel.clock, unit_id=unit.unit_id,
                                         new_owner=owner))
    # custodial handover: the new owner runs the orphaned unit on its
    # reference schedule; without the unit's local controller it cannot
    # exploit the full flexibility range
    kernel.send(CENTRAL_ID, owner, "TaskHandover",
                {"unit_id": unit.unit_id, "unit_type": unit.unit_type,
                 "schedules": [list(unit.feasible_schedules[0])]})


def decentralized_react(kernel, host, suspect, actions) -> bool:
    """Local exclusion at `host` plus one blacklist notice per remaining
    neighbor; False, with nothing logged or sent, if `host` had already
    excluded the suspect. The agents' notice handlers forward a notice on
    first learning only, which bounds the notice count by edges x suspects."""
    if not host.exclude_local(suspect):
        return False
    actions.append(ControlAction(kind="ExcludeLocal", issuer=host.agent_id,
                                 issued_tick=kernel.clock, target=suspect))
    neighbors = sorted(host.neighbors)
    actions.extend(ControlAction(kind="BlacklistNotice", issuer=host.agent_id,
                                 issued_tick=kernel.clock, target=nb) for nb in neighbors)
    kernel.broadcast(host.agent_id, neighbors, "BlacklistNotice", {"suspect": suspect},
                     delay=REACTION_LATENCY)
    return True


def multi_leveled_react(kernel, host, report, actions):
    """Decentralized reaction plus one escalation of `report` to the central
    controller."""
    if decentralized_react(kernel, host, report.suspect, actions):
        actions.append(ControlAction(kind="EscalationReport", issuer=host.agent_id,
                                     issued_tick=kernel.clock, target=CENTRAL_ID))
        kernel.send(host.agent_id, CENTRAL_ID, "EscalationReport",
                    {"suspect": report.suspect, "interval": report.first_flagged_interval,
                     "score": report.score, "detector": report.detector},
                    delay=REACTION_LATENCY)


def action_record(a: ControlAction) -> dict:
    """The serialized form of an action, as evaluation.json holds it."""
    return {"kind": a.kind, "issuer": a.issuer, "issued_tick": a.issued_tick,
            "target": a.target, "unit_id": a.unit_id, "new_owner": a.new_owner}
