"""Controller actions and the three mitigation architectures.

Actions: isolate compromised assets,
adapt the communication topology, reassign the excluded agent's task.
Every architecture decides on a suspect, the agent an observer reported.
The centralized controller pushes a rebuilt topology and reassigns the unit;
the decentralized controller gossips blacklist notices through the neighbor
graph; the multi-leveled controller does both, escalating to the central
instance (bus endpoint `CENTRAL_ID`) over the ordinary message bus.
"""
from __future__ import annotations

from dataclasses import dataclass

from .topology import Topology, rebuild_excluding, DegradedSystemError

CENTRAL_ID = "central"


@dataclass
class ControlAction:
    kind: str  # ExcludeLocal | BlacklistNotice | TopologyPush | TaskReassignment | EscalationReport
    issuer: str
    issued_tick: int
    target: str | None = None          # suspect or recipient agent
    topology: Topology | None = None   # for TopologyPush
    unit_id: str | None = None         # for TaskReassignment
    new_owner: str | None = None       # for TaskReassignment


def reassign_task(candidates, load_by_agent) -> str:
    """Deterministic new owner: the candidate managing the fewest units,
    ties broken lexicographically."""
    candidates = sorted(candidates)
    if not candidates:
        raise DegradedSystemError("no candidate agents left for task reassignment")
    return min(candidates, key=lambda a: (load_by_agent.get(a, 0), a))


def centralized_react(suspect, topology: Topology, blacklist: set,
                      load_by_agent: dict, suspect_unit, tick=0, seed=None) -> list:
    """One topology push over the survivors plus one task reassignment.

    Re-reports about an already blacklisted suspect are idempotent (no
    duplicate actions)."""
    if suspect in blacklist:
        return []
    blacklist.add(suspect)
    survivors = sorted(topology.nodes - blacklist)
    if len(survivors) < 2:
        raise DegradedSystemError(f"only {len(survivors)} agents remain after exclusion")
    new_topology = rebuild_excluding(topology, blacklist, seed=seed)
    actions = [ControlAction(kind="TopologyPush", issuer=CENTRAL_ID, issued_tick=tick,
                             topology=new_topology)]
    if suspect_unit is not None:
        owner = reassign_task(survivors, load_by_agent)
        actions.append(ControlAction(kind="TaskReassignment", issuer=CENTRAL_ID,
                                     issued_tick=tick, unit_id=suspect_unit.unit_id,
                                     new_owner=owner))
    return actions


def decentralized_react(suspect, agent, tick=0) -> list:
    """Local exclusion at `agent` plus one blacklist notice per current neighbor.

    Gossip forwarding on first learning is handled by the agents' notice
    handlers; known entries are never re-forwarded, which bounds the total
    notice count by edges x suspects."""
    actions = []
    neighbors = sorted(agent.neighbors - {suspect})
    if agent.exclude_local(suspect):
        actions.append(ControlAction(kind="ExcludeLocal", issuer=agent.agent_id,
                                     issued_tick=tick, target=suspect))
        for nb in neighbors:
            actions.append(ControlAction(kind="BlacklistNotice", issuer=agent.agent_id,
                                         issued_tick=tick, target=nb))
    return actions


def multi_leveled_react(suspect, agent, tick=0) -> list:
    """Decentralized reaction plus one escalation to the central controller."""
    actions = decentralized_react(suspect, agent, tick=tick)
    if actions:
        actions.append(ControlAction(kind="EscalationReport", issuer=agent.agent_id,
                                     issued_tick=tick, target=CENTRAL_ID))
    return actions


def action_record(a: ControlAction) -> dict:
    """The serialized form of an action, as evaluation.json holds it."""
    return {"kind": a.kind, "issuer": a.issuer, "issued_tick": a.issued_tick,
            "target": a.target, "unit_id": a.unit_id, "new_owner": a.new_owner}

