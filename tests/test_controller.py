import pytest

from ocsim import controller as ctrl
from ocsim import negotiation as neg
from ocsim import observer as obs
from ocsim.model import UnitModel
from ocsim.topology import DegradedSystemError, build_small_world


def _agent(aid, neighbors):
    unit = UnitModel(unit_id=f"u-{aid}", unit_type="PV",
                     feasible_schedules=[(-1.0,) * 4])
    agent = neg.NegotiationAgent(aid, unit, [0.0] * 4)
    agent.neighbors = set(neighbors)
    return agent


# --- task reassignment ---

def test_reassignment_picks_least_loaded_then_lexicographic():
    load = {"a01": 2, "a02": 1, "a03": 1}
    assert ctrl.reassign_task(["a01", "a02", "a03"], load) == "a02"
    assert ctrl.reassign_task(["a03", "a02"], {}) == "a02"


def test_reassignment_without_candidates_is_degraded():
    with pytest.raises(DegradedSystemError):
        ctrl.reassign_task([], {})


# --- centralized reaction ---

class _Bus:
    """Records what a reaction sends, at a fixed clock."""

    def __init__(self, clock=500):
        self.clock = clock
        self.sent = []

    def send(self, sender, receiver, kind, content, delay=None):
        self.sent.append((sender, receiver, kind, content, delay))


def _central(ids, k, p, blacklist=()):
    topology = build_small_world(ids, k, p, seed=1)
    agents = {aid: _agent(aid, topology.neighbors(aid)) for aid in ids}
    central = ctrl.CentralController(topology, agents, [], seed=1)
    central.blacklist.update(blacklist)
    return central


def test_centralized_reaction_pushes_topology_and_reassigns():
    ids = [f"a{i:02d}" for i in range(8)]
    central = _central(ids, 4, 0.1)
    old = central.topology
    bus = _Bus()
    ctrl.centralized_react(bus, central, "a03")
    assert [a.kind for a in central.actions] == ["TopologyPush", "TaskReassignment"]
    push, handover = central.actions
    survivors = sorted(central.topology.nodes)
    assert "a03" not in survivors
    assert central.topology.generation == old.generation + 1
    assert handover.unit_id == "u-a03"
    assert handover.new_owner in survivors
    assert push.issuer == handover.issuer == "central"
    assert push.issued_tick == handover.issued_tick == 500
    assert central.blacklist == {"a03"}
    # one push per survivor, then the handover, all from the central instance
    assert [m[:3] for m in bus.sent] == \
        [("central", aid, "TopologyPush") for aid in survivors] + \
        [("central", handover.new_owner, "TaskHandover")]
    assert bus.sent[-1][3]["unit_id"] == "u-a03"


def test_centralized_reaction_is_idempotent_per_suspect():
    ids = [f"a{i:02d}" for i in range(8)]
    central = _central(ids, 4, 0.1)
    bus = _Bus()
    ctrl.centralized_react(bus, central, "a03")
    logged, sent = list(central.actions), list(bus.sent)
    bus.clock = 600
    ctrl.centralized_react(bus, central, "a03")
    assert logged and central.actions == logged and bus.sent == sent
    assert central.blacklist == {"a03"}


def test_centralized_reaction_refuses_degraded_system():
    central = _central(["a00", "a01", "a02"], 2, 0.0, blacklist={"a01"})
    bus = _Bus()
    # excluding a second of three leaves a single survivor
    with pytest.raises(DegradedSystemError):
        ctrl.centralized_react(bus, central, "a02")
    assert not central.actions and not bus.sent


# --- decentralized and multi-leveled reactions ---

def test_decentralized_reaction_excludes_and_notifies_neighbors():
    agent = _agent("a01", {"a00", "a02", "a03"})
    bus, actions = _Bus(), []
    assert ctrl.decentralized_react(bus, agent, "a03", actions)
    assert actions[0].kind == "ExcludeLocal" and actions[0].target == "a03"
    notices = [a for a in actions if a.kind == "BlacklistNotice"]
    assert [a.target for a in notices] == ["a00", "a02"]  # never the suspect
    assert bus.sent == [("a01", nb, "BlacklistNotice", {"suspect": "a03"},
                         ctrl.REACTION_LATENCY) for nb in ("a00", "a02")]
    assert "a03" in agent.blacklist


def test_decentralized_reaction_is_idempotent():
    agent = _agent("a01", {"a00", "a03"})
    bus, actions = _Bus(), []
    assert ctrl.decentralized_react(bus, agent, "a03", actions)
    logged, sent = list(actions), list(bus.sent)
    assert not ctrl.decentralized_react(bus, agent, "a03", actions)
    assert actions == logged and bus.sent == sent


def test_multi_leveled_reaction_adds_one_escalation():
    agent = _agent("a01", {"a00", "a02", "a03"})
    report = obs.AnomalyReport(suspect="a03", first_flagged_interval=21, score=4.5,
                               detector="constraint")
    bus, actions = _Bus(), []
    ctrl.multi_leveled_react(bus, agent, report, actions)
    assert [a.kind for a in actions] == \
        ["ExcludeLocal", "BlacklistNotice", "BlacklistNotice", "EscalationReport"]
    assert actions[-1].target == "central"
    assert [m[2] for m in bus.sent] == ["BlacklistNotice", "BlacklistNotice", "EscalationReport"]
    assert bus.sent[-1] == ("a01", "central", "EscalationReport",
                            {"suspect": "a03", "interval": 21, "score": 4.5,
                             "detector": "constraint"}, ctrl.REACTION_LATENCY)
