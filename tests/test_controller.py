import pytest

from ocsim import controller as ctrl
from ocsim import negotiation as neg
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

def test_centralized_reaction_pushes_topology_and_reassigns():
    ids = [f"a{i:02d}" for i in range(8)]
    topology = build_small_world(ids, 4, 0.1, seed=1)
    blacklist = set()
    unit = UnitModel(unit_id="u-a03", unit_type="PV", feasible_schedules=[(-1.0,) * 4])
    actions = ctrl.centralized_react("a03", topology, blacklist,
                                     {aid: 1 for aid in ids}, unit, tick=500, seed=1)
    kinds = [a.kind for a in actions]
    assert kinds == ["TopologyPush", "TaskReassignment"]
    push, handover = actions
    assert "a03" not in push.topology.nodes
    assert push.topology.generation == topology.generation + 1
    assert handover.unit_id == "u-a03"
    assert handover.new_owner in push.topology.nodes
    assert push.issuer == handover.issuer == "central"
    assert blacklist == {"a03"}


def test_centralized_reaction_is_idempotent_per_suspect():
    ids = [f"a{i:02d}" for i in range(8)]
    topology = build_small_world(ids, 4, 0.1, seed=1)
    blacklist = set()
    unit = UnitModel(unit_id="u-a03", unit_type="PV", feasible_schedules=[(-1.0,) * 4])
    first = ctrl.centralized_react("a03", topology, blacklist,
                                   {}, unit, tick=500, seed=1)
    again = ctrl.centralized_react("a03", topology, blacklist,
                                   {}, unit, tick=600, seed=1)
    assert first and again == []
    assert blacklist == {"a03"}


def test_centralized_reaction_refuses_degraded_system():
    ids = ["a00", "a01", "a02"]
    topology = build_small_world(ids, 2, 0.0, seed=1)
    blacklist = {"a01"}
    # excluding a second of three leaves a single survivor
    with pytest.raises(DegradedSystemError):
        ctrl.centralized_react("a02", topology, blacklist,
                               {}, None, seed=1)


# --- decentralized and multi-leveled reactions ---

def test_decentralized_reaction_excludes_and_notifies_neighbors():
    agent = _agent("a01", {"a00", "a02", "a03"})
    actions = ctrl.decentralized_react("a03", agent, tick=500)
    assert actions[0].kind == "ExcludeLocal" and actions[0].target == "a03"
    notices = [a for a in actions if a.kind == "BlacklistNotice"]
    assert [a.target for a in notices] == ["a00", "a02"]  # never the suspect
    assert "a03" in agent.blacklist


def test_decentralized_reaction_is_idempotent():
    agent = _agent("a01", {"a00", "a03"})
    assert ctrl.decentralized_react("a03", agent)
    assert ctrl.decentralized_react("a03", agent) == []


def test_multi_leveled_reaction_adds_one_escalation():
    agent = _agent("a01", {"a00", "a02", "a03"})
    actions = ctrl.multi_leveled_react("a03", agent, tick=500)
    assert [a.kind for a in actions] == \
        ["ExcludeLocal", "BlacklistNotice", "BlacklistNotice", "EscalationReport"]
    assert actions[-1].target == "central"
