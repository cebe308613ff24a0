import itertools
import json
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ocsim import negotiation as neg
from ocsim.kernel import Kernel, Message
from ocsim.model import UnitModel, quantize
from ocsim.topology import build_small_world

SLOTS = 4

vectors = st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                   min_size=SLOTS, max_size=SLOTS)


# --- objective ---

@given(vectors, vectors)
def test_objective_equals_recomputed_l1_distance(agg, target):
    expected = sum(abs(a - t) for a, t in zip(agg, target))
    assert neg.objective(agg, target) == pytest.approx(expected)


def test_objective_rejects_length_mismatch():
    with pytest.raises(ValueError):
        neg.objective([1.0, 2.0], [1.0, 2.0, 3.0])


# --- local best response ---

@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200)
def test_choose_best_schedule_matches_enumeration(case):
    rng = random.Random(case)
    scheds = [tuple(rng.uniform(-5, 5) for _ in range(SLOTS))
              for _ in range(rng.randint(1, 10))]
    others = [rng.uniform(-10, 10) for _ in range(SLOTS)]
    target = [rng.uniform(-3, 3) for _ in range(SLOTS)]
    objs = [neg.objective([o + s for o, s in zip(others, sc)], target)
            for sc in scheds]
    want = min(range(len(scheds)), key=lambda i: (objs[i], i))
    assert neg.choose_best_schedule(scheds, others, target) == want


def test_choose_best_schedule_breaks_ties_by_lowest_index():
    scheds = [(1.0,) * SLOTS, (1.0,) * SLOTS]
    assert neg.choose_best_schedule(scheds, [0.0] * SLOTS, [0.0] * SLOTS) == 0


# --- candidate ordering ---

def _random_candidate(rng):
    n = rng.randint(1, 4)
    assignment = {f"a{i}": (round(rng.uniform(-2, 2), 2),) * SLOTS
                  for i in rng.sample(range(6), n)}
    return neg.Candidate(assignment, objective=rng.choice([0.0, 1.0, 2.0]),
                         stamp=(rng.randint(0, 3), f"a{rng.randint(0, 5)}"))


def test_candidate_better_prefers_coverage_then_objective_then_age():
    big = neg.Candidate({"a": (1.0,), "b": (2.0,)}, 9.0, stamp=(5, "a"))
    small = neg.Candidate({"a": (1.0,)}, 0.0, stamp=(0, "a"))
    assert neg.candidate_better(big, small)  # coverage dominates objective
    good = neg.Candidate({"a": (1.0,)}, 1.0, stamp=(5, "a"))
    bad = neg.Candidate({"a": (2.0,)}, 2.0, stamp=(0, "a"))
    assert neg.candidate_better(good, bad)  # objective dominates stamp
    early = neg.Candidate({"a": (1.0,)}, 1.0, stamp=(0, "a"))
    late = neg.Candidate({"a": (2.0,)}, 1.0, stamp=(3, "b"))
    assert neg.candidate_better(early, late)  # exact tie: earliest stamp wins
    assert not neg.candidate_better(late, early)


def test_candidate_better_none_handling():
    c = neg.Candidate({"a": (1.0,)}, 1.0)
    assert neg.candidate_better(c, None)
    assert not neg.candidate_better(None, c)
    assert not neg.candidate_better(None, None)


def test_candidate_better_is_a_strict_total_order():
    rng = random.Random("order")
    cands = [_random_candidate(rng) for _ in range(40)]
    for a, b in itertools.combinations(cands, 2):
        ab, ba = neg.candidate_better(a, b), neg.candidate_better(b, a)
        identical = (neg.candidate_key(a) == neg.candidate_key(b)
                     and a.objective == b.objective and a.stamp == b.stamp)
        assert ab != ba or identical  # antisymmetric, total up to identity
    for a, b, c in itertools.combinations(cands, 3):
        if neg.candidate_better(a, b) and neg.candidate_better(b, c):
            assert neg.candidate_better(a, c)  # transitive


def test_a_candidate_met_again_is_not_better_without_sorting(monkeypatch):
    calls = []

    def counting_key(candidate):
        calls.append(candidate)
        return tuple(sorted(candidate.assignment.items()))

    monkeypatch.setattr(neg, "candidate_key", counting_key)
    c = neg.Candidate({"b": (2.0,), "a": (1.0,)}, 1.0, stamp=(0, "a"))
    assert not neg.candidate_better(c, c)
    assert calls == []


def test_the_tie_break_agrees_with_the_full_key_comparison():
    # one coverage, objective and stamp, so only the assignment decides;
    # few values, so equal assignments in distinct candidates occur too
    rng = random.Random("tie-break")
    cands = [neg.Candidate({aid: (rng.choice([-0.5, 0.0, 0.5]),) * SLOTS
                            for aid in ("a0", "a1", "a2")}, 1.0, stamp=(2, "a1"))
             for _ in range(30)]
    assert any(a is not b and a.assignment == b.assignment
               for a, b in itertools.combinations(cands, 2))
    for a, b in itertools.product(cands, repeat=2):
        assert neg.candidate_better(a, b) == (neg.candidate_key(a) < neg.candidate_key(b))


# --- memory merge and wire round-trip ---

def _entry(value, revision):
    return {"values": (value,) * SLOTS, "revision": revision}


def test_merge_keeps_higher_revision_and_local_on_tie():
    local = neg.WorkingMemory(entries={"a": _entry(1.0, 2), "b": _entry(2.0, 1)})
    received = neg.WorkingMemory(entries={"a": _entry(9.0, 2), "b": _entry(3.0, 2),
                                          "c": _entry(4.0, 0)})
    merged, changed = neg.merge_memories(local, received)
    assert changed
    assert merged.entries["a"] == _entry(1.0, 2)  # tie keeps local
    assert merged.entries["b"] == _entry(3.0, 2)  # higher revision wins
    assert merged.entries["c"] == _entry(4.0, 0)  # new entry adopted


def test_merge_folds_into_the_local_memory_and_leaves_the_received_one_alone():
    local = neg.WorkingMemory(entries={"a": _entry(1.0, 0)})
    entry = _entry(2.0, 1)
    received = neg.WorkingMemory(entries={"a": entry, "b": _entry(3.0, 0)})
    merged, changed = neg.merge_memories(local, received)
    assert changed and merged is local
    assert local.entries["a"] is entry  # adopted as is, not re-wrapped
    assert received.entries == {"a": entry, "b": _entry(3.0, 0)}


def test_merge_reports_no_change_on_stale_gossip():
    local = neg.WorkingMemory(entries={"a": _entry(1.0, 3)})
    received = neg.WorkingMemory(entries={"a": _entry(9.0, 1)})
    merged, changed = neg.merge_memories(local, received)
    assert not changed
    assert merged.entries == local.entries


def test_encode_decode_round_trip():
    cand = neg.Candidate({"a": (1.0,) * SLOTS, "b": (-1.0,) * SLOTS}, 0.0,
                         stamp=(7, "a"))
    mem = neg.WorkingMemory(entries={"a": _entry(1.0, 2), "b": _entry(-1.0, 0)},
                            best_candidate=cand)
    back = neg.decode_memory(neg.encode_memory(mem), target=[0.0] * SLOTS, forms={})
    assert back.entries == mem.entries
    assert back.best_candidate.assignment == cand.assignment
    assert back.best_candidate.stamp == cand.stamp


def test_decode_recomputes_objective_from_assignment():
    """A falsified wire objective must not survive decoding."""
    cand = neg.Candidate({"a": (2.0,) * SLOTS}, 99.0)
    mem = neg.WorkingMemory(entries={"a": _entry(2.0, 0)}, best_candidate=cand)
    content = neg.encode_memory(mem)
    content["best"] = {**content["best"], "objective": 0.0}  # attacker's claim
    back = neg.decode_memory(content, target=[0.0] * SLOTS, forms={})
    assert back.best_candidate.objective == pytest.approx(2.0 * SLOTS)


def test_decoding_a_seen_wire_form_returns_the_entry_it_came_from():
    mem = neg.WorkingMemory(entries={"a": _entry(1.0, 2), "b": _entry(-1.0, 0)})
    back = neg.decode_memory(neg.encode_memory(mem), target=[0.0] * SLOTS, forms={})
    assert all(back.entries[aid] is mem.entries[aid] for aid in mem.entries)


def test_decoding_adopts_the_received_entry_dicts_as_they_are():
    content = {"entries": {"a": {"values": (1.0,) * SLOTS, "revision": 2},
                           "b": {"values": (-1.0,) * SLOTS, "revision": 0},
                           "evil": {"values": (5.0,) * SLOTS, "revision": 1}},
               "best": None}
    back = neg.decode_memory(content, drop={"evil"}, target=[0.0] * SLOTS, forms={})
    assert set(back.entries) == {"a", "b"}
    assert all(back.entries[aid] is content["entries"][aid] for aid in back.entries)
    assert back.entries is not content["entries"]  # the dropped one stays on the wire
    assert "evil" in content["entries"]


def test_a_decode_dropping_no_agent_adopts_the_wire_dicts_as_they_are():
    cand = neg.Candidate({"a": (1.0,) * SLOTS, "b": (-1.0,) * SLOTS}, 0.0, stamp=(7, "a"))
    mem = neg.WorkingMemory(entries={"a": _entry(1.0, 2), "b": _entry(-1.0, 0)},
                            best_candidate=cand)
    content = neg.encode_memory(mem)
    for drop in ((), {"outsider"}):
        back = neg.decode_memory(content, drop, target=[0.0] * SLOTS, forms={})
        assert back.entries is content["entries"]
        assert back.best_candidate.assignment is content["best"]["assignment"]
    back = neg.decode_memory(content, {"b"}, target=[0.0] * SLOTS, forms={})
    assert back.entries == {"a": mem.entries["a"]}
    assert back.best_candidate.assignment == {"a": (1.0,) * SLOTS}
    assert set(content["entries"]) == set(content["best"]["assignment"]) == {"a", "b"}


def test_a_decoded_candidate_with_a_wrong_claim_is_re_encoded_with_the_recomputed_objective():
    cand = neg.Candidate({"a": (2.0,) * SLOTS}, 2.0 * SLOTS, stamp=(3, "a"))
    mem = neg.WorkingMemory(entries={"a": _entry(2.0, 0)}, best_candidate=cand)
    forms = {}
    content = neg.encode_memory(mem)
    lying = {**content, "best": {**content["best"], "objective": 0.0}}
    back = neg.decode_memory(lying, target=[0.0] * SLOTS, forms=forms)
    again = neg.encode_memory(back)
    assert again["best"]["objective"] == 2.0 * SLOTS
    assert again["best"] is not lying["best"]
    # an honest claim re-encodes to the incoming wire form
    honest = neg.decode_memory(content, target=[0.0] * SLOTS, forms=forms)
    assert neg.encode_memory(honest)["best"] is content["best"]


def test_entries_holding_zero_and_negative_zero_keep_their_own_wire_forms():
    # (0.0,) == (-0.0,) and both hash alike, but they serialize differently
    mem = neg.WorkingMemory(entries={"a": _entry(0.0, 0), "b": _entry(-0.0, 0)})
    content = neg.encode_memory(mem)
    again = neg.encode_memory(neg.decode_memory(content, target=[0.0] * SLOTS, forms={}))
    for wire in (content, again):
        assert json.dumps(wire["entries"]["a"]["values"]) == json.dumps([0.0] * SLOTS)
        assert json.dumps(wire["entries"]["b"]["values"]) == json.dumps([-0.0] * SLOTS)


def test_decode_drops_blacklisted_entries():
    mem = neg.WorkingMemory(entries={"a": _entry(1.0, 0), "evil": _entry(5.0, 0)})
    back = neg.decode_memory(neg.encode_memory(mem), drop={"evil"}, target=[0.0] * SLOTS,
                             forms={})
    assert set(back.entries) == {"a"}


# --- episode-level behavior ---

def _community(seed, n=6, max_scheds=5):
    rng = random.Random(f"neg-tests:{seed}")
    ids = [f"a{i:02d}" for i in range(n)]
    target = [0.0] * SLOTS
    agents = {}
    for aid in ids:
        scheds = [tuple(round(rng.uniform(-4, 4), 2) for _ in range(SLOTS))
                  for _ in range(rng.randint(2, max_scheds))]
        unit = UnitModel(unit_id=f"u-{aid}", unit_type="Household",
                         feasible_schedules=scheds)
        agents[aid] = neg.NegotiationAgent(aid, unit, target)
    topo = build_small_world(ids, 2, 0.2, seed)
    for aid, agent in agents.items():
        agent.neighbors = set(topo.neighbors(aid))
    kernel = Kernel(seed, 1, 3)
    for aid, agent in agents.items():
        kernel.register(aid, (lambda a: lambda k, m: a.handle(k, m))(agent))
    return kernel, agents, ids, target


def test_negotiation_reaches_full_coverage_consensus():
    kernel, agents, ids, target = _community(seed=4)
    assignment, duration = neg.run_negotiation(kernel, agents, ids[0], {})
    assert set(assignment) == set(ids)
    assert duration > 0 and kernel.trace.interval_counts[0] > 0
    # all agents committed to the same joint candidate
    keys = {neg.candidate_key(a.memory.best_candidate) for a in agents.values()}
    assert len(keys) == 1
    for aid, agent in agents.items():
        assert agent.own_choice() == assignment[aid]


def test_converged_assignment_is_single_deviation_optimal():
    for seed in range(5):
        kernel, agents, ids, target = _community(seed)
        assignment, _ = neg.run_negotiation(kernel, agents, ids[0], {})
        base = neg.objective(neg.aggregate_of(assignment, SLOTS), target)
        for aid in ids:
            for sched in agents[aid].feasible:
                trial = dict(assignment)
                trial[aid] = tuple(sched)
                alt = neg.objective(neg.aggregate_of(trial, SLOTS), target)
                assert alt >= base - 1e-9


def test_quiescence_across_seeds():
    for seed in range(20):
        kernel, agents, ids, _ = _community(seed, n=8)
        neg.run_negotiation(kernel, agents, ids[0], {})
        assert not kernel._queue


def test_exclusion_removes_suspect_from_state():
    kernel, agents, ids, _ = _community(seed=2)
    neg.run_negotiation(kernel, agents, ids[0], {})
    victim = agents[ids[0]]
    suspect = ids[1]
    assert victim.exclude_local(suspect)
    assert suspect not in victim.memory.entries
    assert suspect not in victim.memory.best_candidate.assignment
    assert suspect not in victim.neighbors
    assert not victim.exclude_local(suspect)  # idempotent


def test_restart_keeps_only_the_own_entry_with_its_revision_bumped():
    kernel, agents, ids, _ = _community(seed=2)
    neg.run_negotiation(kernel, agents, ids[0], {})
    agent = agents[ids[0]]
    own = agent.memory.entries[agent.agent_id]
    values, revision = own["values"], own["revision"]
    assert len(agent.memory.entries) > 1 and agent.memory.best_candidate is not None
    assert not agent.dirty
    agent.restart()
    assert agent.memory.entries == {agent.agent_id: {"values": values, "revision": revision + 1}}
    assert agent.memory.best_candidate is None
    assert agent.dirty
    assert own == {"values": values, "revision": revision}  # the sent entry is not mutated


# values on the setpoint grid, negative zero among them
_grid_values = st.lists(st.integers(-40, 40).map(lambda i: i * 0.25) | st.just(-0.0),
                        min_size=SLOTS, max_size=SLOTS).map(tuple)
_steps = st.lists(st.one_of(
    st.tuples(st.just("merge"), st.sampled_from("abcde"), _grid_values, st.integers(0, 3)),
    # a received candidate over other agents, in the given order
    st.tuples(st.just("adopt"), st.lists(st.tuples(st.sampled_from("bcde"), _grid_values),
                                         min_size=1, max_size=4, unique_by=lambda p: p[0])),
    st.tuples(st.just("respond")),
    st.tuples(st.just("set_own"), st.integers(0, 3)),
    st.tuples(st.just("restart")),
    st.tuples(st.just("exclude"), st.sampled_from("bcde"))), max_size=40)


def _check_exclusion(before, after, suspect, target):
    """`after` is `before` without `suspect`, checked against a plain
    reference: the same object if it did not hold the suspect; else None if
    no agent is left; else a new candidate with the remaining values in
    order, an objective summed in order, the old stamp and no wire form."""
    if before is None or suspect not in before.assignment:
        assert after is before
        return
    kept = [(aid, v) for aid, v in before.assignment.items() if aid != suspect]
    if not kept:
        assert after is None
        return
    assert [aid for aid, _ in kept] == list(after.assignment)
    assert all(after.assignment[aid] is v for aid, v in kept)
    agg = [0.0] * len(target)
    for _, values in kept:
        for t, v in enumerate(values):
            agg[t] += v
    assert repr(after.objective) == repr(sum(abs(a - b) for a, b in zip(agg, target)))
    assert after.stamp == before.stamp
    assert after.wire is None


@given(st.lists(_grid_values, min_size=1, max_size=4), _steps)
@settings(max_examples=200)
def test_running_sums_are_the_ordered_sum_of_the_entries(schedules, steps):
    """Whatever merges, own-entry updates, restarts and exclusions an agent
    goes through, the running sums of its memory equal the ordered sum of
    its entries exactly, and no slot is -0.0; an exclusion trims the best
    candidate as a plain reference does."""
    unit = UnitModel(unit_id="u-a", unit_type="Household", feasible_schedules=schedules)
    agent = neg.NegotiationAgent("a", unit, [0.0] * SLOTS)
    agent.exact_sums = True
    agent.reset_for_interval({})
    kernel = SimpleNamespace(clock=0)
    for step in steps:
        if step[0] == "merge":
            _, aid, values, revision = step
            neg.merge_memories(agent.memory, neg.WorkingMemory(
                entries={aid: {"values": values, "revision": revision}}))
        elif step[0] == "adopt":
            assignment = dict(step[1])
            obj = neg.objective(neg.aggregate_of(assignment, SLOTS), agent.target)
            neg.merge_memories(agent.memory, neg.WorkingMemory(
                best_candidate=neg.Candidate(assignment, obj, stamp=(kernel.clock, "z"))))
        elif step[0] == "respond":
            kernel.clock += 1
            agent._best_respond(kernel)
        elif step[0] == "set_own" and "a" in agent.memory.entries:
            agent._set_own(agent.feasible[step[1] % len(agent.feasible)])
        elif step[0] == "restart":
            agent.restart()
        elif step[0] == "exclude":
            before = agent.memory.best_candidate
            if agent.exclude_local(step[1]):
                _check_exclusion(before, agent.memory.best_candidate, step[1], agent.target)
            else:  # already blacklisted
                assert agent.memory.best_candidate is before
        sums = agent.memory.sums
        entries = agent.memory.entries
        assert sums == neg.aggregate_of({a: e["values"] for a, e in entries.items()}, SLOTS)
        assert all(math.copysign(1.0, s) == 1.0 for s in sums if s == 0)


def test_jitter_scales_and_requantizes_feasible_set():
    kernel, agents, ids, _ = _community(seed=3)
    agent = agents[ids[0]]
    unit_id = agent.units[0].unit_id
    agent.reset_for_interval({unit_id: 1.1})
    for sched, base in zip(agent.feasible, agent.units[0].feasible_schedules):
        assert sched == tuple(quantize(v * 1.1) for v in base)


def test_adopt_unit_cross_sums_candidate_sets():
    kernel, agents, ids, _ = _community(seed=3)
    agent = agents[ids[0]]
    n_before = len(agent.feasible)
    extra = UnitModel(unit_id="u-x", unit_type="PV",
                      feasible_schedules=[(-1.0,) * SLOTS, (-2.0,) * SLOTS])
    agent.adopt_unit(extra)
    assert len(agent.feasible) == n_before * 2
    # each combined schedule is the grid-snapped base plus the extra unit's value
    assert agent.feasible[0] == tuple(
        quantize(v) - 1.0 for v in agent.units[0].feasible_schedules[0])


def test_broadcasts_of_one_interval_share_the_wire_form_of_an_unchanged_entry():
    kernel, agents, ids, _ = _community(seed=4)
    neg.run_negotiation(kernel, agents, ids[0], {})
    sent = {}
    for e in kernel.trace.events:
        contents = sent.setdefault(e.message.sender, [])
        if not any(c is e.message.content for c in contents):
            contents.append(e.message.content)
    # (earlier, later) wire form of each entry that two successive broadcasts
    # of one agent carry unchanged
    unchanged = [(first["entries"][aid], second["entries"][aid])
                 for contents in sent.values()
                 for first, second in zip(contents, contents[1:])
                 for aid in first["entries"]
                 if first["entries"][aid] == second["entries"].get(aid)]
    assert unchanged
    assert all(earlier is later for earlier, later in unchanged)


def test_no_wire_form_outlives_its_interval():
    kernel, agents, ids, _ = _community(seed=4)
    neg.run_negotiation(kernel, agents, ids[0], {})
    assert all(not agent.forms for agent in agents.values())


def test_receivers_share_a_candidate_decode_unless_they_drop_an_agent_of_it():
    kernel, agents, ids, _ = _community(seed=2)
    neg.run_negotiation(kernel, agents, ids[0], {})
    content = neg.encode_memory(agents[ids[0]].memory)
    suspect = ids[4]
    assert suspect in content["best"]["assignment"]
    wary, other_wary, a, b = (agents[aid] for aid in ids[1:4] + ids[5:6])
    for receiver in (wary, other_wary):
        receiver.exclude_local(suspect)
    b.exclude_local("outsider")  # a blacklist that misses every agent of the candidate
    for receiver in (wary, other_wary, a, b):
        receiver.reset_for_interval({})
        receiver.handle(kernel, Message(0, ids[0], receiver.agent_id, 0, 1,
                                        "WorkingMemoryUpdate", content))
    for receiver in (wary, other_wary):
        assert suspect not in receiver.memory.entries
        assert suspect not in receiver.memory.best_candidate.assignment
        assert receiver.memory.best_candidate is not a.memory.best_candidate
    assert wary.memory.best_candidate is not other_wary.memory.best_candidate
    assert suspect in a.memory.entries and suspect in b.memory.entries
    assert a.memory.best_candidate is b.memory.best_candidate
    assert a.memory.best_candidate.assignment is content["best"]["assignment"]
    assert suspect in content["entries"]  # the wire form keeps what a receiver drops


# --- the decode oracle: a plain, copying decode as the spec ---

def _copying_decode(content, drop, *, target, forms):
    """Decode a content the plain way: copy the entries and the candidate's
    assignment every time, and memoize a candidate's decode only where it
    loses no dropped agent."""
    entries = {aid: entry for aid, entry in content["entries"].items() if aid not in drop}
    raw, best = content["best"], None
    if raw is not None:
        shared = not any(aid in raw["assignment"] for aid in drop)
        assignment = {aid: v for aid, v in raw["assignment"].items() if aid not in drop}
        if shared and id(raw) in forms:
            best = forms[id(raw)][1]
        elif assignment:
            best = neg.Candidate(assignment, neg.objective(
                neg.aggregate_of(assignment, len(target)), target), stamp=raw["stamp"])
            if shared:
                forms[id(raw)] = (raw, best)
                if repr(best.objective) == repr(raw["objective"]):
                    best.wire = raw
    return neg.WorkingMemory(entries=entries, best_candidate=best)


ORACLE_IDS = ["a0", "a1", "a2", "a3", "a4"]
# 0.0 and -0.0, on and off the setpoint grid
wire_values = st.tuples(*[st.sampled_from([0.0, -0.0, 0.25, -1.5, 2.7, 0.1])] * SLOTS)


@st.composite
def _wire_candidates(draw):
    aids = sorted(draw(st.sets(st.sampled_from(ORACLE_IDS), min_size=1)))
    assignment = {aid: draw(wire_values) for aid in aids}
    claim = neg.objective(neg.aggregate_of(assignment, SLOTS), [0.0] * SLOTS)
    return {"assignment": assignment, "stamp": (draw(st.integers(0, 3)), aids[0]),
            # an honest claim, or a wrong one
            "objective": draw(st.sampled_from([claim, -0.0, 0.0, 1.0]))}


@st.composite
def _deliveries(draw):
    """Contents that share entry and candidate dicts, as broadcasts do, and
    the (content, drop set) of each delivery in turn; a drop set may hit the
    content, miss it, or be empty."""
    entries = draw(st.lists(st.builds(lambda v, r: {"values": v, "revision": r},
                                      wire_values, st.integers(0, 2)), min_size=1))
    candidates = draw(st.lists(_wire_candidates(), max_size=3))
    contents = []
    for _ in range(draw(st.integers(1, 4))):
        aids = sorted(draw(st.sets(st.sampled_from(ORACLE_IDS))))
        contents.append({"entries": {aid: draw(st.sampled_from(entries)) for aid in aids},
                         "best": draw(st.sampled_from([None] + candidates))})
    drops = st.sets(st.sampled_from(ORACLE_IDS + ["outsider"]), max_size=2)
    return [(draw(st.sampled_from(contents)), draw(drops))
            for _ in range(draw(st.integers(1, 8)))]


def _decode_view(memory, forms):
    """Everything a decode hands on: its entries (order and identity), its
    candidate (exact floats, stamp, wire, whether the memo holds it) and the
    memo's contents."""
    best = memory.best_candidate
    if best is not None:
        memoized = any(c is best for _, c in forms.values())
        best = (repr(list(best.assignment.items())), repr(best.objective), best.stamp,
                id(best.wire), memoized)
    memo = {key: (id(raw), repr(list(c.assignment.items())), repr(c.objective), id(c.wire))
            for key, (raw, c) in forms.items()}
    return [(aid, id(entry)) for aid, entry in memory.entries.items()], best, memo


@pytest.mark.hashseed
@given(_deliveries())
@settings(max_examples=300)
def test_decoding_matches_the_copying_reference(deliveries):
    target = [0.0] * SLOTS
    forms, reference_forms = {}, {}
    for content, drop in deliveries:
        got = neg.decode_memory(content, drop, target=target, forms=forms)
        want = _copying_decode(content, drop, target=target, forms=reference_forms)
        assert _decode_view(got, forms) == _decode_view(want, reference_forms)
