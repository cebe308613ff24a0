"""Gossip self-consumption negotiation.

Each interval is one negotiation episode: agents exchange working memories
over the communication topology, best-respond with one of their feasible
schedules, and converge to a joint cluster schedule. All tie-breaking is by
lowest index / lexicographic agent id so runs are fully deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub

from .model import UnitModel, quantize


def objective(aggregate, target) -> float:
    """L1 distance of the aggregate power vector to the target profile."""
    if len(aggregate) != len(target):
        raise ValueError(f"length mismatch: {len(aggregate)} vs {len(target)}")
    return sum(map(abs, map(sub, aggregate, target)))


def choose_best_schedule(feasible_schedules, others_aggregate, target) -> int:
    """Index of the feasible schedule minimizing the joint objective given the
    other agents' aggregate; ties broken by lowest index."""
    if feasible_schedules and len(feasible_schedules[0]) != len(others_aggregate):
        raise ValueError("others_aggregate length does not match schedule length")
    if feasible_schedules and len(others_aggregate) != len(target):
        raise ValueError(f"length mismatch: {len(others_aggregate)} vs {len(target)}")
    best_idx, best_obj = 0, None
    for i, sched in enumerate(feasible_schedules):
        # objective() inlined, in the same order of float operations
        obj = sum(map(abs, map(sub, map(add, others_aggregate, sched), target)))
        if best_obj is None or obj < best_obj:
            best_idx, best_obj = i, obj
    return best_idx


@dataclass(slots=True)
class Candidate:
    assignment: dict  # agent id -> tuple of kW values
    objective: float
    stamp: tuple = ()  # (creation tick, creator id); earliest wins exact ties
    wire: dict | None = field(default=None, compare=False, repr=False)  # set at first encode


@dataclass(slots=True)
class WorkingMemory:
    # agent id -> {"values": tuple of kW values, "revision": int}; an entry is
    # never mutated, so it is its own wire form (see encode_memory)
    entries: dict = field(default_factory=dict)
    best_candidate: Candidate | None = None
    # per-slot running sum of the entries' values, kept only where each value
    # is a multiple of 0.25 kW and each sum stays below 2**51 kW in magnitude
    # (runner.exact_sums); None: sum the entries in order when needed. Such
    # sums are exact in any order, so they equal aggregate_of(entries) bit
    # for bit. A float sum or difference is -0.0 only if its left operand is,
    # so neither, begun at +0.0, is ever -0.0. A list is replaced, never
    # mutated.
    sums: list | None = None

    def put(self, aid, entry):
        """Set the entry of `aid`, keeping the sums."""
        old = self.entries.get(aid)
        self.entries[aid] = entry
        if self.sums is not None:
            kept = self.sums if old is None else map(sub, self.sums, old["values"])
            self.sums = list(map(add, kept, entry["values"]))


def candidate_key(candidate: Candidate):
    """Canonical sort key for tie-breaking between equally good candidates."""
    return tuple(sorted(candidate.assignment.items()))


def candidate_better(new: Candidate | None, old: Candidate | None) -> bool:
    """True if `new` should replace `old`: strictly more coverage, or equal
    coverage with strictly lower objective. Exact ties (same coverage, same
    objective) go to the candidate created first (its stamp), so all agents
    settle on one single candidate instead of committing to different but
    equally good ones — and a later discovery of an equally good alternative
    causes no extra gossip wave."""
    if new is None:
        return False
    if old is None:
        return True
    if len(new.assignment) != len(old.assignment):
        return len(new.assignment) > len(old.assignment)
    if new.objective != old.objective:
        return new.objective < old.objective
    if new.stamp != old.stamp:
        return new.stamp < old.stamp
    # equal assignments give equal keys; most ties are a candidate met again
    if new is old or new.assignment == old.assignment:
        return False
    return candidate_key(new) < candidate_key(old)


def merge_memories(local: WorkingMemory, received: WorkingMemory):
    """Reconcile gossip state into `local`, in place: per entry keep the
    higher revision (tie keeps local); candidate replaced per
    candidate_better. Returns (local, changed). `received` may be shared by
    several receivers: it is only read, and its entries and candidate are
    adopted as they are (neither is ever mutated)."""
    get = local.entries.get
    changed = False
    for aid, entry in received.entries.items():
        cur = get(aid)
        # most received entries are the very dicts the receiver holds
        if cur is not entry and (cur is None or entry["revision"] > cur["revision"]):
            local.put(aid, entry)
            changed = True
    if candidate_better(received.best_candidate, local.best_candidate):
        local.best_candidate = received.best_candidate
        changed = True
    return local, changed


def aggregate_of(assignment: dict, slots: int):
    agg = [0.0] * slots
    for values in assignment.values():
        for t, v in enumerate(values):
            agg[t] += v
    return agg


class NegotiationAgent:
    """One community participant. Owns one or more units (after task
    reassignment) whose candidate sets are cross-summed into its feasible set."""

    def __init__(self, agent_id, unit, target):
        self.agent_id = agent_id
        self.units = [unit]
        self.feasible = [tuple(s) for s in unit.feasible_schedules]
        self.feasible_set = set(self.feasible)
        self.target = target  # the run's one target, shared by its agents (see forms)
        self.neighbors = set()
        self.topology_generation = 0
        self.blacklist = set()
        self.exact_sums = False  # keep running sums (set per run by the runner)
        self.memory = WorkingMemory()
        self._jitter = {}
        self.dirty = False  # merged new information, response still pending
        self.forms = {}  # the interval's decodes, shared by all agents (see decode_memory)
        # compromised agents only: callable(content, current_interval=...) -> wire view
        self.tamper = None
        # the local controller's latency between hearing of a blacklist entry
        # and applying it, and the suspects it has passed notices on about
        self.react_lag = 0
        self.noticed = set()

    # --- task reassignment ---
    def adopt_unit(self, unit):
        self.units.append(unit)
        self._rebuild_feasible(self._jitter)

    def _rebuild_feasible(self, jitter_by_unit):
        """Cross-sum of the owned units' candidate sets, each scaled by its
        per-interval availability factor and snapped back to the setpoint
        grid (hardware can only realize grid levels)."""
        sets = []
        for unit in self.units:
            f = jitter_by_unit.get(unit.unit_id, 1.0)
            sets.append([tuple(quantize(v * f) for v in s) for s in unit.feasible_schedules])
        feasible = sets[0]
        for nxt in sets[1:]:
            feasible = [tuple(a + b for a, b in zip(s1, s2)) for s1 in feasible for s2 in nxt]
        self.feasible = feasible
        self.feasible_set = set(feasible)

    # --- episode protocol ---
    def _fresh_memory(self):
        return WorkingMemory(sums=[0.0] * len(self.target) if self.exact_sums else None)

    def reset_for_interval(self, jitter_by_unit):
        self.memory = self._fresh_memory()
        self.dirty = False
        self._jitter = jitter_by_unit  # the caller's, never mutated
        self._rebuild_feasible(jitter_by_unit)

    def initiate(self, kernel):
        self._best_respond(kernel)
        self._broadcast(kernel)

    def handle(self, kernel, msg):
        """Answer one message from the bus. A working-memory update (the hot
        path) is folded into the working memory; the response is deferred to
        the end of the tick (see `respond`), so a whole round of simultaneous
        arrivals is answered with a single broadcast."""
        kind, content = msg.kind, msg.content
        if kind == "WorkingMemoryUpdate":
            if msg.sender in self.blacklist:
                return
            received = decode_memory(content, self.blacklist, target=self.target, forms=self.forms)
            if merge_memories(self.memory, received)[1]:
                self.dirty = True
        elif kind == "BlacklistNotice":
            self._notice(kernel, msg.sender, content["suspect"])
        elif kind == "TopologyPush":
            self.adopt_topology(content["generation"],
                                content["adjacency"].get(self.agent_id, []), content["excluded"])
        elif kind == "TaskHandover":
            self.adopt_unit(UnitModel(unit_id=content["unit_id"], unit_type=content["unit_type"],
                                      feasible_schedules=[tuple(s) for s in content["schedules"]]))

    def respond(self, kernel):
        """Re-derive the best response after merges and broadcast the memory."""
        self.dirty = False
        self._best_respond(kernel)
        self._broadcast(kernel)

    # --- controller hooks ---
    def _notice(self, kernel, sender, suspect):
        """Blacklist gossip at this agent's local controller: pass a first
        notice on at once and send oneself a timer `react_lag` ticks later, a
        latency only (nothing is checked meanwhile); when it fires, exclude."""
        if suspect in self.blacklist:
            return
        if sender == self.agent_id:
            self.exclude_local(suspect)
            # what was merged may have been laundered through the suspect, so
            # restart from the own entry: the churn decentralized mitigation costs
            self.restart()
        elif suspect not in self.noticed:
            self.noticed.add(suspect)
            for nb in sorted(self.neighbors - {suspect}):
                kernel.send(self.agent_id, nb, "BlacklistNotice", {"suspect": suspect})
            kernel.send(self.agent_id, self.agent_id, "BlacklistNotice", {"suspect": suspect},
                        delay=self.react_lag)

    def exclude_local(self, suspect):
        """Drop a blacklisted agent from memory and the neighbor set."""
        if suspect in self.blacklist:
            return False
        self.blacklist.add(suspect)
        self.neighbors.discard(suspect)
        gone = self.memory.entries.pop(suspect, None)
        if gone is not None and self.memory.sums is not None:
            self.memory.sums = list(map(sub, self.memory.sums, gone["values"]))
        best = self.memory.best_candidate
        if best is not None and suspect in best.assignment:
            self.memory.best_candidate = _trimmed(best.assignment, (suspect,), best.stamp,
                                                  self.target)
        return True

    def restart(self):
        """Drop the working memory and re-negotiate from the own entry, its
        revision bumped so peers take the restart seriously."""
        own = self.memory.entries.get(self.agent_id)
        self.memory = self._fresh_memory()
        if own is not None:
            self.memory.put(self.agent_id,
                            {"values": own["values"], "revision": own["revision"] + 1})
        self.dirty = True

    def adopt_topology(self, generation, neighbors, excluded):
        """Stale pushes (generation not above the current one) are discarded."""
        if generation <= self.topology_generation:
            return
        self.topology_generation = generation
        self.neighbors = set(neighbors) - {self.agent_id}
        for suspect in excluded:
            self.exclude_local(suspect)

    # --- internals ---
    def _others_aggregate(self):
        agg = [0.0] * len(self.target)
        for aid, entry in self.memory.entries.items():
            if aid == self.agent_id:
                continue
            for t, v in enumerate(entry["values"]):
                agg[t] += v
        return agg

    def _set_own(self, values):
        cur = self.memory.entries[self.agent_id]
        if tuple(values) != cur["values"]:
            self.memory.put(self.agent_id,
                            {"values": tuple(values), "revision": cur["revision"] + 1})

    def _best_respond(self, kernel):
        """Build a candidate from the current system view plus own best
        response; keep it if it beats the known best; then pin the own
        commitment to the best candidate. The commitment only moves with a
        candidate improvement, so episodes quiesce without ping-pong, and a
        candidate value outside the feasible set (corrupted gossip) is never
        adopted as the own commitment.

        With running sums the others' aggregate is the sums minus the own
        values, and the candidate's aggregate is that plus the chosen
        schedule, exact and so equal to the ordered sums (see WorkingMemory).
        A candidate that covers fewer agents than the best one, or as many
        at a higher objective, cannot win (candidate_better): it is not built."""
        memory = self.memory
        entries = memory.entries
        own = entries.get(self.agent_id)
        if memory.sums is None:
            others = self._others_aggregate()
        elif own is None:
            others = memory.sums
        else:
            others = list(map(sub, memory.sums, own["values"]))
        chosen = self.feasible[choose_best_schedule(self.feasible, others, self.target)]
        if own is None:  # a first reply commits to its best response
            memory.put(self.agent_id, {"values": chosen, "revision": 0})
        best, obj = memory.best_candidate, None  # None: the ordered sum, below
        if memory.sums is not None:
            obj = objective(list(map(add, others, chosen)), self.target)
        # one covering fewer agents, or as many at a higher objective, cannot win
        if obj is None or best is None or \
                (len(best.assignment), obj) <= (len(entries), best.objective):
            assignment = {aid: entry["values"] for aid, entry in entries.items()}
            assignment[self.agent_id] = chosen
            if obj is None:
                obj = objective(aggregate_of(assignment, len(self.target)), self.target)
            cand = Candidate(assignment, obj, stamp=(kernel.clock, self.agent_id))
            if candidate_better(cand, best):
                memory.best_candidate = cand
        best_own = memory.best_candidate.assignment.get(self.agent_id)
        if best_own is not None and tuple(best_own) in self.feasible_set:
            self._set_own(best_own)

    def _broadcast(self, kernel):
        content = encode_memory(self.memory)
        if self.tamper is not None:
            # one wire view per broadcast, shared by every receiver
            content = self.tamper(content, current_interval=kernel.current_interval)
        for nb in sorted(self.neighbors):
            kernel.send(self.agent_id, nb, "WorkingMemoryUpdate", content)

    def own_choice(self):
        entry = self.memory.entries.get(self.agent_id)
        return entry["values"] if entry else None


# --- wire encoding of working memories ---
#
# An entry is its own wire form: a {"values": tuple, "revision": int} dict
# that is never mutated, so every broadcast carrying it shares it (json writes
# the tuple as a list). A candidate keeps the wire dict of its first encode in
# `Candidate.wire`. Sent wire forms are never mutated and merge_memories only
# reads what it receives, so a decode adopts a content's entries dict and a
# candidate's assignment dict as they are, and copies one only to leave out a
# dropped agent. The one memo, `forms`, holds candidate decodes: it belongs to
# the interval (run_negotiation clears it), is shared by the agents of one
# run, which all hold the run's one target, and maps
#   id(wire candidate dict) -> (wire, decoded Candidate)
# for candidates that lose no dropped agent. Keys are identities, never
# values (0.0 == -0.0 and 1 == 1.0 hash alike but serialize differently), and
# each value holds its key's object, so no id is reused while the memo lives.


def encode_memory(memory: WorkingMemory) -> dict:
    best = memory.best_candidate
    if best is not None and best.wire is None:
        best.wire = {"assignment": dict(sorted(best.assignment.items())),
                     "objective": best.objective, "stamp": best.stamp}
    return {"entries": dict(sorted(memory.entries.items())),
            "best": None if best is None else best.wire}


def decode_memory(content: dict, drop=(), *, target, forms) -> WorkingMemory:
    """Working memory of a received content, minus the `drop`ped agents, to
    be read only. The entries dict is adopted as it is unless it holds a
    dropped agent; the candidate's objective is recomputed against `target`."""
    entries = content["entries"]
    if not entries.keys().isdisjoint(drop):
        entries = {aid: entry for aid, entry in entries.items() if aid not in drop}
    return WorkingMemory(entries=entries,
                         best_candidate=_decode_candidate(content["best"], drop, target, forms))


def _trimmed(assignment, drop, stamp, target):
    """The candidate of `assignment` without the `drop`ped agents, with the
    given stamp and its objective recomputed in order; None when no agent is
    left. The assignment dict is adopted as it is unless it holds a dropped
    agent."""
    if not assignment.keys().isdisjoint(drop):
        assignment = {aid: v for aid, v in assignment.items() if aid not in drop}
    if not assignment:
        return None
    return Candidate(assignment, objective(aggregate_of(assignment, len(target)), target),
                     stamp=stamp)


def _decode_candidate(raw, drop, target, forms):
    if raw is None:
        return None
    # a candidate losing dropped agents is decoded anew for each receiver
    shared = raw["assignment"].keys().isdisjoint(drop)
    if shared and id(raw) in forms:
        return forms[id(raw)][1]
    # never trust the claimed objective: recompute from the assignment, so a
    # candidate whose values were falsified in transit cannot ride on a stale
    # claim
    best = _trimmed(raw["assignment"], drop, raw["stamp"], target)
    if shared and best is not None:
        forms[id(raw)] = (raw, best)
        if repr(best.objective) == repr(raw["objective"]):
            # re-encodes to the incoming wire form; a wrong claim (or 0.0
            # for -0.0) gets a new one carrying the recomputed objective
            best.wire = raw
    return best


def gossip_to_quiescence(kernel, agents):
    """Run the kernel until its queue drains. After each tick every agent
    that merged new information and is not bus-excluded answers with one
    broadcast, in sorted id order."""
    order = sorted(agents)

    def flush(k):
        for aid in order:
            if agents[aid].dirty and aid not in k.excluded:
                agents[aid].respond(k)

    kernel.run_until(flush)


def run_negotiation(kernel, agents, initiator_id, jitter):
    """Run the negotiation episode of `kernel.current_interval` to global
    quiescence.

    Returns (assignment, convergence_ticks). The assignment maps agent id to
    the tuple of kW values the agent actually committed to (its own
    working-memory entry), which in honest operation coincides with the
    consensus best candidate. `jitter` maps unit id to that interval's
    availability factor.
    """
    active = {aid: ag for aid, ag in agents.items() if aid not in kernel.excluded}
    # every agent gets the new memo, so none keeps an older one alive
    forms = {}
    for ag in agents.values():
        ag.forms = forms
    for ag in active.values():
        ag.reset_for_interval(jitter)
    start_tick = kernel.clock
    try:
        if initiator_id in active:
            active[initiator_id].initiate(kernel)
        gossip_to_quiescence(kernel, active)
    finally:
        forms.clear()  # control traffic before the next episode decodes anew
    duration = kernel.clock - start_tick
    assignment = {}
    for aid in sorted(active):
        choice = active[aid].own_choice()
        if choice is not None:
            assignment[aid] = choice
    return assignment, duration
