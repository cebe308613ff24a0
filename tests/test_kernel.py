import dataclasses
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ocsim.kernel import (DEFAULT_TICK_CAP, EventTrace, Kernel, Message, NonConvergenceError,
                          TraceEvent, export_trace_jsonl)
from ocsim.model import generate_default_scenario
from ocsim.negotiation import Candidate, WorkingMemory
from ocsim.observer import Observation
from ocsim.runner import Simulation


def _make_kernel(seed=1, delay_min=1, delay_max=3, **kwargs):
    return Kernel(seed, delay_min, delay_max, **kwargs)


def _no_flush(kernel):
    pass


def test_delivery_order_is_tick_then_msg_id():
    k = _make_kernel(delay_min=1, delay_max=1)
    log = []
    k.register("b", lambda kernel, msg: log.append(msg.msg_id))
    for _ in range(5):
        k.send("a", "b", "WorkingMemoryUpdate", {})
    k.run_until(_no_flush)
    assert log == sorted(log)


def test_messages_on_one_tick_are_delivered_as_a_batch():
    k = _make_kernel(delay_min=2, delay_max=2)
    flushes = []
    delivered = []
    k.register("b", lambda kernel, msg: delivered.append(kernel.clock))
    for _ in range(4):
        k.send("a", "b", "WorkingMemoryUpdate", {})
    for _ in range(2):
        k.send("a", "b", "WorkingMemoryUpdate", {}, delay=3)
    assert k.run_until(lambda kernel: flushes.append((kernel.clock, len(delivered)))) == 3
    # one batch per tick, one flush after each whole batch
    assert delivered == [2, 2, 2, 2, 3, 3]
    assert flushes == [(2, 4), (3, 6)]


def test_delays_stay_within_the_configured_band():
    k = _make_kernel(seed=11, delay_min=1, delay_max=5)
    k.register("b", lambda kernel, msg: None)
    msgs = [k.send("a", "b", "WorkingMemoryUpdate", {}) for _ in range(200)]
    delays = {m.delivered_tick - m.sent_tick for m in msgs}
    assert delays == {1, 2, 3, 4, 5}  # band fully used, never exceeded


@pytest.mark.parametrize("lo,hi", [(1, 3), (1, 5), (2, 2)])
def test_delays_are_the_draws_of_randint(lo, hi):
    k = _make_kernel(seed=7, delay_min=lo, delay_max=hi)
    drawn = [k.send("a", "b", "WorkingMemoryUpdate", {}).delivered_tick for _ in range(10_000)]
    rng = random.Random("ocsim-delay:7")
    assert drawn == [rng.randint(lo, hi) for _ in range(10_000)]


def test_an_empty_delay_range_is_refused():
    with pytest.raises(ValueError, match="empty delay range"):
        _make_kernel(delay_min=3, delay_max=2)


def test_kernel_and_simulation_share_one_tick_cap_default():
    assert _make_kernel().tick_cap == DEFAULT_TICK_CAP
    assert Simulation(generate_default_scenario(seed=1)).kernel.tick_cap == DEFAULT_TICK_CAP


def test_delay_override_keeps_the_drawn_stream_aligned():
    """A send with an explicit delay must consume the same RNG draw, so runs
    that differ only in control wiring see identical delays afterwards."""
    def delays(with_override):
        k = _make_kernel(seed=42, delay_min=1, delay_max=5)
        k.register("b", lambda kernel, msg: None)
        k.send("a", "b", "WorkingMemoryUpdate", {},
               delay=30 if with_override else None)
        return [k.send("a", "b", "WorkingMemoryUpdate", {}).delivered_tick
                for _ in range(20)]

    assert delays(True) == delays(False)


def test_excluded_endpoints_are_suppressed_but_traced():
    k = _make_kernel()
    delivered = []
    k.register("b", lambda kernel, msg: delivered.append(msg))
    k.excluded.add("b")
    assert k.send("a", "b", "WorkingMemoryUpdate", {}) is None
    assert k.send("b", "a", "WorkingMemoryUpdate", {}) is None
    k.run_until(_no_flush)
    assert delivered == []
    assert [e.delivered for e in k.trace.events] == [False, False]


def test_interval_counts_match_an_independent_recount():
    k = _make_kernel(seed=3, delay_min=1, delay_max=3)

    def forward(kernel, msg):
        if msg.content["hops"] > 0:
            kernel.send(msg.receiver, msg.sender, "WorkingMemoryUpdate",
                        {"hops": msg.content["hops"] - 1})

    k.register("a", forward)
    k.register("b", forward)
    k.current_interval = 4
    k.send("a", "b", "WorkingMemoryUpdate", {"hops": 7})
    k.run_until(_no_flush)
    assert k.trace.interval_counts == k.trace.recount() == {4: 8}


def test_tick_cap_raises_with_partial_trace():
    k = _make_kernel(delay_min=1, delay_max=1, tick_cap=50)

    def ping(kernel, msg):
        kernel.send(msg.receiver, msg.sender, "WorkingMemoryUpdate", {})

    k.register("a", ping)
    k.register("b", ping)
    k.send("a", "b", "WorkingMemoryUpdate", {})
    with pytest.raises(NonConvergenceError) as exc:
        k.run_until(_no_flush)
    assert exc.value.trace.events  # partial trace preserved


def test_tick_cap_counts_from_where_each_loop_starts():
    k = _make_kernel(delay_min=1, delay_max=1, tick_cap=10)
    hops = []

    def relay(kernel, msg):  # forwards until it has seen `hops[-1]` messages
        hops[-1] -= 1
        if hops[-1]:
            kernel.send(msg.receiver, msg.sender, "WorkingMemoryUpdate", {})

    k.register("a", relay)
    k.register("b", relay)
    for _ in range(3):  # three loops of 10 ticks each end at tick 30
        hops.append(10)
        k.send("a", "b", "WorkingMemoryUpdate", {})
        k.run_until(_no_flush)
    assert k.clock == 30
    hops.append(11)
    k.send("a", "b", "WorkingMemoryUpdate", {})
    with pytest.raises(NonConvergenceError, match="^tick cap 10 exceeded at tick 41, 11 ticks "):
        k.run_until(_no_flush)


def _message():
    return Message(msg_id=0, sender="a", receiver="b", sent_tick=0, delivered_tick=1,
                   kind="WorkingMemoryUpdate", content={"entries": {}})


@pytest.mark.parametrize("record", [
    _message(), TraceEvent(message=_message(), delivered=True),
    Candidate({"a": (1.0,)}, 1.0), WorkingMemory(),
    Observation(level=1, sender="a", timestamp=0, interval=0)],
    ids=lambda r: type(r).__name__)
def test_per_message_records_are_slotted(record):
    # one of each is built per message or per response and the trace keeps them
    assert not hasattr(record, "__dict__")


def test_a_slotted_message_can_still_be_replaced():
    m = _message()
    forged = dataclasses.replace(m, content={"entries": {"a": 1}})  # the attack's wire view
    assert not hasattr(forged, "__dict__")
    assert forged.content == {"entries": {"a": 1}} and m.content == {"entries": {}}
    assert dataclasses.replace(forged, content=m.content) == m


def test_trace_jsonl_round_trips_fields(tmp_path):
    k = _make_kernel(seed=5)
    k.register("b", lambda kernel, msg: None)
    k.send("a", "b", "BlacklistNotice", {"suspect": "c"})
    k.run_until(_no_flush)
    path = tmp_path / "trace.jsonl"
    export_trace_jsonl(k.trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["sender"] == "a" and rec["receiver"] == "b"
    assert rec["kind"] == "BlacklistNotice"
    assert rec["content"] == {"suspect": "c"}
    assert rec["delivered"] is True


def _reference_jsonl(trace) -> bytes:
    """The trace.jsonl spec: one `json.dumps(record, sort_keys=True)` per event."""
    lines = []
    for e in trace.events:
        m = e.message
        record = {"msg_id": m.msg_id, "sender": m.sender, "receiver": m.receiver,
                  "sent_tick": m.sent_tick, "delivered_tick": m.delivered_tick,
                  "kind": m.kind, "interval": m.interval, "delivered": e.delivered,
                  "content": m.content}
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines).encode()


# leaves that compare (and hash) equal but serialize differently: 0 / 0.0 /
# -0.0 and 1 / 1.0 / True, so a memo keyed by value writes the wrong bytes;
# NaN and the infinities are written as bare words
_json_leaf = (st.sampled_from([0, 0.0, -0.0, 1, 1.0, True, None, math.nan, math.inf, -math.inf])
              | st.floats() | st.text(max_size=3))
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_content = st.dictionaries(st.text(max_size=3), _json_value, max_size=3)
# ids that json.dumps must escape: a quote, a backslash, a non-ASCII character
_agent = st.sampled_from(["a01", 'a"2', "a\\3", "a\u00e94"])


@st.composite
def _memories(draw, parts):
    """A working-memory-shaped content whose entries and candidate are drawn
    from `parts`, so one object can sit under two agent keys, be both an
    entry and the candidate, or recur in other contents. Entries keyed by
    ints, or held in a list, are not a working memory's and are dumped whole."""
    part = st.sampled_from(parts)
    key = draw(st.sampled_from([_agent, st.integers(0, 3)]))
    entries = draw(st.dictionaries(key, part, max_size=4) | st.lists(part, max_size=2))
    return {"entries": entries, "best": draw(part)}


@st.composite
def _traces(draw):
    """A trace whose events share a few content objects between receivers,
    over non-decreasing intervals, so one content can recur in a later one.
    Working-memory contents also share entry and candidate objects; the two
    fixed entries compare equal but serialize differently."""
    parts = draw(st.lists(_json_value, min_size=1, max_size=4)) + \
        [{"values": [0.0]}, {"values": [-0.0]}, None]
    pool = draw(st.lists(_content, min_size=1, max_size=4)) + [{"kw": 0.0}, {"kw": -0.0}] + \
        draw(st.lists(_memories(parts), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(st.sampled_from(range(len(pool))), _agent, _agent,
                                   st.sampled_from(["WorkingMemoryUpdate", "BlacklistNotice"]),
                                   st.booleans(), st.integers(0, 3), st.integers(0, 50)),
                         min_size=1, max_size=20))
    intervals = sorted(row[5] for row in rows)
    trace = EventTrace()
    for msg_id, ((c, sender, receiver, kind, delivered, _, tick), interval) in \
            enumerate(zip(rows, intervals)):
        m = Message(msg_id=msg_id, sender=sender, receiver=receiver, sent_tick=tick,
                    delivered_tick=tick + 1 + msg_id % 3, kind=kind, content=pool[c],
                    interval=interval)
        trace.events.append(TraceEvent(message=m, delivered=delivered))
    return trace


@pytest.mark.hashseed
@given(_traces())
@settings(max_examples=300, deadline=None)
def test_trace_jsonl_is_one_json_dumps_per_event(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    export_trace_jsonl(trace, path)
    assert path.read_bytes() == _reference_jsonl(trace)
