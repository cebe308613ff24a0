"""Deterministic discrete-event kernel: virtual clock, message bus, event trace.

Delivery order is the total order (delivered_tick, msg_id). Message delays are
integer ticks drawn from a dedicated RNG stream, so RNG use elsewhere cannot
perturb them. A message belongs to the interval it was sent in: `broadcast`
stamps it, and a run drains the queue within each interval.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

# ticks one delivery loop (one gossip episode) may span before it counts
# as non-converging
DEFAULT_TICK_CAP = 500_000


class NonConvergenceError(RuntimeError):
    """Tick cap exceeded; carries the partial trace."""

    def __init__(self, msg, trace):
        super().__init__(msg)
        self.trace = trace


# one Message and one TraceEvent per message sent, all kept by the trace:
# slots make each a single allocation
@dataclass(slots=True)
class Message:
    msg_id: int
    sender: str
    receiver: str
    sent_tick: int
    delivered_tick: int
    kind: str
    content: dict
    interval: int = 0


@dataclass(slots=True)
class TraceEvent:
    message: Message
    delivered: bool  # False = suppressed at send (excluded endpoint)


@dataclass
class EventTrace:
    events: list = field(default_factory=list)
    interval_counts: dict = field(default_factory=dict)

    def recount(self) -> dict:
        """Independent per-interval recount of delivered messages."""
        counts = {}
        for e in self.events:
            if e.delivered:
                counts[e.message.interval] = counts.get(e.message.interval, 0) + 1
        return counts


class Kernel:
    def __init__(self, seed, delay_min: int, delay_max: int, tick_cap: int = DEFAULT_TICK_CAP):
        if delay_max < delay_min:
            raise ValueError(f"empty delay range [{delay_min}, {delay_max}]")
        self.clock = 0
        self.current_interval = 0
        self.delay_min = delay_min
        self._delay_width = delay_max - delay_min + 1
        self._delay_bits = self._delay_width.bit_length()
        self.tick_cap = tick_cap
        self.excluded = set()  # bus-level exclusion (blacklisted agents)
        self.handlers = {}  # agent id -> callable(kernel, Message)
        self.trace = EventTrace()
        self._queue = []
        self._next_msg_id = 0
        # a Random, which copy.deepcopy copies (it shares a bound getrandbits)
        self._delays = random.Random(f"ocsim-delay:{seed}")

    def register(self, agent_id, handler):
        self.handlers[agent_id] = handler

    def send(self, sender, receiver, kind, content, delay=None) -> Message | None:
        """Schedule one message; returns None if an endpoint is bus-excluded.
        The one-receiver case of `broadcast`."""
        sent = self.broadcast(sender, (receiver,), kind, content, delay)
        return sent[0] if sent else None

    def broadcast(self, sender, receivers, kind, content, delay=None) -> list:
        """Schedule one copy of `content` per receiver, in order, each with
        its own msg_id and delay draw; returns the copies not suppressed for
        a bus-excluded endpoint (those are traced as undelivered).

        `delay` overrides the seeded draws (used for control paths with a
        known processing latency); each copy still draws, so the delay stream
        stays aligned across runs that differ only in control wiring."""
        # content is immutable once handed to the bus: a compromised agent's
        # falsified wire view is a copy made before its broadcast, every
        # receiver of a broadcast adopts its dicts as they are, and
        # working-memory entries and encoded candidates are shared between
        # broadcasts too, so no defensive copy
        getrandbits, bits, width = self._delays.getrandbits, self._delay_bits, self._delay_width
        delay_min, clock, interval = self.delay_min, self.clock, self.current_interval
        excluded = self.excluded
        events, queue = self.trace.events, self._queue
        sender_excluded = sender in excluded
        msg_id = self._next_msg_id
        sent = []
        for receiver in receivers:
            # randint(delay_min, delay_max) is delay_min plus the first draw
            # of getrandbits(k) below the range width: exactly randint's values
            drawn = getrandbits(bits)
            while drawn >= width:
                drawn = getrandbits(bits)
            msg = Message(msg_id, sender, receiver, clock,
                          clock + (delay_min + drawn if delay is None else delay),
                          kind, content, interval)
            if sender_excluded or receiver in excluded:
                events.append(TraceEvent(msg, False))
            else:
                heappush(queue, (msg.delivered_tick, msg_id, msg))
                sent.append(msg)
            msg_id += 1
        self._next_msg_id = msg_id
        return sent

    def run_until(self, flush) -> int:
        """Deliver events in (delivered_tick, msg_id) order until the queue
        drains. Returns the tick reached.

        All messages sharing a tick are delivered as one batch; `flush(kernel)`
        then runs once, which lets agents answer a whole round of traffic
        with a single broadcast. Raises `NonConvergenceError` once the loop
        reaches a tick more than `tick_cap` ticks after the clock it started from.
        """
        start, cap, queue = self.clock, self.tick_cap, self._queue
        events, counts = self.trace.events, self.trace.interval_counts
        handlers, excluded = self.handlers, self.excluded
        while queue:
            tick = queue[0][0]
            self.clock = tick
            if tick - start > cap:
                raise NonConvergenceError(
                    f"tick cap {cap} exceeded at tick {tick}, "
                    f"{tick - start} ticks after the loop began at {start}", self.trace)
            while queue and queue[0][0] == tick:
                msg = heappop(queue)[2]
                events.append(TraceEvent(msg, True))
                counts[msg.interval] = counts.get(msg.interval, 0) + 1
                handler = handlers.get(msg.receiver)
                if handler is not None and msg.receiver not in excluded:
                    handler(self, msg)
            flush(self)
        return self.clock


# --- trace export ---


def export_trace_jsonl(trace: EventTrace, path) -> None:
    """One line per event, with exactly the bytes of
    `json.dumps(record, sort_keys=True)`. A broadcast hands one content
    object to every receiver, so each content is serialized once and spliced
    in as the first key ("content" sorts first); a working-memory content is
    composed from the texts of its entries and candidate (`_content_text`).
    The memos are keyed by identity, which the trace keeps alive, and are
    cleared at every new interval so that they hold one interval's strings at
    a time."""
    # what json.dumps(o, sort_keys=True) calls, without a new encoder per call
    encode = json.JSONEncoder(sort_keys=True).encode
    contents, parts, names, interval = {}, {}, {}, None
    with open(path, "w") as f:
        for e in trace.events:
            m = e.message
            if m.interval != interval:
                interval = m.interval
                contents.clear()
                parts.clear()
            content = contents.get(id(m.content))
            if content is None:
                content = contents[id(m.content)] = _content_text(m.content, parts, names, encode)
            for name in (m.sender, m.receiver, m.kind):
                if name not in names:
                    names[name] = json.dumps(name)
            f.write(f'{{"content": {content}, "delivered": {"true" if e.delivered else "false"}, '
                    f'"delivered_tick": {m.delivered_tick}, "interval": {m.interval}, '
                    f'"kind": {names[m.kind]}, "msg_id": {m.msg_id}, '
                    f'"receiver": {names[m.receiver]}, "sender": {names[m.sender]}, '
                    f'"sent_tick": {m.sent_tick}}}\n')


_MEMORY_KEYS = {"best", "entries"}


def _content_text(content, parts, names, encode) -> str:
    """`encode(content)`. A working-memory content (keys exactly "best" and
    "entries", an entries dict keyed by str) is composed from its parts:
    many contents share each entry and candidate object, so `parts` holds
    one text per object, keyed by its identity. It holds the value's text
    alone, so an object filed under two keys, or used both as an entry and
    as a candidate, still gets each key from `names`. The encoder writes a
    nested dict with the separators, float reprs and sorted key order of a
    top-level one, so the composed text is the whole-content text."""
    if type(content) is not dict or content.keys() != _MEMORY_KEYS \
            or type(content["entries"]) is not dict:
        return encode(content)
    texts = []
    for aid, entry in sorted(content["entries"].items()):
        if type(aid) is not str:
            return encode(content)
        text = parts.get(id(entry))
        if text is None:
            text = parts[id(entry)] = encode(entry)
        name = names.get(aid)
        if name is None:
            name = names[aid] = json.dumps(aid)
        texts.append(f"{name}: {text}")
    best = content["best"]
    text = parts.get(id(best))
    if text is None:
        text = parts[id(best)] = encode(best)
    return f'{{"best": {text}, "entries": {{{", ".join(texts)}}}}}'
