"""Observers: information-level projection, scopes, anomaly detectors.

Information levels are cumulative projections of a message event:
  1: sender and timestamp (message rates are counted from these)
  2: + communication data (the message's delivery delay)
  3: + message content (the sender's reported power values)
  4: + unit constraints (digest of the sender's feasible schedules)

Detectors are deterministic folds over an ordered observation stream. The
shipped references are a rate/delay margin check (levels 1-2), a robust
z-score check on reported values (level 3+), and a feasibility check against
the unit constraints (level 4). Each keeps its state per sender, so scopes
only choose which agents an observer watches and label its reports.

The learning detectors are split into a train step over the normal-operation
window and a score step over new observations. Training is a fold too: a
`TrainedObserver` folds each interval before the incident into its running
state as the interval finishes (per sender, its own reported values, or its
message counts and delay sums per interval), reading the events directly and
retaining no window. At the first detection interval it finishes that state
into frozen models; every later interval is only projected and scored.
"""
from __future__ import annotations

from dataclasses import dataclass
from statistics import median

# detector constants (fixed; unspecified upstream)
Z_THRESHOLD = 5.0
Z_CONSECUTIVE = 2
Z_SPREAD_FLOOR = 0.25  # kW; guards against degenerate training spread
CONSTRAINT_EPSILON = 1e-6  # kW per slot
MIN_TRAINING_INTERVALS = 5
RATE_FACTOR = 2.0
RATE_SLACK = 4
DELAY_SLACK = 2.0


class InsufficientTrainingError(RuntimeError):
    pass


@dataclass(slots=True)
class Observation:
    level: int
    sender: str
    timestamp: int
    interval: int
    delay_ticks: int | None = None
    content_values: tuple | None = None
    unit_constraints: tuple | None = None


@dataclass(frozen=True)
class ObserverScope:
    kind: str  # Centralized | Decentralized | GroupedByType | GroupedRandom
    members: frozenset
    label: str = ""

    def describe(self):
        return f"{self.kind}({self.label})" if self.label else self.kind


@dataclass
class AnomalyReport:
    suspect: str
    first_flagged_interval: int
    score: float
    detector: str
    scope: ObserverScope | None = None


def _own_values(event_content: dict, sender: str):
    entry = event_content.get("entries", {}).get(sender)
    if entry is None:
        return None
    return tuple(entry["values"])


def _schedules(constraints):
    """A feasible-schedule digest as a tuple of schedule tuples, None when
    empty. A tuple is taken as already converted."""
    if not constraints:
        return None
    if type(constraints) is tuple:
        return constraints
    return tuple(tuple(s) for s in constraints)


def project(event, level: int, constraints=None) -> Observation:
    """Project a delivered trace event down to one information level.

    `constraints` is the sender's feasible-schedule digest, only attached at
    level 4.
    """
    if level not in (1, 2, 3, 4):
        raise ValueError(f"information level must be in 1..4, got {level}")
    msg = event.message
    obs = Observation(level=level, sender=msg.sender, timestamp=msg.delivered_tick,
                      interval=msg.interval)
    if level >= 2:
        obs.delay_ticks = msg.delivered_tick - msg.sent_tick
    if level >= 3:
        obs.content_values = _own_values(msg.content, msg.sender)
    if level >= 4:
        obs.unit_constraints = _schedules(constraints)
    return obs


def scope_filter(observations, scope: ObserverScope):
    return [o for o in observations if o.sender in scope.members]


def build_observations(trace_events, level, constraints_by_sender=None):
    """Fold a list of delivered trace events into level-projected observations.

    Only negotiation traffic carries power values; control messages still
    count for levels 1-2 (they are visible communication events). A sender's
    constraints are converted once per call, not once per message.
    """
    schedules = {}
    out = []
    for e in trace_events:
        sender = e.message.sender
        constraints = None
        if level >= 4 and constraints_by_sender:
            if sender not in schedules:
                schedules[sender] = _schedules(constraints_by_sender.get(sender))
            constraints = schedules[sender]
        out.append(project(e, level, constraints=constraints))
    return out


# --- detectors ---

def detect_constraint(observations) -> list:
    """Level 4: flag senders whose reported values match no feasible schedule
    within the per-slot tolerance. A broadcast reaches several receivers, so
    each distinct (values, constraints) pair is measured once."""
    reports = {}
    distances = {}
    for obs in observations:
        if obs.content_values is None or obs.unit_constraints is None \
                or obs.sender in reports:
            continue
        key = (obs.content_values, obs.unit_constraints)
        dist = distances.get(key)
        if dist is None:
            dist = distances[key] = min(
                max(abs(a - b) for a, b in zip(obs.content_values, sched))
                for sched in obs.unit_constraints)
        if dist > CONSTRAINT_EPSILON:
            reports[obs.sender] = AnomalyReport(
                suspect=obs.sender, first_flagged_interval=obs.interval,
                score=dist, detector="constraint")
    return list(reports.values())


class ValueFold:
    """Training state of a statistical part (level 3+): per watched sender,
    its own reported values tuples in delivery order, and the intervals in
    which any watched sender was seen. A sender reports the same number of
    slots in every message."""
    __slots__ = ("rows", "intervals")

    def __init__(self):
        self.rows = {}  # sender -> [values tuple, ...]
        self.intervals = set()

    def fold(self, events, watched):
        rows, intervals = self.rows, self.intervals
        for e in events:
            msg = e.message
            sender = msg.sender
            if sender not in watched:
                continue
            intervals.add(msg.interval)
            values = _own_values(msg.content, sender)
            if values is not None:
                rows.setdefault(sender, []).append(values)

    def finish(self):
        """Per sender and slot, robust location/spread (median, MAD)."""
        if len(self.intervals) < MIN_TRAINING_INTERVALS:
            raise InsufficientTrainingError(
                f"need >= {MIN_TRAINING_INTERVALS} training intervals, "
                f"got {len(self.intervals)}")
        model = {}
        for sender, tuples in self.rows.items():
            for t, vs in enumerate(zip(*tuples)):
                med = median(vs)
                mad = median(abs(v - med) for v in vs)
                # Units that legitimately swing across a wide operating range
                # during training (e.g. storage rebalancing) get a
                # proportionally wide tolerance; half the observed range
                # bounds normal excursions even when the MAD degenerates to 0.
                half_range = 0.5 * (max(vs) - min(vs))
                model[(sender, t)] = (med, max(1.4826 * mad, half_range, Z_SPREAD_FLOOR))
        return model


def train_statistical(observations):
    """Per sender and slot, robust location/spread (median, MAD) over a
    normal-operation training window."""
    fold = ValueFold()
    for o in observations:
        fold.intervals.add(o.interval)
        if o.content_values is not None:
            fold.rows.setdefault(o.sender, []).append(o.content_values)
    return fold.finish()


def score_statistical(observations, model) -> list:
    """Level 3+: robust z-score per slot against a `train_statistical` model;
    a sender is flagged after Z_CONSECUTIVE consecutive messages with any slot
    above Z_THRESHOLD."""
    streak = {}
    reports = {}
    for obs in observations:
        if obs.content_values is None:
            continue
        z_max = 0.0
        for t, v in enumerate(obs.content_values):
            stats = model.get((obs.sender, t))
            if stats is None:
                continue
            med, spread = stats
            z_max = max(z_max, abs(v - med) / spread)
        if z_max > Z_THRESHOLD:
            streak[obs.sender] = streak.get(obs.sender, 0) + 1
            if streak[obs.sender] >= Z_CONSECUTIVE and obs.sender not in reports:
                reports[obs.sender] = AnomalyReport(
                    suspect=obs.sender, first_flagged_interval=obs.interval,
                    score=z_max, detector="robust_z")
        else:
            streak[obs.sender] = 0
    return list(reports.values())


def detect_statistical(observations, training) -> list:
    """Train on `training`, then score `observations`."""
    return score_statistical(observations, train_statistical(training))


def _traffic_profile(observations):
    """Per sender: per-interval message counts and mean delays."""
    counts, delays = {}, {}
    for o in observations:
        counts.setdefault(o.sender, {}).setdefault(o.interval, 0)
        counts[o.sender][o.interval] += 1
        if o.delay_ticks is not None:
            delays.setdefault((o.sender, o.interval), []).append(o.delay_ticks)
    return counts, delays


class TrafficFold:
    """Training state of a traffic part (levels 1-2): per watched (sender,
    interval), the message count and the sum of the integer delivery delays.
    `fold` reads the delays only with `delays` set (level 2)."""
    __slots__ = ("delays", "counts", "delay_sums")

    def __init__(self, delays):
        self.delays = delays
        self.counts = {}  # (sender, interval) -> messages
        self.delay_sums = {}  # (sender, interval) -> summed delay ticks

    def fold(self, events, watched):
        counts, sums = self.counts, self.delay_sums
        for e in events:
            msg = e.message
            if msg.sender not in watched:
                continue
            key = (msg.sender, msg.interval)
            counts[key] = counts.get(key, 0) + 1
            if self.delays:
                sums[key] = sums.get(key, 0) + msg.delivered_tick - msg.sent_tick

    def finish(self):
        """Per sender, the range of per-interval message rates and of
        per-interval mean delays."""
        rates, means = {}, {}
        for (sender, _), n in self.counts.items():
            rates.setdefault(sender, []).append(n)
        for key, total in self.delay_sums.items():
            means.setdefault(key[0], []).append(total / self.counts[key])
        rate_bounds, delay_bounds = {}, {}
        for sender, rs in rates.items():
            rate_bounds[sender] = (min(rs), max(rs))
            if sender in means:
                delay_bounds[sender] = (min(means[sender]), max(means[sender]))
        return rate_bounds, delay_bounds


def train_traffic(observations):
    """Per sender, the range of per-interval message rates and of per-interval
    mean delays over a normal-operation training window."""
    fold = TrafficFold(delays=True)  # an observation carries a delay from level 2 on
    counts, sums = fold.counts, fold.delay_sums
    for o in observations:
        key = (o.sender, o.interval)
        counts[key] = counts.get(key, 0) + 1
        if o.delay_ticks is not None:
            sums[key] = sums.get(key, 0) + o.delay_ticks
    return fold.finish()


def score_traffic(observations, bounds) -> list:
    """Levels 1-2: flag senders whose per-interval message rate or mean delay
    grossly deviates from `train_traffic` bounds. Content is never consulted."""
    rate_bounds, delay_bounds = bounds
    obs_counts, obs_delays = _traffic_profile(observations)
    reports = {}

    def flag(sender, interval, score):
        if sender not in reports:
            reports[sender] = AnomalyReport(suspect=sender, first_flagged_interval=interval,
                                            score=score, detector="traffic")

    for sender, per_int in obs_counts.items():
        lo_hi = rate_bounds.get(sender)
        for interval in sorted(per_int):
            rate = per_int[interval]
            if lo_hi is None:
                flag(sender, interval, float(rate))  # unknown sender appearing
                continue
            if rate > RATE_FACTOR * lo_hi[1] + RATE_SLACK:
                flag(sender, interval, float(rate))
            d = obs_delays.get((sender, interval))
            if d and sender in delay_bounds:
                mean_d = sum(d) / len(d)
                dlo, dhi = delay_bounds[sender]
                if not (dlo - DELAY_SLACK <= mean_d <= dhi + DELAY_SLACK):
                    flag(sender, interval, mean_d)
    return list(reports.values())


def detect_traffic(observations, training) -> list:
    """Train on `training`, then score `observations`."""
    return score_traffic(observations, train_traffic(training))


# --- scope construction and architecture dispatch ---

def make_scopes(arch: str, agent_ids, unit_types: dict, seed) -> list:
    import random
    ids = sorted(agent_ids)
    if arch == "Centralized":
        return [ObserverScope("Centralized", frozenset(ids))]
    if arch == "Decentralized":
        return [ObserverScope("Decentralized", frozenset([a]), label=a) for a in ids]
    if arch == "GroupedByType":
        groups = {}
        for a in ids:
            groups.setdefault(unit_types[a], []).append(a)
        return [ObserverScope("GroupedByType", frozenset(members), label=t)
                for t, members in sorted(groups.items())]
    if arch == "GroupedRandom":
        rng = random.Random(f"ocsim-groups:{seed}")
        shuffled = list(ids)
        rng.shuffle(shuffled)
        n_groups = max(2, len(ids) // 3)
        scopes = []
        for g in range(n_groups):
            members = shuffled[g::n_groups]
            if members:
                scopes.append(ObserverScope("GroupedRandom", frozenset(members), label=f"g{g}"))
        return scopes
    raise ValueError(f"unknown observer architecture {arch!r}")


DETECTOR_RANK = {"constraint": 0, "robust_z": 1, "traffic": 2}


def dedup_reports(reports) -> list:
    """One report per suspect: earliest flagged interval, and on a tie the
    strongest evidence class (a constraint violation is proof of infeasible
    values, a statistical or traffic deviation only a symptom)."""
    best = {}
    for r in reports:
        cur = best.get(r.suspect)
        key = (r.first_flagged_interval, DETECTOR_RANK.get(r.detector, 3))
        if cur is None or key < (cur.first_flagged_interval,
                                 DETECTOR_RANK.get(cur.detector, 3)):
            best[r.suspect] = r
    return [best[s] for s in sorted(best)]


def _watched(events, scope_of):
    return [e for e in events if e.message.sender in scope_of]


class TrainedObserver:
    """One observer architecture trained on its normal-operation window.

    Each part is one information level over the agents its scopes watch,
    with one model: traffic bounds at levels 1-2, the robust z-score model at
    level 3+. A report takes its suspect's scope as its label. The observer
    is built without events; `fold` adds each normal-operation interval's
    delivered events to the parts' training state as the interval finishes,
    and `finish` turns that state into the models once, at the first
    detection interval. No window is kept and nothing is projected for
    training; `detect` only projects and scores new events. MultiLeveled is
    a centralized traffic part without message content (level 2) plus a
    decentralized content/constraint part (level 4); its `level` is not used.
    """

    def __init__(self, arch, level, agent_ids, unit_types, seed):
        parts = ([(2, "Centralized"), (4, "Decentralized")] if arch == "MultiLeveled"
                 else [(level, arch)])
        self.parts = []  # (level, {agent: scope}, training fold, then model)
        for part_level, part_arch in parts:
            scope_of = {a: scope for scope in make_scopes(part_arch, agent_ids, unit_types, seed)
                        for a in scope.members}
            fold = TrafficFold(delays=part_level == 2) if part_level <= 2 else ValueFold()
            self.parts.append((part_level, scope_of, fold))

    def fold(self, events):
        """Fold delivered normal-operation events into the training state."""
        for _, scope_of, fold in self.parts:
            fold.fold(events, scope_of)

    def finish(self):
        """Turn the training state into the models `detect` scores against."""
        self.parts = [(level, scope_of, fold.finish())
                      for level, scope_of, fold in self.parts]

    def detect(self, detection_events, constraints_by_sender=None) -> list:
        reports = []
        for level, scope_of, model in self.parts:
            observations = build_observations(_watched(detection_events, scope_of), level,
                                              constraints_by_sender)
            if level <= 2:
                found = score_traffic(observations, model)
            else:
                found = score_statistical(observations, model)
                if level >= 4:
                    found += detect_constraint(observations)
            for r in found:
                r.scope = scope_of[r.suspect]
            reports.extend(found)
        return dedup_reports(reports)


def run_observer(arch, level, training_events, detection_events, agent_ids,
                 unit_types, constraints_by_sender, seed) -> list:
    """Run one architecture at one information level over a trace split into
    a normal-operation training window and a detection window."""
    observer = TrainedObserver(arch, level, agent_ids, unit_types, seed)
    observer.fold(training_events)
    observer.finish()
    return observer.detect(detection_events, constraints_by_sender)


def run_multi_leveled(training_events, detection_events, agent_ids, unit_types,
                      constraints_by_sender, seed) -> list:
    """Proposed composition: a centralized traffic observer without message
    content (level 2) plus decentralized content/constraint observers
    (level 4), reports deduplicated by suspect."""
    return run_observer("MultiLeveled", 4, training_events, detection_events, agent_ids,
                        unit_types, constraints_by_sender, seed)


def report_record(r: AnomalyReport) -> dict:
    """The serialized form of a report, as evaluation.json holds it."""
    return {"suspect": r.suspect, "first_flagged_interval": r.first_flagged_interval,
            "score": r.score, "detector": r.detector,
            "scope": r.scope.describe() if r.scope else None}

