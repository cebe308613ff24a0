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
state as the interval finishes (per sender, how many delivered messages
carried each of its reported values tuples, or its message counts and delay
sums per interval), retaining no window. At the first detection interval it
finishes that state into frozen models; every later interval is only scored.

Both steps read the delivered events directly and project nothing. A
broadcast hands one content object to each of its receivers, so the value
detectors work per distinct content: training counts a broadcast once with
its number of delivered copies, and the median and MAD are weighted walks
over the distinct values. Scoring memoizes each distinct content's z-score
and distance to the sender's feasible schedules (as the caller holds them),
and walks the messages in delivery order, where the z streaks advance once
per delivered message, only for senders with a content beyond a threshold.
No run builds an `Observation`; the functions over `Observation` lists
(`project`, `build_observations`, `train_statistical`, `score_statistical`,
`detect_constraint`, `train_traffic`, `score_traffic`) feed the same folds.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    entries = event_content.get("entries")
    entry = entries.get(sender) if entries else None
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


def scope_filter(observations, watched):
    """The observations whose sender is in `watched`, such as a `make_scopes` map."""
    return [o for o in observations if o.sender in watched]


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

def _broadcasts(events, watched):
    """The watched senders' events grouped by broadcast, in order of first
    delivery: [first message, delivered copies] per content object. A
    broadcast hands one content object to all its receivers, so grouping
    costs one identity lookup per copy; a content object that also arrives
    from another sender or interval is grouped apart."""
    groups = {}
    for e in events:
        msg = e.message
        if msg.sender not in watched:
            continue
        key = id(msg.content)
        group = groups.get(key)
        if group is not None and (group[0].sender != msg.sender
                                  or group[0].interval != msg.interval):
            key = (key, msg.sender, msg.interval)
            group = groups.get(key)
        if group is None:
            groups[key] = [msg, 1]
        else:
            group[1] += 1
    return groups.values()


class ValueScores:
    """Scoring state of a statistical part (level 3+) over one detection
    window. Per distinct (sender, values tuple), memoized: the largest robust
    z over the slots against a `ValueFold.finish` model (Iglewicz & Hoaglin's
    robust z-score) and, given the sender's feasible schedules (level 4, any
    container of tuples, kept as given), the distance to the nearest one.
    `crossing` holds the senders with a score beyond a threshold: no other
    sender can be reported."""
    __slots__ = ("model", "schedules_of", "scores", "crossing")

    def __init__(self, model, constraints_by_sender=None):
        self.model = model
        self.schedules_of = constraints_by_sender or {}  # sender -> feasible schedules
        self.scores = {}  # (sender, values) -> (z_max, distance or None)
        self.crossing = set()

    def score(self, sender, values):
        key = (sender, values)
        scores = self.scores.get(key)
        if scores is None:
            z_max = 0.0
            for t, v in enumerate(values):
                stats = self.model.get((sender, t))
                if stats is not None:
                    z_max = max(z_max, abs(v - stats[0]) / stats[1])
            dist = None
            schedules = self.schedules_of.get(sender)
            if schedules:
                # a feasible schedule itself is at distance 0, which no report shows
                dist = 0.0 if values in schedules else min(
                    max(abs(a - b) for a, b in zip(values, sched)) for sched in schedules)
            scores = self.scores[key] = (z_max, dist)
            if z_max > Z_THRESHOLD or (dist is not None and dist > CONSTRAINT_EPSILON):
                self.crossing.add(sender)
        return scores

    def reports(self, rows) -> list:
        """Reports over `rows`, one (sender, interval, own values tuple or
        None) per delivered message in delivery order. A sender is flagged
        robust_z after Z_CONSECUTIVE consecutive messages with any slot above
        Z_THRESHOLD, and constraint at its first message farther than
        CONSTRAINT_EPSILON from every feasible schedule."""
        streak, z_reports, d_reports = {}, {}, {}
        for sender, interval, values in rows:
            if values is None:
                continue
            z_max, dist = self.score(sender, values)
            if z_max > Z_THRESHOLD:
                streak[sender] = streak.get(sender, 0) + 1
                if streak[sender] >= Z_CONSECUTIVE and sender not in z_reports:
                    z_reports[sender] = AnomalyReport(
                        suspect=sender, first_flagged_interval=interval,
                        score=z_max, detector="robust_z")
            else:
                streak[sender] = 0
            if dist is not None and dist > CONSTRAINT_EPSILON and sender not in d_reports:
                d_reports[sender] = AnomalyReport(
                    suspect=sender, first_flagged_interval=interval,
                    score=dist, detector="constraint")
        return list(z_reports.values()) + list(d_reports.values())

    def window_reports(self, events, watched) -> list:
        """Reports over a window of delivered events: each broadcast is
        scored once, and only when some sender crosses a threshold are its
        messages walked in delivery order."""
        for msg, _ in _broadcasts(events, watched):
            values = _own_values(msg.content, msg.sender)
            if values is not None:
                self.score(msg.sender, values)
        crossing = self.crossing
        if not crossing:
            return []
        return self.reports((msg.sender, msg.interval, _own_values(msg.content, msg.sender))
                            for msg in (e.message for e in events) if msg.sender in crossing)


def _observed_rows(observations):
    return ((o.sender, o.interval, o.content_values) for o in observations)


def detect_constraint(observations) -> list:
    """Level 4: flag senders whose reported values match no feasible schedule
    within the per-slot tolerance."""
    constraints = {}
    for o in observations:
        if o.unit_constraints is not None:
            constraints.setdefault(o.sender, o.unit_constraints)
    return ValueScores({}, constraints).reports(_observed_rows(observations))


class ValueFold:
    """Training state of a statistical part (level 3+): per watched sender,
    how many delivered messages carried each of its own values tuples, and
    the intervals in which any watched sender was seen. Each broadcast is
    counted once, with its number of delivered copies."""
    __slots__ = ("counts", "intervals")

    def __init__(self):
        self.counts = {}  # sender -> {values tuple: [delivered messages]}
        self.intervals = set()

    def add(self, sender, interval, values, copies=1):
        self.intervals.add(interval)
        if values is not None:
            counts = self.counts.get(sender)
            if counts is None:
                counts = self.counts[sender] = {}
            cell = counts.get(values)  # a list, so that adding hashes the tuple once
            if cell is None:
                counts[values] = [copies]
            else:
                cell[0] += copies

    def fold(self, events, watched):
        for msg, copies in _broadcasts(events, watched):
            self.add(msg.sender, msg.interval, _own_values(msg.content, msg.sender), copies)

    def finish(self):
        """Per sender and slot, robust location/spread (median, MAD)."""
        if len(self.intervals) < MIN_TRAINING_INTERVALS:
            raise InsufficientTrainingError(
                f"need >= {MIN_TRAINING_INTERVALS} training intervals, "
                f"got {len(self.intervals)}")
        model = {}
        for sender, counts in self.counts.items():
            for t in range(min(map(len, counts))):
                column = {}
                for values, (n,) in counts.items():
                    column[values[t]] = column.get(values[t], 0) + n
                med = _counted_median(column)
                deviations = {}
                for v, n in column.items():
                    d = abs(v - med)
                    deviations[d] = deviations.get(d, 0) + n
                mad = _counted_median(deviations)
                # Units that legitimately swing across a wide operating range
                # during training (e.g. storage rebalancing) get a
                # proportionally wide tolerance; half the observed range
                # bounds normal excursions even when the MAD degenerates to 0.
                half_range = 0.5 * (max(column) - min(column))
                model[(sender, t)] = (med, max(1.4826 * mad, half_range, Z_SPREAD_FLOOR))
        return model


def _counted_median(counts):
    """The median of the values that `counts` maps to their multiplicities:
    in value, `statistics.median` of the expanded list."""
    n = sum(counts.values())
    ordered = sorted(counts)
    below = 0
    for i, v in enumerate(ordered):
        below += counts[v]
        if below > n // 2:  # v is at sorted position n // 2
            if n % 2 or below - counts[v] < n // 2:
                return v
            return (ordered[i - 1] + v) / 2


def train_statistical(observations):
    """Per sender and slot, robust location/spread (median, MAD) over a
    normal-operation training window."""
    fold = ValueFold()
    for o in observations:
        fold.add(o.sender, o.interval, o.content_values)
    return fold.finish()


def score_statistical(observations, model) -> list:
    """Level 3+: robust z-score per slot against a `train_statistical` model;
    a sender is flagged after Z_CONSECUTIVE consecutive messages with any slot
    above Z_THRESHOLD."""
    return ValueScores(model).reports(_observed_rows(observations))


def detect_statistical(observations, training) -> list:
    """Train on `training`, then score `observations`."""
    return score_statistical(observations, train_statistical(training))


class TrafficFold:
    """Message counts and integer delivery-delay sums per watched (sender,
    interval): the training state of a traffic part (levels 1-2), and the
    window it scores. `fold` reads the delays only with `delays` set
    (level 2)."""
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

    def score(self, bounds) -> list:
        """Levels 1-2: flag senders whose per-interval message rate or mean
        delay grossly deviates from `finish` bounds. Content is never
        consulted."""
        rate_bounds, delay_bounds = bounds
        intervals_of = {}
        for sender, interval in self.counts:
            intervals_of.setdefault(sender, []).append(interval)
        reports = {}

        def flag(sender, interval, score):
            if sender not in reports:
                reports[sender] = AnomalyReport(suspect=sender, first_flagged_interval=interval,
                                                score=score, detector="traffic")

        for sender, intervals in intervals_of.items():
            lo_hi = rate_bounds.get(sender)
            for interval in sorted(intervals):
                rate = self.counts[sender, interval]
                if lo_hi is None:
                    flag(sender, interval, float(rate))  # unknown sender appearing
                    continue
                if rate > RATE_FACTOR * lo_hi[1] + RATE_SLACK:
                    flag(sender, interval, float(rate))
                total = self.delay_sums.get((sender, interval))
                if total is not None and sender in delay_bounds:
                    mean_d = total / rate
                    dlo, dhi = delay_bounds[sender]
                    if not (dlo - DELAY_SLACK <= mean_d <= dhi + DELAY_SLACK):
                        flag(sender, interval, mean_d)
        return list(reports.values())


def _traffic_fold(observations):
    fold = TrafficFold(delays=True)  # an observation carries a delay from level 2 on
    counts, sums = fold.counts, fold.delay_sums
    for o in observations:
        key = (o.sender, o.interval)
        counts[key] = counts.get(key, 0) + 1
        if o.delay_ticks is not None:
            sums[key] = sums.get(key, 0) + o.delay_ticks
    return fold


def train_traffic(observations):
    """Per sender, the range of per-interval message rates and of per-interval
    mean delays over a normal-operation training window."""
    return _traffic_fold(observations).finish()


def score_traffic(observations, bounds) -> list:
    """Levels 1-2: flag senders whose per-interval message rate or mean delay
    grossly deviates from `train_traffic` bounds."""
    return _traffic_fold(observations).score(bounds)


def detect_traffic(observations, training) -> list:
    """Train on `training`, then score `observations`."""
    return score_traffic(observations, train_traffic(training))


# --- scope construction and architecture dispatch ---

def make_scopes(arch: str, agent_ids, unit_types: dict, seed) -> dict:
    """{agent: the ObserverScope watching it}; agents in one scope share its object."""
    import random
    ids = sorted(agent_ids)
    if arch == "Centralized":
        return dict.fromkeys(ids, ObserverScope("Centralized"))
    if arch == "Decentralized":
        return {a: ObserverScope("Decentralized", a) for a in ids}
    if arch == "GroupedByType":
        by_type = {t: ObserverScope("GroupedByType", t) for t in map(unit_types.get, ids)}
        return {a: by_type[unit_types[a]] for a in ids}
    if arch == "GroupedRandom":
        rng = random.Random(f"ocsim-groups:{seed}")
        shuffled = list(ids)
        rng.shuffle(shuffled)
        n_groups = max(2, len(ids) // 3)
        groups = [ObserverScope("GroupedRandom", f"g{g}") for g in range(n_groups)]
        return {a: groups[i % n_groups] for i, a in enumerate(shuffled)}
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


class TrainedObserver:
    """One observer architecture trained on its normal-operation window.

    Each part is one information level over the agents its scopes watch,
    with one model: traffic bounds at levels 1-2, the robust z-score model at
    level 3+. A report takes its suspect's scope as its label. The observer
    is built without events; `fold` adds each normal-operation interval's
    delivered events to the parts' training state as the interval finishes,
    and `finish` turns that state into the models once, at the first
    detection interval. No window is kept, and nothing is projected: both
    steps read the delivered events directly. A value part (level 3+) works
    per broadcast, not per delivered copy: training counts how many copies
    carried each values tuple, and `detect` scores each distinct content
    once, then walks the messages in delivery order (streaks advance per
    message) only for senders with a content beyond a threshold. A traffic
    part counts every copy. MultiLeveled is a centralized traffic part
    without message content (level 2) plus a decentralized
    content/constraint part (level 4); its `level` is not used.
    """

    def __init__(self, arch, level, agent_ids, unit_types, seed):
        parts = ([(2, "Centralized"), (4, "Decentralized")] if arch == "MultiLeveled"
                 else [(level, arch)])
        self.parts = []  # (level, {agent: scope}, training fold, then model)
        for part_level, part_arch in parts:
            scope_of = make_scopes(part_arch, agent_ids, unit_types, seed)
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
            if level <= 2:
                window = TrafficFold(delays=level == 2)
                window.fold(detection_events, scope_of)
                found = window.score(model)
            else:
                scores = ValueScores(model, constraints_by_sender if level >= 4 else None)
                found = scores.window_reports(detection_events, scope_of)
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

