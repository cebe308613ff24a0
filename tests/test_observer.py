import dataclasses
import random
from statistics import median

import pytest
from hypothesis import given, settings, strategies as st

from ocsim import observer as obs
from ocsim.kernel import Message, TraceEvent

SLOTS = 4


def _event(sender, values, interval, tick=0, delay=2, receiver="a01"):
    content = {"entries": {sender: {"values": list(values), "revision": 0}}}
    msg = Message(msg_id=tick, sender=sender, receiver=receiver,
                  sent_tick=tick, delivered_tick=tick + delay,
                  kind="WorkingMemoryUpdate", content=content, interval=interval)
    return TraceEvent(message=msg, delivered=True)


def _series(sender, level, value_by_interval, **kwargs):
    events = [_event(sender, [v] * SLOTS, interval, tick=10 * interval)
              for interval, v in sorted(value_by_interval.items())]
    return obs.build_observations(events, level, **kwargs)


# --- projection ---

def test_projection_reveals_fields_cumulatively():
    e = _event("a00", [1.0] * SLOTS, interval=3, tick=5, delay=2)
    by_level = {lvl: obs.project(e, lvl, constraints=[(1.0,) * SLOTS])
                for lvl in (1, 2, 3, 4)}
    assert by_level[1].sender == "a00" and by_level[1].timestamp == 7
    assert (by_level[1].delay_ticks, by_level[1].content_values,
            by_level[1].unit_constraints) == (None,) * 3
    assert by_level[2].delay_ticks == 2
    assert by_level[2].content_values is None
    assert by_level[3].content_values == (1.0,) * SLOTS
    assert by_level[3].unit_constraints is None
    assert by_level[4].unit_constraints == ((1.0,) * SLOTS,)


def test_projection_rejects_unknown_level():
    e = _event("a00", [1.0] * SLOTS, interval=0)
    with pytest.raises(ValueError):
        obs.project(e, 5)


def test_scope_filter_restricts_to_members():
    observations = _series("a00", 1, {i: 1.0 for i in range(6)}) \
        + _series("a01", 1, {i: 1.0 for i in range(6)})
    scope_of = obs.make_scopes("Decentralized", ["a00"], {"a00": "PV"}, seed=1)
    assert {o.sender for o in obs.scope_filter(observations, scope_of)} == {"a00"}


# --- statistical detector ---

def test_training_model_matches_hand_computed_median_mad():
    values = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0]
    training = _series("a00", 3, dict(enumerate(values)))
    model = obs.train_statistical(training)
    med = median(values)
    mad = median(abs(v - med) for v in values)
    expected_spread = max(1.4826 * mad,
                          0.5 * (max(values) - min(values)),
                          obs.Z_SPREAD_FLOOR)
    for t in range(SLOTS):
        got_med, got_spread = model[("a00", t)]
        assert got_med == pytest.approx(med)
        assert got_spread == pytest.approx(expected_spread)


def test_training_requires_enough_intervals():
    training = _series("a00", 3, {0: 1.0, 1: 1.0})
    with pytest.raises(obs.InsufficientTrainingError):
        obs.train_statistical(training)


def _jittered_training(sender, base, n=20, sigma=0.01, seed="obs"):
    rng = random.Random(seed)
    return _series(sender, 3,
                   {i: base + rng.gauss(0, sigma) for i in range(n)})


def test_gross_deviation_is_flagged():
    training = _jittered_training("a00", base=1.0)
    detect = _series("a00", 3, {20: 10.0, 21: 10.0})
    reports = obs.detect_statistical(detect, training)
    assert [r.suspect for r in reports] == ["a00"]
    assert reports[0].detector == "robust_z"
    assert reports[0].score > obs.Z_THRESHOLD


def test_single_spike_is_not_flagged():
    training = _jittered_training("a00", base=1.0)
    detect = _series("a00", 3, {20: 10.0, 21: 1.0, 22: 10.0})
    assert obs.detect_statistical(detect, training) == []


def test_wide_operating_range_widens_the_tolerance():
    """A unit that legitimately swept a wide ladder during training must be
    allowed the same swings during detection."""
    ladder = {i: -7.0 + 1.75 * (i % 9) for i in range(18)}
    training = _series("a00", 3, ladder)
    detect = _series("a00", 3, {20: 7.0, 21: 7.0, 22: -7.0, 23: -7.0})
    assert obs.detect_statistical(detect, training) == []


def test_stable_sender_keeps_a_tight_tolerance():
    training = _jittered_training("a00", base=2.0)
    detect = _series("a00", 3, {20: 6.0, 21: 6.0})  # 3x scaling signature
    assert [r.suspect for r in obs.detect_statistical(detect, training)] == ["a00"]


# --- constraint detector ---

def test_feasible_values_within_epsilon_are_not_flagged():
    constraints = [(1.0,) * SLOTS, (2.0,) * SLOTS]
    eps = obs.CONSTRAINT_EPSILON
    events = [_event("a00", [1.0 + eps / 2] * SLOTS, 20)]
    observations = obs.build_observations(events, 4, {"a00": constraints})
    assert obs.detect_constraint(observations) == []


def test_infeasible_values_are_flagged_with_distance_score():
    constraints = [(1.0,) * SLOTS, (2.0,) * SLOTS]
    events = [_event("a00", [3.0] * SLOTS, 20)]
    observations = obs.build_observations(events, 4, {"a00": constraints})
    reports = obs.detect_constraint(observations)
    assert [r.suspect for r in reports] == ["a00"]
    assert reports[0].detector == "constraint"
    assert reports[0].score == pytest.approx(1.0)  # distance to nearest schedule


# --- traffic detector ---

def test_rate_blowup_is_flagged():
    training = []
    for interval in range(6):
        training += [_event("a00", [1.0] * SLOTS, interval, tick=10 * interval + j)
                     for j in range(3)]
    train_obs = obs.build_observations(training, 2)
    burst = [_event("a00", [1.0] * SLOTS, 20, tick=200 + j) for j in range(30)]
    reports = obs.detect_traffic(obs.build_observations(burst, 2), train_obs)
    assert [r.suspect for r in reports] == ["a00"]
    assert reports[0].detector == "traffic"


def test_unknown_sender_is_flagged():
    train_obs = obs.build_observations(
        [_event("a00", [1.0] * SLOTS, i) for i in range(6)], 2)
    detect = obs.build_observations([_event("ghost", [1.0] * SLOTS, 20)], 2)
    assert [r.suspect for r in obs.detect_traffic(detect, train_obs)] == ["ghost"]


def test_normal_traffic_passes():
    mk = lambda lo, hi: [_event("a00", [1.0] * SLOTS, i, tick=10 * i + j)
                         for i in range(lo, hi) for j in range(3)]
    train_obs = obs.build_observations(mk(0, 6), 2)
    detect = obs.build_observations(mk(20, 22), 2)
    assert obs.detect_traffic(detect, train_obs) == []


# --- training folds ---

_AGENTS = ["a00", "a01", "a02", "a03"]
_TYPES = {"a00": "PV", "a01": "PV", "a02": "Battery", "a03": "Wind"}
# signed zeros, ints and off-grid floats: the median and the dict orders
# depend on the order the values arrive in
_value = st.sampled_from([0.0, -0.0, 0, 1, 1.0, 0.1, 1 / 3]) | st.floats(-10, 10)


@st.composite
def _window(draw, slots=None, first_interval=0, min_intervals=3, value=_value, max_rows=6):
    """Delivered events of a window, one list per interval. Each row is one
    broadcast: one content object delivered to 1-3 receivers, its copies
    interleaved with the other broadcasts' by delivery tick. A content holds
    the sender's own entry, only another agent's, both (then that agent may
    send the same object too), or no entries; senders outside every scope
    appear as well."""
    slots = slots or draw(st.integers(1, 3))
    values = st.tuples(*[value] * slots)
    row = st.tuples(st.sampled_from(_AGENTS + ["central"]),
                    st.sampled_from(["own", "other", "both", "none"]), values, values,
                    st.lists(st.integers(0, 4), min_size=1, max_size=3), st.booleans())
    window, tick = [], 0
    intervals = draw(st.lists(st.lists(row, min_size=1, max_size=max_rows),
                              min_size=min_intervals, max_size=8))
    for interval, rows in enumerate(intervals, start=first_interval):
        messages = []
        for sender, entries, own, others, delays, echo in rows:
            other = "a01" if sender == "a00" else "a00"
            senders = [sender] * len(delays)
            if entries == "none":
                kind, content = "BlacklistNotice", {"suspect": sender}
            else:
                kind, held = "WorkingMemoryUpdate", {}
                if entries != "other":
                    held[sender] = {"values": own, "revision": 0}
                if entries != "own":
                    held[other] = {"values": others, "revision": 0}
                    if entries == "both" and echo:
                        senders.append(other)
                content = {"entries": held}
            for copy_sender, delay in zip(senders, delays + [1]):
                messages.append(Message(msg_id=tick, sender=copy_sender, receiver="a01",
                                        sent_tick=tick, delivered_tick=tick + delay,
                                        kind=kind, content=content, interval=interval))
                tick += 1
        messages.sort(key=lambda m: (m.delivered_tick, m.msg_id))
        window.append([TraceEvent(message=m, delivered=True) for m in messages])
    return window


@pytest.mark.hashseed
@given(_window(), st.sampled_from(["Centralized", "Decentralized", "GroupedByType",
                                   "GroupedRandom", "MultiLeveled"]), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_folding_interval_by_interval_trains_the_batch_models(window, arch, level):
    """The models finished from the folded intervals are those that
    `train_statistical` / `train_traffic` build from the projected window,
    down to dict order and the sign of a zero, and a window with too few
    intervals is refused by both."""
    observer = obs.TrainedObserver(arch, level, _AGENTS, _TYPES, seed=1)
    for events in window:
        observer.fold(events)
    batch = []
    try:
        for part_level, scope_of, _ in observer.parts:
            watched = [e for events in window for e in events
                       if e.message.sender in scope_of]
            train = obs.train_traffic if part_level <= 2 else obs.train_statistical
            batch.append(train(obs.build_observations(watched, part_level)))
    except obs.InsufficientTrainingError:
        with pytest.raises(obs.InsufficientTrainingError):
            observer.finish()
        return
    observer.finish()
    assert repr([model for _, _, model in observer.parts]) == repr(batch)


# --- counted training and event-based scoring against the list-based path ---

def _own(msg):
    entry = msg.content.get("entries", {}).get(msg.sender)
    return None if entry is None else tuple(entry["values"])


def _reference_model(window, watched):
    """The list-based training the counted fold replaces: one values tuple
    per delivered copy, `statistics.median` and a generator MAD."""
    rows, intervals = {}, set()
    for events in window:
        for e in events:
            if e.message.sender in watched:
                intervals.add(e.message.interval)
                values = _own(e.message)
                if values is not None:
                    rows.setdefault(e.message.sender, []).append(values)
    if len(intervals) < obs.MIN_TRAINING_INTERVALS:
        raise obs.InsufficientTrainingError(len(intervals))
    model = {}
    for sender, tuples in rows.items():
        for t, vs in enumerate(zip(*tuples)):
            med = median(vs)
            mad = median(abs(v - med) for v in vs)
            half_range = 0.5 * (max(vs) - min(vs))
            model[(sender, t)] = (med, max(1.4826 * mad, half_range, obs.Z_SPREAD_FLOOR))
    return model, rows


@pytest.mark.hashseed
@given(st.data())
@settings(max_examples=200, deadline=None)
def test_counted_finish_matches_the_list_based_median_mad(data):
    """Counting each broadcast once, with its number of delivered copies,
    finishes the model the per-copy lists give: equal locations, and spreads
    and z-scores down to their repr."""
    window = data.draw(_window(min_intervals=4))
    watched = dict.fromkeys(_AGENTS)
    fold = obs.ValueFold()
    for events in window:
        fold.fold(events, watched)
    try:
        expected, rows = _reference_model(window, watched)
    except obs.InsufficientTrainingError:
        with pytest.raises(obs.InsufficientTrainingError):
            fold.finish()
        return
    got = fold.finish()
    assert list(got) == list(expected)
    for (sender, t), (med, spread) in expected.items():
        got_med, got_spread = got[sender, t]
        assert got_med == med and repr(got_spread) == repr(spread)
        for v in [values[t] for values in rows[sender]] + [0.0, -0.0, 7, 123.456]:
            assert repr(abs(v - got_med) / got_spread) == repr(abs(v - med) / spread)


def _reference_statistical(observations, model):
    streak, reports = {}, {}
    for o in observations:
        if o.content_values is None:
            continue
        z_max = 0.0
        for t, v in enumerate(o.content_values):
            stats = model.get((o.sender, t))
            if stats is not None:
                z_max = max(z_max, abs(v - stats[0]) / stats[1])
        if z_max > obs.Z_THRESHOLD:
            streak[o.sender] = streak.get(o.sender, 0) + 1
            if streak[o.sender] >= obs.Z_CONSECUTIVE and o.sender not in reports:
                reports[o.sender] = obs.AnomalyReport(o.sender, o.interval, z_max, "robust_z")
        else:
            streak[o.sender] = 0
    return list(reports.values())


def _reference_constraint(observations):
    reports = {}
    for o in observations:
        if o.content_values is None or o.unit_constraints is None or o.sender in reports:
            continue
        dist = min(max(abs(a - b) for a, b in zip(o.content_values, sched))
                   for sched in o.unit_constraints)
        if dist > obs.CONSTRAINT_EPSILON:
            reports[o.sender] = obs.AnomalyReport(o.sender, o.interval, dist, "constraint")
    return list(reports.values())


def _reference_traffic(observations, bounds):
    rate_bounds, delay_bounds = bounds
    counts, delays, reports = {}, {}, {}
    for o in observations:
        per_interval = counts.setdefault(o.sender, {})
        per_interval[o.interval] = per_interval.get(o.interval, 0) + 1
        if o.delay_ticks is not None:
            delays.setdefault((o.sender, o.interval), []).append(o.delay_ticks)
    for sender, per_interval in counts.items():
        for interval in sorted(per_interval):
            rate, flags = per_interval[interval], []
            lo_hi = rate_bounds.get(sender)
            if lo_hi is None or rate > obs.RATE_FACTOR * lo_hi[1] + obs.RATE_SLACK:
                flags.append(float(rate))
            d = delays.get((sender, interval))
            if lo_hi is not None and d and sender in delay_bounds:
                mean_d = sum(d) / len(d)
                dlo, dhi = delay_bounds[sender]
                if not dlo - obs.DELAY_SLACK <= mean_d <= dhi + obs.DELAY_SLACK:
                    flags.append(mean_d)
            if flags and sender not in reports:
                reports[sender] = obs.AnomalyReport(sender, interval, flags[0], "traffic")
    return list(reports.values())


def _reference_detect(observer, events, constraints_by_sender):
    """The Observation path: project each watched delivered copy, then score
    the observations one by one."""
    reports = []
    for level, scope_of, model in observer.parts:
        observations = obs.build_observations(
            [e for e in events if e.message.sender in scope_of], level, constraints_by_sender)
        if level <= 2:
            found = _reference_traffic(observations, model)
        else:
            found = _reference_statistical(observations, model)
            if level >= 4:
                found += _reference_constraint(observations)
        for r in found:
            r.scope = scope_of[r.suspect]
        reports.extend(found)
    return obs.dedup_reports(reports)


# training on a few nearby values keeps the spreads tight, so detection
# values cross the z threshold often; schedules share the training values,
# so some detection values are feasible
_steady_value = st.sampled_from([0.0, -0.0, 0, 1, 1.0, 0.5])
_schedule_value = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-10, 10)


@pytest.mark.hashseed
@given(st.data(), st.sampled_from(["Centralized", "Decentralized", "GroupedByType",
                                   "GroupedRandom", "MultiLeveled"]), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_event_based_detect_matches_the_observation_path(data, arch, level):
    """`detect` scores each broadcast once but reports what projecting and
    scoring every delivered copy reports: suspect, interval, score repr,
    detector and scope. A sender's schedules come in any container: a run
    hands over each agent's own feasible set."""
    slots = data.draw(st.integers(1, 3))
    training = data.draw(_window(slots, min_intervals=obs.MIN_TRAINING_INTERVALS,
                                 value=_steady_value))
    detection = data.draw(_window(slots, first_interval=20, min_intervals=1,
                                  value=_steady_value | _value, max_rows=12))
    container = data.draw(st.sampled_from([list, tuple, set, frozenset]))
    schedules = st.lists(st.tuples(*[_schedule_value] * slots), min_size=1,
                         max_size=3).map(container)
    constraints = data.draw(st.none() | st.fixed_dictionaries({a: schedules for a in _AGENTS}))
    observer = obs.TrainedObserver(arch, level, _AGENTS, _TYPES, seed=1)
    for events in training:
        observer.fold(events)
    try:
        observer.finish()
    except obs.InsufficientTrainingError:
        return
    events = [e for interval in detection for e in interval]
    got, expected = (
        [(r.suspect, r.first_flagged_interval, repr(r.score), r.detector, r.scope.describe())
         for r in reports]
        for reports in (observer.detect(events, constraints),
                        _reference_detect(observer, events, constraints)))
    assert got == expected


# --- level blindness ---

def test_levels_below_three_cannot_see_content_tampering():
    """A value-injection attack that leaves rates and delays untouched is
    invisible to detectors restricted to levels 1-2."""
    honest = [_event("a00", [1.0] * SLOTS, i, tick=10 * i + j)
              for i in range(25) for j in range(3)]
    tampered = [_event(e.message.sender,
                       [v * 3.0 for v in
                        e.message.content["entries"]["a00"]["values"]]
                       if e.message.interval >= 20 else
                       e.message.content["entries"]["a00"]["values"],
                       e.message.interval, tick=e.message.sent_tick)
                for e in honest]
    for level in (1, 2):
        split = lambda evs: ([e for e in evs if e.message.interval < 20],
                             [e for e in evs if e.message.interval >= 20])
        out = []
        for events in (honest, tampered):
            train, detect = split(events)
            out.append(obs.detect_traffic(obs.build_observations(detect, level),
                                          obs.build_observations(train, level)))
        assert out[0] == out[1] == []


def _with_steady(window, slots, value=1.0, delay=3, burst=0):
    """`window` plus a steady sender "zz": per interval, 2 + `burst`
    broadcasts of `value` in every slot, each delivered to two receivers
    after `delay` ticks. Trained on its own steady traffic, zz is never
    reported."""
    out = []
    for events in window:
        interval = events[0].message.interval
        messages = [e.message for e in events]
        for b in range(2 + burst):
            content = {"entries": {"zz": {"values": (value,) * slots, "revision": 0}}}
            for receiver in ("a00", "a01"):
                messages.append(Message(msg_id=10**6 + len(messages), sender="zz",
                                        receiver=receiver, sent_tick=5 * b,
                                        delivered_tick=5 * b + delay, kind="WorkingMemoryUpdate",
                                        content=content, interval=interval))
        messages.sort(key=lambda m: (m.delivered_tick, m.msg_id))
        out.append([TraceEvent(message=m, delivered=True) for m in messages])
    return out


def _perturbed(window, values=None, ticks=None):
    """`window` with every entry's values mapped by `values`, one new content
    per content object so that broadcasts stay shared, and every delivery
    tick mapped by `ticks`."""
    contents = {}
    out = []
    for events in window:
        rebuilt = []
        for e in events:
            m = e.message
            content = m.content
            if values is not None and "entries" in content:
                if id(content) not in contents:
                    contents[id(content)] = (content, {"entries": {
                        a: {"values": values(entry["values"]), "revision": entry["revision"]}
                        for a, entry in content["entries"].items()}})
                content = contents[id(content)][1]
            tick = m.delivered_tick if ticks is None else ticks(m.delivered_tick)
            rebuilt.append(TraceEvent(dataclasses.replace(m, content=content,
                                                          delivered_tick=tick), True))
        out.append(rebuilt)
    return out


@pytest.mark.hashseed
@given(st.data(), st.sampled_from(["Centralized", "Decentralized", "GroupedByType",
                                   "GroupedRandom"]), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_reports_ignore_what_the_level_may_not_see(data, arch, level):
    """Metamorphic, on the path a run takes (fold, finish, detect): perturbing
    what a level may not see leaves the reports repr-identical (content
    values at levels 1-2, delivery ticks at level 1 with the delivery order
    kept, constraints at levels 1-3), and perturbing the steady sender zz in
    what the level does see (rate, delay, values, constraints) changes them."""
    slots = data.draw(st.integers(1, 3))
    training = data.draw(_window(slots, min_intervals=obs.MIN_TRAINING_INTERVALS,
                                 value=_steady_value))
    detection = data.draw(_window(slots, first_interval=20, min_intervals=1,
                                  value=_steady_value | _value, max_rows=12))
    schedules = st.lists(st.tuples(*[_schedule_value] * slots), min_size=1, max_size=3)
    constraints, other_constraints = (
        {**data.draw(st.fixed_dictionaries({a: schedules for a in _AGENTS})),
         "zz": [(1.0,) * slots]} for _ in range(2))

    def reports(training, detection, constraints):
        observer = obs.TrainedObserver(arch, level, _AGENTS + ["zz"], {**_TYPES, "zz": "Wind"},
                                       seed=1)
        for events in training:
            observer.fold(events)
        observer.finish()
        return repr(observer.detect([e for events in detection for e in events], constraints))

    train, detect = _with_steady(training, slots), _with_steady(detection, slots)
    baseline = reports(train, detect, constraints)
    assert "'zz'" not in baseline
    if level <= 2:
        def lie(vs):
            return tuple(-7.0 * v + 3.5 for v in vs)
        assert reports(_perturbed(train, values=lie), _perturbed(detect, values=lie),
                       constraints) == baseline
    if level == 1:
        def later(tick):
            return 3 * tick + 1
        assert reports(_perturbed(train, ticks=later), _perturbed(detect, ticks=later),
                       constraints) == baseline
    if level <= 3:
        assert reports(train, detect, other_constraints) == baseline
    if level == 1:
        seen = reports(train, _with_steady(detection, slots, burst=10), constraints)
    elif level == 2:
        seen = reports(train, _with_steady(detection, slots, delay=8), constraints)
    elif level == 3:
        seen = reports(train, _with_steady(detection, slots, value=11.0), constraints)
    else:
        seen = reports(train, detect, {**constraints, "zz": [(2.0,) * slots]})
    assert "'zz'" in seen


# --- scopes, dedup, dispatch ---

def test_scope_construction_covers_all_architectures():
    ids = [f"a{i:02d}" for i in range(8)]
    types = {aid: ("Battery" if i % 2 else "PV") for i, aid in enumerate(ids)}
    for arch in ("Centralized", "Decentralized", "GroupedByType", "GroupedRandom"):
        scope_of = obs.make_scopes(arch, ids, types, seed=1)
        assert sorted(scope_of) == ids  # every agent is watched by exactly one scope
        assert {s.kind for s in scope_of.values()} == {arch}
    central = obs.make_scopes("Centralized", ids, types, seed=1)
    assert len(set(map(id, central.values()))) == 1  # one scope object for all
    decentralized = obs.make_scopes("Decentralized", ids, types, seed=1)
    assert all(s.label == a for a, s in decentralized.items())
    by_type = obs.make_scopes("GroupedByType", ids, types, seed=1)
    assert all(s.label == types[a] for a, s in by_type.items())
    grouped = obs.make_scopes("GroupedRandom", ids, types, seed=1)
    assert sorted({s.label for s in grouped.values()}) == ["g0", "g1"]
    with pytest.raises(ValueError):
        obs.make_scopes("Panopticon", ids, types, seed=1)


def test_a_traffic_report_carries_its_suspects_scope_label():
    """A grouped level-2 observer reports a bursting sender under its own
    group's label and never reports a sender outside every scope."""
    types = {"a00": "Wind", "a01": "Wind", "a02": "PV", "a03": "PV",
             "a04": "Battery", "a05": "Battery"}

    def traffic(interval, counts):
        return [_event(sender, [1.0] * SLOTS, interval, tick=100 * interval + j)
                for sender, n in counts.items() for j in range(n)]

    observer = obs.TrainedObserver("GroupedByType", 2, list(types), types, seed=1)
    for i in range(6):
        observer.fold(traffic(i, dict.fromkeys(types, 3)))
    observer.finish()
    burst = traffic(20, {**dict.fromkeys(types, 3), "a02": 30, "central": 30})
    reports = observer.detect(burst)
    assert [(r.suspect, r.detector, r.scope.describe()) for r in reports] == \
        [("a02", "traffic", "GroupedByType(PV)")]


def test_dedup_prefers_earliest_then_strongest_evidence():
    scope = obs.ObserverScope("Centralized")
    mk = lambda interval, detector: obs.AnomalyReport(
        suspect="a00", first_flagged_interval=interval, score=1.0,
        detector=detector, scope=scope)
    out = obs.dedup_reports([mk(22, "constraint"), mk(21, "robust_z")])
    assert len(out) == 1 and out[0].detector == "robust_z"  # earlier wins
    out = obs.dedup_reports([mk(21, "robust_z"), mk(21, "constraint")])
    assert out[0].detector == "constraint"  # tie: proof beats symptom


def test_report_record_shape():
    scope = obs.ObserverScope("Decentralized", label="a00")
    report = obs.AnomalyReport(suspect="a00", first_flagged_interval=21,
                               score=8.5, detector="robust_z", scope=scope)
    assert obs.report_record(report) == {
        "suspect": "a00", "first_flagged_interval": 21, "score": 8.5,
        "detector": "robust_z", "scope": "Decentralized(a00)"}
