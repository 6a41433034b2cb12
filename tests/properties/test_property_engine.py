"""Property tests: the event engine never reorders time.

The later properties run hypothesis-generated programs (absolute
schedules, cancellations, nested ``after`` + ``call_soon`` follow-ups,
``until``/``max_events`` cuts, fan-out batches whose members schedule,
cancel and fan out in the same nanosecond) on :class:`Simulator` and on
a deliberately naive reference model with one entry per event, and
assert identical execution logs, clocks and event counts.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import FastEvent, Simulator


@given(delays=st.lists(st.integers(min_value=0, max_value=10**9),
                       min_size=1, max_size=60))
def test_execution_is_time_sorted(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.at(d, lambda d=d: fired.append(d))
    sim.run()
    assert fired == sorted(delays)
    assert sim.now == max(delays)


@given(delays=st.lists(st.integers(min_value=0, max_value=10**6),
                       min_size=2, max_size=40),
       cancel_mask=st.lists(st.booleans(), min_size=2, max_size=40))
def test_cancellation_subset(delays, cancel_mask):
    sim = Simulator()
    fired = []
    handles = [sim.at(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)]
    for handle, cancel in zip(handles, cancel_mask):
        if cancel:
            handle.cancel()
    sim.run()
    expected = [i for i, (d, c) in enumerate(zip(delays, cancel_mask[:len(delays)]))
                if not c]
    # pad mask for unzipped tail
    expected = [i for i in range(len(delays))
                if not (i < len(cancel_mask) and cancel_mask[i])]
    assert sorted(fired) == expected


@given(chain=st.lists(st.integers(min_value=1, max_value=1000),
                      min_size=1, max_size=30))
def test_relative_scheduling_accumulates(chain):
    sim = Simulator()
    times = []

    def step(remaining):
        times.append(sim.now)
        if remaining:
            sim.after(remaining[0], lambda: step(remaining[1:]))

    sim.at(0, lambda: step(chain))
    sim.run()
    expected, acc = [0], 0
    for d in chain:
        acc += d
        expected.append(acc)
    assert times == expected


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1000),
                          st.booleans()), min_size=1, max_size=50))
def test_monotonic_now_during_run(events):
    sim = Simulator()
    observed = []
    for t, _ in events:
        sim.at(t, lambda: observed.append(sim.now))
    sim.run()
    assert observed == sorted(observed)


class Reference:
    """The engine's contract, naively: re-sort every entry by
    ``(time, seq)`` each step and fire the first one not cancelled."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self.entries = []  # [time, seq, callback, cancelled]
        self.seq = 0

    def at(self, time, callback, label=""):
        entry = [time, self.seq, callback, False]
        self.seq += 1
        self.entries.append(entry)
        return RefHandle(entry)

    def after(self, delay, callback, label=""):
        return self.at(self.now + delay, callback)

    def call_soon(self, callback, label=""):
        return self.at(self.now, callback)

    def schedule_fast(self, time, event):
        self.at(time, event)

    def fan_out(self, base, delays, payloads, fire, arg, label):
        for delay, payload in zip(delays, payloads):
            self.at(base + delay, lambda p=payload: fire(arg, p))

    @property
    def queue_depth(self):
        return sum(1 for e in self.entries if not e[3])

    def run(self, until=None, max_events=None):
        executed = 0
        while max_events is None or executed < max_events:
            self.entries.sort(key=lambda e: (e[0], e[1]))
            live = [e for e in self.entries if not e[3]]
            if not live or (until is not None and live[0][0] > until):
                break
            self.entries.remove(live[0])
            self.now = live[0][0]
            self.events_processed += 1
            executed += 1
            live[0][2]()
        if until is not None:
            self.now = max(self.now, until)
        return self.now


class RefHandle:
    def __init__(self, entry):
        self.entry = entry

    def cancel(self):
        self.entry[3] = True


#: Times biased toward same-tick ties, plus a smearing of arbitrary values.
times_st = st.one_of(st.integers(min_value=0, max_value=3),
                     st.integers(min_value=0, max_value=10**6))


def run_program(sim, schedule, cancel_mask, nested_delays):
    """One deterministic program: absolute schedules (some cancelled),
    each firing optionally re-scheduling relative follow-ups and a
    same-time ``call_soon``."""
    log = []
    handles = []

    def fire(tag, followups):
        log.append((sim.now, tag))
        for j, delay in enumerate(followups):
            sim.after(delay, lambda t=f"{tag}+f{j}": log.append((sim.now, t)),
                      label="nested")
        if followups:
            sim.call_soon(lambda t=f"{tag}+soon": log.append((sim.now, t)))

    for i, t in enumerate(schedule):
        followups = nested_delays if i % 3 == 0 else []
        handles.append(sim.at(t, lambda i=i, f=tuple(followups): fire(i, f),
                              label="root"))
    for handle, cancel in zip(handles, cancel_mask):
        if cancel:
            handle.cancel()
    sim.run()
    return log, sim.now, sim.events_processed


@settings(max_examples=60, deadline=None)
@given(schedule=st.lists(times_st, min_size=1, max_size=25),
       cancel_mask=st.lists(st.booleans(), min_size=25, max_size=25),
       nested_delays=st.lists(st.integers(min_value=0, max_value=5000),
                              min_size=0, max_size=3))
def test_order_matches_reference(schedule, cancel_mask, nested_delays):
    assert (run_program(Simulator(), schedule, cancel_mask, nested_delays)
            == run_program(Reference(), schedule, cancel_mask, nested_delays))


@settings(max_examples=40, deadline=None)
@given(schedule=st.lists(times_st, min_size=1, max_size=20),
       cancel_mask=st.lists(st.booleans(), min_size=20, max_size=20),
       until=st.one_of(st.none(), times_st),
       max_events=st.one_of(st.none(), st.integers(min_value=0, max_value=12)))
def test_until_and_max_events_match_reference(schedule, cancel_mask, until,
                                              max_events):
    """Horizon and budget cut the engine and the reference at the same
    event; a second unbounded run completes identically from the cut."""
    results = []
    for sim in (Simulator(), Reference()):
        log = []
        handles = [sim.at(t, lambda i=i: log.append((sim.now, i)))
                   for i, t in enumerate(schedule)]
        for handle, cancel in zip(handles, cancel_mask):
            if cancel:
                handle.cancel()
        sim.run(until=until, max_events=max_events)
        cut = (list(log), sim.now, sim.events_processed)
        sim.run()
        results.append((cut, list(log), sim.now, sim.events_processed))
    assert results[0] == results[1]


@settings(max_examples=40, deadline=None)
@given(times=st.lists(times_st, min_size=1, max_size=15), horizon=times_st)
def test_clock_parks_at_horizon(times, horizon):
    """run(until=...) that outlives the queue parks the clock exactly at
    the horizon, matching the reference."""
    ends = []
    for sim in (Simulator(), Reference()):
        for t in times:
            sim.at(t, lambda: None)
        end = sim.run(until=horizon)
        # The return value is the clock, never short of the horizon.
        assert end == sim.now >= horizon
        ends.append((end, sim.events_processed))
    assert ends[0] == ends[1]


class _Logged(FastEvent):
    """A schedule_fast event that logs like every other event here."""

    __slots__ = ("sim", "log", "tag")

    def __init__(self, sim, log, tag):
        self.sim = sim
        self.log = log
        self.tag = tag

    def __call__(self):
        self.log.append((self.sim.now, self.tag, self.sim.queue_depth))


#: Sorted delay lists with many ties (members sharing a nanosecond).
fan_delays_st = st.lists(st.integers(min_value=0, max_value=4),
                         min_size=0, max_size=6).map(sorted)

#: What a fan-out member does besides logging.
member_action_st = st.one_of(
    st.none(),
    st.tuples(st.just("after"), st.integers(min_value=0, max_value=3)),
    st.just(("soon",)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("fan"), fan_delays_st),
    st.tuples(st.just("fast"), st.integers(min_value=0, max_value=2)),
)

fan_op_st = st.one_of(
    st.tuples(st.just("at"), times_st),
    st.tuples(st.just("fast"), times_st),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("fan"), times_st,
              st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                                 member_action_st),
                       min_size=0, max_size=8)),
)


def run_fan_program(sim, ops, until, max_events):
    """Run ``ops`` on ``sim``: cut at ``until``/``max_events``, record
    the cut, then finish. Every event logs ``(now, tag, queue_depth)``."""
    log = []
    handles = []

    def note(tag):
        log.append((sim.now, tag, sim.queue_depth))

    def member(_arg, payload):
        tag, action = payload
        note(tag)
        if action is None:
            return
        kind = action[0]
        if kind == "after":
            handles.append(sim.after(action[1], lambda: note(tag + "+a")))
        elif kind == "soon":
            handles.append(sim.call_soon(lambda: note(tag + "+s")))
        elif kind == "cancel" and handles:
            handles[action[1] % len(handles)].cancel()
        elif kind == "fan":
            fan(sim.now, [(d, None) for d in action[1]], tag + "+f")
        elif kind == "fast":
            sim.schedule_fast(sim.now + action[1], _Logged(sim, log, tag + "+x"))

    def fan(base, members, tag):
        # A stable sort by delay: the order fan_out requires.
        members = sorted(members, key=lambda m: m[0])
        sim.fan_out(base, [d for d, _ in members],
                    [(f"{tag}.{j}", a) for j, (_, a) in enumerate(members)],
                    member, None, "fan")

    for k, op in enumerate(ops):
        kind = op[0]
        if kind == "at":
            handles.append(sim.at(op[1], lambda k=k: note(f"at{k}")))
        elif kind == "fast":
            sim.schedule_fast(op[1], _Logged(sim, log, f"fast{k}"))
        elif kind == "cancel" and handles:
            handles[op[1] % len(handles)].cancel()
        elif kind == "fan":
            fan(op[1], op[2], f"fan{k}")
    sim.run(until=until, max_events=max_events)
    cut = (list(log), sim.now, sim.events_processed, sim.queue_depth)
    sim.run()
    return cut, log, sim.now, sim.events_processed, sim.queue_depth


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(fan_op_st, min_size=1, max_size=14),
       until=st.one_of(st.none(), times_st),
       max_events=st.one_of(st.none(), st.integers(min_value=0, max_value=15)))
def test_fan_out_matches_one_entry_per_member(ops, until, max_events):
    """A fan-out fires each member at the exact position, clock and
    count of one heap entry per member, whether it drains inline or
    (under a budget) one member per pop."""
    sim = Simulator()
    assert (run_fan_program(sim, ops, until, max_events)
            == run_fan_program(Reference(), ops, until, max_events))
