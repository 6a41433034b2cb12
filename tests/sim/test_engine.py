"""The discrete-event core: ordering, cancellation, run control."""

import pytest

from repro.sim.engine import FastEvent, SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.at(30, lambda: fired.append("c"))
    sim.at(10, lambda: fired.append("a"))
    sim.at(20, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_break_by_insertion_order():
    sim = Simulator()
    fired = []
    for tag in "abcde":
        sim.at(5, lambda t=tag: fired.append(t))
    sim.run()
    assert fired == list("abcde")


def test_after_is_relative_to_now():
    sim = Simulator()
    times = []
    sim.at(100, lambda: sim.after(50, lambda: times.append(sim.now)))
    sim.run()
    assert times == [150]


def test_call_soon_runs_at_current_time_after_peers():
    sim = Simulator()
    fired = []
    def first():
        fired.append("first")
        sim.call_soon(lambda: fired.append("soon"))
    sim.at(10, first)
    sim.at(10, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first", "second", "soon"]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)
    # Parking the clock at a horizon also bars the gap before it.
    sim.run(until=500)
    with pytest.raises(SimulationError):
        sim.at(499, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_cancellation_skips_event():
    sim = Simulator()
    fired = []
    handle = sim.at(10, lambda: fired.append("no"))
    sim.at(20, lambda: fired.append("yes"))
    handle.cancel()
    sim.run()
    assert fired == ["yes"]
    assert handle.cancelled and not handle.fired


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.at(1, lambda: None)
    sim.run()
    assert handle.fired
    handle.cancel()  # should not raise
    assert handle.fired


def test_cancel_after_fire_does_not_mark_cancelled():
    sim = Simulator()
    handle = sim.at(1, lambda: None, label="late-cancel")
    sim.run()
    handle.cancel()
    assert handle.fired and not handle.cancelled and not handle.pending
    assert "fired" in repr(handle)  # repr reports what actually happened


def test_handle_pending_lifecycle():
    sim = Simulator()
    handle = sim.at(5, lambda: None)
    assert handle.pending
    sim.run()
    assert not handle.pending and handle.fired


def test_run_until_advances_clock_even_when_queue_drains():
    sim = Simulator()
    sim.at(10, lambda: None)
    assert sim.run(until=1000) == 1000
    assert sim.now == 1000


def test_run_until_leaves_future_events():
    sim = Simulator()
    fired = []
    sim.at(10, lambda: fired.append(1))
    sim.at(100, lambda: fired.append(2))
    sim.run(until=50)
    assert fired == [1]
    sim.run()
    assert fired == [1, 2]


def test_run_until_boundary_inclusive():
    sim = Simulator()
    fired = []
    sim.at(50, lambda: fired.append(1))
    sim.run(until=50)
    assert fired == [1]


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.at(i, lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_events_processed_counts():
    sim = Simulator()
    for i in range(5):
        sim.at(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_count_excludes_cancelled():
    sim = Simulator()
    handles = [sim.at(i, lambda: None) for i in range(4)]
    handles[0].cancel()
    handles[2].cancel()
    assert sim.pending_count() == 2


def test_run_not_reentrant():
    sim = Simulator()
    def reenter():
        with pytest.raises(SimulationError):
            sim.run()
    sim.at(1, reenter)
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []
    def chain(n):
        fired.append(n)
        if n < 5:
            sim.after(10, lambda: chain(n + 1))
    sim.at(0, lambda: chain(0))
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50


class _Probe(FastEvent):
    """Minimal schedule_many payload used by the tests below."""

    __slots__ = ("log", "tag")

    label = "probe-event"

    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def __call__(self):
        self.log.append(self.tag)


def test_schedule_many_fires_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule_many([(30, _Probe(log, "c")), (10, _Probe(log, "a")),
                       (20, _Probe(log, "b"))])
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 30


def test_schedule_many_ties_interleave_with_handles_by_insertion():
    sim = Simulator()
    log = []
    sim.at(5, lambda: log.append("handle-1"))
    sim.schedule_many([(5, _Probe(log, "fast"))])
    sim.at(5, lambda: log.append("handle-2"))
    sim.run()
    assert log == ["handle-1", "fast", "handle-2"]


def test_schedule_many_rejects_past_times_atomically():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    log = []
    with pytest.raises(SimulationError):
        sim.schedule_many([(150, _Probe(log, "ok")), (50, _Probe(log, "past"))])
    # Atomic: a bad entry anywhere in the batch leaves the queue untouched,
    # even for valid pairs that preceded it.
    assert sim.pending_count() == 0
    sim.run()
    assert log == []


def test_schedule_many_validates_before_consuming_generator():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    log = []
    entries = ((t, _Probe(log, t)) for t in (150, 50, 200))
    with pytest.raises(SimulationError):
        sim.schedule_many(entries)
    assert sim.pending_count() == 0


def test_schedule_many_counts_and_labels_in_telemetry():
    from repro.sim.telemetry import Telemetry

    sim = Simulator()
    telemetry = Telemetry().attach(sim)
    log = []
    sim.schedule_many([(i, _Probe(log, i)) for i in range(4)])
    sim.run()
    assert sim.events_processed == 4
    assert telemetry.label_counts == {"probe-event": 4}


def test_schedule_many_via_step():
    sim = Simulator()
    log = []
    sim.schedule_many([(10, _Probe(log, "x"))])
    assert sim.step() is True
    assert log == ["x"] and sim.now == 10


def test_step_skips_cancelled_and_reports_empty():
    sim = Simulator()
    log = []
    sim.at(5, lambda: log.append("cancelled")).cancel()
    sim.at(7, lambda: log.append("live"))
    assert sim.step() is True
    assert log == ["live"] and sim.now == 7
    assert sim.step() is False
    assert sim.events_processed == 1


def test_schedule_fast_and_many_interleave_with_handles():
    """FastEvent pushes (schedule_fast / schedule_many) share the seq
    stream with handle scheduling: ties break by overall insertion."""
    sim = Simulator()
    log = []
    sim.at(100, lambda: log.append("handle-a"))
    sim.schedule_fast(100, _Probe(log, "fast"))
    sim.schedule_many([(100, _Probe(log, "many-1")),
                       (100, _Probe(log, "many-2"))])
    sim.at(100, lambda: log.append("handle-b"))
    sim.run()
    assert log == ["handle-a", "fast", "many-1", "many-2", "handle-b"]


def test_run_until_does_not_consume_cancelled_beyond_horizon():
    """A cancelled entry whose firing time is beyond ``until`` stays in
    the queue untouched -- back-to-back ``run`` calls compose."""
    sim = Simulator()
    fired = []
    sim.at(10, lambda: fired.append("early"))
    sim.at(5000, lambda: fired.append("cancelled")).cancel()
    sim.at(5001, lambda: fired.append("late"))
    sim.run(until=100)
    assert fired == ["early"]
    # The cancelled entry was not popped: it is still stored and counted.
    assert sim._cancelled == 1 and len(sim._queue) == 2
    assert sim.queue_depth == 1
    sim.run()
    assert fired == ["early", "late"]
    assert sim._cancelled == 0 and sim.queue_depth == 0


def test_schedule_into_gap_after_run_until():
    """After run(until=...) the clock parks at the horizon; a fresh
    schedule between the horizon and the next stored event fires first."""
    sim = Simulator()
    fired = []
    sim.at(1000, lambda: fired.append("far"))
    sim.run(until=400)
    assert sim.now == 400
    sim.at(500, lambda: fired.append("gap"))
    sim.at(401, lambda: fired.append("early-gap"))
    sim.run()
    assert fired == ["early-gap", "gap", "far"]


def test_max_events_and_resume():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.at(i * 100, lambda i=i: fired.append(i))
    sim.run(max_events=4)
    assert fired == list(range(4)) and sim.now == 300
    sim.run()
    assert fired == list(range(10))
    assert sim.events_processed == 10


def test_queue_depth_matches_pending_during_run():
    sim = Simulator()
    depths = []
    for i in range(10):
        sim.at(i * 5000, lambda: depths.append(
            (sim.queue_depth, sim.pending_count())))
    sim.run()
    assert depths == [(9 - i, 9 - i) for i in range(10)]


def test_telemetry_depth_excludes_cancelled():
    from repro.sim.telemetry import Telemetry

    sim = Simulator()
    telemetry = Telemetry(heap_sample_interval=1).attach(sim)
    for i in range(6):
        sim.at(i * 3000, lambda: None, label="tick")
    sim.at(50_000, lambda: None).cancel()
    sim.run()
    report = telemetry.report(sim)
    assert report.heap_depth_last == 0
    # Cancelled entries never count toward sampled depth.
    assert telemetry.heap_samples == [5, 4, 3, 2, 1, 0]


def test_compaction_keeps_survivors_and_order():
    """Cancelling most of a large batch triggers compaction; the
    survivors still fire exactly in time order."""
    sim = Simulator()
    fired = []
    n = 2 * Simulator.COMPACT_MIN
    # Scheduled out of time order, so the stored heap is not a sorted
    # list and a sweep that broke the heap invariant would show.
    handles = {i: sim.at(i * 1000, lambda i=i: fired.append(i))
               for i in ((k * 7919) % n for k in range(n))}
    for i, handle in handles.items():
        if i % 10:
            handle.cancel()
    survivors = [i for i in range(n) if not i % 10]
    # Compaction swept the heap once cancelled entries reached half of
    # it; fewer than COMPACT_MIN cancelled entries remain stored.
    assert sim._cancelled < Simulator.COMPACT_MIN
    assert len(sim._queue) == len(survivors) + sim._cancelled < n
    assert sim.queue_depth == sim.pending_count() == len(survivors)
    sim.run()
    assert fired == survivors


def test_compaction_mid_run_keeps_order():
    """A callback whose cancels trigger compaction mid-run must not
    disturb the loop draining the same heap."""
    sim = Simulator()
    fired = []
    n = 3 * Simulator.COMPACT_MIN
    handles = {i: sim.at(10 + i, lambda i=i: fired.append(i))
               for i in ((k * 7919) % n for k in range(n))}

    def cancel_odd():
        for i in range(1, n, 2):
            handles[i].cancel()

    sim.at(0, cancel_odd)
    sim.run()
    assert fired == list(range(0, n, 2))
    assert sim._cancelled == 0 and not sim._queue
