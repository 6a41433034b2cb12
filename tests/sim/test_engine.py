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
    """Minimal schedule_fast payload used by the tests below."""

    __slots__ = ("log", "tag")

    label = "probe-event"

    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def __call__(self):
        self.log.append(self.tag)


def _fan(sim, log, base, delays, tags):
    """Fan ``tags`` out at ``base + delays`` as one batch; each member
    logs ``(now, tag)``."""
    sim.fan_out(base, delays, tags,
                lambda log, tag: log.append((sim.now, tag)), log,
                "probe-event")


# The batch API these tests exercise is Simulator.fan_out; the test
# names are kept from the bulk-push API it replaced.
def test_schedule_many_fires_in_time_order():
    sim = Simulator()
    log = []
    _fan(sim, log, 0, (10, 30), ("a", "c"))
    _fan(sim, log, 0, (20,), ("b",))
    sim.run()
    assert log == [(10, "a"), (20, "b"), (30, "c")]
    assert sim.now == 30


def test_schedule_many_ties_interleave_with_handles_by_insertion():
    sim = Simulator()
    log = []
    sim.at(5, lambda: log.append((sim.now, "handle-1")))
    _fan(sim, log, 4, (0, 1, 1), ("early", "fast-1", "fast-2"))
    sim.at(5, lambda: log.append((sim.now, "handle-2")))
    sim.run()
    # The batch stops draining at the older same-time handle.
    assert log == [(4, "early"), (5, "handle-1"), (5, "fast-1"),
                   (5, "fast-2"), (5, "handle-2")]


def test_schedule_many_rejects_past_times_atomically():
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    log = []
    seq = sim._seq
    with pytest.raises(SimulationError):
        _fan(sim, log, 50, (0, 100), ("past", "ok"))
    # Atomic: a past member leaves the queue untouched, even for valid
    # members after it, and reserves no seqs.
    assert sim.pending_count() == 0 and sim._seq == seq
    sim.run()
    assert log == []


def test_schedule_many_validates_before_consuming_generator():
    """A rejected batch (and an empty one) takes no seq, so later ties
    still break by the order of what was actually scheduled."""
    sim = Simulator()
    sim.at(100, lambda: None)
    sim.run()
    log = []
    with pytest.raises(SimulationError):
        _fan(sim, log, 99, (0, 5), ("past", "ok"))
    _fan(sim, log, 150, (), ())
    assert sim.pending_count() == 0
    sim.at(150, lambda: log.append((sim.now, "handle")))
    _fan(sim, log, 150, (0,), ("member",))
    # One seq each: the t=100 event, the handle and the member.
    assert sim._seq == 3
    sim.run()
    assert log == [(150, "handle"), (150, "member")]


def test_fan_out_members_each_count_as_one_event():
    sim = Simulator()
    log = []
    _fan(sim, log, 0, (0, 1, 2, 3), (0, 1, 2, 3))
    sim.run()
    assert log == [(i, i) for i in range(4)]
    assert sim.events_processed == 4


def test_schedule_many_via_step():
    sim = Simulator()
    log = []
    _fan(sim, log, 10, (0,), ("x",))
    assert sim.step() is True
    assert log == [(10, "x")] and sim.now == 10


def test_fan_out_step_advances_one_member_at_a_time():
    sim = Simulator()
    log = []
    _fan(sim, log, 0, (5, 5, 7), ("m0", "m1", "m2"))
    sim.at(6, lambda: log.append((sim.now, "handle")))
    assert sim.queue_depth == sim.pending_count() == 4
    expected = [(5, "m0"), (5, "m1"), (6, "handle"), (7, "m2")]
    for k in range(4):
        assert sim.step() is True
        assert log == expected[:k + 1] and sim.now == expected[k][0]
        assert sim.events_processed == k + 1
        assert sim.queue_depth == sim.pending_count() == 3 - k
    assert sim.step() is False


def test_fan_out_until_cut_mid_batch_then_resume():
    sim = Simulator()
    log = []
    _fan(sim, log, 0, (10, 20, 30, 40), ("a", "b", "c", "d"))
    assert sim.run(until=25) == 25
    assert log == [(10, "a"), (20, "b")]
    assert sim.events_processed == 2
    assert sim.queue_depth == sim.pending_count() == 2
    # A handle scheduled into the gap fires before the rest of the batch.
    sim.at(30, lambda: log.append((sim.now, "handle")))
    sim.run()
    assert log == [(10, "a"), (20, "b"), (30, "c"), (30, "handle"),
                   (40, "d")]
    assert sim.now == 40 and sim.events_processed == 5
    assert sim.queue_depth == sim.pending_count() == 0


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
    """Handle-less pushes (schedule_fast / fan_out) share the seq stream
    with handle scheduling: ties break by overall insertion."""
    sim = Simulator()
    log = []
    sim.at(100, lambda: log.append("handle-a"))
    sim.schedule_fast(100, _Probe(log, "fast"))
    sim.fan_out(100, (0, 0), ("many-1", "many-2"),
                lambda log, tag: log.append(tag), log, "probe-event")
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


# ----------------------------------------------------------------------
# Reserved positions: reserve, at_seq and the executing event's seq
# ----------------------------------------------------------------------
def test_reserve_takes_the_seqs_of_the_fan_out_it_stands_for():
    sim = Simulator()
    log = []
    sim.at(5, lambda: log.append("before"))
    seq0 = sim.reserve(0, (5, 5, 9))
    later = sim.at(5, lambda: log.append("after"))
    assert later.seq == seq0 + 3
    # Scheduled under reserved seqs (out of order), events take exactly
    # the positions the fan-out members would have had.
    sim.at_seq(9, seq0 + 2, lambda: log.append(("member", 2)))
    sim.at_seq(5, seq0 + 1, lambda: log.append(("member", 1)))
    sim.at_seq(5, seq0, lambda: log.append(("member", 0)))
    sim.run()
    assert log == ["before", ("member", 0), ("member", 1), "after",
                   ("member", 2)]


def test_reserve_of_an_empty_batch_takes_nothing():
    sim = Simulator()
    first = sim.at(1, lambda: None)
    assert sim.reserve(0, ()) == first.seq + 1
    assert sim.at(1, lambda: None).seq == first.seq + 1


def test_fan_out_returns_its_first_seq_like_reserve():
    sim = Simulator()
    first = sim.at(1, lambda: None)
    assert sim.fan_out(0, (), (), print, None, "empty") == first.seq + 1
    seq0 = sim.fan_out(0, (2, 3), ("a", "b"), lambda arg, p: None, None,
                       "batch")
    assert seq0 == first.seq + 1
    assert sim.reserve(0, (4,)) == seq0 + 2


def test_at_seq_handle_cancels_like_any_other():
    sim = Simulator()
    log = []
    seq0 = sim.reserve(0, (3,))
    sim.at_seq(3, seq0, lambda: log.append("reserved")).cancel()
    sim.run()
    assert log == [] and sim.events_processed == 0


def test_at_seq_position_scheduled_again_after_a_cancel_runs_once():
    """A busy-tone waiter dropped and registered again schedules the same
    reserved position twice; the cancelled entry stays stored next to the
    live one, so the heap compares the two handles."""
    sim = Simulator()
    log = []
    seq0 = sim.reserve(0, (3,))
    sim.at_seq(3, seq0, lambda: log.append("dropped")).cancel()
    sim.at_seq(3, seq0, lambda: log.append("again"))
    sim.at(1, lambda: None)
    sim.at(5, lambda: None)
    sim.run()
    assert log == ["again"] and sim.events_processed == 3


def test_at_seq_rejects_a_seq_never_reserved():
    sim = Simulator()
    seq0 = sim.reserve(0, (3, 4))
    for seq in (-1, seq0 + 2, seq0 + 100):
        with pytest.raises(SimulationError):
            sim.at_seq(4, seq, lambda: None)
    assert sim.pending_count() == 0


def test_at_seq_rejects_a_position_already_past():
    sim = Simulator()
    errors = []
    seq0 = sim.reserve(0, (10, 20))

    def late():
        # Running at (10, seq) after the reserved (10, seq0): that
        # position has passed, and so has any earlier time.
        for time, seq in ((10, seq0), (9, seq0 + 1)):
            try:
                sim.at_seq(time, seq, lambda: None)
            except SimulationError:
                errors.append((time, seq))

    sim.at(10, late)
    sim.run(until=15)
    assert errors == [(10, seq0), (9, seq0 + 1)]
    # After run(until=...), every position up to the horizon has passed.
    with pytest.raises(SimulationError):
        sim.at_seq(15, seq0 + 1, lambda: None)
    sim.at_seq(20, seq0 + 1, lambda: errors.append("member"))
    sim.run()
    assert errors[-1] == "member"


def test_now_seq_is_the_executing_event():
    sim = Simulator()
    seen = []
    handles = [sim.at(t, lambda: seen.append(sim.now_seq)) for t in (3, 1, 3)]
    sim.run()
    assert seen == [handles[1].seq, handles[0].seq, handles[2].seq]


def test_now_seq_after_run_until_covers_every_seq_taken():
    sim = Simulator()
    sim.at(5, lambda: None)
    sim.reserve(0, (7,))
    beyond = sim.at(50, lambda: None)
    sim.run(until=10)
    # Everything up to t=10 has run, reserved positions included: the
    # position is (10, newest seq), even though the t=50 event is queued.
    assert (sim.now, sim.now_seq) == (10, beyond.seq)


def test_now_seq_after_a_max_events_cut_is_the_last_event_run():
    sim = Simulator()
    handles = [sim.at(5, lambda: None) for _ in range(3)]
    sim.run(max_events=2)
    assert (sim.now, sim.now_seq) == (5, handles[1].seq)
    assert sim.step() is True
    assert (sim.now, sim.now_seq) == (5, handles[2].seq)


def test_now_seq_after_a_raising_fan_out_member():
    sim = Simulator()
    log = []

    def fire(log, tag):
        if tag == "boom":
            raise RuntimeError(tag)
        log.append(tag)

    seq0 = sim._seq
    sim.fan_out(0, (1, 2, 3, 4), ("a", "b", "boom", "d"), fire, log,
                "probe-event")
    with pytest.raises(RuntimeError):
        sim.run()
    # The members ran inline; the position is the one that raised.
    assert log == ["a", "b"]
    assert (sim.now, sim.now_seq) == (3, seq0 + 2)
    sim.run()
    assert log == ["a", "b", "d"]
    assert (sim.now, sim.now_seq) == (4, seq0 + 3)


def test_run_that_empties_the_heap_passes_reserved_positions():
    sim = Simulator()
    sim.at(10, lambda: sim.reserve(sim.now, (5, 40)))
    assert sim.run() == 50
    assert sim.now_seq == sim._seq - 1
    # A horizon short of them stops the clock there instead.
    sim = Simulator()
    sim.reserve(0, (40,))
    assert sim.run(until=20) == 20
    assert sim.run() == 40
