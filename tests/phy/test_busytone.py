"""Busy-tone channels: presence, lambda-detection, window queries."""

import pytest

from repro.phy.busytone import BusyToneChannel, ToneType
from repro.phy.neighbors import NeighborService, StaticPositions
from repro.phy.propagation import UnitDiskModel
from repro.sim.engine import Simulator
from repro.sim.units import US

LAMBDA = 15 * US


def make_tone(coords):
    sim = Simulator()
    svc = NeighborService(StaticPositions(coords), UnitDiskModel(75.0))
    tone = BusyToneChannel(sim, svc, ToneType.RBT, detect_time=LAMBDA)
    return sim, tone


def test_presence_appears_after_propagation():
    sim, tone = make_tone([(0, 0), (50, 0)])  # delay 167 ns
    tone.turn_on(0)
    seen = {}
    sim.at(100, lambda: seen.update(early=tone.present(1)))
    sim.at(200, lambda: seen.update(later=tone.present(1)))
    sim.at(500, lambda: tone.turn_off(0))
    sim.at(500 + 100, lambda: seen.update(lingering=tone.present(1)))
    sim.at(500 + 200, lambda: seen.update(gone=tone.present(1)))
    sim.run()
    assert seen == {"early": False, "later": True, "lingering": True, "gone": False}


def test_same_nanosecond_events_split_at_the_reserved_position():
    # Presence at node 1 changes at (167, seq) of each turn-on/off's
    # reserved position. In that nanosecond an event queued before the
    # turn-on/off runs before the change and sees the old state; one
    # queued after it runs after and sees the new one. The waiters fire
    # at the position itself, between the two.
    sim, tone = make_tone([(0, 0), (50, 0)])  # delay 167 ns
    seen = []

    def probe(tag):
        return lambda: seen.append((tag, sim.now, tone.present(1)))

    def switch(turn, tag, at):
        def act():
            turn(0)
            sim.at(at, probe(tag))
        return act

    sim.at(167, probe("on-before"))
    sim.at(0, switch(tone.turn_on, "on-after", 167))
    sim.at(1167, probe("off-before"))
    sim.at(1000, switch(tone.turn_off, "off-after", 1167))
    tone.notify_present(1, probe("appeared"))
    sim.at(500, lambda: tone.notify_clear(1, probe("cleared")))
    sim.run()
    assert seen == [("on-before", 167, False), ("appeared", 167, True),
                    ("on-after", 167, True), ("off-before", 1167, True),
                    ("cleared", 1167, False), ("off-after", 1167, False)]


def test_self_emission_not_sensed():
    sim, tone = make_tone([(0, 0), (50, 0)])
    tone.turn_on(0)
    seen = {}
    sim.at(1000, lambda: seen.update(self_=tone.present(0), other=tone.present(1)))
    sim.run(until=1000)
    assert seen == {"self_": False, "other": True}


def test_out_of_range_never_present():
    sim, tone = make_tone([(0, 0), (200, 0)])
    tone.turn_on(0)
    sim.run(until=10 * US)
    assert not tone.present(1)


def test_presence_or_of_multiple_emitters():
    sim, tone = make_tone([(0, 0), (50, 0), (0, 50)])
    tone.turn_on(0)
    sim.at(5 * US, lambda: tone.turn_on(2))
    sim.at(10 * US, lambda: tone.turn_off(0))
    seen = {}
    sim.at(12 * US, lambda: seen.update(mid=tone.present(1)))
    sim.at(20 * US, lambda: tone.turn_off(2))
    sim.at(25 * US, lambda: seen.update(end=tone.present(1)))
    sim.run()
    assert seen == {"mid": True, "end": False}


def test_double_on_off_rejected():
    sim, tone = make_tone([(0, 0), (50, 0)])
    tone.turn_on(0)
    with pytest.raises(RuntimeError):
        tone.turn_on(0)
    tone.turn_off(0)
    with pytest.raises(RuntimeError):
        tone.turn_off(0)


def test_pulse_turns_off_automatically():
    sim, tone = make_tone([(0, 0), (50, 0)])
    tone.pulse(0, 17 * US)
    assert tone.is_emitting(0)
    sim.run()
    assert not tone.is_emitting(0)


class TestLongestPresence:
    def test_full_window_coverage(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        tone.turn_on(0)
        sim.at(100 * US, lambda: tone.turn_off(0))
        sim.run(until=120 * US)
        # Window fully inside the presence interval.
        assert tone.longest_presence(1, 10 * US, 27 * US) == 17 * US

    def test_partial_overlap_below_lambda(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        sim.at(10 * US, lambda: tone.pulse(0, 5 * US))  # 5 us pulse
        sim.run(until=50 * US)
        overlap = tone.longest_presence(1, 0, 30 * US)
        assert overlap == 5 * US
        assert overlap < LAMBDA

    def test_window_clipping(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        tone.turn_on(0)  # presence from 167ns onward
        sim.at(100 * US, lambda: tone.turn_off(0))
        sim.run(until=200 * US)
        # Query a window that the tone only partially covers at its start.
        assert tone.longest_presence(1, 95 * US, 112 * US) == 5 * US + 167

    def test_merging_contiguous_emitters(self):
        sim, tone = make_tone([(0, 0), (50, 0), (0, 50)])
        # Two 10 us pulses that overlap slightly (the second starts 500 ns
        # before the first ends, absorbing the differing link delays) merge
        # into one >= lambda stretch at the common listener.
        sim.at(0, lambda: tone.pulse(0, 10 * US))
        sim.at(9_500, lambda: tone.pulse(2, 10 * US))
        sim.run(until=50 * US)
        assert tone.longest_presence(1, 0, 30 * US) >= 19 * US

    def test_disjoint_pulses_not_merged(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        sim.at(0, lambda: tone.pulse(0, 8 * US))
        sim.at(20 * US, lambda: tone.pulse(0, 8 * US))
        sim.run(until=60 * US)
        assert tone.longest_presence(1, 0, 40 * US) == 8 * US

    def test_future_query_rejected(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        with pytest.raises(ValueError):
            tone.longest_presence(1, 0, 10)

    def test_no_presence_returns_zero(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        sim.run(until=10 * US)
        assert tone.longest_presence(1, 0, 10 * US) == 0


class TestDetectionWatch:
    def test_detection_fires_after_lambda(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        hits = []
        tone.watch_detection(1, lambda t: hits.append(sim.now))
        tone.turn_on(0)
        sim.run(until=100 * US)
        assert hits == [LAMBDA + 167]

    def test_short_pulse_not_detected(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        hits = []
        tone.watch_detection(1, lambda t: hits.append(sim.now))
        tone.pulse(0, 10 * US)  # < lambda
        sim.run(until=100 * US)
        assert hits == []

    def test_watch_armed_mid_emission_still_fires(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        hits = []
        tone.turn_on(0)
        sim.at(5 * US, lambda: tone.watch_detection(1, lambda t: hits.append(sim.now)))
        sim.run(until=100 * US)
        assert hits == [LAMBDA + 167]

    def test_watch_armed_after_detectable_fires_immediately(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        hits = []
        tone.turn_on(0)
        sim.at(40 * US, lambda: tone.watch_detection(1, lambda t: hits.append(sim.now)))
        sim.run(until=100 * US)
        assert hits == [40 * US]

    def test_unwatch_cancels(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        hits = []
        tone.watch_detection(1, lambda t: hits.append(sim.now))
        tone.turn_on(0)
        sim.at(5 * US, lambda: tone.unwatch_detection(1))
        sim.run(until=100 * US)
        assert hits == []

    def test_watch_fires_once_then_disarms(self):
        sim, tone = make_tone([(0, 0), (50, 0), (0, 50)])
        hits = []
        tone.watch_detection(1, lambda t: hits.append(sim.now))
        tone.turn_on(0)
        sim.at(30 * US, lambda: tone.turn_on(2))
        sim.run(until=100 * US)
        assert len(hits) == 1

    def test_double_watch_rejected(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        tone.watch_detection(1, lambda t: None)
        with pytest.raises(RuntimeError):
            tone.watch_detection(1, lambda t: None)

    def test_out_of_range_watcher_never_fires(self):
        sim, tone = make_tone([(0, 0), (200, 0)])
        hits = []
        tone.watch_detection(1, lambda t: hits.append(1))
        tone.turn_on(0)
        sim.run(until=100 * US)
        assert hits == []


class TestWatcherHandleHygiene:
    def test_fired_detection_handles_pruned_from_watcher(self):
        # A long-armed watcher sees many short (sub-lambda) pulses, none
        # of which detect; the fired check handles must not accumulate.
        sim, tone = make_tone([(0, 0), (50, 0)])
        tone.watch_detection(1, lambda t: None)
        for i in range(10):
            start = i * 100 * US
            sim.at(start, lambda: tone.turn_on(0))
            sim.at(start + 5 * US, lambda: tone.turn_off(0))
        sim.run()
        assert 1 in tone._watchers  # never detected, still armed
        handles = tone._watchers[1][1]
        assert all(h.pending for h in handles)
        assert len(handles) == 0

    def test_detection_still_fires_after_many_short_pulses(self):
        sim, tone = make_tone([(0, 0), (50, 0)])
        hits = []
        tone.watch_detection(1, lambda t: hits.append(sim.now))
        for i in range(5):
            start = i * 100 * US
            sim.at(start, lambda: tone.turn_on(0))
            sim.at(start + 5 * US, lambda: tone.turn_off(0))
        sim.at(1000 * US, lambda: tone.turn_on(0))  # long emission: detects
        sim.run(until=1100 * US)
        assert len(hits) == 1


def test_reach_lists_hold_only_retained_emissions_after_a_long_run():
    # ABT presence has no readers, so pruning alone bounds the listeners'
    # reach lists: after a run of many RETENTION spans they hold exactly
    # the listeners of the active emissions and of those that ended at
    # most RETENTION before the latest turn-off.
    from repro.world.network import ScenarioConfig, build_network

    network = build_network(ScenarioConfig(
        protocol="rmac", n_nodes=14, width=220, height=150, rate_pps=10,
        n_packets=15, warmup_s=3.0, drain_s=2.0, seed=5))
    network.run()
    for channel in network.testbed.tones.values():
        recent = channel._recent
        assert recent, "the run emitted no tone"
        newest = recent[-1].end
        assert newest >= 10 * channel.RETENTION
        assert all(e.end >= newest - channel.RETENTION for e in recent)
        kept = list(channel._active.values()) + recent
        expected = sorted((link.node, id(e)) for e in kept
                          for link in e.view.links)
        held = sorted((node, id(entry[0]))
                      for node, entries in channel._reach.items()
                      for entry in entries)
        assert held == expected
