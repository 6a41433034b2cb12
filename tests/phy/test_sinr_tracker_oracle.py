"""Unit tests of the per-arrival interference tracker test oracle."""

from tests.phy.sinr_tracker_oracle import InterferenceTracker


def test_tracker_accumulates_and_removes():
    tracker = InterferenceTracker()
    assert tracker.total_mw(5) == 0.0
    assert tracker.add(5, "a", 1.0) == 1.0
    assert tracker.add(5, "b", 0.25) == 1.25
    assert tracker.concurrent(5) == 2
    assert tracker.high_water == 2
    tracker.remove(5, "a")
    # Removal re-sums the remaining signals: the total is exactly the
    # survivor's power, not 1.25 - 1.0 in floating point.
    assert tracker.total_mw(5) == 0.25
    tracker.remove(5, "b")
    assert tracker.total_mw(5) == 0.0
    assert tracker.concurrent(5) == 0
    assert tracker.high_water == 2  # high-water mark survives drain


def test_tracker_remove_unknown_is_noop():
    tracker = InterferenceTracker()
    tracker.remove(3, "ghost")
    tracker.add(3, "a", 1.0)
    tracker.remove(3, "ghost")
    assert tracker.total_mw(3) == 1.0


def test_tracker_nodes_are_independent():
    tracker = InterferenceTracker()
    tracker.add(1, "a", 1.0)
    tracker.add(2, "a", 2.0)
    assert tracker.total_mw(1) == 1.0
    assert tracker.total_mw(2) == 2.0
    assert tracker.high_water == 1  # per-node concurrency, not global


