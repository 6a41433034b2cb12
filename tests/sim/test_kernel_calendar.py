"""The simulator's event calendar, checked through the public API.

The pending-event set orders events by firing time, breaks ties by
insertion order, refuses to go back in time, and parks the clock at
the horizon when a bounded run drains it.
"""

import pytest

from repro.sim.engine import SimulationError, Simulator

#: A horizon far beyond every scheduled event (~600 ms).
FAR = 600_000_000


def test_same_day_ties_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for i in range(8):
        sim.at(100, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(8))


def test_cannot_rewind_before_now():
    sim = Simulator()
    sim.at(2 * 32768, lambda: None)
    sim.run()
    assert sim.now == 2 * 32768
    with pytest.raises(SimulationError):
        sim.at(32768, lambda: None)


def test_clock_advances_to_until_on_drain():
    sim = Simulator()
    sim.at(5, lambda: None)
    sim.run(until=FAR)
    assert sim.now == FAR
    assert sim.queue_depth == 0
