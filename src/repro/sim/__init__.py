"""Deterministic discrete-event simulation engine.

This subpackage replaces GloMoSim (the simulator the paper used) with a
small, reproducible discrete-event core:

* :mod:`repro.sim.units`  -- the integer-nanosecond clock and unit helpers.
* :mod:`repro.sim.engine` -- the event queue, scheduling and cancellation.
* :mod:`repro.sim.timers` -- restartable timers built on the engine.
* :mod:`repro.sim.rng`    -- named, independently seeded random streams.
* :mod:`repro.sim.trace`  -- structured event traces (used by tests, the
  oracle and the Fig. 4 timeline example), with list/ring/JSONL storage
  backends.

The event count is ``Simulator.events_processed``. Host time is measured
end to end, outside the run loop (``benchmarks/e2e``), not per event.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timers import Timer
from repro.sim.trace import (
    JsonlTraceSink,
    ListBuffer,
    RingBuffer,
    TraceBuffer,
    TraceEvent,
    Tracer,
)
from repro.sim.units import MS, NS, SEC, US, format_time, ns_to_s, s_to_ns, us

__all__ = [
    "EventHandle",
    "Simulator",
    "RngRegistry",
    "Timer",
    "TraceBuffer",
    "ListBuffer",
    "RingBuffer",
    "JsonlTraceSink",
    "TraceEvent",
    "Tracer",
    "NS",
    "US",
    "MS",
    "SEC",
    "us",
    "ns_to_s",
    "s_to_ns",
    "format_time",
]
