"""Event-loop telemetry: throughput, heap depth and per-label profiles.

Paper-scale campaigns are hours of pure-Python event processing, and the
ROADMAP's "fast as the hardware allows" goal needs a measured baseline
before anything can be optimized. A :class:`Telemetry` attached to a
:class:`~repro.sim.engine.Simulator` samples the event loop while it
runs:

* **events/sec** -- wall-clock throughput of the event loop;
* **per-label event counts** -- which event kinds dominate the queue;
* **per-subsystem wall time** -- where the callback time actually goes,
  grouped by label prefix (``rmac-pump`` -> ``rmac``, ``tone-on`` ->
  ``tone``, ...);
* **heap depth** -- queue length sampled every ``heap_sample_interval``
  events, so queue growth (a leak, or genuine load) is visible.

The cost model mirrors Abstract-MAC-layer work treating per-message
progress bounds as first-class observables: a run's telemetry is part of
its result, not an ad-hoc printout.

Overhead: when no telemetry is attached the simulator pays a single
``is None`` check per event. When attached, each event additionally pays
one ``perf_counter`` call and one dict update: the run loop timestamps
event *boundaries*, so a label's wall time is inclusive -- the callback
body plus that event's share of scheduling overhead. The per-label
split remains proportional (scheduling cost is near-uniform per event)
and the total matches the loop's true wall time instead of undercounting
it -- fine for profiling runs, which is the only time telemetry is on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional


@dataclass(frozen=True)
class TelemetryReport:
    """An immutable snapshot of one run's event-loop telemetry."""

    #: Total events executed while telemetry was attached.
    events: int
    #: Wall-clock seconds spent inside :meth:`Simulator.step`.
    wall_s: float
    #: Events per wall-clock second (0.0 if nothing ran).
    events_per_sec: float
    #: Simulated nanoseconds covered while attached.
    sim_time_ns: int
    #: Simulated nanoseconds per wall second (the "speedup" over real time).
    sim_ns_per_wall_s: float
    #: label -> number of events executed under that label.
    label_counts: Dict[str, int]
    #: label prefix (before the first ``-``) -> inclusive wall seconds
    #: (callback body + that event's share of loop overhead).
    subsystem_wall_s: Dict[str, float]
    #: Sampled event-queue depths (one sample per ``heap_sample_interval``).
    heap_depth_max: int
    heap_depth_mean: float
    heap_depth_last: int
    #: Named counter sections contributed by subsystems outside the event
    #: loop (e.g. ``"neighbors"`` -> link-table rebuild/cache counters).
    #: Each payload must be a flat JSON-serializable dict.
    sections: Dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """A JSON-serializable dict (stable key order for diffs)."""
        out = {
            "events": self.events,
            "wall_s": self.wall_s,
            "events_per_sec": self.events_per_sec,
            "sim_time_ns": self.sim_time_ns,
            "sim_ns_per_wall_s": self.sim_ns_per_wall_s,
            "heap_depth": {
                "max": self.heap_depth_max,
                "mean": self.heap_depth_mean,
                "last": self.heap_depth_last,
            },
            "label_counts": dict(
                sorted(self.label_counts.items(), key=lambda kv: -kv[1])
            ),
            "subsystem_wall_s": dict(
                sorted(self.subsystem_wall_s.items(), key=lambda kv: -kv[1])
            ),
        }
        for name in sorted(self.sections):
            out[name] = dict(self.sections[name])
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """A compact human-readable profile (top labels and subsystems)."""
        lines = [
            f"events          {self.events}",
            f"wall time       {self.wall_s:.3f} s",
            f"events/sec      {self.events_per_sec:,.0f}",
            f"sim speedup     {self.sim_ns_per_wall_s / 1e9:.2f}x realtime",
            f"heap depth      max {self.heap_depth_max}, "
            f"mean {self.heap_depth_mean:.1f}, last {self.heap_depth_last}",
        ]
        top_labels = sorted(self.label_counts.items(), key=lambda kv: -kv[1])[:8]
        if top_labels:
            lines.append("top labels      " + ", ".join(
                f"{label or '(unlabeled)'}={count}" for label, count in top_labels
            ))
        top_subsystems = sorted(
            self.subsystem_wall_s.items(), key=lambda kv: -kv[1]
        )[:8]
        if top_subsystems:
            lines.append("subsystem wall  " + ", ".join(
                f"{name or '(unlabeled)'}={secs * 1e3:.1f}ms"
                for name, secs in top_subsystems
            ))
        for name in sorted(self.sections):
            payload = self.sections[name]
            lines.append(f"{name:<15} " + ", ".join(
                f"{key}={value}" for key, value in payload.items()
            ))
        return "\n".join(lines)


class Telemetry:
    """Collects event-loop samples; attach to a simulator before running.

    Usage::

        telemetry = Telemetry()
        telemetry.attach(sim)
        sim.run(until=...)
        report = telemetry.report(sim)

    Attaching is what arms the simulator's per-event hook; detaching (or
    attaching ``None``) restores the zero-overhead path.
    """

    def __init__(self, heap_sample_interval: int = 1024):
        if heap_sample_interval < 1:
            raise ValueError("heap_sample_interval must be >= 1")
        self.heap_sample_interval = heap_sample_interval
        #: label -> ``[count, wall_s]``. One dict hit per event; the
        #: public per-label/per-subsystem views are derived on demand
        #: (see :attr:`label_counts` / :attr:`subsystem_wall_s`).
        self._label_stats: Dict[str, list] = {}
        self.heap_samples: List[int] = []
        #: Named counter sections (see :attr:`TelemetryReport.sections`).
        self.sections: Dict[str, dict] = {}
        self.events = 0
        self._last_heap_depth = 0
        self._start_sim_time: Optional[int] = None
        self._start_wall: Optional[float] = None

    # -- derived views (report/tests; not on the hot path) -------------
    @property
    def label_counts(self) -> Dict[str, int]:
        """label -> number of events executed under that label."""
        return {label: stats[0] for label, stats in self._label_stats.items()}

    @property
    def subsystem_wall_s(self) -> Dict[str, float]:
        """label prefix (before the first ``-``) -> inclusive wall seconds."""
        out: Dict[str, float] = {}
        for label, stats in self._label_stats.items():
            subsystem = label.split("-", 1)[0]
            out[subsystem] = out.get(subsystem, 0.0) + stats[1]
        return out

    @property
    def wall_s(self) -> float:
        """Total wall seconds accounted to executed events."""
        return sum(stats[1] for stats in self._label_stats.values())

    # ------------------------------------------------------------------
    def attach(self, sim) -> "Telemetry":
        """Arm this collector on ``sim`` (returns self for chaining)."""
        sim.set_telemetry(self)
        self._start_sim_time = sim.now
        self._start_wall = perf_counter()
        return self

    def detach(self, sim) -> None:
        """Disarm; the simulator returns to the zero-overhead path."""
        sim.set_telemetry(None)

    # ------------------------------------------------------------------
    def set_section(self, name: str, payload: dict) -> None:
        """Attach (or replace) a named counter section for the report.

        For subsystems that keep their own counters off the event-loop
        hot path (the neighbor layer, caches, ...): set once before
        :meth:`report` with the final values.
        """
        self.sections[name] = dict(payload)

    # ------------------------------------------------------------------
    def report(self, sim=None) -> TelemetryReport:
        """Freeze the collected samples into a :class:`TelemetryReport`.

        With ``sim`` given, wall time is measured from :meth:`attach` to
        now (covering scheduling overhead, not just callback bodies) and
        simulated time from the attach point; otherwise only the summed
        callback time is available.
        """
        if sim is not None and self._start_wall is not None:
            wall_s = perf_counter() - self._start_wall
            sim_time_ns = sim.now - (self._start_sim_time or 0)
        else:
            wall_s = self.wall_s
            sim_time_ns = 0
        samples = self.heap_samples or [self._last_heap_depth]
        return TelemetryReport(
            events=self.events,
            wall_s=wall_s,
            events_per_sec=(self.events / wall_s) if wall_s > 0 else 0.0,
            sim_time_ns=sim_time_ns,
            sim_ns_per_wall_s=(sim_time_ns / wall_s) if wall_s > 0 else 0.0,
            label_counts=dict(self.label_counts),
            subsystem_wall_s=dict(self.subsystem_wall_s),
            heap_depth_max=max(samples),
            heap_depth_mean=sum(samples) / len(samples),
            heap_depth_last=self._last_heap_depth,
            sections={name: dict(payload)
                      for name, payload in self.sections.items()},
        )
