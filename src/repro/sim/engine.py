"""The discrete-event simulator core.

A :class:`Simulator` owns an integer-nanosecond clock and one binary
heap (``heapq``) of ``(time, seq, item)`` entries. Events are plain
callbacks scheduled at absolute times; ties are broken by insertion
order (a per-simulator sequence number), so execution is fully
deterministic. Cancellation is O(1) (lazy deletion: the handle is
flagged and skipped when popped), with a compaction policy that sweeps
flagged entries out of the heap when they pile up.

One run loop drains the heap: :meth:`Simulator.run` inlines the pop and
dispatch (one heap access per event, no per-event method calls), and
:meth:`Simulator.step` is a one-event run. An alternative calendar
queue was measured end to end against this heap and lost, so the heap
is the only event queue (see ``docs/simulator-internals.md``).

This is the substrate standing in for GloMoSim's event kernel; every
other subsystem (PHY, MAC, network layer, mobility, metrics) hangs off
one ``Simulator`` instance.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling into the past)."""


class FastEvent:
    """Base class for handle-less fast-path events (see ``schedule_many``).

    Subclasses are zero-argument callables that the simulator executes
    directly off the queue with no :class:`EventHandle` wrapper, so they
    cannot be cancelled. The class attributes below let the hot loop
    treat queue items uniformly without an ``isinstance`` check:

    * ``_cancelled`` is always ``False`` (never skipped on pop);
    * ``callback`` is always ``None`` (the item *is* the callback);
    * ``label`` names the event kind for telemetry (override per class).
    """

    __slots__ = ()

    _cancelled = False
    cancelled = False
    callback = None
    label = ""

    def __call__(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class EventHandle:
    """A handle to a scheduled event, allowing cancellation.

    Attributes
    ----------
    time:
        Absolute firing time in nanoseconds.
    callback:
        Zero-argument callable invoked when the event fires. Cleared after
        firing or cancellation so captured objects can be collected.
    """

    __slots__ = ("time", "seq", "callback", "_cancelled", "_fired", "label",
                 "_sim")

    def __init__(self, time: int, seq: int, callback: Callable[[], None],
                 label: str = "", sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.label = label
        self._cancelled = False
        self._fired = False
        #: The simulator whose heap holds this handle's entry; told about
        #: the cancellation so live-depth accounting stays O(1) and the
        #: compaction policy can trigger (None for detached handles).
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event. Cancelling a fired or cancelled event is a no-op.

        In particular, cancelling *after* the event fired leaves the handle
        reporting ``fired`` (not ``cancelled``), so instrumentation and
        ``repr`` reflect what actually happened.
        """
        if self._fired or self._cancelled:
            return
        self._cancelled = True
        self.callback = None
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def pending(self) -> bool:
        """True if the event is still waiting to fire."""
        return not self._cancelled and not self._fired

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"<EventHandle t={self.time} {self.label or 'event'} {state}>"


#: Sentinel horizon: far beyond any reachable simulation time or event
#: count, so the hot loop compares plain ints instead of testing None.
_FOREVER = 1 << 62


class Simulator:
    """Deterministic discrete-event simulator with an integer-ns clock."""

    #: Compaction triggers once at least this many cancelled entries are
    #: stored *and* they make up half the heap. A sweep removes every
    #: cancelled entry, so cancels can never trigger back-to-back sweeps.
    COMPACT_MIN = 1024

    def __init__(self) -> None:
        #: The event heap of ``(time, seq, item)`` entries. Ordering
        #: comparisons run entirely in C (time and seq are ints; seq is
        #: unique, so the item itself is never compared) -- profiling
        #: showed Python-level ``__lt__`` dominating queue churn
        #: otherwise. ``item`` is an :class:`EventHandle` (cancellable)
        #: or a bare :class:`FastEvent` callable. Only ever mutated in
        #: place: the run loop holds a local reference.
        self._queue: list = []
        #: Lazily-cancelled entries still stored in ``_queue``.
        self._cancelled = 0
        #: Current simulation time in nanoseconds. A plain attribute
        #: (not a property): hot paths across the stack read the clock
        #: millions of times per run, and a Python-level property getter
        #: costs more than many of those callers' entire bodies. Treat
        #: as read-only outside the run loop.
        self.now: int = 0
        self._seq: int = 0
        self._running = False
        self._events_processed = 0
        #: Optional telemetry collector (see repro.sim.telemetry). ``None``
        #: keeps the hot loop on a single-branch fast path.
        self._telemetry: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._events_processed

    @property
    def queue_depth(self) -> int:
        """Live (pending, not lazily-cancelled) queue entries, O(1).

        This is the number the telemetry heap-depth samples report too:
        cancelled-but-unswept entries are bookkeeping, not load.
        """
        return len(self._queue) - self._cancelled

    def set_telemetry(self, telemetry: Optional[Any]) -> None:
        """Arm (or with ``None`` disarm) a telemetry collector.

        While armed, every executed event is timed and accounted under
        its label in the collector, with periodic live-depth samples.
        """
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    # Lazy deletion
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """Account one freshly-cancelled stored entry; maybe compact."""
        self._cancelled = cancelled = self._cancelled + 1
        if cancelled >= self.COMPACT_MIN and 2 * cancelled >= len(self._queue):
            queue = self._queue
            queue[:] = [entry for entry in queue if not entry[2]._cancelled]
            heapq.heapify(queue)
            self._cancelled = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` at absolute time ``time`` (ns)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event '{label}' at t={time} before now={self.now}"
            )
        seq = self._seq
        handle = EventHandle(int(time), seq, callback, label, self)
        heapq.heappush(self._queue, (handle.time, seq, handle))
        self._seq = seq + 1
        return handle

    def after(self, delay: int, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` after ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event '{label}'")
        # Inlined self.at(): the MAC backoff pumps reschedule every slot,
        # making this the most-called scheduling entry point.
        seq = self._seq
        time = self.now + int(delay)
        handle = EventHandle(time, seq, callback, label, self)
        heapq.heappush(self._queue, (time, seq, handle))
        self._seq = seq + 1
        return handle

    def call_soon(self, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        seq = self._seq
        handle = EventHandle(self.now, seq, callback, label, self)
        heapq.heappush(self._queue, (handle.time, seq, handle))
        self._seq = seq + 1
        return handle

    def schedule_many(self, entries) -> None:
        """Bulk-schedule fire-and-forget events (the PHY fan-out fast path).

        ``entries`` is an iterable of ``(time, event)`` pairs where each
        ``event`` is a :class:`FastEvent`-style callable (class attributes
        ``_cancelled = False``, ``callback = None``, and a ``label``).
        Events are pushed in iteration order -- same-time ties still
        break by insertion order -- but no :class:`EventHandle` is
        created and nothing is returned, so these events cannot be
        cancelled. One transmission fanning out to N receivers costs N
        heap pushes and zero handle allocations.

        The call is **atomic**: every pair is validated against the
        clock first, so a past-time entry anywhere in the batch raises
        with the queue untouched (no partially-scheduled fan-out).
        """
        if type(entries) is not list:
            entries = list(entries)
        now = self.now
        for time, event in entries:
            if time < now:
                raise SimulationError(
                    f"cannot schedule event '{event.label}' at t={time} "
                    f"before now={now}"
                )
        seq = self._seq
        queue = self._queue
        push = heapq.heappush
        for time, event in entries:
            push(queue, (time, seq, event))
            seq += 1
        self._seq = seq

    def schedule_fast(self, time: int, event) -> None:
        """Schedule one fire-and-forget :class:`FastEvent` at ``time`` (ns).

        The single-event sibling of :meth:`schedule_many`: no
        :class:`EventHandle` is allocated and nothing is returned, so the
        event cannot be cancelled. For periodic machinery that never
        cancels (the MAC backoff pumps), one reusable event object makes
        scheduling allocation-free.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event '{event.label}' at t={time} "
                f"before now={self.now}"
            )
        seq = self._seq
        heapq.heappush(self._queue, (time, seq, event))
        self._seq = seq + 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event. Returns False if the queue is empty."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed > before

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` events have executed.

        Returns the simulation time when the run stopped. If ``until`` is
        given, the clock is advanced to ``until`` even if the queue drained
        earlier, so back-to-back ``run`` calls compose predictably; the
        queue beyond ``until`` is left untouched (even lazily-cancelled
        entries stay put until a run actually reaches them).

        The loop peeks at the heap top and pops once per event, with no
        per-event method calls: profiling showed a peek-then-delegate
        pattern costing ~10% of paper-scale runs.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        horizon = until if until is not None else _FOREVER
        limit = max_events if max_events is not None else _FOREVER
        telemetry = self._telemetry
        if telemetry is not None:
            # Hoisted telemetry state: per-event bookkeeping collapses to
            # two dict/list ops; the global counters are settled after
            # the loop. ``sample_in`` counts down to the next heap-depth
            # sample so the hot path pays no modulo.
            label_stats = telemetry._label_stats
            interval = telemetry.heap_sample_interval
            sample_in = interval - telemetry.events % interval
            samples_append = telemetry.heap_samples.append
        last_wall = perf_counter()
        try:
            while queue:
                entry = queue[0]
                time = entry[0]
                if time > horizon:
                    break
                item = entry[2]
                if item._cancelled:
                    heappop(queue)
                    self._cancelled -= 1
                    continue
                if executed >= limit:
                    break
                heappop(queue)
                self.now = time
                # A FastEvent has callback=None at class level and *is*
                # the callable; an EventHandle carries its callback and
                # must be marked fired. The attribute probe replaces an
                # isinstance check on the hot loop.
                callback = item.callback
                if callback is None:
                    callback = item
                else:
                    item._fired = True
                    item.callback = None
                if telemetry is None:
                    callback()
                else:
                    callback()
                    now_wall = perf_counter()
                    try:
                        stats = label_stats[item.label]
                    except KeyError:
                        stats = label_stats[item.label] = [0, 0.0]
                    stats[0] += 1
                    stats[1] += now_wall - last_wall
                    last_wall = now_wall
                    sample_in -= 1
                    if not sample_in:
                        sample_in = interval
                        samples_append(len(queue) - self._cancelled)
                executed += 1
        finally:
            self._running = False
            self._events_processed += executed
            if telemetry is not None:
                telemetry.events += executed
                telemetry._last_heap_depth = len(queue) - self._cancelled
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(n); tests only)."""
        return sum(1 for entry in self._queue if not entry[2]._cancelled)
