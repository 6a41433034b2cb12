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

A PHY fan-out (one frame reaching every neighbour) is a batch of
fire-and-forget events a few nanoseconds apart.
:meth:`Simulator.fan_out` stores the whole batch as **one** heap entry:
the members, sorted by delay, reserve consecutive seqs, and the entry
stands under its next member's ``(time, seq)``. When popped it fires
that member, then keeps firing the following ones inline while each
still precedes the heap top, and otherwise re-pushes itself. Every
member therefore runs at exactly the position it would have had as its
own heap entry, and counts as one executed event.

Some batches need no event at all, only their place in the order: a
busy tone's presence at each listener is a known interval, answered
from the emission. :meth:`Simulator.reserve` takes the seqs such a
batch would have had, and ``(now, now_seq)`` -- the executing event's
position, kept by the run loop -- tells whether a reserved position has
passed. :meth:`Simulator.at_seq` schedules a cancellable event under a
reserved seq when something must happen exactly there.

This is the substrate standing in for GloMoSim's event kernel; every
other subsystem (PHY, MAC, network layer, mobility, metrics) hangs off
one ``Simulator`` instance.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable, Optional

_heappush = heapq.heappush


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling into the past)."""


class FastEvent:
    """Base class for handle-less fast-path events (see ``schedule_fast``).

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


class _FanOut(FastEvent):
    """One heap entry standing for a batch of fire-and-forget events
    (see :meth:`Simulator.fan_out`).

    Member ``i`` fires ``fire(arg, payloads[i])`` at ``base + delays[i]``
    under seq ``seq0 + i``; ``index`` is the next member to fire, and
    the entry is stored in the heap under that member's ``(time, seq)``.
    Finished instances return to the simulator's free list.
    """

    __slots__ = ("sim", "base", "delays", "payloads", "fire", "arg",
                 "label", "seq0", "index")

    def __init__(self, sim: "Simulator"):
        self.sim = sim

    def __call__(self) -> None:
        # The run loop has popped this entry, set the clock to the
        # current member's time and counts one event for it.
        sim = self.sim
        fire = self.fire
        arg = self.arg
        payloads = self.payloads
        first = i = self.index
        try:
            fire(arg, payloads[i])
            i += 1
            delays = self.delays
            n = len(delays)
            if i < n:
                time = self.base + delays[i]
                horizon = sim._drain_until
                if time <= horizon:
                    # Drain inline while the next member is what the heap
                    # would pop next anyway: within the run's horizon and
                    # strictly ahead of the heap top (seqs are unique).
                    base = self.base
                    seq = self.seq0 + i
                    queue = sim._queue
                    while True:
                        if queue:
                            head = queue[0]
                            head_time = head[0]
                            if time > head_time or (time == head_time
                                                    and seq > head[1]):
                                break
                        sim.now = time
                        sim.now_seq = seq
                        sim._fanned -= 1
                        fire(arg, payloads[i])
                        i += 1
                        if i == n:
                            break
                        time = base + delays[i]
                        if time > horizon:
                            break
                        seq += 1
                    # The run loop counts the popped member only.
                    sim._events_processed += i - first - 1
                if i < n:
                    # _requeue, inlined on the per-pop path.
                    sim._fanned -= 1
                    self.index = i
                    _heappush(sim._queue, (time, self.seq0 + i, self))
                    return
        except BaseException:
            # The raising member is consumed (as a popped heap event
            # would be) and, like one, not counted; every member that
            # completed before it is, since the run loop counts nothing
            # for a raising callback. The rest stay queued.
            sim._events_processed += i - first
            self._requeue(i + 1)
            raise
        self._requeue(i)

    def _requeue(self, index: int) -> None:
        """Put the batch back in the heap under member ``index``; with no
        member left, release it to the free list."""
        sim = self.sim
        delays = self.delays
        if index < len(delays):
            # That pending member is now the heap entry itself.
            sim._fanned -= 1
            self.index = index
            _heappush(sim._queue,
                      (self.base + delays[index], self.seq0 + index, self))
        else:
            self.delays = self.payloads = self.fire = self.arg = None
            sim._fan_pool.append(self)


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
        #: or a bare :class:`FastEvent` callable (a :class:`_FanOut`
        #: batch is one). Only ever mutated in place: the run loop holds
        #: a local reference.
        self._queue: list = []
        #: Lazily-cancelled entries still stored in ``_queue``.
        self._cancelled = 0
        #: Pending fan-out members beyond the one heap entry each queued
        #: batch stands under, so the live depth stays O(1) and counts
        #: every pending member.
        self._fanned = 0
        #: Free list of finished :class:`_FanOut` entries.
        self._fan_pool: list = []
        #: Latest time a fan-out may drain members inline: the running
        #: loop's horizon, or -1 while draining is off (between runs,
        #: with telemetry armed, or under a ``max_events`` budget, so
        #: that each member is its own loop iteration there).
        self._drain_until = -1
        #: Current simulation time in nanoseconds. A plain attribute
        #: (not a property): hot paths across the stack read the clock
        #: millions of times per run, and a Python-level property getter
        #: costs more than many of those callers' entire bodies. Treat
        #: as read-only outside the run loop.
        self.now: int = 0
        #: Seq of the executing event (of the last one between runs), so
        #: ``(now, now_seq)`` is the position in the event order; a
        #: reserved ``(time, seq)`` at or before it has passed. A run
        #: that ends at its horizon or with an empty heap leaves it at
        #: the newest seq taken, so every position up to ``now`` has
        #: passed. Read-only outside the run loop, like ``now``.
        self.now_seq: int = -1
        self._seq: int = 0
        #: Latest time of any reserved seq (see :meth:`reserve`): a run
        #: that empties the heap advances the clock to it.
        self._reserved_until = 0
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
        cancelled-but-unswept entries are bookkeeping, not load. Each
        pending member of a fan-out counts as one entry.
        """
        return len(self._queue) - self._cancelled + self._fanned

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
        # Inlined self.at(): timers and deferred responses make this a
        # hot scheduling entry point.
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

    def fan_out(self, base: int, delays, payloads, fire: Callable[[Any, Any], None],
                arg: Any, label: str) -> None:
        """Schedule ``fire(arg, payloads[i])`` at ``base + delays[i]`` for
        every ``i``, as one heap entry (the PHY fan-out path).

        ``delays`` must be non-decreasing, with ties in the order the
        members were generated (a stable sort by delay). The members
        reserve consecutive seqs in that order, so each fires at exactly
        the ``(time, seq)`` position it would have had as its own heap
        entry, same-time ties with other events included. Members are
        fire-and-forget: no handle, no cancellation. Each counts as one
        executed event and, with telemetry armed, is accounted under
        ``label``. An empty batch schedules nothing and takes no seq.
        """
        n = len(delays)
        if not n:
            return
        if base + delays[0] < self.now:
            raise SimulationError(
                f"cannot schedule event '{label}' at t={base + delays[0]} "
                f"before now={self.now}"
            )
        pool = self._fan_pool
        batch = pool.pop() if pool else _FanOut(self)
        batch.base = base
        batch.delays = delays
        batch.payloads = payloads
        batch.fire = fire
        batch.arg = arg
        batch.label = label
        batch.index = 0
        seq = self._seq
        batch.seq0 = seq
        heapq.heappush(self._queue, (base + delays[0], seq, batch))
        self._seq = seq + n
        self._fanned += n - 1

    def reserve(self, base: int, delays) -> int:
        """Take the seqs ``fan_out(base, delays, ...)`` would take, for a
        batch that gets no heap entry; return the first one.

        Member ``i`` owns position ``(base + delays[i], seq0 + i)``, which
        orders exactly as the fan-out member would (same-time ties
        included), so state that changes at known times -- busy-tone
        presence -- can be judged against ``(now, now_seq)`` instead of
        being updated by events. A run that empties the heap still
        advances the clock to the last member's time, as the fan-out
        would have. An empty batch takes nothing.
        """
        seq = self._seq
        if delays:
            self._seq = seq + len(delays)
            last = base + delays[-1]
            if last > self._reserved_until:
                self._reserved_until = last
        return seq

    def at_seq(self, time: int, seq: int, callback: Callable[[], None],
               label: str = "") -> EventHandle:
        """Schedule ``callback`` at ``time`` under ``seq``, a seq taken by
        :meth:`reserve`, so it runs exactly at that reserved position.

        Raises :class:`SimulationError` for a seq never handed out or a
        position at or before ``(now, now_seq)``. The caller keeps to one
        live event per reserved position.
        """
        if not 0 <= seq < self._seq:
            raise SimulationError(
                f"cannot schedule event '{label}' under seq {seq}: "
                f"never reserved")
        now = self.now
        if time < now or (time == now and seq <= self.now_seq):
            raise SimulationError(
                f"cannot schedule event '{label}' at (t={time}, seq={seq}) "
                f"at or before (now={now}, seq={self.now_seq})")
        handle = EventHandle(time, seq, callback, label, self)
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    def schedule_fast(self, time: int, event) -> None:
        """Schedule one fire-and-forget :class:`FastEvent` at ``time`` (ns).

        No :class:`EventHandle` is allocated and nothing is returned, so
        the event cannot be cancelled. For recurring machinery that never
        cancels (the MAC backoff ticks), one reusable event object makes
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
        pattern costing ~10% of paper-scale runs. Fan-out batches drain
        their members inline only when neither telemetry nor
        ``max_events`` is in play, so ``step()`` and per-label telemetry
        still see one loop iteration per member.
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
        if telemetry is None and max_events is None:
            self._drain_until = horizon
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
        # False when the run stops at its event budget, with events up to
        # its horizon still queued.
        drained = True
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
                    drained = False
                    break
                heappop(queue)
                self.now = time
                self.now_seq = entry[1]
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
                        samples_append(len(queue) - self._cancelled
                                       + self._fanned)
                executed += 1
        finally:
            self._running = False
            self._drain_until = -1
            self._events_processed += executed
            if telemetry is not None:
                telemetry.events += executed
                telemetry._last_heap_depth = (len(queue) - self._cancelled
                                              + self._fanned)
        if drained and (until is None or until >= self.now):
            # Every position up to the horizon has passed, reserved ones
            # included; with no horizon, the clock moves on to the last
            # reserved position, as its event would have taken it.
            self.now_seq = self._seq - 1
            if until is None and self.now < self._reserved_until:
                self.now = self._reserved_until
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(n); tests only)."""
        return self._fanned + sum(1 for entry in self._queue
                                  if not entry[2]._cancelled)
