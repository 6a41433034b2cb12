"""Narrow-band busy-tone channels (RBT and ABT).

Semantics, following Section 3 of the paper:

* A tone emitted by node E becomes *present* at listener L one link
  propagation delay after E turns it on, and stops being present one
  link delay after E turns it off. Presence from multiple emitters is
  OR-ed. A node never senses its own emission.
* *Detection* of a tone requires lambda = 15 us (the 802.11b CCA time)
  of continuous presence. Two detection mechanisms are offered:

  - ``watch_detection``: fires a callback at the first moment a tone has
    been present for lambda (used for RMAC's abort-on-RBT, where the
    paper's "tiny interval" between RBT-on and abort is tau + lambda);
  - ``longest_presence``: the longest continuously-present stretch within
    a half-open window ``(t0, t1]`` (used by the sender's per-receiver
    ABT windows; a window detects its receiver iff the stretch >= lambda).
    Attributing *presence* rather than emitter identity to a window is
    what lets the model reproduce the paper's "mixed-up ABT" phenomenon
    (Fig. 5) instead of assuming oracle knowledge.

A tone channel is a medium in the data channel's sense: it answers the
same carrier-sense calls (``busy``, ``notify_idle``, ``notify_busy``,
``cancel_notify_busy``), so a MAC senses both through one loop.

Presence is judged from the emissions themselves, not kept by events.
Each emission is an :class:`~repro.phy.neighbors.Emission` over its
listeners: it reserves the simulator seqs its per-listener on and off
deltas would have taken as events (:meth:`Simulator.reserve`), and each
listener keeps the emissions that reach it. ``busy(node)`` asks whether
an emission's on position has passed at the node and its off position
has not (:meth:`Emission.live`), at the executing event's ``(now,
now_seq)``; a same-nanosecond event therefore sees a delta exactly when
it would have run after it.

Only the waiters need events, and they share one mechanism: a
:class:`_Waiter` per (kind, node), with one check event per pending
position of the node's reach. A busy notice (``notify_busy``) checks at
each on position, under that position's seq (:meth:`Simulator.at_seq`),
and fires on a real 0 -> 1 transition; an idle notice (``notify_idle``)
checks at each off position and fires on 1 -> 0; a detection watcher
(``watch_detection``) checks lambda after each on position, under a
fresh seq, and fires if that emission is still present.

Tone reach: an emission reaches the *sensed* links of the emitter (the
``sensed`` group of its table's :class:`~repro.phy.neighbors.LinkView`),
the nodes whose radios detect its energy -- the same nodes, in the same
order, that the data channel's carrier sense reaches. Under the SINR
subsystem's power-domain link tables a link is sensed iff its power
clears the carrier-sense threshold, so interference-only links hear no
tone.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.phy.neighbors import Emission, LinkView, NeighborService
from repro.sim.engine import EventHandle, Simulator
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.injector import FaultInjector


class ToneType(enum.Enum):
    """The two busy tones RMAC introduces."""

    RBT = "RBT"
    ABT = "ABT"


#: The view of a crashed emitter's tone: it reaches nobody, and it is
#: absent from the on/off trace too (the invariant oracle must see the
#: silence the rest of the network sees).
_SUPPRESSED = LinkView(())

#: One listener's entry for an emission that reaches it: ``(emission,
#: k)``, the listener being link ``k`` of ``emission.view``.
_Reach = Tuple[Emission, int]

#: The waiter kinds, indexing ``BusyToneChannel._waiters``: the busy
#: notice, the idle notices and the detection watcher.
_BUSY, _IDLE, _DETECT = range(3)


class _Waiter:
    """One node's waiter of one kind: the callbacks to fire and the
    handles of its pending check events."""

    __slots__ = ("callbacks", "handles")

    def __init__(self, callback: Callable[[], None]):
        self.callbacks = [callback]
        self.handles: List[EventHandle] = []


class BusyToneChannel:
    """One narrow-band tone channel shared by all nodes."""

    #: Emissions that ended more than this (ns) before the latest
    #: turn-off are pruned; ABT window queries only ever look back a few
    #: hundred microseconds.
    RETENTION = 2_000_000

    def __init__(
        self,
        sim: Simulator,
        neighbors: NeighborService,
        tone: ToneType,
        detect_time: int,
        tracer: Tracer = NULL_TRACER,
        faults: Optional["FaultInjector"] = None,
    ):
        self._sim = sim
        self._neighbors = neighbors
        self.tone = tone
        #: lambda: continuous presence needed for detection (ns).
        self.detect_time = int(detect_time)
        self._tracer = tracer
        #: Optional fault injector: a crashed emitter's tone reaches
        #: nobody, and a crashed listener senses nothing new. ``None``
        #: (the default) keeps turn_on on the original path.
        self._faults = faults if faults is not None and faults.affects_tones else None
        #: Trace kinds, precomputed off the per-emission hot path.
        self._on_kind = f"{tone.value.lower()}-on"
        self._off_kind = f"{tone.value.lower()}-off"
        self._active: Dict[int, Emission] = {}
        #: Finished emissions, in turn-off order (so by end time).
        self._recent: List[Emission] = []
        #: listener -> the active and recent emissions that reach it.
        self._reach: Dict[int, List[_Reach]] = defaultdict(list)
        #: kind -> node -> its waiter of that kind.
        self._waiters: Tuple[Dict[int, _Waiter], ...] = ({}, {}, {})

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def turn_on(self, emitter: int) -> None:
        """Start emitting the tone from ``emitter``."""
        if emitter in self._active:
            raise RuntimeError(f"node {emitter} already emits {self.tone.value}")
        sim = self._sim
        now = sim.now
        sensed = self._neighbors.table_from(emitter, now).sensed
        faults = self._faults
        if faults is None:
            view = sensed
        elif faults.node_down(emitter, now):
            # A crashed emitter's tone reaches nobody. The emission is
            # still registered (with no listeners) so the MAC's matching
            # turn_off stays valid, and the suppression is traced so the
            # invariant oracle can tell an injected silence from a bug.
            view = _SUPPRESSED
            if self._tracer.enabled:
                self._tracer.emit(now, emitter, "fault-tone-suppressed",
                                  tone=self.tone.value)
        else:
            # Deaf listeners (crashed at emission start) sense nothing.
            view = LinkView(tuple([link for link in sensed.links
                                   if not faults.node_down(link.node, now)]))
        # The on positions take their seqs ahead of the detections.
        emission = Emission(view, now, sim.reserve(now, view.delays))
        self._active[emitter] = emission
        reach = self._reach
        for k, link in enumerate(view.links):
            reach[link.node].append((emission, k))
        self._arm_new(_BUSY, emission)
        self._arm_new(_DETECT, emission)
        if self._tracer.enabled and view is not _SUPPRESSED:
            self._tracer.emit(now, emitter, self._on_kind)

    def turn_off(self, emitter: int) -> None:
        """Stop emitting the tone from ``emitter``."""
        emission = self._active.pop(emitter, None)
        if emission is None:
            raise RuntimeError(f"node {emitter} does not emit {self.tone.value}")
        sim = self._sim
        now = sim.now
        emission.end = now
        emission.end_seq = sim.reserve(now, emission.view.delays)
        self._arm_new(_IDLE, emission)
        self._recent.append(emission)
        self._prune(now)
        if self._tracer.enabled and emission.view is not _SUPPRESSED:
            self._tracer.emit(now, emitter, self._off_kind)

    def pulse(self, emitter: int, duration: int) -> None:
        """Emit the tone for exactly ``duration`` ns (used for ABT)."""
        self.turn_on(emitter)
        self._sim.after(duration, lambda: self.turn_off(emitter), label="tone-pulse-end")

    def is_emitting(self, emitter: int) -> bool:
        return emitter in self._active

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------
    def busy(self, node: int) -> bool:
        """Instantaneous presence of the tone at ``node`` (excludes self)."""
        reach = self._reach.get(node)
        if not reach:
            return False
        sim = self._sim
        now = sim.now
        now_seq = sim.now_seq
        for emission, k in reach:
            if emission.live(k, now, now_seq):
                return True
        return False

    def longest_presence(self, node: int, t0: int, t1: int) -> int:
        """Longest continuously-present stretch at ``node`` within ``(t0, t1]``.

        Merges presence intervals from all relevant emitters (active and
        recently finished), clips to the window, and returns the longest
        merged segment in ns. The query time must be >= ``t1``.
        """
        if t1 > self._sim.now:
            raise ValueError("cannot query presence in the future")
        intervals: List[Tuple[int, int]] = []
        # The node's reach list holds exactly the active and recently
        # finished emissions that reach it.
        for emission, k in self._reach.get(node, ()):
            delay = emission.view.delays[k]
            lo = emission.start + delay
            hi = (emission.end + delay) if emission.end is not None else t1
            lo = max(lo, t0)
            hi = min(hi, t1)
            if hi > lo:
                intervals.append((lo, hi))
        if not intervals:
            return 0
        intervals.sort()
        best = 0
        cur_lo, cur_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo <= cur_hi:
                cur_hi = max(cur_hi, hi)
            else:
                best = max(best, cur_hi - cur_lo)
                cur_lo, cur_hi = lo, hi
        return max(best, cur_hi - cur_lo)

    # ------------------------------------------------------------------
    # Waiters
    # ------------------------------------------------------------------
    def notify_idle(self, node: int, callback: Callable[[], None]) -> None:
        """Register a one-shot callback for the next busy->idle
        transition at ``node``. Fires immediately if already idle."""
        if not self.busy(node):
            callback()
            return
        waiter = self._waiters[_IDLE].get(node)
        if waiter is None:
            self._wait(_IDLE, node, callback)
        else:
            waiter.callbacks.append(callback)

    def notify_busy(self, node: int, callback: Callable[[], None]) -> None:
        """Register a one-shot callback for the next idle->busy
        transition at ``node``. One per node; a new one replaces it."""
        waiter = self._waiters[_BUSY].get(node)
        if waiter is None:
            self._wait(_BUSY, node, callback)
        else:
            waiter.callbacks = [callback]

    def cancel_notify_busy(self, node: int) -> None:
        """Drop ``node``'s busy callback, if any."""
        self._drop(_BUSY, node)

    def watch_detection(self, node: int, callback: Callable[[ToneType], None]) -> None:
        """Arm a detection watcher at ``node`` (RMAC's abort-on-RBT).

        The callback fires as soon as any in-range emission has been
        present for ``detect_time`` -- including emissions already active
        but not yet detectable when the watcher is armed (the race that
        makes MRTS abortion possible at all, per Section 3.3.2 note 3).
        """
        if node in self._waiters[_DETECT]:
            raise RuntimeError(f"node {node} already watches {self.tone.value}")
        self._wait(_DETECT, node, partial(callback, self.tone))

    def unwatch_detection(self, node: int) -> None:
        """Disarm the watcher at ``node`` (no-op if absent)."""
        self._drop(_DETECT, node)

    def _wait(self, kind: int, node: int, callback: Callable[[], None]) -> None:
        """Register ``node``'s waiter of ``kind``, armed at the pending
        positions of its reach; later ones are armed by turn_on/off."""
        waiter = self._waiters[kind][node] = _Waiter(callback)
        sim = self._sim
        now = sim.now
        now_seq = sim.now_seq
        for emission, k in self._reach.get(node, ()):
            if kind == _BUSY:
                pending = not emission.started(k, now, now_seq)
            elif kind == _IDLE:
                pending = (emission.end is not None
                           and not emission.ended(k, now, now_seq))
            else:
                pending = emission.end is None
            if pending:
                self._arm(kind, waiter, node, emission, k)

    def _arm_new(self, kind: int, emission: Emission) -> None:
        """Arm the waiters of ``kind`` at the positions ``emission`` has
        just reserved, in delay order (equal delays in link-table order):
        the order detections have always taken their seqs in."""
        waiters = self._waiters[kind]
        if not waiters:
            return
        view = emission.view
        index = view.index
        links = view.links
        for k in sorted([index[node] for node in waiters if node in index]):
            node = links[k].node
            self._arm(kind, waiters[node], node, emission, k)

    def _arm(self, kind: int, waiter: _Waiter, node: int, emission: Emission,
             k: int) -> None:
        """Schedule ``waiter``'s check at its position in ``emission``:
        the on or off position of link ``k`` (a busy or idle notice), or
        lambda after the on position, but not before now (a detection)."""
        sim = self._sim
        delay = emission.view.delays[k]
        check = partial(self._check, kind, node, emission, k)
        if kind == _BUSY:
            handle = sim.at_seq(emission.start + delay, emission.seq + k,
                                check, "tone-check")
        elif kind == _IDLE:
            handle = sim.at_seq(emission.end + delay, emission.end_seq + k,
                                check, "tone-check")
        else:
            handle = sim.at(max(emission.start + delay + self.detect_time,
                                sim.now), check, label="tone-detect")
        waiter.handles.append(handle)

    def _check(self, kind: int, node: int, emission: Emission, k: int) -> None:
        """At one of ``node``'s positions in ``emission``: fire its waiter
        of ``kind`` if the tone has just appeared there (exactly one
        emission present), just cleared (none present), or been present
        for lambda (``emission`` still present)."""
        sim = self._sim
        now = sim.now
        now_seq = sim.now_seq
        if kind == _DETECT:
            fire = emission.live(k, now, now_seq)
        else:
            present = sum([other.live(j, now, now_seq)
                           for other, j in self._reach[node]])
            fire = present == (1 if kind == _BUSY else 0)
        if not fire:
            # The waiter stays armed: drop this check's spent handle, so
            # a long-armed waiter holds only pending cancel targets.
            waiter = self._waiters[kind][node]
            waiter.handles = [h for h in waiter.handles if h.pending]
            return
        for callback in self._drop(kind, node).callbacks:
            callback()

    def _drop(self, kind: int, node: int) -> Optional[_Waiter]:
        """Remove ``node``'s waiter of ``kind``, cancelling its checks."""
        waiter = self._waiters[kind].pop(node, None)
        if waiter is not None:
            for handle in waiter.handles:
                handle.cancel()
        return waiter

    def _prune(self, now: int) -> None:
        """Forget emissions that ended more than RETENTION before ``now``,
        in ``_recent`` and in their listeners' reach lists."""
        recent = self._recent
        cutoff = now - self.RETENTION
        if recent[0].end >= cutoff:
            return
        stale = 1
        while recent[stale].end < cutoff:  # recent[-1] ended at now
            stale += 1
        reach = self._reach
        for emission in recent[:stale]:
            for k, link in enumerate(emission.view.links):
                listened = reach[link.node]
                listened.remove((emission, k))
                if not listened:
                    del reach[link.node]
        del recent[:stale]
