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

Presence is judged from the emissions themselves, not kept by events.
Each emission is an :class:`~repro.phy.neighbors.Emission` over its
listeners: it reserves the simulator seqs its per-listener on and off
deltas would have taken as events (:meth:`Simulator.reserve`), and each
listener keeps the emissions that reach it. ``present(node)`` asks
whether an emission's on position has passed at the node and its off
position has not (:meth:`Emission.live`), at the executing event's
``(now, now_seq)``; a same-nanosecond event therefore sees a delta
exactly when it would have run after it. The presence waiters
(``notify_present`` / ``notify_clear``) cost one check event per
reserved position of a listener that has a waiter, scheduled under that
position's seq (:meth:`Simulator.at_seq`), which fires the waiter only
on a real 0 -> 1 or 1 -> 0 transition.

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
        #: node -> [callbacks, check handles]: one-shot callbacks fired
        #: when the tone clears at the node.
        self._clear_waiters: Dict[int, list] = {}
        #: node -> [[callback], check handles]: the one-shot callback
        #: fired when the tone appears at the node (the busy notices of
        #: RMAC's slot countdown, one per node).
        self._present_waiters: Dict[int, list] = {}
        #: node -> (callback, pending detection event handles)
        self._watchers: Dict[int, Tuple[Callable[[ToneType], None], List[EventHandle]]] = {}

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
        delays = view.delays
        emission = Emission(view, now, sim.reserve(now, delays))
        self._active[emitter] = emission
        reach = self._reach
        for k, link in enumerate(view.links):
            reach[link.node].append((emission, k))
        waiters = self._present_waiters
        if waiters:
            self._check_new(waiters, emission, True)
        watchers = self._watchers
        if watchers:
            # In delay order, equal delays in link-table order: the order
            # the detections have always taken their seqs in.
            index = view.index
            detect_at = now + self.detect_time
            for k in sorted([index[node] for node in watchers
                             if node in index]):
                self._schedule_detection(emission, view.links[k].node,
                                         detect_at + delays[k])
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
        waiters = self._clear_waiters
        if waiters:
            self._check_new(waiters, emission, False)
        self._recent.append(emission)
        self._prune(now)
        if self._tracer.enabled and emission.view is not _SUPPRESSED:
            self._tracer.emit(now, emitter, self._off_kind)

    def _check_new(self, waiters: Dict[int, list], emission: Emission,
                   on: bool) -> None:
        """Check events for ``waiters`` at the on (off) positions that
        ``emission`` has just reserved."""
        if on:
            base, seq = emission.start, emission.seq
        else:
            base, seq = emission.end, emission.end_seq
        view = emission.view
        index = view.index
        delays = view.delays
        for node, waiter in waiters.items():
            k = index.get(node)
            if k is not None:
                waiter[1].append(self._check_at(node, base + delays[k],
                                                seq + k, on))

    def pulse(self, emitter: int, duration: int) -> None:
        """Emit the tone for exactly ``duration`` ns (used for ABT)."""
        self.turn_on(emitter)
        self._sim.after(duration, lambda: self.turn_off(emitter), label="tone-pulse-end")

    def is_emitting(self, emitter: int) -> bool:
        return emitter in self._active

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------
    def present(self, node: int) -> bool:
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
    # Detection watchers (RMAC's abort-on-RBT)
    # ------------------------------------------------------------------
    def watch_detection(self, node: int, callback: Callable[[ToneType], None]) -> None:
        """Arm a detection watcher at ``node``.

        The callback fires as soon as any in-range emission has been
        present for ``detect_time`` -- including emissions already active
        but not yet detectable when the watcher is armed (the race that
        makes MRTS abortion possible at all, per Section 3.3.2 note 3).
        """
        if node in self._watchers:
            raise RuntimeError(f"node {node} already watches {self.tone.value}")
        self._watchers[node] = (callback, [])
        now = self._sim.now
        for emission, k in self._reach.get(node, ()):
            if emission.end is not None:
                continue
            detect_at = (emission.start + emission.view.delays[k]
                         + self.detect_time)
            if detect_at >= now:
                self._schedule_detection(emission, node, detect_at)
            else:
                # Tone already detectable: fire immediately (still async,
                # so the caller's state settles first).
                self._schedule_detection(emission, node, now)

    def unwatch_detection(self, node: int) -> None:
        """Disarm the watcher at ``node`` (no-op if absent)."""
        entry = self._watchers.pop(node, None)
        if entry is None:
            return
        for handle in entry[1]:
            handle.cancel()

    def _schedule_detection(self, emission: Emission, node: int, when: int) -> None:
        entry = self._watchers.get(node)
        if entry is None:
            return
        handle = self._sim.at(
            when, _DetectionCheck(self, emission, node), label="tone-detect"
        )
        entry[1].append(handle)

    def _run_detection(self, emission: Emission, node: int) -> None:
        entry = self._watchers.get(node)
        if entry is None:
            return
        # Valid only if the emission lasted the full detection time.
        if emission.end is not None and emission.end < emission.start + self.detect_time:
            # The watcher stays armed: drop handles that already fired or
            # were cancelled (including this one), so a long-armed watcher
            # holds only genuinely pending cancel targets.
            handles = entry[1]
            handles[:] = [h for h in handles if h.pending]
            return
        callback, _handles = entry
        self.unwatch_detection(node)
        callback(self.tone)

    # ------------------------------------------------------------------
    def notify_clear(self, node: int, callback: Callable[[], None]) -> None:
        """Register a one-shot callback for the next present->absent
        transition at ``node``. Fires immediately if already absent."""
        if not self.present(node):
            callback()
            return
        waiter = self._clear_waiters.get(node)
        if waiter is None:
            self._clear_waiters[node] = [[callback],
                                         self._schedule_checks(node, on=False)]
        else:
            waiter[0].append(callback)

    def notify_present(self, node: int, callback: Callable[[], None]) -> None:
        """Register a one-shot callback for the next absent->present
        transition at ``node``. One per node; a new one replaces it."""
        waiter = self._present_waiters.get(node)
        if waiter is None:
            self._present_waiters[node] = [[callback],
                                           self._schedule_checks(node, on=True)]
        else:
            waiter[0] = [callback]

    def cancel_notify_present(self, node: int) -> None:
        """Drop ``node``'s presence callback, if any."""
        waiter = self._present_waiters.pop(node, None)
        if waiter is not None:
            for handle in waiter[1]:
                handle.cancel()

    def _schedule_checks(self, node: int, on: bool) -> List[EventHandle]:
        """Check events at ``node``'s pending on (or off) positions, for a
        newly registered waiter; later ones are added by turn_on/off."""
        sim = self._sim
        now = sim.now
        now_seq = sim.now_seq
        checks = []
        for emission, k in self._reach.get(node, ()):
            delay = emission.view.delays[k]
            if on:
                if not emission.started(k, now, now_seq):
                    checks.append(self._check_at(
                        node, emission.start + delay, emission.seq + k, on))
            elif (emission.end is not None
                  and not emission.ended(k, now, now_seq)):
                checks.append(self._check_at(
                    node, emission.end + delay, emission.end_seq + k, on))
        return checks

    def _check_at(self, node: int, time: int, seq: int, on: bool) -> EventHandle:
        """The check event of ``node``'s waiter at a reserved position."""
        return self._sim.at_seq(time, seq, partial(self._check, node, on),
                                "tone-check")

    def _check(self, node: int, on: bool) -> None:
        """At one of ``node``'s on (off) positions: fire its presence
        (clear) waiters if the tone just appeared (cleared) there, that
        is, if exactly one emission (none) is present now."""
        waiters = self._present_waiters if on else self._clear_waiters
        waiter = waiters[node]
        sim = self._sim
        now = sim.now
        now_seq = sim.now_seq
        present = sum([emission.live(k, now, now_seq)
                       for emission, k in self._reach[node]])
        if present != (1 if on else 0):
            # No transition here: drop this check's spent handle.
            waiter[1] = [handle for handle in waiter[1] if handle.pending]
            return
        del waiters[node]
        for handle in waiter[1]:
            handle.cancel()
        for callback in waiter[0]:
            callback()

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


class _DetectionCheck:
    __slots__ = ("channel", "emission", "node")

    def __init__(self, channel: BusyToneChannel, emission: Emission, node: int):
        self.channel = channel
        self.emission = emission
        self.node = node

    def __call__(self) -> None:
        self.channel._run_detection(self.emission, self.node)
