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
Each emission reserves the simulator seqs its per-listener on and off
deltas would have taken as events (:meth:`Simulator.reserve`), and each
listener keeps the emissions that reach it. ``present(node)`` counts the
emissions whose on position has passed and whose off position has not,
compared with the executing event's ``(now, now_seq)``; a same-nanosecond
event therefore sees a delta exactly when it would have run after it.
The presence waiters (``notify_present`` / ``notify_clear``) cost one
check event per reserved position of a listener that has a waiter,
scheduled under that position's seq (:meth:`Simulator.at_seq`), which
fires the waiter only on a real 0 -> 1 or 1 -> 0 transition.

Tone reach: by default an emission reaches every *sensed* link of the
emitter (``LinkTable.delay_map``); under the SINR subsystem's
power-domain link tables that already excludes interference-only links.
An explicit ``power_threshold_dbm`` moves tone detection fully into the
power domain: the tone reaches exactly the links whose received power
clears the threshold.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from functools import partial
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.phy.neighbors import DelayOrder, NeighborService, order_by_delay
from repro.sim.engine import EventHandle, Simulator
from repro.sim.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.injector import FaultInjector


class ToneType(enum.Enum):
    """The two busy tones RMAC introduces."""

    RBT = "RBT"
    ABT = "ABT"


class _Emission:
    __slots__ = ("emitter", "start", "end", "link_delays", "order", "suppressed",
                 "on_seq", "off_seq")

    def __init__(self, emitter: int, start: int, link_delays: Dict[int, int],
                 order: DelayOrder,
                 suppressed: bool = False):
        self.emitter = emitter
        self.start = start
        self.end: Optional[int] = None
        #: listener node -> propagation delay (frozen at emission start)
        self.link_delays = link_delays
        #: ``link_delays`` as delay-sorted ``(delays, nodes)``: listener
        #: ``nodes[i]`` senses the tone from ``(start + delays[i],
        #: on_seq + i)`` until ``(end + delays[i], off_seq + i)``.
        self.order = order
        #: True for a crashed emitter's tone: never on the air, so it is
        #: absent from the on/off trace too (the invariant oracle must
        #: see the silence the rest of the network sees).
        self.suppressed = suppressed
        #: First reserved seq of the on and off positions (off: None
        #: while the emission lasts).
        self.on_seq = 0
        self.off_seq: Optional[int] = None


#: One listener's view of an emission: ``(emission, delay, index)``, its
#: position ``index`` in ``emission.order``.
_Reach = Tuple[_Emission, int, int]


def _entries(emission: _Emission):
    """``emission``'s reach entries, one per listener in delay order."""
    delays = emission.order[0]
    return zip(repeat(emission), delays, range(len(delays)))


def _presence(reach: List[_Reach], now: int, seq: int) -> int:
    """How many emissions in ``reach`` are present at position ``(now, seq)``."""
    count = 0
    for emission, delay, index in reach:
        time = emission.start + delay
        if time > now or (time == now and emission.on_seq + index > seq):
            continue  # not on yet
        end = emission.end
        if end is not None:
            time = end + delay
            if time < now or (time == now and emission.off_seq + index <= seq):
                continue  # already off
        count += 1
    return count


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
        power_threshold_dbm: Optional[float] = None,
    ):
        self._sim = sim
        self._neighbors = neighbors
        self.tone = tone
        #: lambda: continuous presence needed for detection (ns).
        self.detect_time = int(detect_time)
        #: Tone-detection threshold in the power domain: when set, an
        #: emission reaches exactly the links whose received power (dBm)
        #: clears it. None = all sensed links.
        self.power_threshold_dbm = power_threshold_dbm
        self._tracer = tracer
        #: Optional fault injector: a crashed emitter's tone reaches
        #: nobody, and a crashed listener senses nothing new. ``None``
        #: (the default) keeps turn_on on the original path.
        self._faults = faults if faults is not None and faults.affects_tones else None
        #: Trace kinds, precomputed off the per-emission hot path.
        self._on_kind = f"{tone.value.lower()}-on"
        self._off_kind = f"{tone.value.lower()}-off"
        self._active: Dict[int, _Emission] = {}
        #: Finished emissions, in turn-off order (so by end time).
        self._recent: List[_Emission] = []
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
        now = self._sim.now
        table = self._neighbors.table_from(emitter, now)
        faults = self._faults
        threshold = self.power_threshold_dbm
        suppressed = False
        if faults is None:
            # Shared, lazily-built views: every emission in the same bucket
            # epoch reuses one dict (and its sorted twin) instead of
            # re-deriving its own. _Emission only ever reads them.
            if threshold is None:
                link_delays = table.delay_map
                order = table.delay_order
            else:
                link_delays = table.tone_map(threshold)
                order = table.tone_order(threshold)
        elif faults.node_down(emitter, now):
            # A crashed emitter's tone reaches nobody. The emission is
            # still registered (with no listeners) so the MAC's matching
            # turn_off stays valid, and the suppression is traced so the
            # invariant oracle can tell an injected silence from a bug.
            link_delays = {}
            order = ((), ())
            suppressed = True
            if self._tracer.enabled:
                self._tracer.emit(now, emitter, "fault-tone-suppressed",
                                  tone=self.tone.value)
        else:
            # Deaf listeners (crashed at emission start) sense nothing.
            if threshold is None:
                link_delays = {l.node: l.delay_ns for l in table.links
                               if l.sensed
                               and not faults.node_down(l.node, now)}
            else:
                link_delays = {l.node: l.delay_ns for l in table.links
                               if l.power_dbm is not None
                               and l.power_dbm >= threshold
                               and not faults.node_down(l.node, now)}
            order = order_by_delay(link_delays)
        emission = _Emission(emitter, now, link_delays, order,
                             suppressed=suppressed)
        self._active[emitter] = emission
        # The on positions take their seqs ahead of the detections.
        delays, nodes = order
        sim = self._sim
        emission.on_seq = seq0 = sim.reserve(now, delays)
        reach = self._reach
        for node, entry in zip(nodes, _entries(emission)):
            reach[node].append(entry)
        waiters = self._present_waiters
        if waiters:
            for node in waiters.keys() & link_delays.keys():
                index = nodes.index(node)
                waiters[node][1].append(self._check_at(
                    node, now + delays[index], seq0 + index, on=True))
        watchers = self._watchers
        if watchers:
            detect_time = self.detect_time
            for node, delay in link_delays.items():
                if node in watchers:
                    self._schedule_detection(emission, node,
                                             now + delay + detect_time)
        if self._tracer.enabled and not suppressed:
            self._tracer.emit(now, emitter, self._on_kind)

    def turn_off(self, emitter: int) -> None:
        """Stop emitting the tone from ``emitter``."""
        emission = self._active.pop(emitter, None)
        if emission is None:
            raise RuntimeError(f"node {emitter} does not emit {self.tone.value}")
        sim = self._sim
        now = sim.now
        emission.end = now
        delays, nodes = emission.order
        emission.off_seq = seq0 = sim.reserve(now, delays)
        waiters = self._clear_waiters
        if waiters:
            for node in waiters.keys() & emission.link_delays.keys():
                index = nodes.index(node)
                waiters[node][1].append(self._check_at(
                    node, now + delays[index], seq0 + index, on=False))
        self._recent.append(emission)
        self._prune(now)
        if self._tracer.enabled and not emission.suppressed:
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
    def present(self, node: int) -> bool:
        """Instantaneous presence of the tone at ``node`` (excludes self)."""
        reach = self._reach.get(node)
        if not reach:
            return False
        sim = self._sim
        return _presence(reach, sim.now, sim.now_seq) > 0

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
        for emission, delay, _index in self._reach.get(node, ()):
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
        for emission, delay, _index in self._reach.get(node, ()):
            if emission.end is not None:
                continue
            detect_at = emission.start + delay + self.detect_time
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

    def _schedule_detection(self, emission: _Emission, node: int, when: int) -> None:
        entry = self._watchers.get(node)
        if entry is None:
            return
        handle = self._sim.at(
            when, _DetectionCheck(self, emission, node), label="tone-detect"
        )
        entry[1].append(handle)

    def _run_detection(self, emission: _Emission, node: int) -> None:
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
        for emission, delay, index in self._reach.get(node, ()):
            if on:
                time = emission.start + delay
                seq = emission.on_seq + index
            elif emission.end is not None:
                time = emission.end + delay
                seq = emission.off_seq + index
            else:
                continue
            if time > now or (time == now and seq > now_seq):
                checks.append(self._check_at(node, time, seq, on))
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
        if _presence(self._reach[node], sim.now, sim.now_seq) != (1 if on else 0):
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
            for node, entry in zip(emission.order[1], _entries(emission)):
                listened = reach[node]
                listened.remove(entry)
                if not listened:
                    del reach[node]
        del recent[:stale]


class _DetectionCheck:
    __slots__ = ("channel", "emission", "node")

    def __init__(self, channel: BusyToneChannel, emission: _Emission, node: int):
        self.channel = channel
        self.emission = emission
        self.node = node

    def __call__(self) -> None:
        self.channel._run_detection(self.emission, self.node)
