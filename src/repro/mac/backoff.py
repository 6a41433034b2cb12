"""The backoff state of Section 3.3.1 and its event-driven countdown.

Every node keeps two variables, both in units of slot times:

* ``BI`` (Backoff Interval) -- the remaining deferral, persisted across
  suspensions (a busy channel pauses the countdown without redrawing);
* ``CW`` (Contention Window) -- doubled (up to ``cw_max``) on failed
  transmissions, reset to ``cw_min`` on success, and used to initialize
  BI uniformly in ``[0, CW]``.

:class:`Backoff` owns the variables, the draw and the CW dynamics.
:class:`SlotCountdown` counts BI down through an idle medium for RMAC
and the whole 802.11 family, without one event per 20 us slot.

The countdown
-------------

Each protocol keeps a *tick*: the per-slot step of the paper's
procedure, which senses the medium, counts one idle slot, suspends the
backoff (BI kept) when the medium is busy, and transmits when BI reaches
0. A tick that counts a slot and leaves BI > 0 hands the rest to
:meth:`SlotCountdown.run`, which records ``(start, BI)`` and schedules
one event at the slot where BI reaches 0. That event charges the slots
in between and runs the tick there, exactly as the per-slot ticks would
have.

The slots in between are idle only while nothing turns the medium busy,
so the countdown takes *busy notices* from everything that can:

* the data channel, when a sensed arrival starts on an idle medium and
  when the node itself transmits (:meth:`DataChannel.notify_busy`);
* each sensed tone channel (RMAC: the RBT), when the tone's presence at
  the node goes from 0 to 1 (:meth:`BusyToneChannel.notify_busy`);
* the protocol, for busy conditions only it knows about: an 802.11 NAV
  update, or an RMAC receiver committing to an MRTS (:meth:`interrupt`).

A notice charges the whole slots elapsed since ``start``, cancels the
expiry event and schedules one real tick at the next slot boundary, so
the protocol's suspend path (state change, trace event, idle wait) runs
at exactly the time the per-slot ticks would have run it.

**Tie rule.** A slot boundary in the same nanosecond as the busy start
counts as an idle slot. The per-slot tick for that boundary was queued
one slot earlier, while every busy source (an arrival start, a tone's
reserved presence position, a NAV-bearing reception, a SIFS response)
is queued less than a slot ahead, so the tick always ran first.

**Same-nanosecond order.** A per-slot tick for boundary T was queued at
T - slot; the countdown queues its tick when it starts (the expiry) or
at the busy notice. Events in one nanosecond run in queue order, so when
the ticks of two nodes land on the same nanosecond they can run in the
other order, and their trace events interleave differently. Each node's
own events and every metric stay the same (the differential tests check
both). Keeping that order in general would need the queue position of
every per-slot tick, the very events this class removes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from repro.sim.engine import EventHandle, FastEvent, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.phy.busytone import BusyToneChannel, ToneType
    from repro.phy.channel import DataChannel
    from repro.phy.radio import Radio


class Backoff:
    """CW/BI bookkeeping shared by RMAC and the 802.11-family protocols."""

    def __init__(self, rng: random.Random, cw_min: int = 31, cw_max: int = 1023):
        if cw_min < 0 or cw_max < cw_min:
            raise ValueError(f"invalid contention window bounds [{cw_min}, {cw_max}]")
        self._rng = rng
        self.cw_min = cw_min
        self.cw_max = cw_max
        self.cw = cw_min
        self.bi = 0
        #: Number of draws performed (instrumentation).
        self.draws = 0

    def draw(self) -> int:
        """Set BI to a uniform random slot count in ``[0, CW]`` and return it."""
        self.bi = self._rng.randint(0, self.cw)
        self.draws += 1
        return self.bi

    def consume(self, n_slots: int) -> None:
        """Count ``n_slots`` idle slots down (clamped at zero)."""
        if n_slots < 0:
            raise ValueError(f"cannot consume {n_slots} slots")
        bi = self.bi - n_slots
        self.bi = bi if bi > 0 else 0

    @property
    def expired(self) -> bool:
        return self.bi == 0

    def double_cw(self) -> None:
        """Exponential increase after a failed transmission."""
        self.cw = min(self.cw_max, 2 * self.cw + 1)

    def reset_cw(self) -> None:
        """Reset after a successful transmission or a frame drop."""
        self.cw = self.cw_min

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Backoff BI={self.bi} CW={self.cw}>"


class BackoffTick(FastEvent):
    """A protocol's tick as a recycled fire-and-forget event.

    One instance per MAC, at most one in flight (the MAC guards it with
    ``_tick_pending``), so scheduling a tick allocates nothing.
    """

    __slots__ = ("mac",)

    label = "backoff-tick"

    def __init__(self, mac) -> None:
        self.mac = mac

    def __call__(self) -> None:
        self.mac._tick()


class SlotCountdown:
    """Counts one node's BI down through an idle medium (module docstring).

    ``tick`` is the protocol's :class:`BackoffTick`; ``tones`` are the
    busy-tone channels the protocol senses in contention besides the
    data channel (RMAC: the RBT channel; the 802.11 family: none).
    Both kinds answer the same carrier-sense calls (``busy``,
    ``notify_idle``, ``notify_busy``, ``cancel_notify_busy``), so the
    countdown and the protocol's idle check sense :attr:`media`.
    """

    def __init__(self, sim: Simulator, radio: "Radio", backoff: Backoff,
                 slot_time: int, tick: BackoffTick,
                 tones: Sequence["BusyToneChannel"] = ()):
        self.sim = sim
        self.node = radio.node_id
        self.backoff = backoff
        self.slot_time = slot_time
        self.tick = tick
        #: The media that suspend the countdown: the data channel, then
        #: the sensed tone channels (see ignore_tone).
        self.media: Tuple[Union["DataChannel", "BusyToneChannel"], ...] = (
            (radio.data_channel,) + tuple(tones))
        #: The running countdown: its first slot boundary, the BI it
        #: started from, and the pending expiry (None when not running).
        self._start = 0
        self._slots = 0
        self._expiry: Optional[EventHandle] = None
        #: One bound method, registered with every notice source.
        self._notice = self.interrupt

    def run(self) -> None:
        """Count the current BI (> 0) down from this slot boundary.

        The caller's tick has just counted the slot at ``now``; the
        countdown covers the slots at ``now + k * slot_time`` for
        ``k = 1 .. BI`` and runs the tick at the last of them.
        """
        sim = self.sim
        now = sim.now
        self._start = now
        self._slots = slots = self.backoff.bi
        self._expiry = sim.at(now + slots * self.slot_time, self._expire,
                              label="backoff-expiry")
        node = self.node
        notice = self._notice
        for medium in self.media:
            medium.notify_busy(node, notice)

    def interrupt(self) -> None:
        """The busy notice: the medium turned busy at ``now``.

        No-op unless a countdown is running. Charges the slots elapsed
        (a boundary at ``now`` counts as idle, the tie rule) and moves
        the next tick to the following slot boundary.
        """
        expiry = self._expiry
        if expiry is None:
            return
        sim = self.sim
        slot = self.slot_time
        elapsed = (sim.now - self._start) // slot
        if elapsed >= self._slots:
            # Busy at the expiry boundary itself: the expiry tick is that
            # boundary's tick and senses the busy medium on its own.
            return
        expiry.cancel()
        self._expiry = None
        self._unsubscribe()
        self.backoff.consume(elapsed)
        sim.schedule_fast(self._start + (elapsed + 1) * slot, self.tick)

    def ignore_tone(self, tone: "ToneType") -> None:
        """Stop sensing ``tone`` in contention.

        Its presence no longer suspends the countdown, and the protocol's
        idle check (which reads :attr:`media`) treats it as silent. This
        is the one way to model a node deaf to a busy tone, e.g. to show
        that RBT is what protects a reception from a hidden node.
        """
        data, *tones = self.media
        for channel in tones:
            if channel.tone is tone:
                channel.cancel_notify_busy(self.node)
        self.media = (data,) + tuple(c for c in tones if c.tone is not tone)

    def _expire(self) -> None:
        self._expiry = None
        self._unsubscribe()
        # Every slot but the last was idle; the tick counts the last one.
        self.backoff.consume(self._slots - 1)
        self.tick()

    def _unsubscribe(self) -> None:
        node = self.node
        for medium in self.media:
            medium.cancel_notify_busy(node)
