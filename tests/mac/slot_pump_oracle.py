"""The per-slot backoff pumps, kept as a test oracle.

Before the event-driven :class:`repro.mac.backoff.SlotCountdown`, each
protocol's tick rescheduled itself every 20 us slot while the medium was
idle: one heap event per idle slot. That is the paper's procedure
(Section 3.3.1) read literally, so it is the reference the countdown
must reproduce bit for bit.

:func:`per_slot_pumps` swaps both ticks -- :class:`RmacProtocol` and
:class:`Dot11Base` (BMMM, BMW, LAMM, LBP, MX and DCF) -- for the
per-slot versions below for the duration of a ``with`` block. A per-slot
tick never starts a countdown, so no busy notice is ever registered and
the countdown's ``interrupt`` calls are no-ops.

Differential tests run a scenario inside and outside the block and
compare ``RunSummary`` metrics and trace streams.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.rmac import RmacProtocol
from repro.core.states import RmacState
from repro.mac.dot11 import Dot11Base
from repro.phy.busytone import ToneType


def rmac_per_slot_tick(self: RmacProtocol) -> None:
    """RMAC's tick, rescheduled every slot while the channels are idle."""
    self._tick_pending = False
    state = self.state
    if state is not RmacState.IDLE and state is not RmacState.BACKOFF:
        return  # a transaction owns the node; it will resume the pump
    rbt = self.radio.tone_channel(ToneType.RBT)
    if not self.radio.data_busy() and not rbt.busy(self.node_id):
        backoff = self.backoff
        bi = backoff.bi
        if bi > 0:
            if state is not RmacState.BACKOFF:
                self._set_state(RmacState.BACKOFF)  # C8
            backoff.bi = bi = bi - 1
        if bi == 0:
            if self._request is not None or self.queue:
                self._start_transmission()
                return
            if self.state is not RmacState.IDLE:
                self._set_state(RmacState.IDLE)  # C9: nothing to send
            return
        if not self._tick_pending:
            self._tick_pending = True
            sim = self.sim
            sim.schedule_fast(sim.now + self.radio.phy.slot_time, self._tick_event)
    else:
        if state is not RmacState.IDLE:
            self._set_state(RmacState.IDLE)  # C9: suspended, BI kept
        if self.backoff.bi > 0 or self._request is not None or self.queue:
            self._wait_for_idle()


def dcf_per_slot_tick(self: Dot11Base) -> None:
    """The 802.11 family's tick, rescheduled every idle slot."""
    self._tick_pending = False
    if self._phase != "idle":
        return
    phy = self.radio.phy
    if self.radio.is_transmitting:  # mid-response; try again next slot
        self._ensure_tick(phy.slot_time)
        return
    if not self.backoff.bi > 0 and not self._has_work():
        return  # nothing pending: pump stops
    if not self._medium_busy():
        idle_for = self._idle_duration()
        if idle_for >= phy.difs:
            if self.backoff.bi > 0:
                self.backoff.bi -= 1
            if self.backoff.bi == 0 and self._has_work():
                self._start_transmission()
                return
            if self.backoff.bi == 0:
                return  # countdown done, nothing to send
            self._ensure_tick(phy.slot_time)
        else:
            self._ensure_tick(max(phy.slot_time, phy.difs - idle_for))
        return
    if self.radio.data_busy():
        if not self._idle_wait_pending:
            self._idle_wait_pending = True
            self.radio.notify_data_idle(self._on_medium_cleared)
    else:
        self._ensure_tick(max(phy.slot_time, self.nav_until - self.sim.now))


@contextmanager
def per_slot_pumps():
    """Run every MAC on the per-slot pumps while the block is active.

    The ticks are looked up when they fire, so the run itself (not just
    the build) must happen inside the block.
    """
    saved = RmacProtocol._tick, Dot11Base._tick
    RmacProtocol._tick = rmac_per_slot_tick
    Dot11Base._tick = dcf_per_slot_tick
    try:
        yield
    finally:
        RmacProtocol._tick, Dot11Base._tick = saved
