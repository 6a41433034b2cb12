"""IEEE 802.11 DCF machinery and the plain DCF protocol.

This is the substrate the paper's comparison protocols (BMMM, BMW, LBP)
extend, simplified to what their evaluation exercises:

* physical carrier sense plus NAV (virtual carrier sense) from the
  duration field carried in RTS/CTS/DATA frames;
* DIFS deferral, slotted backoff with CW doubling and post-transmission
  backoff;
* SIFS-separated response frames (CTS, ACK) that preempt contention;
* the RTS/CTS/DATA/ACK exchange for reliable unicast and one-shot
  transmission for broadcast.

:class:`Dot11Base` owns contention, NAV, the SIFS responders and the
receiver-side dispatch every family member shares; the request lifecycle
is :class:`~repro.mac.base.MacProtocol`'s. An unreliable request goes
out as one broadcast, and the sender's exchange state is ``_phase``:
any value but ``"idle"`` means the node is in its own transaction
(``in_txn``). A subclass (:class:`Dot11Dcf` here; BMMM, BMW, LAMM, LBP
and MX elsewhere) implements ``_attempt(request)``, one attempt of its
reliable exchange, which sets ``_phase`` before it sends anything, and
the ``_handle_*`` receive hooks it needs (``_handle_mrts`` included:
received frames are dispatched on their exact type). It overrides
``_on_data_sent`` (default: wait for an ACK) or ``_on_phase_timeout``
(default: a missing CTS or ACK fails the attempt) only where its
exchange differs. The building blocks are ``_on_rts_sent`` (wait for a
CTS) and ``_send_data_after_sifs``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.mac.backoff import Backoff, SlotCountdown
from repro.mac.base import MacProtocol, SendRequest
from repro.mac.frames import (
    DOT11_DATA_OVERHEAD,
    AckFrame,
    CtsFrame,
    DataFrame,
    MrtsFrame,
    NakFrame,
    NctsFrame,
    RakFrame,
    RtsFrame,
)
from repro.phy.channel import Transmission
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import NULL_TRACER, Tracer
from repro.sim.units import US

#: Control frame classes whose airtime counts as control overhead. The
#: MAC dispatches on a frame's exact type (no frame class is subclassed).
CONTROL_FRAMES = frozenset(
    (RtsFrame, CtsFrame, AckFrame, RakFrame, NctsFrame, NakFrame, MrtsFrame))


#: Extra slack added to CTS/ACK timeouts beyond SIFS + airtime + 2 tau.
RESPONSE_GUARD = 2 * US


@dataclass(frozen=True)
class Dot11Config:
    """Parameters for the 802.11-family protocols (timing is the PHY's)."""

    #: Retry limit per packet (802.11 short retry limit).
    retry_limit: int = 7
    queue_capacity: Optional[int] = None


class Dot11Base(MacProtocol):
    """Shared DCF machinery: DIFS + backoff contention, NAV, responders."""

    NAME = "dot11-base"
    #: MAC header + FCS bytes on data frames (802.11: 24 + 4).
    DATA_OVERHEAD = DOT11_DATA_OVERHEAD

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        rng: random.Random,
        config: Optional[Dot11Config] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.config = config or Dot11Config()
        super().__init__(
            node_id,
            sim,
            radio,
            queue_capacity=self.config.queue_capacity,
            tracer=tracer,
        )
        phy = radio.phy
        self.backoff = Backoff(rng, phy.cw_min, phy.cw_max)
        self.nav_until: int = 0
        #: The countdown spanning the idle slots between ticks, as in
        #: RMAC. NAV updates reach it through ``interrupt``.
        self.countdown = SlotCountdown(sim, radio, self.backoff, phy.slot_time,
                                       self._tick_event)
        self._phase_timer = Timer(sim, self._on_phase_timeout, "phase")
        self._tx_done_cb: Optional[Callable[[object, bool], None]] = None
        #: last delivered data seq per source (duplicate suppression on
        #: MAC-level retransmissions).
        self._delivered_seq: Dict[int, int] = {}
        #: The sender side's phase of the exchange: anything but
        #: ``"idle"`` means a transaction owns the node.
        self._phase = "idle"

    def response_timeout(self, response_bytes: int) -> int:
        """Timeout armed at the end of the soliciting frame's transmission."""
        phy = self.radio.phy
        return (phy.sifs + phy.frame_airtime(response_bytes)
                + 2 * phy.max_propagation_delay + RESPONSE_GUARD)

    @property
    def in_txn(self) -> bool:
        """Whether the node is in its own transaction (contention won,
        not yet back in contention)."""
        return self._phase != "idle"

    # ==================================================================
    # Contention: DIFS + the backoff tick
    # ==================================================================
    def _medium_busy(self) -> bool:
        return self.radio.data_busy() or self.nav_until > self.sim.now

    def _idle_duration(self) -> int:
        physical = self.radio.data_idle_duration()
        if physical == 0:
            return 0
        virtual = self.sim.now - self.nav_until
        return min(physical, max(0, virtual)) if self.nav_until > 0 else physical

    def _kick(self) -> None:
        if not self._tick_pending and self._phase == "idle":
            # 802.11: immediate access is allowed only if the medium has
            # already been idle for DIFS when the frame arrives; otherwise
            # the station must perform a backoff. Without the draw, sibling
            # receivers forwarding the same multicast all fire at once.
            if self.backoff.bi == 0 and self._idle_duration() < self.radio.phy.difs:
                self.backoff.draw()
            self._tick_pending = True
            sim = self.sim
            sim.schedule_fast(sim.now, self._tick_event)

    def _tick(self) -> None:
        """One slot of DIFS + backoff contention, at a slot boundary."""
        self._tick_pending = False
        if self._phase != "idle":
            return
        phy = self.radio.phy
        if self.radio.is_transmitting:  # mid-response; try again next slot
            self._ensure_tick(phy.slot_time)
            return
        if not self.backoff.bi > 0 and not self._has_work():
            return  # nothing pending: contention stops
        if not self._medium_busy():
            idle_for = self._idle_duration()
            if idle_for >= phy.difs:
                backoff = self.backoff
                if backoff.bi > 0:
                    backoff.consume(1)
                if backoff.bi == 0 and self._has_work():
                    self._start_transmission()
                    return
                if backoff.bi == 0:
                    return  # countdown done, nothing to send
                # The remaining slots: one event at the slot where BI
                # reaches 0, unless a busy notice brings the next tick
                # forward.
                self._tick_pending = True
                self.countdown.run()
            else:
                # Physically idle but inside DIFS: check again right when
                # the DIFS requirement could first be met.
                self._ensure_tick(max(phy.slot_time, phy.difs - idle_for))
            return
        # Medium busy: sleep until the blocking condition lifts instead of
        # polling every slot.
        if self.radio.data_busy():
            if not self._idle_wait_pending:
                self._idle_wait_pending = True
                self.radio.notify_data_idle(self._on_medium_cleared)
        else:
            # Virtual carrier only: the NAV expiry time is known exactly.
            self._ensure_tick(max(phy.slot_time, self.nav_until - self.sim.now))

    def _on_medium_cleared(self) -> None:
        self._idle_wait_pending = False
        if self._phase == "idle" and (self.backoff.bi > 0 or self._has_work()):
            self._ensure_tick(self.radio.phy.slot_time)

    def _enter_contention(self, draw: bool) -> None:
        self._phase = "idle"
        self._phase_timer.cancel()
        if draw:
            self.backoff.draw()
        if self.backoff.bi > 0 or self._has_work():
            self._ensure_tick(self.radio.phy.slot_time)

    # ==================================================================
    # Frame transmission helpers
    # ==================================================================
    def _send_frame(
        self, frame: object, on_sent: Optional[Callable[[object, bool], None]] = None
    ) -> Transmission:
        self._tx_done_cb = on_sent
        tf = type(frame)
        # Data is counted as RDATA/UDATA, MX's announcement as MRTS.
        if tf is not DataFrame and tf is not MrtsFrame:
            self.stats.count_tx(tf.__name__)
        return self.radio.transmit(frame)

    def _respond_after_sifs(self, frame: object) -> None:
        """Queue a SIFS-separated response (CTS/ACK/...). Responses preempt
        contention; if the radio is mid-transmission when the SIFS elapses
        the response is dropped, as on real hardware."""
        self.sim.after(self.radio.phy.sifs, _Responder(self, frame), label="sifs-response")

    def _emit_response(self, frame: object) -> None:
        if self.radio.is_transmitting:
            return
        self._send_frame(frame, None)

    def on_tx_complete(self, frame: object, aborted: bool) -> None:
        tf = type(frame)
        if tf is DataFrame:
            if frame.reliable:
                self.stats.data_tx_time += self.radio.frame_airtime(frame)
        elif tf in CONTROL_FRAMES:
            self.stats.control_tx_time += self.radio.frame_airtime(frame)
        callback = self._tx_done_cb
        self._tx_done_cb = None
        if callback is not None:
            callback(frame, aborted)
        if self._phase == "idle" and (self.backoff.bi > 0 or self._has_work()):
            # e.g. a CTS/ACK response finished while our own traffic waits.
            self._ensure_tick(self.radio.phy.slot_time)

    # ==================================================================
    # Receive path
    # ==================================================================
    def on_frame_received(self, frame: object, sender: int) -> None:
        # Exact-type dispatch, as in RmacProtocol: no frame class is
        # subclassed, and data frames (hellos + payload) dominate.
        tf = type(frame)
        if tf is DataFrame:
            if frame.reliable:
                self._handle_reliable_data(frame)
            else:
                self._handle_unreliable_data(frame)
            return
        if tf is MrtsFrame:
            self._handle_mrts(frame)
            return
        if tf not in CONTROL_FRAMES:
            return
        stats = self.stats
        counts = stats.frames_rx
        name = tf.__name__
        counts[name] = counts.get(name, 0) + 1
        if frame.receiver == self.node_id:
            # R_txoh counts control frames this node spends time
            # *participating* in, not everything it overhears --
            # otherwise dense neighborhoods inflate every node's
            # overhead with other transactions' control traffic.
            stats.control_rx_time += self.radio.frame_airtime(frame)
        elif frame.aux > 0:
            # An overheard control frame's duration field sets the NAV.
            # (BMW's CTS carries an expected seq in ``aux``; it is read
            # as a duration here too.)
            self.nav_until = max(self.nav_until, self.sim.now + frame.aux * US)
            # Virtual carrier sense turned busy: a busy notice.
            self.countdown.interrupt()
        if tf is RtsFrame:
            self._handle_rts(frame)
        elif tf is CtsFrame:
            self._handle_cts(frame)
        elif tf is AckFrame:
            self._handle_ack(frame)
        elif tf is RakFrame:
            self._handle_rak(frame)
        elif tf is NctsFrame:
            self._handle_ncts(frame)
        else:  # NakFrame
            self._handle_nak(frame)

    def _deliver_data(self, frame: DataFrame) -> None:
        """Deliver with duplicate suppression keyed on (src, seq)."""
        if self._delivered_seq.get(frame.src) == frame.seq:
            return
        self._delivered_seq[frame.src] = frame.seq
        self.deliver_up(frame.payload, frame.src)

    # ==================================================================
    # The sender's exchange
    # ==================================================================
    def _send_unreliable(self, frame: DataFrame) -> None:
        self._phase = "tx-bcast"
        self._send_frame(frame, self._on_unreliable_sent)

    def _on_rts_sent(self, frame: object, aborted: bool) -> None:
        self._phase = "wait-cts"
        self._phase_timer.start(self.response_timeout(CtsFrame.SIZE))

    def _send_data_after_sifs(self, dst: int) -> None:
        """Send the reliable data frame to ``dst`` one SIFS from now."""
        data = self._data_frame(dst, reliable=True)
        self._phase = "send-data"
        self.sim.after(
            self.radio.phy.sifs,
            lambda: self._send_frame(data, self._on_data_sent),
            label="sifs-data",
        )

    def _on_data_sent(self, frame: object, aborted: bool) -> None:
        self.stats.count_tx("RDATA")
        self._phase = "wait-ack"
        self._phase_timer.start(self.response_timeout(AckFrame.SIZE))

    def _on_phase_timeout(self) -> None:
        if self._phase in ("wait-cts", "wait-ack"):
            self._attempt_failed()

    # -- receive hooks for subclasses -------------------------------------
    def _handle_mrts(self, frame: MrtsFrame) -> None:
        # RMAC's frame: the 802.11 family counts it and ignores it.
        self.stats.count_rx("MrtsFrame")

    def _handle_rts(self, frame: RtsFrame) -> None:
        pass

    def _handle_cts(self, frame: CtsFrame) -> None:
        pass

    def _handle_ack(self, frame: AckFrame) -> None:
        pass

    def _handle_rak(self, frame: RakFrame) -> None:
        pass

    def _handle_ncts(self, frame: NctsFrame) -> None:
        pass

    def _handle_nak(self, frame: NakFrame) -> None:
        pass

    def _handle_reliable_data(self, frame: DataFrame) -> None:
        pass


class _Responder:
    """Deferred SIFS response."""

    __slots__ = ("mac", "frame")

    def __init__(self, mac: Dot11Base, frame: object):
        self.mac = mac
        self.frame = frame

    def __call__(self) -> None:
        self.mac._emit_response(self.frame)


class Dot11Dcf(Dot11Base):
    """Plain IEEE 802.11 DCF: reliable unicast (RTS/CTS/DATA/ACK) and
    one-shot unreliable unicast/multicast/broadcast.

    Reliable *multicast* requests are rejected -- 802.11 has none; that
    gap is exactly the paper's motivation. Use BMMM/BMW/RMAC for it.
    """

    NAME = "dot11"

    def send_reliable(self, receivers, payload, payload_bytes, on_complete=None):
        if len(tuple(receivers)) != 1:
            raise ValueError("802.11 DCF supports reliable unicast only")
        return super().send_reliable(receivers, payload, payload_bytes, on_complete)

    def _attempt(self, request: SendRequest) -> None:
        self._phase = "tx-rts"
        phy = self.radio.phy
        # NAV covers CTS + DATA + ACK with SIFS gaps.
        nav = (
            3 * phy.sifs
            + phy.frame_airtime(CtsFrame.SIZE)
            + phy.frame_airtime(request.payload_bytes + self.DATA_OVERHEAD)
            + phy.frame_airtime(AckFrame.SIZE)
        )
        rts = RtsFrame(self.node_id, request.receivers[0], aux=min(0xFFFF, nav // US))
        self._send_frame(rts, self._on_rts_sent)

    def _handle_cts(self, frame: CtsFrame) -> None:
        if self._phase != "wait-cts" or frame.receiver != self.node_id:
            return
        self._phase_timer.cancel()
        self._send_data_after_sifs(self._request.receivers[0])

    def _handle_ack(self, frame: AckFrame) -> None:
        if self._phase != "wait-ack" or frame.receiver != self.node_id:
            return
        self._unit_succeeded()

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def _handle_rts(self, frame: RtsFrame) -> None:
        if frame.receiver != self.node_id:
            return
        if self.nav_until > self.sim.now:
            return  # virtual carrier sense forbids the CTS
        if self.radio.is_transmitting or self.in_txn:
            return
        phy = self.radio.phy
        nav = max(0, frame.aux * US - phy.sifs - phy.frame_airtime(CtsFrame.SIZE))
        self._respond_after_sifs(CtsFrame(self.node_id, frame.transmitter, aux=nav // US))

    def _handle_reliable_data(self, frame: DataFrame) -> None:
        if frame.dst != self.node_id:
            return
        self.stats.count_rx("RDATA")
        self._respond_after_sifs(AckFrame(self.node_id, frame.src))
        self._deliver_data(frame)
