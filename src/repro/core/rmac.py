"""The RMAC protocol engine (Section 3.3 and the appendix).

One :class:`RmacProtocol` instance runs per node. It implements:

* the backoff procedure of Section 3.3.1 -- BI/CW in slot units, the
  countdown sensing *both* the data channel and the RBT channel each
  slot, suspension without redraw when either is busy, and a backoff
  after every completed transmission or drop;
* the Reliable Send procedure of Section 3.3.2 -- MRTS addressing an
  ordered receiver list, receivers raising RBT and waiting ``Twf_rdata``
  for the first bit of data, the sender waiting ``Twf_rbt`` for RBT,
  collision-free data under RBT protection, ordered ABT response windows,
  and selective retransmission via a reconstructed MRTS;
* abort-on-RBT for MRTS and unreliable data transmissions (steps 3 of
  Sections 3.3.2/3.3.3), the mechanism behind Fig. 13;
* the Unreliable Send procedure of Section 3.3.3;
* the Section 3.4 refinement splitting large receiver sets across
  multiple invocations separated by backoff.

The node state always holds one of the appendix's eight
:class:`~repro.core.states.RmacState` values and every change is checked
against the Fig. 14 transition table.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.core.config import RmacConfig
from repro.core.mrts import build_mrts, split_receivers
from repro.core.states import RmacState, valid_transition
from repro.mac.addresses import BROADCAST
from repro.mac.backoff import Backoff, SlotCountdown
from repro.mac.base import MacProtocol, SendRequest
from repro.mac.frames import RMAC_DATA_OVERHEAD, DataFrame, MrtsFrame
from repro.phy.busytone import ToneType
from repro.phy.channel import Transmission
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import NULL_TRACER, Tracer


class RmacProtocol(MacProtocol):
    """RMAC: reliable + unreliable send over busy tones."""

    NAME = "rmac"
    FRESH_SEQ_PER_UNIT = True
    TRACES_REQUESTS = True
    DATA_OVERHEAD = RMAC_DATA_OVERHEAD

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        rng: random.Random,
        config: Optional[RmacConfig] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.config = config or RmacConfig()
        super().__init__(
            node_id,
            sim,
            radio,
            queue_capacity=self.config.queue_capacity,
            tracer=tracer,
        )
        phy = radio.phy
        self.state = RmacState.IDLE
        self.backoff = Backoff(rng, phy.cw_min, phy.cw_max)

        # Sender-side context.
        self._current_tx: Optional[Transmission] = None
        self._rbt_window_start: int = 0

        # Receiver-side context.
        self._rx_mrts: Optional[MrtsFrame] = None
        self._rx_first_bit = False
        self._twf_rdata = Timer(sim, self._on_twf_rdata_expired, "Twf_rdata")
        self._twf_rbt = Timer(sim, self._on_twf_rbt_expired, "Twf_rbt")

        #: The countdown that spans the idle slots between ticks. It
        #: senses the RBT channel besides the data channel (3.3.1).
        self.countdown = SlotCountdown(
            sim, radio, self.backoff, phy.slot_time, self._tick_event,
            tones=(radio.tone_channel(ToneType.RBT),))

    # ==================================================================
    # State bookkeeping
    # ==================================================================
    def _set_state(self, new: RmacState) -> None:
        if new is self.state:
            return
        assert valid_transition(self.state, new), (
            f"node {self.node_id}: illegal transition {self.state.value} -> {new.value}"
        )
        if self.tracer.enabled:
            # Guarded: enum ``.value`` is a Python-level descriptor call,
            # and state changes are among the most frequent events in a run.
            self.tracer.emit(
                self.sim.now, self.node_id, "state", frm=self.state.value, to=new.value
            )
        self.state = new

    def _channels_idle(self) -> bool:
        """Both the data channel and the RBT channel are idle (3.3.1).

        The tones sensed are the countdown's (see
        :meth:`SlotCountdown.ignore_tone`).
        """
        if self.radio.data_busy():
            return False
        node = self.node_id
        for tone in self.countdown.tones:
            if tone.present(node):
                return False
        return True

    # ==================================================================
    # Contention: the backoff tick (Section 3.3.1)
    # ==================================================================
    def _kick(self) -> None:
        if not self._tick_pending and self.state in (RmacState.IDLE, RmacState.BACKOFF):
            # Backoff condition (1): "a node has a packet to transmit, but
            # either data or RBT channel is busy" invokes the backoff
            # procedure, i.e. draws a fresh BI. A zero idle duration means
            # the channel was busy at this very instant (typically: the
            # packet was handed down at the end of a reception) -- without
            # the draw, sibling receivers of the same multicast would all
            # start forwarding simultaneously and collide forever.
            if self.backoff.bi == 0 and (
                not self._channels_idle() or self.radio.data_idle_duration() == 0
            ):
                self.backoff.draw()
            # C1/C10 allow an immediate transmission when BI is 0 and the
            # channels are idle, so the first tick runs now, not a slot later.
            self._tick_pending = True
            sim = self.sim
            sim.schedule_fast(sim.now, self._tick_event)

    def _tick(self) -> None:
        """One slot of the backoff procedure, at a slot boundary."""
        self._tick_pending = False
        state = self.state
        if state is not RmacState.IDLE and state is not RmacState.BACKOFF:
            return  # a transaction owns the node; it will resume the tick
        if self._channels_idle():
            backoff = self.backoff
            if backoff.bi > 0:
                if state is not RmacState.BACKOFF:
                    self._set_state(RmacState.BACKOFF)  # C8
                backoff.consume(1)
            if backoff.bi == 0:
                if self._request is not None or self.queue:
                    # "When BI counts down to 0, the sender begins frame
                    # transmission immediately."  (C6/C14, or C1/C10.)
                    self._start_transmission()
                    return
                if self.state is not RmacState.IDLE:  # may have just entered BACKOFF
                    self._set_state(RmacState.IDLE)  # C9: nothing to send
                return
            # The remaining slots: one event at the slot where BI reaches
            # 0, unless a busy notice brings the next tick forward.
            self._tick_pending = True
            self.countdown.run()
        else:
            if state is not RmacState.IDLE:
                self._set_state(RmacState.IDLE)  # C9: suspended, BI kept
            # Rather than polling every slot through a multi-millisecond
            # busy period, sleep until the busy channel clears (the
            # channels report the transition exactly), then resume the
            # slotted countdown.
            if self.backoff.bi > 0 or self._request is not None or self.queue:
                self._wait_for_idle()

    def _wait_for_idle(self) -> None:
        if self._idle_wait_pending:
            return
        self._idle_wait_pending = True
        if self.radio.data_busy():
            self.radio.notify_data_idle(self._on_channel_cleared)
        else:
            node = self.node_id
            tone = next(t for t in self.countdown.tones if t.present(node))
            tone.notify_clear(node, self._on_channel_cleared)

    def _on_channel_cleared(self) -> None:
        # One of the two channels cleared; re-run the tick a slot later --
        # the tick re-checks both and re-waits if the other is still busy.
        self._idle_wait_pending = False
        if self.state in (RmacState.IDLE, RmacState.BACKOFF) and (
            self.backoff.bi > 0 or self._has_work()
        ):
            self._ensure_tick(self.radio.phy.slot_time)

    def _enter_contention(self, draw: bool) -> None:
        """Return to IDLE/BACKOFF, optionally invoking the backoff draw."""
        if draw:
            self.backoff.draw()
        if self.backoff.bi > 0 and self._channels_idle():
            self._set_state(RmacState.BACKOFF)
        else:
            self._set_state(RmacState.IDLE)
        if self.backoff.bi > 0 or self._has_work():
            self._ensure_tick(self.radio.phy.slot_time)

    # ------------------------------------------------------------------
    # Reliable Send, sender side (Section 3.3.2)
    # ------------------------------------------------------------------
    def _units_of(self, receivers: Tuple[int, ...]) -> Sequence[Tuple[int, ...]]:
        # Section 3.4: at most max_receivers per MRTS, one invocation each.
        return split_receivers(receivers, self.config.max_receivers)

    def _attempt(self, request: SendRequest) -> None:
        """Send the MRTS naming the unit's receivers not yet confirmed."""
        pending = self._pending
        mrts = build_mrts(self.node_id, pending)
        self._set_state(RmacState.TX_MRTS)  # C10 / C14
        if self.tracer.enabled:
            # Guarded: the tuple() copy is only worth making when traced.
            self.tracer.emit(
                self.sim.now, self.node_id, "mrts-tx",
                receivers=tuple(pending), seq=self._seq, attempt=self._failures + 1,
            )
        self.stats.mrts_transmissions += 1
        self.stats.record_mrts_length(mrts.size_bytes)
        self.stats.count_tx("MRTS")
        self._current_tx = self.radio.transmit(mrts)
        # Step 3: abort if an RBT is detected during the MRTS transmission.
        self.radio.watch_tone(ToneType.RBT, self._on_rbt_detected_during_tx)

    def _on_rbt_detected_during_tx(self, tone: ToneType) -> None:
        if self.state not in (RmacState.TX_MRTS, RmacState.TX_UNRDATA):
            return
        tx = self._current_tx
        if tx is None or self.radio.current_tx() is not tx:
            return
        self.radio.abort(tx)  # on_tx_complete(aborted=True) fires inside

    def _on_twf_rbt_expired(self) -> None:
        assert self.state is RmacState.WF_RBT
        detected = (
            self.radio.tone_longest_presence(
                ToneType.RBT, self._rbt_window_start, self.sim.now
            )
            >= self.radio.phy.cca_time
        )
        if detected:
            # C18: at least one receiver is ready; send the data frame.
            if self.tracer.enabled:
                self.tracer.emit(
                    self.sim.now, self.node_id, "rbt-detected",
                    window_start=self._rbt_window_start,
                )
            frame = self._data_frame(BROADCAST, reliable=True)
            self._set_state(RmacState.TX_RDATA)
            self.stats.count_tx("RDATA")
            if self.tracer.enabled:
                self.tracer.emit(
                    self.sim.now, self.node_id, "rdata-tx",
                    seq=self._seq, n_pending=len(self._pending),
                )
            self._current_tx = self.radio.transmit(frame)
        else:
            # C12/C15: nobody heard the MRTS; back off and retransmit.
            self.tracer.emit(self.sim.now, self.node_id, "no-rbt")
            self._attempt_failed()

    def _begin_abt_check(self, data_tx_end: int) -> None:
        """Cycle ``Twf_abt`` n times; evaluate every window at the end.

        The sender is passive throughout WF_ABT, so a single event at the
        end of the last window that inspects each window's tone-presence
        history is equivalent to the paper's per-window timer cycling.
        """
        n = len(self._pending)
        end = data_tx_end + n * self.radio.phy.l_abt
        self.sim.at(end, self._on_abt_windows_done, label="Twf_abt")

    def _on_abt_windows_done(self) -> None:
        assert self.state is RmacState.WF_ABT
        pending = self._pending
        n = len(pending)
        phy = self.radio.phy
        l_abt = phy.l_abt
        start = self.sim.now - n * l_abt
        self.stats.abt_check_time += n * l_abt
        still_pending: List[int] = []
        for i, receiver in enumerate(pending):
            t0 = start + i * l_abt
            t1 = t0 + l_abt
            presence = self.radio.tone_longest_presence(ToneType.ABT, t0, t1)
            if presence >= phy.cca_time:
                self._acked.append(receiver)
                self.tracer.emit(self.sim.now, self.node_id, "abt-heard", receiver=receiver)
            else:
                still_pending.append(receiver)
        self._pending = still_pending
        if not still_pending:
            self._unit_succeeded()
        else:
            self.tracer.emit(
                self.sim.now, self.node_id, "abt-missing", receivers=tuple(still_pending)
            )
            self._attempt_failed()

    # ------------------------------------------------------------------
    # Unreliable Send (Section 3.3.3)
    # ------------------------------------------------------------------
    def _send_unreliable(self, frame: DataFrame) -> None:
        self._set_state(RmacState.TX_UNRDATA)  # C1 / C6
        self._current_tx = self.radio.transmit(frame)
        # Step 2 of 3.3.3: abort if RBT is sensed during the transmission.
        self.radio.watch_tone(ToneType.RBT, self._on_rbt_detected_during_tx)

    # ==================================================================
    # Radio callbacks
    # ==================================================================
    def on_tx_complete(self, frame: object, aborted: bool) -> None:
        tx = self._current_tx
        self._current_tx = None
        duration = (tx.end - tx.start) if tx is not None else 0
        if isinstance(frame, MrtsFrame):
            self.radio.unwatch_tone(ToneType.RBT)
            self.stats.control_tx_time += duration
            if aborted:
                # C11: abortion counts as a failed attempt and retransmits.
                self.stats.mrts_aborted += 1
                self.tracer.emit(self.sim.now, self.node_id, "mrts-abort")
                self._attempt_failed()
            else:
                self._set_state(RmacState.WF_RBT)  # C17
                self._rbt_window_start = self.sim.now
                self._twf_rbt.start(self.radio.phy.l_abt)  # 2 tau + lambda
        elif isinstance(frame, DataFrame) and frame.reliable:
            self.stats.data_tx_time += duration
            self._set_state(RmacState.WF_ABT)  # C19
            self._begin_abt_check(self.sim.now)
        elif isinstance(frame, DataFrame):
            self.radio.unwatch_tone(ToneType.RBT)
            # C2/C5 with the condition-(3) backoff draw.
            self._on_unreliable_sent(frame, aborted)

    def on_rx_start(self, sender: int) -> None:
        if self.state is RmacState.WF_RDATA and not self._rx_first_bit:
            # "If the first bit of the data frame arrives before Twf_rdata
            # expires, it cancels the timer and the RBT continues until the
            # end of the data frame reception."
            self._rx_first_bit = True
            self._twf_rdata.cancel()

    def on_frame_received(self, frame: object, sender: int) -> None:
        # Exact-type checks: DataFrame (hellos + payload traffic)
        # dominates receptions, and neither frame class is subclassed.
        tf = type(frame)
        if tf is DataFrame:
            if frame.reliable:
                self._handle_reliable_data(frame)
            else:
                self._handle_unreliable_data(frame)
        elif tf is MrtsFrame:
            self.stats.count_rx("MRTS")
            if self.node_id in frame.receivers:
                # Only MRTSs naming this node count toward its R_txoh
                # (overheard MRTSs belong to other transactions).
                self.stats.control_rx_time += self.radio.frame_airtime(frame)
            self._handle_mrts(frame)

    def on_frame_error(self, sender: int) -> None:
        if self.state is RmacState.WF_RDATA and self._rx_first_bit:
            # The protected data frame was corrupted anyway (e.g. truncated
            # by an aborting neighbor); give up, no ABT.
            self.tracer.emit(self.sim.now, self.node_id, "rdata-error")
            self._receiver_finish(success=False)

    # ------------------------------------------------------------------
    # Reliable Send, receiver side
    # ------------------------------------------------------------------
    def _handle_mrts(self, mrts: MrtsFrame) -> None:
        if self.node_id not in mrts.receivers:
            return  # no NAV in RMAC: other nodes simply ignore the MRTS
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, self.node_id, "mrts-rx",
                src=mrts.transmitter, index=mrts.index_of(self.node_id),
            )
        if self.state not in (RmacState.IDLE, RmacState.BACKOFF):
            return  # busy as a sender or already committed as a receiver
        self._rx_mrts = mrts
        self._rx_first_bit = False
        # Committing ends contention: settle a running countdown so BI
        # holds exactly the slots counted before the commitment.
        self.countdown.interrupt()
        self._set_state(RmacState.WF_RDATA)  # C3
        self.radio.tone_on(ToneType.RBT)
        self.tracer.emit(self.sim.now, self.node_id, "rbt-on-rx",
                         index=mrts.index_of(self.node_id))
        # |Twf_rdata| = 2 tau + lambda plus the guard (see RmacConfig).
        self._twf_rdata.start(self.radio.phy.l_abt + self.config.rdata_guard)

    def _on_twf_rdata_expired(self) -> None:
        assert self.state is RmacState.WF_RDATA
        self.tracer.emit(self.sim.now, self.node_id, "rdata-timeout")
        self._receiver_finish(success=False)

    def _handle_reliable_data(self, frame: DataFrame) -> None:
        if self.state is not RmacState.WF_RDATA:
            return  # overheard reliable data we are not a receiver of
        mrts = self._rx_mrts
        assert mrts is not None
        if frame.src != mrts.transmitter:
            # Protected window violated by a foreign reliable frame; the
            # expected frame is gone. Give up without acknowledging.
            self._receiver_finish(success=False)
            return
        self.stats.count_rx("RDATA")
        index = mrts.index_of(self.node_id)
        l_abt = self.radio.phy.l_abt
        # Step 4: reply an ABT in the slot given by the MRTS ordering.
        delay = index * l_abt
        self.tracer.emit(
            self.sim.now, self.node_id, "abt-scheduled",
            index=index, src=frame.src, slot_end=self.sim.now + delay + l_abt,
        )
        pulse = _AbtPulse(self.radio, l_abt)
        if delay == 0:
            pulse()
        else:
            self.sim.after(delay, pulse, label="Ttx_abt")
        self._receiver_finish(success=True)
        self.deliver_up(frame.payload, frame.src)

    def _receiver_finish(self, success: bool) -> None:
        self._twf_rdata.cancel()
        if self.radio.tone_emitting(ToneType.RBT):
            self.radio.tone_off(ToneType.RBT)
        self._rx_mrts = None
        self._rx_first_bit = False
        # C4/C7: back to contention; BI is kept (receiving is not a
        # transmission, so no new backoff draw).
        self._enter_contention(draw=False)


class _AbtPulse:
    """Deferred ABT pulse (bound callable, cheaper than a closure)."""

    __slots__ = ("radio", "duration")

    def __init__(self, radio: Radio, duration: int):
        self.radio = radio
        self.duration = duration

    def __call__(self) -> None:
        # A pathological overlap of transactions could leave the previous
        # pulse still on; skipping (rather than crashing) loses one ABT,
        # which the sender treats as a missing acknowledgment and retries.
        if not self.radio.tone_emitting(ToneType.ABT):
            self.radio.tone_pulse(ToneType.ABT, self.duration)
