"""BMMM -- Batch Mode Multicast MAC (Sun et al., ICPP 2002; paper Fig. 1b).

One reliable transmission of a data frame to ``n`` receivers costs, after
a single contention phase:

    RTS_1/CTS_1 ... RTS_n/CTS_n, DATA, RAK_1/ACK_1 ... RAK_n/ACK_n

all SIFS-separated. RTS and RAK solicit CTS and ACK from each receiver
individually (serializing the feedback -- BMMM's answer to the feedback
collision problem RMAC solves with ordered ABTs). Receivers whose CTS or
ACK never arrived stay in the pending set; the round is repeated after a
backoff with doubled CW, up to the retry limit. Section 2 of the paper
works out the cost: 2n control-frame pairs at 632 n us per data frame.

Design notes (the BMMM paper leaves these open; choices documented here):

* the sender proceeds past a missing CTS after a timeout rather than
  aborting the round, and still RAKs that receiver (it may have caught
  the broadcast data anyway) -- both choices favor BMMM;
* receivers reply CTS to an RTS naming them regardless of NAV, since
  earlier CTS exchanges of the *same* transaction would otherwise block
  every receiver after the first;
* unreliable sends are one-shot broadcasts exactly as in 802.11.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.mac.addresses import BROADCAST
from repro.mac.base import SendRequest
from repro.mac.dot11 import Dot11Base
from repro.mac.frames import (
    AckFrame,
    CtsFrame,
    DataFrame,
    RakFrame,
    RtsFrame,
)
from repro.sim.units import US


#: A sender with no buffered frame and no RTS naming this node.
_NOTHING: Tuple[Optional[DataFrame], bool] = (None, False)


class BmmmProtocol(Dot11Base):
    """Batch Mode Multicast MAC."""

    NAME = "bmmm"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: The round's receivers in RTS (then RAK) order, and the index
        #: of the one being polled. A receiver that ACKs moves from
        #: ``_pending`` to ``_acked`` at once.
        self._round_receivers: List[int] = []
        self._round_index = 0
        #: Receiver side, per sender: the last data frame buffered for a
        #: RAK, and whether an RTS named this node (deliver on arrival).
        self._rx_from: Dict[int, Tuple[Optional[DataFrame], bool]] = {}

    # ==================================================================
    # Sender side
    # ==================================================================
    def _attempt(self, request: SendRequest) -> None:
        # One batch round over the still-pending receivers.
        self._round_receivers = list(self._pending)
        self._round_index = 0
        self._phase = "rts"
        self._send_next_rts()

    # -- RTS/CTS sequence ------------------------------------------------
    def _send_next_rts(self) -> None:
        if self._round_index >= len(self._round_receivers):
            self._phase = "data"
            self.sim.after(self.config.phy.sifs, self._send_data, label="sifs-data")
            return
        receiver = self._round_receivers[self._round_index]
        rts = RtsFrame(self.node_id, receiver, aux=self._nav_remaining_us())
        self._send_frame(rts, self._on_rts_sent)

    def _handle_cts(self, frame: CtsFrame) -> None:
        if self._phase != "wait-cts" or frame.receiver != self.node_id:
            return
        expected = self._round_receivers[self._round_index]
        if frame.transmitter != expected:
            return
        self._phase_timer.cancel()
        self._advance_rts()

    def _advance_rts(self) -> None:
        self._round_index += 1
        if self._round_index < len(self._round_receivers):
            self._phase = "rts"
            self.sim.after(self.config.phy.sifs, self._send_next_rts, label="sifs-rts")
        else:
            self._phase = "data"
            self.sim.after(self.config.phy.sifs, self._send_data, label="sifs-data")

    # -- DATA --------------------------------------------------------------
    def _send_data(self) -> None:
        if self.radio.is_transmitting:  # extremely rare; retry one SIFS later
            self.sim.after(self.config.phy.sifs, self._send_data, label="sifs-data")
            return
        frame = self._data_frame(BROADCAST, reliable=True)
        self.stats.count_tx("RDATA")
        self._send_frame(frame, self._on_data_sent)

    def _on_data_sent(self, frame: object, aborted: bool) -> None:
        self._round_index = 0
        self._phase = "rak"
        self.sim.after(self.config.phy.sifs, self._send_next_rak, label="sifs-rak")

    # -- RAK/ACK sequence ---------------------------------------------------
    def _send_next_rak(self) -> None:
        if self._round_index >= len(self._round_receivers):
            self._finish_round()
            return
        if self.radio.is_transmitting:
            self.sim.after(self.config.phy.sifs, self._send_next_rak, label="sifs-rak")
            return
        receiver = self._round_receivers[self._round_index]
        rak = RakFrame(self.node_id, receiver, aux=self._seq)
        self._send_frame(rak, self._on_rak_sent)

    def _on_rak_sent(self, frame: object, aborted: bool) -> None:
        self._phase = "wait-ack"
        self._phase_timer.start(self.config.response_timeout(AckFrame.SIZE))

    def _handle_ack(self, frame: AckFrame) -> None:
        if self._phase != "wait-ack" or frame.receiver != self.node_id:
            return
        expected = self._round_receivers[self._round_index]
        if frame.transmitter != expected:
            return
        self._phase_timer.cancel()
        self._pending.remove(expected)
        self._acked.append(expected)
        self._advance_rak()

    def _advance_rak(self) -> None:
        self._round_index += 1
        if self._round_index < len(self._round_receivers):
            self._phase = "rak"
            self.sim.after(self.config.phy.sifs, self._send_next_rak, label="sifs-rak")
        else:
            self._finish_round()

    # -- round bookkeeping ---------------------------------------------------
    def _on_phase_timeout(self) -> None:
        if self._phase == "wait-cts":
            self._advance_rts()  # missing CTS: proceed, receiver stays pending
        elif self._phase == "wait-ack":
            self._advance_rak()

    def _finish_round(self) -> None:
        if self._pending:
            self._attempt_failed()  # a retry runs the next round
        else:
            self._unit_succeeded()

    def _nav_remaining_us(self) -> int:
        """Nominal remaining transaction time, for third-party NAVs."""
        phy = self.config.phy
        request = self._request
        n = len(self._round_receivers)
        i = self._round_index
        sifs = phy.sifs
        cts = phy.frame_airtime(CtsFrame.SIZE)
        rts = phy.frame_airtime(RtsFrame.SIZE)
        rak = phy.frame_airtime(RakFrame.SIZE)
        ack = phy.frame_airtime(AckFrame.SIZE)
        data = phy.frame_airtime(request.payload_bytes + self.config.data_overhead)
        remaining = (sifs + cts)  # the CTS answering this RTS
        remaining += (n - i - 1) * (sifs + rts + sifs + cts)
        remaining += sifs + data
        remaining += n * (sifs + rak + sifs + ack)
        return min(0xFFFF, remaining // US)

    # ==================================================================
    # Receiver side
    # ==================================================================
    def _handle_rts(self, frame: RtsFrame) -> None:
        if frame.receiver != self.node_id:
            return
        if self.radio.is_transmitting:
            return
        # Part of a batch transaction: answer regardless of NAV (see
        # module docstring), unless we are mid-transaction ourselves.
        if self.in_txn:
            return
        sender = frame.transmitter
        self._rx_from[sender] = (self._rx_from.get(sender, _NOTHING)[0], True)
        self._respond_after_sifs(CtsFrame(self.node_id, sender))

    def _handle_reliable_data(self, frame: DataFrame) -> None:
        # Broadcast-addressed batch data: buffer it if we expect from this
        # sender (RTS seen), or unconditionally -- a RAK may reveal that we
        # were an intended receiver whose CTS phase failed.
        self.stats.count_rx("RDATA")
        expected = self._rx_from.get(frame.src, _NOTHING)[1]
        self._rx_from[frame.src] = (frame, expected)
        if expected:
            self._deliver_data(frame)

    def _handle_rak(self, frame: RakFrame) -> None:
        if frame.receiver != self.node_id:
            return
        sender = frame.transmitter
        buffered = self._rx_from.get(sender, _NOTHING)[0]
        if buffered is None or buffered.seq != frame.aux:
            return  # nothing to acknowledge: stay silent
        self._respond_after_sifs(AckFrame(self.node_id, sender))
        self._deliver_data(buffered)
        self._rx_from[sender] = (buffered, False)
