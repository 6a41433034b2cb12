"""LBP -- the Leader Based Protocol (Kuri & Kasera, 2001) [extension].

One receiver (here: the first in the request's receiver list, standing in
for the paper's leader-election machinery, whose difficulty the RMAC
paper cites as LBP's drawback) answers on behalf of the group:

* the sender transmits an RTS naming the leader;
* the leader replies CTS, or NCTS when its virtual carrier sense forbids
  the exchange, and an NCTS makes the sender back off;
* the sender broadcasts the DATA; the leader replies ACK, and a node that
  *detected a corrupted copy* replies NAK, deliberately colliding with
  the ACK so the sender retransmits.

The protocol's structural weakness is preserved faithfully: a non-leader
that missed the DATA entirely (never started receiving it) stays silent,
so the sender can believe the multicast succeeded -- LBP trades full
reliability for constant feedback cost, which is exactly the contrast
RMAC's Section 2 draws.

Group membership signalling: real LBP uses a group address, so that a
receiver knows an RTS implicates it. Here the wire format stays standard
802.11 frames and no node tracks membership. Every overheard RTS opens
an exchange window for its sender (``_handle_rts``, ``EXCHANGE_WINDOW``),
a DATA frame from that sender closes it, and a frame error from that
sender inside the window draws exactly one NAK (``on_frame_error``).
"""

from __future__ import annotations

from typing import Optional

from repro.mac.addresses import BROADCAST
from repro.mac.base import SendRequest
from repro.mac.dot11 import Dot11Base
from repro.mac.frames import AckFrame, CtsFrame, DataFrame, NakFrame, NctsFrame, RtsFrame


class LbpProtocol(Dot11Base):
    """Leader Based Protocol."""

    NAME = "lbp"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: src -> expiry of an overheard exchange window (set by an RTS from
        #: src; a frame error from src inside the window draws ONE NAK).
        self._exchange_window: dict[int, int] = {}

    # ==================================================================
    # Sender
    # ==================================================================
    def _attempt(self, request: SendRequest) -> None:
        leader = request.receivers[0]
        self._phase = "rts"
        self._send_frame(RtsFrame(self.node_id, leader), self._on_rts_sent)

    def _handle_cts(self, frame: CtsFrame) -> None:
        if self._phase != "wait-cts" or frame.receiver != self.node_id:
            return
        if frame.transmitter != self._request.receivers[0]:
            return
        self._phase_timer.cancel()
        self._send_data_after_sifs(BROADCAST)  # multicast data: all receivers decode it

    def _handle_ncts(self, frame: NctsFrame) -> None:
        # An explicit NCTS reached us intact: a receiver's channel is busy.
        if self._phase == "wait-cts" and frame.receiver == self.node_id:
            self._attempt_failed()

    def _handle_ack(self, frame: AckFrame) -> None:
        if self._phase != "wait-ack" or frame.receiver != self.node_id:
            return
        if frame.transmitter != self._request.receivers[0]:
            return
        # A clean ACK means the leader succeeded AND no NAK collided.
        self._unit_succeeded()

    def _handle_nak(self, frame: NakFrame) -> None:
        # A NAK that got through intact (no ACK to collide with).
        if self._phase == "wait-ack" and frame.receiver == self.node_id:
            self._attempt_failed()

    # ==================================================================
    # Receiver
    # ==================================================================
    def _handle_rts(self, frame: RtsFrame) -> None:
        # Every overheard RTS opens an exchange window: data from this
        # source is imminent, and a corrupted copy warrants one NAK.
        self._exchange_window[frame.transmitter] = self.sim.now + self.EXCHANGE_WINDOW
        if frame.receiver != self.node_id:
            return
        if self.radio.is_transmitting or self.in_txn:
            return
        if self.nav_until > self.sim.now:
            # LBP's negative channel feedback.
            self._respond_after_sifs(NctsFrame(self.node_id, frame.transmitter))
            return
        self._respond_after_sifs(CtsFrame(self.node_id, frame.transmitter))

    #: How long an overheard RTS keeps the exchange window open: covers
    #: CTS + a full-size data frame + slack.
    EXCHANGE_WINDOW = 10_000_000  # 10 ms

    def _handle_reliable_data(self, frame: DataFrame) -> None:
        if frame.dst != BROADCAST:
            return
        self.stats.count_rx("RDATA")
        self._exchange_window.pop(frame.src, None)
        # The leader (who CTS'd) acknowledges. We approximate leadership
        # locally: a node ACKs iff it sent the CTS for this exchange --
        # tracked by the sender addressing the RTS to it; others stay
        # silent unless they saw corruption (NAK path via on_frame_error).
        if self._expecting_ack_for == frame.src:
            self._expecting_ack_for = None
            self._respond_after_sifs(AckFrame(self.node_id, frame.src))
        self._deliver_data(frame)

    _expecting_ack_for: Optional[int] = None

    def _respond_after_sifs(self, frame: object) -> None:
        if type(frame) is CtsFrame:
            self._expecting_ack_for = frame.receiver
        super()._respond_after_sifs(frame)

    def on_frame_error(self, sender: int) -> None:
        # A corrupted frame from a source with an open exchange window:
        # reply exactly one NAK to force a retransmission. Closing the
        # window here is what prevents NAK<->collision feedback storms.
        expiry = self._exchange_window.pop(sender, None)
        if expiry is not None and self.sim.now <= expiry:
            self._respond_after_sifs(NakFrame(self.node_id, sender))
