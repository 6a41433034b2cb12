"""BMW -- Broadcast Medium Window (Tang & Gerla, MILCOM 2001; Fig. 1a).

Reliable broadcast realized as one RTS/CTS/DATA/ACK *unicast per
receiver*, each preceded by its own contention phase, while the other
receivers try to overhear the DATA frame:

* the CTS carries the receiver's next expected sequence number (``aux``,
  the last seq it heard from the sender plus one, modulo 2^16); if the
  receiver already overheard the current frame the sender skips the
  DATA/ACK and moves to the next receiver -- BMW's saving. Seq 0 stands
  for "never heard", so a sender's seq runs 1..0xFFFF and skips 0 when
  it wraps;
* every node delivers overheard reliable DATA promiscuously (with
  duplicate suppression), since the frame is meant for the whole
  neighborhood;
* each receiver is one unit of the request's lifecycle
  (:class:`~repro.mac.base.MacProtocol`): a missing CTS/ACK retries the
  same receiver after backoff with CW doubling; at the retry limit that
  receiver is marked failed and the round-robin continues -- this
  sequencing is what produces the arbitrarily long per-receiver delays
  the paper criticizes in Section 2.

The full BMW queue/window machinery (receivers requesting old sequence
numbers) collapses in this workload to the overhear-skip above, because
the network layer hands the MAC one packet at a time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.mac.base import SendRequest
from repro.mac.dot11 import Dot11Base
from repro.mac.frames import AckFrame, CtsFrame, DataFrame, RtsFrame


class BmwProtocol(Dot11Base):
    """Broadcast Medium Window."""

    NAME = "bmw"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: receiver side: last seq heard per sender (for the CTS field).
        self._last_seen: Dict[int, int] = {}

    # ==================================================================
    # Sender
    # ==================================================================
    def _next_seq(self) -> int:
        # 1..0xFFFF: seq 0 is reserved, a CTS announcing 1 never heard us.
        self._seq = self._seq % 0xFFFF + 1
        return self._seq

    def _units_of(self, receivers: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        return [(receiver,) for receiver in receivers]

    def _attempt(self, request: SendRequest) -> None:
        # One unicast to the receiver in service.
        self._phase = "rts"
        self._send_frame(RtsFrame(self.node_id, self._pending[0]), self._on_rts_sent)

    def _handle_cts(self, frame: CtsFrame) -> None:
        if self._phase != "wait-cts" or frame.receiver != self.node_id:
            return
        if frame.transmitter != self._pending[0]:
            return
        self._phase_timer.cancel()
        if frame.aux == (self._seq + 1) & 0xFFFF:
            # Receiver already overheard this frame: skip the DATA.
            self._unit_succeeded()
            return
        self._send_data_after_sifs(self._pending[0])

    def _handle_ack(self, frame: AckFrame) -> None:
        if self._phase != "wait-ack" or frame.receiver != self.node_id:
            return
        if frame.transmitter != self._pending[0]:
            return
        self._phase_timer.cancel()
        self._unit_succeeded()

    # ==================================================================
    # Receiver
    # ==================================================================
    def _handle_rts(self, frame: RtsFrame) -> None:
        if frame.receiver != self.node_id:
            return
        if self.radio.is_transmitting or self.in_txn:
            return
        next_expected = (self._last_seen.get(frame.transmitter, 0) + 1) & 0xFFFF
        self._respond_after_sifs(
            CtsFrame(self.node_id, frame.transmitter, aux=next_expected)
        )

    def _handle_reliable_data(self, frame: DataFrame) -> None:
        # Promiscuous: BMW data is broadcast content riding in a unicast.
        self.stats.count_rx("RDATA")
        # A sender's seqs only move forward, so the last one heard is the
        # newest, across the 16-bit wrap too.
        self._last_seen[frame.src] = frame.seq
        if frame.dst == self.node_id:
            self._respond_after_sifs(AckFrame(self.node_id, frame.src))
        self._deliver_data(frame)
