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
* a missing CTS/ACK retries the same receiver after backoff with CW
  doubling; at the retry limit that receiver is marked failed and the
  round-robin continues -- this sequencing is what produces the
  arbitrarily long per-receiver delays the paper criticizes in Section 2.

The full BMW queue/window machinery (receivers requesting old sequence
numbers) collapses in this workload to the overhear-skip above, because
the network layer hands the MAC one packet at a time.
"""

from __future__ import annotations

from typing import Dict, List

from repro.mac.base import SendRequest
from repro.mac.dot11 import Dot11Base
from repro.mac.frames import AckFrame, CtsFrame, DataFrame, RtsFrame


class BmwProtocol(Dot11Base):
    """Broadcast Medium Window."""

    NAME = "bmw"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pending: List[int] = []
        self._acked: List[int] = []
        self._failed: List[int] = []
        #: receiver side: last seq heard per sender (for the CTS field).
        self._last_seen: Dict[int, int] = {}

    # ==================================================================
    # Sender
    # ==================================================================
    def _new_request(self, request: SendRequest) -> None:
        if self._seq == 0:  # reserved: a CTS announcing 1 never heard us
            self._seq = 1
        self._pending = list(request.receivers)
        self._acked = []
        self._failed = []

    def _attempt(self, request: SendRequest) -> None:
        # One unicast to the head of the round-robin; a repeat to the
        # same receiver is a retransmission.
        if self._failures > 0:
            self.stats.retransmissions += 1
        self._phase = "rts"
        self._send_frame(RtsFrame(self.node_id, self._pending[0]), self._on_rts_sent)

    def _handle_cts(self, frame: CtsFrame) -> None:
        if self._phase != "wait-cts" or frame.receiver != self.node_id:
            return
        if not self._pending or frame.transmitter != self._pending[0]:
            return
        self._phase_timer.cancel()
        if frame.aux == (self._seq + 1) & 0xFFFF:
            # Receiver already overheard this frame: skip the DATA.
            self._receiver_done(acked=True)
            return
        self._send_data_after_sifs(self._pending[0])

    def _handle_ack(self, frame: AckFrame) -> None:
        if self._phase != "wait-ack" or frame.receiver != self.node_id:
            return
        if not self._pending or frame.transmitter != self._pending[0]:
            return
        self._phase_timer.cancel()
        self._receiver_done(acked=True)

    def _on_phase_timeout(self) -> None:
        if self._phase not in ("wait-cts", "wait-ack"):
            return
        self._failures += 1
        if self._failures > self.config.retry_limit:
            self._receiver_done(acked=False)
        else:
            self._retry()  # back off, then retry the same receiver

    def _receiver_done(self, acked: bool) -> None:
        target = self._pending.pop(0)
        if acked:
            self._acked.append(target)
        else:
            if not self._failed:  # the packet's first failed receiver
                self.stats.packets_dropped += 1
            self._failed.append(target)
        self._failures = 0
        self.backoff.reset_cw()
        self._phase = "idle"
        if self._pending:
            self._end_txn()  # contention phase before the next unicast
        else:
            self._finish()

    def _finish(self) -> None:
        failed = tuple(self._failed)
        if not failed:
            self.stats.packets_delivered += 1
        self._finish_request(acked=tuple(self._acked), failed=failed, dropped=bool(failed))

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
