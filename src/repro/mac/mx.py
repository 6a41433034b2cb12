"""An 802.11MX-style receiver-initiated busy-tone multicast MAC
(after Gupta, Shankar & Lalwani, ICC 2003) [extension].

The contrast the paper draws in Section 2, reproduced executably:

* sender-initiated RMAC collects *positive* per-receiver feedback (ABTs)
  and can therefore guarantee full reliability;
* receiver-initiated MX uses a single *negative* feedback tone: after the
  multicast announcement (here reusing the MRTS frame as the multicast
  RTS) and the DATA frame, any intended receiver whose copy was corrupted
  raises the NAK tone; silence means success. A receiver that missed the
  announcement entirely never enters the NAK state, so the sender can
  falsely conclude success -- MX's structural reliability gap.

Implementation notes: the NAK tone rides the ABT channel (one
narrow-band tone channel, used negatively); retransmissions repeat the
full announcement + data to the *whole* group, since negative feedback
does not identify who failed.
"""

from __future__ import annotations

from typing import Optional

from repro.mac.addresses import BROADCAST
from repro.mac.base import SendRequest
from repro.mac.dot11 import Dot11Base
from repro.mac.frames import DataFrame, MrtsFrame
from repro.phy.busytone import ToneType
from repro.sim.timers import Timer
from repro.sim.units import US


class MxProtocol(Dot11Base):
    """Receiver-initiated busy-tone NAK multicast."""

    NAME = "mx"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Ends the NAK window, one ``phy.l_abt`` (2 tau + lambda, as for
        #: RMAC's ABT) after the data frame; a NAK pulse lasts as long.
        self._nak_timer = Timer(self.sim, self._on_nak_window_done, "nak-window")
        # Receiver side: the announcing sender whose data frame is due,
        # and the wait for its first bit. While ``_expect_from`` is set,
        # a stopped ``_expect_timer`` means the first bit arrived.
        self._expect_from: Optional[int] = None
        self._expect_timer = Timer(self.sim, self._on_expect_timeout, "mx-expect")

    # ==================================================================
    # Sender
    # ==================================================================
    def _attempt(self, request: SendRequest) -> None:
        announce = MrtsFrame(self.node_id, tuple(request.receivers))
        self._phase = "announce"
        self.stats.count_tx("MRTS")
        self.stats.mrts_transmissions += 1
        self.stats.record_mrts_length(announce.size_bytes)
        self._send_frame(announce, self._on_announce_sent)

    def _on_announce_sent(self, frame: object, aborted: bool) -> None:
        self._send_data_after_sifs(BROADCAST)

    def _on_data_sent(self, frame: object, aborted: bool) -> None:
        self.stats.count_tx("RDATA")
        self._phase = "nak-window"
        self._nak_timer.start(self.radio.phy.l_abt)

    def _on_nak_window_done(self) -> None:
        now = self.sim.now
        phy = self.radio.phy
        nak = (
            self.radio.tone_longest_presence(ToneType.ABT, now - phy.l_abt, now)
            >= phy.cca_time
        )
        self.stats.abt_check_time += phy.l_abt
        if nak:
            self._attempt_failed()
        else:
            # Silence: assume success (including receivers that never heard
            # the announcement -- the reliability gap).
            self._unit_succeeded()

    # ==================================================================
    # Receiver
    # ==================================================================
    def _handle_mrts(self, frame: MrtsFrame) -> None:
        self.stats.count_rx("MRTS")
        if self.node_id in frame.receivers:
            self.stats.control_rx_time += self.radio.frame_airtime(frame)
            if not self.in_txn:
                self._expect_from = frame.transmitter
                # DATA follows after SIFS; generous guard.
                phy = self.radio.phy
                self._expect_timer.start(
                    phy.sifs + 2 * phy.max_propagation_delay + 4 * US
                )

    def on_rx_start(self, sender: int) -> None:
        if self._expect_from is not None:
            self._expect_timer.cancel()  # the first bit: no-op after it

    def _handle_reliable_data(self, frame: DataFrame) -> None:
        if self._expect_from is None or frame.src != self._expect_from:
            return
        self._expect_from = None
        self.stats.count_rx("RDATA")
        self._deliver_data(frame)

    def on_frame_error(self, sender: int) -> None:
        if self._expect_from is not None and not self._expect_timer.running:
            # Corrupted copy: raise the NAK tone.
            self._expect_from = None
            self._nak_pulse()

    def _on_expect_timeout(self) -> None:
        if self._expect_from is not None:
            # Announcement heard but no data started: NAK as well.
            self._expect_from = None
            self._nak_pulse()

    def _nak_pulse(self) -> None:
        channel = self.radio.tone_channel(ToneType.ABT)
        if not channel.is_emitting(self.node_id):
            self.radio.tone_pulse(ToneType.ABT, self.radio.phy.l_abt)
