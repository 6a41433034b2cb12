"""The 802.11MX-style receiver-initiated NAK-tone protocol."""

import pytest

from repro.mac.dot11 import Dot11Config
from repro.mac.mx import MxProtocol
from repro.sim.units import MS, US

from tests.conftest import TRIANGLE, collect_upper, make_dot11_testbed


def test_silence_means_success():
    tb = make_dot11_testbed(TRIANGLE, protocol="mx", seed=1)
    rx1 = collect_upper(tb.macs[1])
    rx2 = collect_upper(tb.macs[2])
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(100 * MS)
    assert rx1 == [("pkt", 0)] and rx2 == [("pkt", 0)]
    assert outcomes[0].acked == (1, 2)
    assert tb.macs[0].stats.retransmissions == 0
    # No frames from the receivers at all: feedback is the (absent) tone.
    assert not tb.macs[1].stats.frames_tx
    assert not tb.macs[2].stats.frames_tx


def test_announcement_counted_once_under_the_receivers_key():
    tb = make_dot11_testbed(TRIANGLE, protocol="mx", seed=1)
    tb.macs[0].send_reliable((1, 2), "pkt", 500)
    tb.run(100 * MS)
    assert tb.macs[0].stats.frames_tx == {"MRTS": 1, "RDATA": 1}
    assert tb.macs[1].stats.frames_rx["MRTS"] == 1


def test_corrupted_copy_draws_nak_tone_and_retransmission(monkeypatch):
    original = MxProtocol._handle_reliable_data
    state = {"corrupted": False}

    def corrupt_once(self, frame):
        if self.node_id == 2 and not state["corrupted"]:
            state["corrupted"] = True
            self.on_frame_error(frame.src)
            return
        original(self, frame)

    monkeypatch.setattr(MxProtocol, "_handle_reliable_data", corrupt_once)
    tb = make_dot11_testbed(TRIANGLE, protocol="mx", seed=1)
    rx2 = collect_upper(tb.macs[2])
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(300 * MS)
    assert tb.macs[0].stats.retransmissions >= 1
    assert rx2 == [("pkt", 0)]
    assert outcomes[0].acked == (1, 2)


def test_missed_announcement_is_silent_loss(monkeypatch):
    """The reliability gap Section 2 describes: a receiver that missed the
    announcement never NAKs, and the sender reports success."""
    original = MxProtocol.on_frame_received

    def deaf_to_mrts(self, frame, sender):
        from repro.mac.frames import MrtsFrame

        if self.node_id == 2 and isinstance(frame, MrtsFrame):
            return
        original(self, frame, sender)

    monkeypatch.setattr(MxProtocol, "on_frame_received", deaf_to_mrts)
    tb = make_dot11_testbed(TRIANGLE, protocol="mx", seed=1)
    rx2 = collect_upper(tb.macs[2])
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(100 * MS)
    assert outcomes[0].acked == (1, 2)  # false success
    assert rx2 == []
    assert tb.macs[0].stats.retransmissions == 0


def test_announcement_without_data_naks(monkeypatch):
    """If the data never follows the announcement, receivers NAK on the
    expectation timeout and the sender retries."""
    tb = make_dot11_testbed(TRIANGLE, protocol="mx", seed=1)
    # Suppress the sender's first data transmission.
    state = {"skipped": False}
    original = MxProtocol._on_announce_sent

    def skip_data_once(self, frame, aborted):
        if not state["skipped"]:
            state["skipped"] = True
            # Pretend the data went out and ended just as the receivers'
            # expectation times out, so their NAK fills the NAK window.
            self._phase = "nak-window"
            phy = self.radio.phy
            expect_timeout = phy.sifs + 2 * phy.max_propagation_delay + 4 * US
            self.sim.after(expect_timeout,
                           lambda: self._nak_timer.start(phy.l_abt))
            return
        original(self, frame, aborted)

    monkeypatch.setattr(MxProtocol, "_on_announce_sent", skip_data_once)
    rx1 = collect_upper(tb.macs[1])
    tb.macs[0].send_reliable((1, 2), "pkt", 500)
    tb.run(300 * MS)
    assert tb.macs[0].stats.retransmissions >= 1
    assert rx1 == [("pkt", 0)]


def test_drop_after_persistent_naks(monkeypatch):
    original = MxProtocol._handle_reliable_data

    def always_corrupt(self, frame):
        if self.node_id == 2:
            self.on_frame_error(frame.src)
            return
        original(self, frame)

    monkeypatch.setattr(MxProtocol, "_handle_reliable_data", always_corrupt)
    tb = make_dot11_testbed(TRIANGLE, protocol="mx", seed=1,
                            config=Dot11Config(retry_limit=2))
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 300, on_complete=outcomes.append)
    tb.run(300 * MS)
    assert outcomes[0].dropped
    assert tb.macs[0].stats.packets_dropped == 1
