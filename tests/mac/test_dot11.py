"""IEEE 802.11 DCF: RTS/CTS/DATA/ACK unicast, NAV, broadcast."""

import pytest

from repro.mac.dot11 import Dot11Config
from repro.sim.trace import Tracer
from repro.sim.units import MS, US

from tests.conftest import CHAIN, TRIANGLE, collect_upper, make_dot11_testbed


def test_reliable_unicast_full_handshake():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    rx1 = collect_upper(tb.macs[1])
    outcomes = []
    tb.macs[0].send_reliable((1,), "uni", 500, on_complete=outcomes.append)
    tb.run(50 * MS)
    assert rx1 == [("uni", 0)]
    assert outcomes[0].acked == (1,) and not outcomes[0].dropped
    stats = tb.macs[0].stats
    assert stats.frames_tx.get("RtsFrame") == 1
    assert stats.packets_delivered == 1
    assert tb.macs[1].stats.frames_tx.get("CtsFrame") == 1
    assert tb.macs[1].stats.frames_tx.get("AckFrame") == 1


def test_handshake_sifs_timing():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1,
                            tracer=Tracer(enabled=True))
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable((1,), "uni", 100))
    tb.run(50 * MS)
    starts = [e for e in tb.tracer.events if e.kind == "tx-start"]
    rts, cts, data, ack = starts[:4]
    phy = tb.phy
    # CTS starts one SIFS after the RTS arrives (plus propagation).
    assert cts.time - (rts.time + phy.frame_airtime(20)) == pytest.approx(
        phy.sifs, abs=1 * US)
    assert ack.time > data.time


def test_reliable_multicast_rejected():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    with pytest.raises(ValueError):
        tb.macs[0].send_reliable((1, 2), "multi", 100)


def test_unicast_retry_and_drop_when_unreachable():
    tb = make_dot11_testbed([(0, 0), (500, 0)], protocol="dot11", seed=1,
                            config=Dot11Config(retry_limit=2))
    outcomes = []
    tb.macs[0].send_reliable((1,), "lost", 100, on_complete=outcomes.append)
    tb.run(200 * MS)
    assert outcomes[0].dropped
    stats = tb.macs[0].stats
    assert stats.packets_dropped == 1
    assert stats.frames_tx.get("RtsFrame") == 3  # initial + 2 retries
    assert stats.retransmissions == 2


def test_unreliable_broadcast_reaches_all(triangle=TRIANGLE):
    tb = make_dot11_testbed(triangle, protocol="dot11", seed=1)
    rx1 = collect_upper(tb.macs[1])
    rx2 = collect_upper(tb.macs[2])
    tb.macs[0].send_unreliable(-1, "hello", 13)
    tb.run(10 * MS)
    assert rx1 == [("hello", 0)] and rx2 == [("hello", 0)]


def test_nav_defers_third_party():
    """Node 2 (in range of both) overhears the RTS and defers via NAV."""
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1,
                            tracer=Tracer(enabled=True))
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable((1,), "uni", 1000))
    # 2 queues a broadcast right after the RTS goes out.
    tb.sim.at(1 * MS + 210 * US, lambda: tb.macs[2].send_unreliable(-1, "b", 50))
    tb.run(100 * MS)
    starts = [e for e in tb.tracer.events if e.kind == "tx-start"]
    ack_end = [e for e in tb.tracer.events if e.kind == "tx-end"
               and "ACK" in str(e.detail.get("frame", ""))]
    two_tx = [e for e in starts if e.node == 2]
    assert two_tx and ack_end
    # 2's transmission waited for the whole protected exchange.
    assert two_tx[0].time > ack_end[0].time
    assert tb.macs[0].stats.retransmissions == 0


def test_duplicate_data_suppressed_on_retransmission(monkeypatch):
    """If the ACK is lost the sender retries; the receiver re-ACKs but
    delivers once."""
    from repro.mac.dot11 import Dot11Dcf

    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    rx1 = collect_upper(tb.macs[1])
    dropped = []
    original = Dot11Dcf._handle_ack

    def drop_first_ack(self, frame):
        if self.node_id == 0 and not dropped:
            dropped.append(frame)
            return
        original(self, frame)

    monkeypatch.setattr(Dot11Dcf, "_handle_ack", drop_first_ack)
    outcomes = []
    tb.macs[0].send_reliable((1,), "dup?", 300, on_complete=outcomes.append)
    tb.run(200 * MS)
    assert rx1 == [("dup?", 0)]  # delivered exactly once
    assert outcomes[0].acked == (1,)
    assert tb.macs[0].stats.retransmissions == 1


def test_hidden_terminal_rts_cts_helps():
    """In the 0-1-2 chain, 2 hears 1's CTS and defers."""
    tb = make_dot11_testbed(CHAIN[:3], protocol="dot11", seed=4)
    rx1 = collect_upper(tb.macs[1])
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable((1,), "pkt", 1000))
    tb.sim.at(2 * MS, lambda: tb.macs[2].send_unreliable(-1, "x", 1000))
    tb.run(100 * MS)
    assert ("pkt", 0) in rx1
