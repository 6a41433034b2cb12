"""BMMM: the batch RTS/CTS x n, DATA, RAK/ACK x n transaction."""

import pytest

from repro.mac.bmmm import BmmmProtocol
from repro.mac.dot11 import Dot11Config
from repro.sim.trace import Tracer
from repro.sim.units import MS, US

from tests.conftest import TRIANGLE, collect_upper, make_dot11_testbed


def test_batch_round_structure():
    """One contention phase: n RTS/CTS pairs, one DATA, n RAK/ACK pairs."""
    tb = make_dot11_testbed(TRIANGLE, protocol="bmmm", seed=1,
                            tracer=Tracer(enabled=True))
    rx1 = collect_upper(tb.macs[1])
    rx2 = collect_upper(tb.macs[2])
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "batch", 500, on_complete=outcomes.append)
    tb.run(100 * MS)
    assert rx1 == [("batch", 0)] and rx2 == [("batch", 0)]
    assert outcomes[0].acked == (1, 2)
    stats = tb.macs[0].stats
    assert stats.frames_tx.get("RtsFrame") == 2
    assert stats.frames_tx.get("RakFrame") == 2
    assert stats.frames_tx.get("RDATA") == 1
    assert tb.macs[1].stats.frames_tx.get("CtsFrame") == 1
    assert tb.macs[1].stats.frames_tx.get("AckFrame") == 1
    # Frame order on the air: RTS CTS RTS CTS DATA RAK ACK RAK ACK.
    kinds = [str(e.detail.get("frame", "")).split("(")[0]
             for e in tb.tracer.events if e.kind == "tx-start"]
    assert kinds == ["RTS", "CTS", "RTS", "CTS", "RDATA", "RAK", "ACK", "RAK", "ACK"]


def test_missing_cts_receiver_retried(monkeypatch):
    """A receiver whose CTS phase fails stays pending for the next round
    (unless its ACK arrives anyway via the RAK -- here we block both)."""
    dropped = []
    original_rts = BmmmProtocol._handle_rts
    original_rak = BmmmProtocol._handle_rak

    def deaf_rts(self, frame):
        if self.node_id == 2 and frame.receiver == 2 and "rts" not in dropped:
            dropped.append("rts")
            return
        original_rts(self, frame)

    def deaf_rak(self, frame):
        if self.node_id == 2 and frame.receiver == 2 and "rak" not in dropped:
            dropped.append("rak")
            return
        original_rak(self, frame)

    monkeypatch.setattr(BmmmProtocol, "_handle_rts", deaf_rts)
    monkeypatch.setattr(BmmmProtocol, "_handle_rak", deaf_rak)
    tb = make_dot11_testbed(TRIANGLE, protocol="bmmm", seed=1)
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(300 * MS)
    assert outcomes[0].acked and set(outcomes[0].acked) == {1, 2}
    assert tb.macs[0].stats.retransmissions == 1  # one extra round for node 2


def test_unreachable_receiver_drops_after_rounds():
    tb = make_dot11_testbed([(0, 0), (50, 0), (500, 0)], protocol="bmmm",
                            seed=1, config=Dot11Config(retry_limit=2))
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 300, on_complete=outcomes.append)
    tb.run(400 * MS)
    assert outcomes[0].dropped
    assert outcomes[0].acked == (1,)
    assert outcomes[0].failed == (2,)
    assert tb.macs[0].stats.packets_dropped == 1


def test_no_cts_receiver_still_acked_if_data_heard(monkeypatch):
    """Design note: the sender RAKs even no-CTS receivers; if the data got
    through anyway the ACK completes the receiver in the same round."""
    original_rts = BmmmProtocol._handle_rts
    blocked = []

    def deaf_rts(self, frame):
        if self.node_id == 2:
            blocked.append(1)
            return  # never CTS
        original_rts(self, frame)

    monkeypatch.setattr(BmmmProtocol, "_handle_rts", deaf_rts)
    tb = make_dot11_testbed(TRIANGLE, protocol="bmmm", seed=1)
    rx2 = collect_upper(tb.macs[2])
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(100 * MS)
    assert outcomes[0].acked and 2 in outcomes[0].acked
    assert rx2 == [("pkt", 0)]
    assert tb.macs[0].stats.retransmissions == 0


def test_unreliable_broadcast():
    tb = make_dot11_testbed(TRIANGLE, protocol="bmmm", seed=1)
    rx1 = collect_upper(tb.macs[1])
    tb.macs[0].send_unreliable(-1, "hello", 13)
    tb.run(10 * MS)
    assert rx1 == [("hello", 0)]
    assert tb.macs[0].stats.unreliable_sent == 1


def test_control_overhead_dwarfs_rmac():
    """Sanity: BMMM's per-packet control airtime is far larger than
    RMAC's for the same workload (the paper's Fig. 11 driver)."""
    from tests.conftest import make_rmac_testbed

    tb_b = make_dot11_testbed(TRIANGLE, protocol="bmmm", seed=1)
    tb_r = make_rmac_testbed(TRIANGLE, seed=1)
    for tb in (tb_b, tb_r):
        tb.macs[0].send_reliable((1, 2), "pkt", 500)
        tb.run(100 * MS)
    overhead_b = tb_b.macs[0].stats.overhead_ratio()
    overhead_r = tb_r.macs[0].stats.overhead_ratio()
    assert overhead_b > 3 * overhead_r
