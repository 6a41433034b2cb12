"""BMW: round-robin unicasts with overhearing (Fig. 1a)."""

import pytest

from repro.mac.bmw import BmwProtocol
from repro.mac.dot11 import Dot11Config
from repro.sim.units import MS

from tests.conftest import TRIANGLE, collect_upper, make_dot11_testbed


def test_overhearing_skips_redundant_unicasts():
    """Receiver 2 overhears the DATA unicast to receiver 1; its CTS then
    announces the next sequence number and the sender skips its DATA."""
    tb = make_dot11_testbed(TRIANGLE, protocol="bmw", seed=1)
    rx1 = collect_upper(tb.macs[1])
    rx2 = collect_upper(tb.macs[2])
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(100 * MS)
    assert rx1 == [("pkt", 0)] and rx2 == [("pkt", 0)]
    assert outcomes[0].acked == (1, 2)
    stats = tb.macs[0].stats
    assert stats.frames_tx.get("RtsFrame") == 2  # one RTS per receiver
    assert stats.frames_tx.get("RDATA") == 1     # but only ONE data tx


def test_each_unicast_has_contention_phase():
    """Per Fig. 1a every per-receiver unicast is preceded by contention:
    the second RTS is separated from the first exchange by more than SIFS."""
    tb = make_dot11_testbed(TRIANGLE, protocol="bmw", seed=1, trace=True)
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable((1, 2), "pkt", 500))
    tb.run(100 * MS)
    rts_starts = [e.time for e in tb.tracer.events
                  if e.kind == "tx-start" and e.node == 0
                  and str(e.detail.get("frame", "")).startswith("RTS")]
    assert len(rts_starts) == 2


def test_unreachable_receiver_dropped_but_round_continues():
    tb = make_dot11_testbed([(0, 0), (500, 0), (0, 50)], protocol="bmw",
                            seed=1, config=Dot11Config(retry_limit=1))
    rx2 = collect_upper(tb.macs[2])
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 300, on_complete=outcomes.append)
    tb.run(400 * MS)
    assert outcomes[0].failed == (1,)
    assert outcomes[0].acked == (2,)
    assert rx2 == [("pkt", 0)]
    assert tb.macs[0].stats.packets_dropped == 1


def test_promiscuous_delivery_deduplicates():
    """Node 2 overhears the DATA to node 1 and also gets its own skip-CTS
    round -- but the payload is delivered exactly once."""
    tb = make_dot11_testbed(TRIANGLE, protocol="bmw", seed=1)
    rx2 = collect_upper(tb.macs[2])
    tb.macs[0].send_reliable((1, 2), "once", 500)
    tb.run(100 * MS)
    assert rx2 == [("once", 0)]


def test_sequence_numbers_advance_per_packet():
    tb = make_dot11_testbed(TRIANGLE, protocol="bmw", seed=1)
    rx1 = collect_upper(tb.macs[1])
    for i in range(3):
        tb.macs[0].send_reliable((1, 2), f"p{i}", 300)
    tb.run(300 * MS)
    assert [p for p, _ in rx1] == ["p0", "p1", "p2"]
    assert tb.macs[0].stats.packets_delivered == 3


@pytest.mark.parametrize("start_seq", [0xFFFD, 0xFFFF])
def test_overhear_skip_survives_sequence_wrap(start_seq):
    """Across the 16-bit seq wrap each receiver still gets every packet:
    a receiver that last heard 0xFFFF, or never heard the sender, must
    not be taken to hold the first packet after the wrap."""
    tb = make_dot11_testbed(TRIANGLE, protocol="bmw", seed=1)
    tb.macs[0]._seq = start_seq
    rx1 = collect_upper(tb.macs[1])
    rx2 = collect_upper(tb.macs[2])
    outcomes = []
    for i in range(4):
        tb.macs[0].send_reliable((1, 2), f"p{i}", 300,
                                 on_complete=outcomes.append)
    tb.run(400 * MS)
    assert [o.acked for o in outcomes] == [(1, 2)] * 4
    sent = ["p0", "p1", "p2", "p3"]
    assert [p for p, _ in rx1] == sent and [p for p, _ in rx2] == sent
