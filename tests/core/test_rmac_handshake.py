"""The Reliable Send handshake of Section 3.3.2 on small topologies."""

import pytest

from repro.core import RmacConfig
from repro.core.states import RmacState
from repro.phy.busytone import ToneType
from repro.sim.trace import Tracer
from repro.sim.units import MS, US

from tests.conftest import TRIANGLE, collect_upper, make_rmac_testbed


def test_multicast_two_receivers_delivers_and_acks(triangle_rmac):
    tb = triangle_rmac
    rx1 = collect_upper(tb.macs[1])
    rx2 = collect_upper(tb.macs[2])
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(50 * MS)
    assert rx1 == [("pkt", 0)] and rx2 == [("pkt", 0)]
    assert outcomes[0].acked == (1, 2)
    assert outcomes[0].failed == () and not outcomes[0].dropped
    stats = tb.macs[0].stats
    assert stats.packets_offered == 1
    assert stats.packets_delivered == 1
    assert stats.retransmissions == 0
    assert stats.mrts_transmissions == 1


def test_reliable_unicast_is_single_receiver_multicast(triangle_rmac):
    tb = triangle_rmac
    rx1 = collect_upper(tb.macs[1])
    outcomes = []
    tb.macs[0].send_reliable((1,), "uni", 100, on_complete=outcomes.append)
    tb.run(50 * MS)
    assert rx1 == [("uni", 0)]
    assert outcomes[0].acked == (1,)
    # MRTS for one receiver: 18 bytes.
    assert tb.macs[0].stats.mrts_lengths == {18: 1}


def test_reliable_broadcast_uses_all_neighbors(triangle_rmac):
    tb = triangle_rmac
    rx1 = collect_upper(tb.macs[1])
    rx2 = collect_upper(tb.macs[2])
    tb.macs[0].send_reliable((1, 2), "bcast", 200)
    tb.run(50 * MS)
    assert rx1 and rx2


def test_handshake_timing_matches_fig4():
    """MRTS airtime, Twf_rbt = 17 us, data, then n ABT windows."""
    tb = make_rmac_testbed(TRIANGLE, seed=5, tracer=Tracer(enabled=True))
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(50 * MS)
    trace = {e.kind: e.time for e in tb.tracer.for_node(0) if e.kind == "tx-start"}
    starts = [e for e in tb.tracer.events if e.kind == "tx-start" and e.node == 0]
    mrts_start = starts[0].time
    data_start = starts[1].time
    # MRTS(24 B) airtime = 96 + 96 = 192 us; data follows Twf_rbt later.
    assert data_start - mrts_start == 192 * US + 17 * US
    # Completion: data(522 B -> 2184 us) + 2 ABT windows of 17 us.
    assert outcomes[0].completed_at == data_start + 2184 * US + 2 * 17 * US


def test_receivers_hold_rbt_during_data():
    tb = make_rmac_testbed(TRIANGLE, seed=5)
    tb.macs[0].send_reliable((1, 2), "pkt", 500)
    seen = {}
    # During the data frame (which starts at ~209 us), receivers emit RBT.
    tb.sim.at(1 * MS, lambda: seen.update(
        rbt1=tb.radios[1].tone_emitting(ToneType.RBT),
        rbt2=tb.radios[2].tone_emitting(ToneType.RBT),
        sender_state=tb.macs[0].state,
    ))
    tb.run(50 * MS)
    assert seen["rbt1"] and seen["rbt2"]
    assert seen["sender_state"] is RmacState.TX_RDATA
    # All tones released at the end.
    assert not tb.radios[1].tone_emitting(ToneType.RBT)
    assert not tb.radios[2].tone_emitting(ToneType.RBT)


def test_abt_order_follows_mrts_sequence():
    tb = make_rmac_testbed(TRIANGLE, seed=5, tracer=Tracer(enabled=True))
    tb.macs[0].send_reliable((2, 1), "pkt", 500)  # note: 2 first
    tb.run(50 * MS)
    abt_ons = [e for e in tb.tracer.events if e.kind == "abt-on"]
    assert [e.node for e in abt_ons] == [2, 1]
    assert abt_ons[1].time - abt_ons[0].time == 17 * US


def test_unreliable_broadcast_one_shot(triangle_rmac):
    tb = triangle_rmac
    rx1 = collect_upper(tb.macs[1])
    rx2 = collect_upper(tb.macs[2])
    tb.macs[0].send_unreliable(-1, "hello", 13)
    tb.run(10 * MS)
    assert rx1 == [("hello", 0)] and rx2 == [("hello", 0)]
    assert tb.macs[0].stats.unreliable_sent == 1
    assert tb.macs[0].stats.mrts_transmissions == 0


def test_unreliable_unicast_filtered_by_address(triangle_rmac):
    tb = triangle_rmac
    rx1 = collect_upper(tb.macs[1])
    rx2 = collect_upper(tb.macs[2])
    tb.macs[0].send_unreliable(1, "just-for-1", 13)
    tb.run(10 * MS)
    assert rx1 == [("just-for-1", 0)]
    assert rx2 == []


class _GroupPayload:
    def __init__(self, group):
        self.group = group


def test_unreliable_multicast_group_membership(triangle_rmac):
    tb = triangle_rmac
    rx1 = collect_upper(tb.macs[1])
    rx2 = collect_upper(tb.macs[2])
    tb.macs[1].multicast_groups.add(42)
    payload = _GroupPayload(42)
    tb.macs[0].send_unreliable(-2, payload, 13)  # MULTICAST_FLAG
    tb.run(10 * MS)
    assert rx1 == [(payload, 0)]
    assert rx2 == []


def test_fifo_across_mixed_traffic(triangle_rmac):
    tb = triangle_rmac
    rx1 = collect_upper(tb.macs[1])
    tb.macs[0].send_reliable((1,), "first", 100)
    tb.macs[0].send_unreliable(1, "second", 13)
    tb.macs[0].send_reliable((1,), "third", 100)
    tb.run(100 * MS)
    assert [p for p, _ in rx1] == ["first", "second", "third"]


def test_sequential_packets_each_complete(triangle_rmac):
    tb = triangle_rmac
    rx2 = collect_upper(tb.macs[2])
    outcomes = []
    for i in range(5):
        tb.macs[0].send_reliable((1, 2), f"p{i}", 500, on_complete=outcomes.append)
    tb.run(200 * MS)
    assert [p for p, _ in rx2] == [f"p{i}" for i in range(5)]
    assert len(outcomes) == 5
    assert all(o.acked == (1, 2) for o in outcomes)
    assert tb.macs[0].stats.packets_delivered == 5
