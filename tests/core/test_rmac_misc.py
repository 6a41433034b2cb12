"""Odds and ends of the RMAC engine: wraparound, tracing, edge guards."""

import pytest

from repro.core import RmacConfig, RmacProtocol
from repro.core.states import RmacState
from repro.phy.busytone import ToneType
from repro.sim.trace import Tracer
from repro.sim.units import MS, US

from tests.conftest import TRIANGLE, collect_upper, make_rmac_testbed


def test_sequence_numbers_wrap_at_16_bits():
    tb = make_rmac_testbed(TRIANGLE, seed=1)
    mac = tb.macs[0]
    mac._seq = 0xFFFE
    assert mac._next_seq() == 0xFFFF
    assert mac._next_seq() == 0
    assert mac._next_seq() == 1


def test_state_trace_emitted_when_enabled():
    tb = make_rmac_testbed(TRIANGLE, seed=1, tracer=Tracer(enabled=True))
    tb.macs[0].send_reliable((1,), "pkt", 100)
    tb.run(20 * MS)
    states = [e for e in tb.tracer.events if e.kind == "state" and e.node == 0]
    transitions = [(e.detail["frm"], e.detail["to"]) for e in states]
    assert ("IDLE", "TX_MRTS") in transitions or ("BACKOFF", "TX_MRTS") in transitions
    assert ("TX_MRTS", "WF_RBT") in transitions
    assert ("TX_RDATA", "WF_ABT") in transitions


def test_mrts_for_unknown_node_ignored_silently():
    tb = make_rmac_testbed(TRIANGLE, seed=1)
    from repro.mac.frames import MrtsFrame

    # An MRTS naming only node 9 (not present): nodes 1/2 must not react.
    tb.macs[1].on_frame_received(MrtsFrame(0, (9,)), 0)
    assert tb.macs[1].state is RmacState.IDLE
    assert not tb.radios[1].tone_emitting(ToneType.RBT)


def test_overheard_reliable_data_not_delivered():
    """Only ABT-ing receivers consume reliable data; bystanders ignore it."""
    tb = make_rmac_testbed(TRIANGLE, seed=1)
    rx2 = collect_upper(tb.macs[2])
    tb.macs[0].send_reliable((1,), "only-for-1", 200)
    tb.run(50 * MS)
    assert rx2 == []  # node 2 heard the frame but was not addressed


def test_backoff_draw_happens_when_kicked_on_busy_channel():
    """Backoff condition (1): a packet queued while the channel is busy
    draws a fresh BI instead of transmitting at the idle transition."""
    tb = make_rmac_testbed(TRIANGLE, seed=3)
    mac2 = tb.macs[2]
    mac2.backoff.bi = 0
    draws_before = mac2.backoff.draws
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable((1,), "long", 1400))
    # Queue node 2's packet mid-way through node 0's data frame.
    tb.sim.at(3 * MS, lambda: mac2.send_unreliable(-1, "queued-busy", 50))
    tb.run(100 * MS)
    assert mac2.backoff.draws > draws_before


def test_reliable_send_to_many_receivers_records_airtime():
    coords = [(0.0, 0.0)] + [(30 + i, 0.0) for i in range(5)]
    tb = make_rmac_testbed(coords, seed=2)
    tb.macs[0].send_reliable(tuple(range(1, 6)), "pkt", 500)
    tb.run(100 * MS)
    stats = tb.macs[0].stats
    # MRTS 42 B -> 264 us; data 522 B -> 2184 us; 5 ABT windows = 85 us.
    assert stats.control_tx_time == 264 * US
    assert stats.data_tx_time == 2184 * US
    assert stats.abt_check_time == 5 * 17 * US


def test_zero_payload_reliable_send():
    tb = make_rmac_testbed(TRIANGLE, seed=1)
    rx1 = collect_upper(tb.macs[1])
    outcomes = []
    tb.macs[0].send_reliable((1,), None, 0, on_complete=outcomes.append)
    tb.run(20 * MS)
    assert outcomes[0].acked == (1,)
    assert rx1 == [(None, 0)]


def test_retry_limit_zero_single_shot():
    tb = make_rmac_testbed([(0, 0), (500, 0)], seed=1,
                           config=RmacConfig(retry_limit=0))
    outcomes = []
    tb.macs[0].send_reliable((1,), "x", 100, on_complete=outcomes.append)
    tb.run(100 * MS)
    assert outcomes[0].dropped
    assert tb.macs[0].stats.mrts_transmissions == 1
    assert tb.macs[0].stats.retransmissions == 0
