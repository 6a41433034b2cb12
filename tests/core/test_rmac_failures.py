"""RMAC failure paths: retries, drops, aborts, timer expiries, splitting."""

import pytest

from repro.core import RmacConfig, RmacProtocol
from repro.core.states import RmacState
from repro.phy.busytone import ToneType
from repro.sim.trace import Tracer
from repro.sim.units import MS, US

from tests.conftest import TRIANGLE, collect_upper, make_rmac_testbed


def test_unreachable_receiver_drops_after_retry_limit():
    # Node 2 is far out of range: no RBT ever arrives.
    tb = make_rmac_testbed([(0, 0), (500, 0)], seed=3,
                           config=RmacConfig(retry_limit=3))
    outcomes = []
    tb.macs[0].send_reliable((1,), "lost", 100, on_complete=outcomes.append)
    tb.run(200 * MS)
    stats = tb.macs[0].stats
    assert outcomes[0].dropped and outcomes[0].failed == (1,)
    assert stats.packets_dropped == 1
    # initial + retry_limit attempts
    assert stats.mrts_transmissions == 4
    assert stats.retransmissions == 3


def test_cw_doubles_then_resets_after_drop():
    tb = make_rmac_testbed([(0, 0), (500, 0)], seed=3,
                           config=RmacConfig(retry_limit=2))
    tb.macs[0].send_reliable((1,), "lost", 100)
    tb.run(200 * MS)
    # After the drop the CW must be back at cw_min (backoff condition 3).
    assert tb.macs[0].backoff.cw == tb.phy.cw_min


def test_partial_abt_triggers_selective_retransmission(monkeypatch):
    """Receiver 2 misses the first MRTS; the retry names only node 2."""
    tb = make_rmac_testbed(TRIANGLE, seed=9, tracer=Tracer(enabled=True))
    rx2 = collect_upper(tb.macs[2])
    original = RmacProtocol._handle_mrts
    dropped = []

    def drop_first(self, mrts):
        if self.node_id == 2 and not dropped:
            dropped.append(mrts)
            return
        original(self, mrts)

    monkeypatch.setattr(RmacProtocol, "_handle_mrts", drop_first)
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(200 * MS)
    assert outcomes[0].acked and set(outcomes[0].acked) == {1, 2}
    assert not outcomes[0].dropped
    assert rx2 == [("pkt", 0)]
    stats = tb.macs[0].stats
    assert stats.retransmissions == 1
    # First MRTS: 2 receivers (24 B); retry: only node 2 (18 B).
    assert stats.mrts_lengths == {24: 1, 18: 1}


def test_mrts_abort_on_rbt():
    """A node mid-MRTS aborts tau + lambda after a foreign RBT rises."""
    # Long MRTS (10 receivers -> 72 B -> 384 us) leaves room to abort.
    tb = make_rmac_testbed([(0, 0)] + [(30 + i, 0) for i in range(10)], seed=1,
                           tracer=Tracer(enabled=True))
    mac = tb.macs[0]
    # Send at 1 ms: the medium has been idle, so the MRTS starts instantly
    # (C10) and the tone timing below is deterministic.
    tb.sim.at(1 * MS, lambda: mac.send_reliable(tuple(range(1, 11)), "pkt", 500))
    tb.sim.at(1 * MS + 20 * US, lambda: tb.radios[5].tone_on(ToneType.RBT))
    tb.sim.at(1 * MS + 600 * US, lambda: tb.radios[5].tone_off(ToneType.RBT))
    tb.run(2 * MS)
    stats = mac.stats
    assert stats.mrts_aborted == 1
    # Abort happened at RBT-on + propagation + lambda (the paper's "tiny
    # interval").
    aborts = [e for e in tb.tracer.events if e.kind == "tx-abort"]
    assert len(aborts) == 1
    assert aborts[0].time == pytest.approx(1 * MS + 20 * US + 15 * US, abs=2 * US)
    # The abortion causes a retransmission attempt that then succeeds.
    tb.run(200 * MS)
    assert stats.mrts_transmissions >= 2
    assert stats.packets_delivered == 1


def test_unreliable_tx_aborts_on_rbt():
    tb = make_rmac_testbed([(0, 0), (50, 0)], seed=1)
    mac = tb.macs[0]
    tb.sim.at(1 * MS, lambda: mac.send_unreliable(-1, "long", 1000))
    tb.sim.at(1 * MS + 100 * US, lambda: tb.radios[1].tone_on(ToneType.RBT))
    tb.run(10 * MS)
    assert mac.stats.unreliable_aborted == 1
    assert mac.stats.unreliable_sent == 0


def test_receiver_releases_rbt_when_data_never_comes():
    """Twf_rdata expiry: RBT off 2 tau + lambda (+guard) after MRTS."""
    tb = make_rmac_testbed(TRIANGLE, seed=1, tracer=Tracer(enabled=True))
    # Sender never follows up with data (stub the Twf_rbt action; the
    # timer holds a bound callback, so patch the instance's timer).
    tb.macs[0]._twf_rbt._callback = lambda: None
    tb.macs[0].send_reliable((1, 2), "pkt", 500)
    tb.run(5 * MS)
    ons = [e for e in tb.tracer.events if e.kind == "rbt-on" and e.node == 1]
    offs = [e for e in tb.tracer.events if e.kind == "rbt-off" and e.node == 1]
    assert len(ons) == 1 and len(offs) == 1
    cfg = RmacConfig()
    assert offs[0].time - ons[0].time == tb.phy.l_abt + cfg.rdata_guard
    assert tb.macs[1].state in (RmacState.IDLE, RmacState.BACKOFF)
    assert not tb.radios[1].tone_emitting(ToneType.RBT)


def test_receiver_split_beyond_twenty():
    """Section 3.4: 25 receivers -> two invocations (20 + 5)."""
    coords = [(0.0, 0.0)] + [(30 + 1.5 * i, 0.0) for i in range(25)]
    tb = make_rmac_testbed(coords, seed=4)
    receivers = tuple(range(1, 26))
    collected = [collect_upper(tb.macs[i]) for i in receivers]
    outcomes = []
    tb.macs[0].send_reliable(receivers, "big", 500, on_complete=outcomes.append)
    tb.run(500 * MS)
    assert outcomes and set(outcomes[0].acked) == set(receivers)
    stats = tb.macs[0].stats
    assert stats.mrts_lengths.get(12 + 6 * 20) == 1
    assert stats.mrts_lengths.get(12 + 6 * 5) == 1
    assert all(len(rx) == 1 for rx in collected)
    # One packet offered, delivered once (not per chunk).
    assert stats.packets_offered == 1 and stats.packets_delivered == 1


def test_receiver_busy_as_sender_ignores_mrts():
    """A node in its own transaction stays silent; the sender retries it."""
    tb = make_rmac_testbed([(0, 0), (50, 0), (100, 0)], seed=6)
    rx1 = collect_upper(tb.macs[1])
    # Node 1 starts its own long reliable send to node 2 first.
    tb.macs[1].send_reliable((2,), "own", 1400)
    # Node 0 tries to reach node 1 while 1 is the busy sender.
    tb.sim.at(300 * US, lambda: tb.macs[0].send_reliable((1,), "late", 300))
    tb.run(200 * MS)
    assert ("late", 0) in rx1  # eventually delivered via retransmission
    assert tb.macs[0].stats.packets_delivered == 1


def test_retry_preserves_payload_and_seq(monkeypatch):
    tb = make_rmac_testbed(TRIANGLE, seed=2)
    seqs = []
    original = RmacProtocol._handle_reliable_data

    def record(self, frame):
        seqs.append(frame.seq)
        original(self, frame)

    monkeypatch.setattr(RmacProtocol, "_handle_reliable_data", record)
    drop = []
    orig_mrts = RmacProtocol._handle_mrts

    def drop_first(self, mrts):
        if self.node_id == 1 and not drop:
            drop.append(1)
            return
        orig_mrts(self, mrts)

    monkeypatch.setattr(RmacProtocol, "_handle_mrts", drop_first)
    tb.macs[0].send_reliable((1, 2), "pkt", 500)
    tb.run(200 * MS)
    # Two data transmissions (initial + retry) carried the same sequence.
    assert len(set(seqs)) == 1
