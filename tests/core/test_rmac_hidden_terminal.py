"""RBT solves the hidden-terminal problem (Section 3.2).

Chain 0 -- 1 -- 2 (60 m spacing, 75 m range): 0 and 2 cannot hear each
other; both reach 1. Without RBT, 2 would transmit over 0's data frame
and collide at 1. With RBT, 1's tone suppresses 2 for the whole data
reception.
"""

from repro.core.states import RmacState
from repro.phy.busytone import ToneType
from repro.sim.units import MS, US

from tests.conftest import CHAIN, collect_upper, make_rmac_testbed


def test_hidden_node_defers_while_rbt_on():
    tb = make_rmac_testbed(CHAIN[:3], seed=8, trace=True)
    rx1 = collect_upper(tb.macs[1])
    # 0 starts a long reliable send to 1 at 1 ms (immediate access).
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable((1,), "protected", 1400))
    # 2 queues its own unreliable broadcast while 1's RBT is up (the data
    # frame runs ~5.8 ms, so 2 ms is mid-reception).
    tb.sim.at(2 * MS, lambda: tb.macs[2].send_unreliable(-1, "intruder", 1400))
    tb.run(100 * MS)
    # 1 received 0's frame despite 2's pending traffic...
    assert ("protected", 0) in rx1
    # ...because 2's transmission started only after 1 released RBT.
    tx2 = [e for e in tb.tracer.events if e.kind == "tx-start" and e.node == 2]
    rbt_off = [e for e in tb.tracer.events if e.kind == "rbt-off" and e.node == 1]
    assert tx2 and rbt_off
    assert tx2[0].time > rbt_off[0].time
    # No retransmissions were needed: the reception was collision-free.
    assert tb.macs[0].stats.retransmissions == 0


def test_without_suppression_hidden_node_collides():
    """Sanity inversion: if node 2 ignored the RBT channel the data frame
    would collide at node 1 -- demonstrating RBT is load-bearing."""
    tb = make_rmac_testbed(CHAIN[:3], seed=8)
    # Cripple node 2's RBT sensing (pretend it never senses the tone):
    # its contention then neither takes RBT busy notices nor counts RBT
    # presence as a busy channel.
    tb.macs[2].countdown.ignore_tone(ToneType.RBT)
    rx1 = collect_upper(tb.macs[1])
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable((1,), "protected", 1400))
    tb.sim.at(2 * MS, lambda: tb.macs[2].send_unreliable(-1, "intruder", 1400))
    tb.run(20 * MS)
    # The first data attempt was corrupted: a retransmission was needed
    # (or the packet is still in flight) -- reception count at 2 ms+5.8 ms
    # cannot be clean on the first try.
    assert tb.macs[0].stats.retransmissions >= 1


def test_two_parallel_transactions_out_of_range_coexist():
    """0->1 and 3->2... wait: 4-node chain, 0->1 and 3->2 share no radio
    space only if spaced; use 6 nodes: two distant triangles."""
    coords = [(0, 0), (50, 0), (1000, 0), (1050, 0)]
    tb = make_rmac_testbed(coords, seed=2)
    rx1 = collect_upper(tb.macs[1])
    rx3 = collect_upper(tb.macs[3])
    tb.macs[0].send_reliable((1,), "left", 500)
    tb.macs[2].send_reliable((3,), "right", 500)
    tb.run(50 * MS)
    assert rx1 == [("left", 0)] and rx3 == [("right", 2)]
    assert tb.macs[0].stats.retransmissions == 0
    assert tb.macs[2].stats.retransmissions == 0


def test_exposed_sender_blocked_by_rbt_not_by_peer_tx():
    """In RMAC a node near a *receiver* defers (RBT); the protocol has no
    NAV, so deferral tracks tones and carrier only."""
    # 2 hears 1 (receiver) but not 0 (sender): classic exposed/hidden mix.
    tb = make_rmac_testbed(CHAIN[:3], seed=8)
    states = {}
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable((1,), "pkt", 1400))
    def probe():
        states["rbt_at_2"] = tb.radios[2].tone_present(ToneType.RBT)
        states["data_at_2"] = tb.radios[2].data_busy()
    tb.sim.at(3 * MS, probe)  # mid data frame
    tb.run(50 * MS)
    assert states["rbt_at_2"] is True
    assert states["data_at_2"] is False  # 0's frame does not reach node 2
