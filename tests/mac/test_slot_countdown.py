"""The event-driven backoff countdown against the per-slot pump oracle.

``SlotCountdown`` replaces one heap event per idle 20 us slot with one
event per idle stretch plus busy notices. Every run must produce the
same ``RunSummary``, MAC counters and trace events as the per-slot pumps
of ``tests/mac/slot_pump_oracle.py``, with fewer events. The random
cases compare traces per nanosecond and node (:func:`node_ordered`).
The deterministic cases compare the raw stream and pin the three edges
the notices exist for: a busy start exactly on a slot boundary (the tie
rule), an RBT presence starting mid-countdown, and a NAV update
mid-countdown.
"""

from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.experiments.scenarios import sinr_preset
from repro.mac.addresses import BROADCAST
from repro.mac.dot11 import Dot11Config
from repro.mac.frames import RtsFrame
from repro.phy.params import DEFAULT_PHY
from repro.sim.trace import Tracer
from repro.sim.units import MS, US
from repro.world.network import ScenarioConfig, build_network

from tests.conftest import CHAIN, make_dot11_testbed, make_rmac_testbed
from tests.mac.slot_pump_oracle import per_slot_pumps

SLOT = DEFAULT_PHY.slot_time
ALL_MACS = ("rmac", "bmmm", "bmw", "lamm", "lbp", "mx", "dot11")
#: Plain DCF has no reliable multicast, so the multicast network stack
#: runs the other six.
NETWORK_MACS = ALL_MACS[:-1]


def both(scenario):
    """``scenario()`` under the countdown, then under the per-slot pumps."""
    countdown = scenario()
    with per_slot_pumps():
        pumps = scenario()
    return countdown, pumps


def trace(tb):
    return [event.to_json() for event in tb.tracer.events]


def node_ordered(tb):
    """The trace with each nanosecond's events grouped by node.

    The sort is stable, so every node's own sequence and every timestamp
    is kept; only the interleaving of different nodes' events within
    one nanosecond, a heap tie-break, is normalized. That interleaving
    is the one thing the countdown does not reproduce: a per-slot tick
    for boundary T was queued at T - slot, the countdown's tick when it
    starts (the expiry) or at the busy notice, so two nodes' ticks in
    the same nanosecond can run in the other order.
    """
    events = sorted(tb.tracer.events, key=lambda event: (event.time, event.node))
    return [event.to_json() for event in events]


def make_testbed(protocol, coords, seed=1, **kwargs):
    if protocol == "rmac":
        return make_rmac_testbed(coords, seed=seed,
                                 tracer=Tracer(enabled=True), **kwargs)
    return make_dot11_testbed(coords, protocol=protocol, seed=seed,
                              tracer=Tracer(enabled=True), **kwargs)


def link_delay(tb, src, dst):
    return next(link.delay_ns for link in tb.neighbors.table_from(src, 0).links
                if link.node == dst)


# ----------------------------------------------------------------------
# Differential: random topologies x every MAC x seeds
# ----------------------------------------------------------------------
@st.composite
def mac_scenarios(draw, protocol):
    n_nodes = draw(st.integers(min_value=2, max_value=5))
    coords = [(draw(st.integers(0, 140)), draw(st.integers(0, 60)))
              for _ in range(n_nodes)]
    requests = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        sender = draw(st.integers(0, n_nodes - 1))
        others = [i for i in range(n_nodes) if i != sender]
        start = draw(st.integers(0, 10 * MS))
        if draw(st.booleans()):
            requests.append((sender, None, start))  # unreliable broadcast
        else:
            k = 1 if protocol == "dot11" else draw(st.integers(1, len(others)))
            requests.append((sender, tuple(draw(st.permutations(others))[:k]),
                             start))
    seed = draw(st.integers(0, 10_000))
    return coords, requests, seed


@pytest.mark.parametrize("protocol", ALL_MACS)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_countdown_matches_pumps_on_random_mac_traffic(protocol, data):
    coords, requests, seed = data.draw(mac_scenarios(protocol))
    kwargs = {} if protocol == "rmac" else {"config": Dot11Config(retry_limit=3)}

    def scenario():
        tb = make_testbed(protocol, coords, seed=seed, **kwargs)
        outcomes = []
        for sender, receivers, start in requests:
            mac = tb.macs[sender]
            if receivers is None:
                send = lambda m=mac: m.send_unreliable(
                    BROADCAST, "b", 120, on_complete=outcomes.append)
            else:
                send = lambda m=mac, r=receivers: m.send_reliable(
                    r, "r", 300, on_complete=outcomes.append)
            tb.sim.at(start, send)
        tb.run(300 * MS)
        done = [(o.completed_at, o.request.receivers, o.acked, o.failed,
                 o.dropped) for o in outcomes]
        return (node_ordered(tb), done, [asdict(mac.stats) for mac in tb.macs],
                tb.sim.events_processed)

    countdown, pumps = both(scenario)
    assert countdown[:3] == pumps[:3]
    assert countdown[3] <= pumps[3]


@pytest.mark.parametrize("protocol", NETWORK_MACS)
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n_nodes=st.integers(min_value=3, max_value=8),
       side=st.integers(min_value=60, max_value=150),
       seed=st.integers(min_value=0, max_value=10_000),
       mobile=st.booleans(), sinr=st.booleans())
# Under RMAC, nodes 5 and 6 of this network suspend their countdowns in
# the same nanosecond, and their trace events come out in the other
# order than under the per-slot pumps (see node_ordered).
@example(n_nodes=7, side=132, seed=5972, mobile=False, sinr=True)
def test_countdown_matches_pumps_on_random_networks(protocol, n_nodes, side,
                                                    seed, mobile, sinr):
    config = ScenarioConfig(
        protocol=protocol, n_nodes=n_nodes, width=side, height=side,
        rate_pps=40, n_packets=6, warmup_s=1.0, drain_s=0.5, seed=seed,
        mobile=mobile,
        sinr=sinr_preset("shadowing", tx_power_dbm=27.5) if sinr else None)

    def scenario():
        network = build_network(config, tracer=Tracer(enabled=True))
        summary = network.run()
        return (asdict(summary), node_ordered(network.testbed),
                network.sim.events_processed)

    countdown, pumps = both(scenario)
    assert countdown[:2] == pumps[:2]
    assert countdown[2] <= pumps[2]


# ----------------------------------------------------------------------
# The edges the busy notices exist for
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["rmac", "dot11"])
def test_busy_start_on_a_slot_boundary_counts_as_idle(protocol):
    """Node 0 counts BI = 6 down from t0; node 1's frame reaches it
    exactly on the boundary t0 + 2 slots. That boundary counts as idle,
    so BI holds 3 (not 4) through the busy period."""
    t0 = 1 * MS

    def scenario():
        tb = make_testbed(protocol, [(0.0, 0.0), (50.0, 0.0)])
        tb.macs[0].backoff.bi = 6
        arrival = t0 + 2 * SLOT
        tb.sim.at(t0, lambda: tb.macs[0].send_unreliable(BROADCAST, "a", 100))
        tb.sim.at(arrival - link_delay(tb, 1, 0),
                  lambda: tb.macs[1].send_unreliable(BROADCAST, "b", 100))
        bi = []
        tb.sim.at(t0 + 3 * SLOT + 1, lambda: bi.append(tb.macs[0].backoff.bi))
        tb.run(20 * MS)
        tx = {}
        for e in tb.tracer.events:
            if e.kind == "tx-start":
                tx.setdefault(e.node, e.time)
        return trace(tb), bi, tx, link_delay(tb, 1, 0)

    countdown, pumps = both(scenario)
    assert countdown == pumps
    _, bi, tx, delay = countdown
    assert tx[1] + delay == t0 + 2 * SLOT
    assert bi == [3]
    assert tx[0] > tx[1]


def test_rbt_presence_mid_countdown_suspends_rmac():
    """Chain 0 - 1 - 2: node 2 is counting down when 0's MRTS makes 1
    raise RBT. Node 2 never hears 0, so the tone alone suspends it."""
    t0 = 1 * MS

    def scenario():
        tb = make_rmac_testbed(CHAIN[:3], seed=4, tracer=Tracer(enabled=True))
        tb.macs[2].backoff.bi = 30
        tb.sim.at(t0, lambda: tb.macs[2].send_unreliable(BROADCAST, "x", 100))
        tb.sim.at(t0 + 100 * US,
                  lambda: tb.macs[0].send_reliable((1,), "p", 200))
        tb.run(50 * MS)
        return trace(tb), tb.tracer.events, link_delay(tb, 1, 2)

    (countdown, events, delay), (pumps, _, _) = both(scenario)
    assert countdown == pumps
    rbt_on = next(e.time for e in events if e.kind == "rbt-on")
    suspend = next(e.time for e in events if e.node == 2 and e.kind == "state"
                   and e.detail == {"frm": "BACKOFF", "to": "IDLE"})
    tx2 = next(e.time for e in events if e.kind == "tx-start" and e.node == 2)
    # Suspended at the first slot boundary after the tone reached node 2,
    # well before its 30-slot countdown could have ended.
    assert rbt_on + delay < suspend <= rbt_on + delay + SLOT
    assert suspend < t0 + 29 * SLOT < tx2


def test_nav_update_mid_countdown_suspends_dcf():
    """A decoded RTS for someone else sets node 0's NAV mid-countdown
    (with no carrier sensed): the countdown stops at the next boundary
    and resumes after the NAV and a DIFS."""
    t0 = 1 * MS
    nav_at = t0 + 5 * SLOT + 7 * US

    def scenario():
        tb = make_testbed("dot11", [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)])
        mac = tb.macs[0]
        mac.backoff.bi = 20
        tb.sim.at(t0, lambda: mac.send_unreliable(BROADCAST, "a", 100))
        tb.sim.at(nav_at, lambda: mac.on_frame_received(
            RtsFrame(1, 2, aux=300), 1))
        bi = []
        tb.sim.at(t0 + 6 * SLOT + 1, lambda: bi.append(mac.backoff.bi))
        tb.run(20 * MS)
        tx0 = next(e.time for e in tb.tracer.events
                   if e.kind == "tx-start" and e.node == 0)
        return trace(tb), bi, tx0

    countdown, pumps = both(scenario)
    assert countdown == pumps
    _, bi, tx0 = countdown
    assert bi == [14]  # 20 - 1 (first tick) - 5 idle boundaries
    assert tx0 > nav_at + 300 * US + DEFAULT_PHY.difs
