"""Edge behaviors of the DCF base shared by the 802.11 family."""

import pytest

from repro.sim.trace import Tracer
from repro.sim.units import MS, US

from tests.conftest import TRIANGLE, collect_upper, make_dot11_testbed


def test_broadcast_defers_under_nav():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1,
                            tracer=Tracer(enabled=True))
    tb.sim.at(1 * MS, lambda: setattr(tb.macs[0], "nav_until", tb.sim.now + 4 * MS))
    tb.sim.at(1 * MS + 10 * US, lambda: tb.macs[0].send_unreliable(-1, "b", 20))
    tb.run(50 * MS)
    starts = [e for e in tb.tracer.events if e.kind == "tx-start" and e.node == 0]
    assert starts and starts[0].time >= 5 * MS  # waited out the NAV


def test_response_timeout_formula():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    # SIFS + airtime(CTS) + 2 tau + guard, tau read from the radio's PHY.
    expected = 10 * US + (96 + 56) * US + 2 * US + 2 * US
    assert tb.macs[0].response_timeout(14) == expected


def test_idle_duration_blends_physical_and_virtual():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    mac = tb.macs[0]
    tb.run(2 * MS)
    physical = tb.radios[0].data_idle_duration()
    assert mac._idle_duration() == physical
    mac.nav_until = tb.sim.now - 500 * US
    assert mac._idle_duration() == min(physical, 500 * US)
    mac.nav_until = tb.sim.now + 1 * MS
    assert mac._medium_busy()


def test_back_to_back_requests_queue_and_complete():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    rx1 = collect_upper(tb.macs[1])
    outcomes = []
    for i in range(4):
        tb.macs[0].send_reliable((1,), f"p{i}", 200, on_complete=outcomes.append)
    tb.run(200 * MS)
    assert [p for p, _ in rx1] == ["p0", "p1", "p2", "p3"]
    assert len(outcomes) == 4 and all(o.acked == (1,) for o in outcomes)


def test_two_senders_one_receiver_serialize():
    """Contention: 0 and 2 both unicast to 1; both succeed."""
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=6)
    rx1 = collect_upper(tb.macs[1])
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable((1,), "from-0", 400))
    tb.sim.at(1 * MS, lambda: tb.macs[2].send_reliable((1,), "from-2", 400))
    tb.run(200 * MS)
    assert sorted(p for p, _ in rx1) == ["from-0", "from-2"]
