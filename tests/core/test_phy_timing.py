"""Every MAC takes tau, lambda and 2 tau + lambda from its radio's PHY.

On a PHY with tau = 2 us and lambda = 20 us, 2 tau + lambda is 24 us,
and RMAC's ABT slot, its Twf_rdata wait and MX's NAK window all follow
the channel they run on. The Section 3.4 receiver cap is the closed
form over the same constants.
"""

from repro.analysis.overhead import max_receivers_per_mrts
from repro.core import RmacConfig
from repro.phy.params import DEFAULT_PHY, PhyParams
from repro.sim.trace import Tracer
from repro.sim.units import MS, US

from tests.conftest import TRIANGLE, make_dot11_testbed, make_rmac_testbed

SLOW_PHY = PhyParams(max_propagation_delay=2 * US, cca_time=20 * US)


def test_rmac_abt_slot_follows_the_channel_phy():
    tb = make_rmac_testbed(TRIANGLE, seed=1, phy=SLOW_PHY,
                           tracer=Tracer(enabled=True))
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(20 * MS)
    assert outcomes[0].acked == (1, 2)
    (first,) = [e for e in tb.tracer.events
                if e.kind == "abt-scheduled" and e.detail["index"] == 0]
    assert first.detail["slot_end"] - first.time == 24 * US


def test_rmac_twf_rdata_follows_the_channel_phy():
    tb = make_rmac_testbed(TRIANGLE, seed=1, phy=SLOW_PHY,
                           tracer=Tracer(enabled=True))
    # The sender never sends the data frame, so receiver 1's Twf_rdata
    # expires and releases its RBT.
    tb.macs[0]._twf_rbt._callback = lambda: None
    tb.macs[0].send_reliable((1, 2), "pkt", 500)
    tb.run(5 * MS)
    (on,) = [e for e in tb.tracer.events if e.kind == "rbt-on" and e.node == 1]
    (off,) = [e for e in tb.tracer.events if e.kind == "rbt-off" and e.node == 1]
    assert off.time - on.time - RmacConfig().rdata_guard == 24 * US


def test_mx_nak_window_follows_the_channel_phy():
    tb = make_dot11_testbed(TRIANGLE, protocol="mx", seed=1, phy=SLOW_PHY)
    outcomes = []
    tb.macs[0].send_reliable((1, 2), "pkt", 500, on_complete=outcomes.append)
    tb.run(20 * MS)
    assert outcomes[0].acked == (1, 2)
    # One attempt, one NAK window checked.
    assert tb.macs[0].stats.retransmissions == 0
    assert tb.macs[0].stats.abt_check_time == 24 * US


def test_receiver_cap_is_the_section_3_4_closed_form():
    assert RmacConfig().max_receivers == max_receivers_per_mrts(DEFAULT_PHY)
