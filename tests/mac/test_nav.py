"""Virtual carrier sense details in the 802.11 family."""

import pytest

from repro.mac.bmmm import BmmmProtocol
from repro.mac.frames import CtsFrame, DataFrame, RtsFrame
from repro.sim.trace import Tracer
from repro.sim.units import MS, US

from tests.conftest import TRIANGLE, make_dot11_testbed


def test_overheard_rts_sets_nav():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    mac2 = tb.macs[2]
    mac2.on_frame_received(RtsFrame(0, 1, aux=500), 0)
    assert mac2.nav_until == tb.sim.now + 500 * US


def test_frame_addressed_to_me_does_not_set_my_nav():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    mac1 = tb.macs[1]
    mac1.on_frame_received(RtsFrame(0, 1, aux=500), 0)
    assert mac1.nav_until == 0


def test_nav_keeps_maximum():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    mac2 = tb.macs[2]
    mac2.on_frame_received(RtsFrame(0, 1, aux=500), 0)
    mac2.on_frame_received(CtsFrame(1, 0, aux=100), 1)
    assert mac2.nav_until == 500 * US  # the shorter CTS cannot reduce it


def test_data_frames_carry_no_nav():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    mac2 = tb.macs[2]
    frame = DataFrame(src=0, dst=1, seq=1, payload_bytes=10, reliable=False)
    mac2.on_frame_received(frame, 0)
    assert mac2.nav_until == 0


def test_bmmm_nav_remaining_monotone_through_round():
    """The duration field shrinks as the batch progresses."""
    tb = make_dot11_testbed(TRIANGLE, protocol="bmmm", seed=1)
    mac = tb.macs[0]
    from repro.mac.base import SendRequest

    mac._request = SendRequest("p", 500, reliable=True, receivers=(1, 2))
    mac._round_receivers = [1, 2]
    mac._round_index = 0
    first = mac._nav_remaining_us()
    mac._round_index = 1
    second = mac._nav_remaining_us()
    assert first > second > 0
    # the remaining time for the first RTS covers at least the data frame
    assert first * US > tb.phy.frame_airtime(528)


def test_rts_refused_while_nav_busy():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1,
                            tracer=Tracer(enabled=True))
    tb.macs[1].nav_until = 5 * MS
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable((1,), "pkt", 100))
    tb.run(3 * MS)
    # No CTS before the NAV clears: node 1 stayed silent.
    assert tb.macs[1].stats.frames_tx.get("CtsFrame") is None
