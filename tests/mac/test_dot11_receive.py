"""The 802.11 family's receive path, one row per frame kind.

Every frame a ``Dot11Base`` MAC decodes goes through
``on_frame_received``: it counts control frames in ``frames_rx`` (under
the class name), adds a control frame's airtime to ``control_rx_time``
only when the frame is addressed to the node, sets the NAV from an
overheard control frame's ``aux`` (data frames carry none) and hands the
frame to one ``_handle_*`` hook. The hooks are stubbed here, so each row
sees what the dispatch alone does.
"""

import pytest

from repro.mac.addresses import BROADCAST
from repro.mac.frames import (
    AckFrame,
    CtsFrame,
    DataFrame,
    MrtsFrame,
    NakFrame,
    NctsFrame,
    RakFrame,
    RtsFrame,
)
from repro.sim.units import US

from tests.conftest import TRIANGLE, make_dot11_testbed

#: The receive hooks a frame can reach.
HOOKS = (
    "_handle_rts",
    "_handle_cts",
    "_handle_ack",
    "_handle_rak",
    "_handle_ncts",
    "_handle_nak",
    "_handle_reliable_data",
    "_handle_unreliable_data",
)

#: The receiving node; frames come from node 0, and node 1 is the other
#: party of an overheard exchange.
ME, SENDER, OTHER = 2, 0, 1
NAV_US = 500


def _data(dst, reliable):
    return DataFrame(src=SENDER, dst=dst, seq=1, payload_bytes=100, reliable=reliable)


_CONTROL = [
    (RtsFrame, "_handle_rts"),
    (CtsFrame, "_handle_cts"),
    (AckFrame, "_handle_ack"),
    (RakFrame, "_handle_rak"),
    (NctsFrame, "_handle_ncts"),
    (NakFrame, "_handle_nak"),
]

#: (id, frame, expected frames_rx, addressed control frame?, NAV set?, hook)
CASES = [
    case
    for cls, hook in _CONTROL
    for case in (
        (f"{cls.__name__}-addressed", cls(SENDER, ME, aux=NAV_US),
         {cls.__name__: 1}, True, False, hook),
        (f"{cls.__name__}-overheard", cls(SENDER, OTHER, aux=NAV_US),
         {cls.__name__: 1}, False, True, hook),
    )
] + [
    # The 802.11 family does not speak RMAC's MRTS: it is counted and
    # dropped, and it carries no NAV.
    ("MrtsFrame-addressed", MrtsFrame(SENDER, (ME, OTHER)),
     {"MrtsFrame": 1}, False, False, None),
    ("MrtsFrame-overheard", MrtsFrame(SENDER, (OTHER,)),
     {"MrtsFrame": 1}, False, False, None),
    ("RDATA-addressed", _data(ME, True), {}, False, False, "_handle_reliable_data"),
    ("RDATA-overheard", _data(OTHER, True), {}, False, False, "_handle_reliable_data"),
    ("RDATA-broadcast", _data(BROADCAST, True), {}, False, False,
     "_handle_reliable_data"),
    ("UDATA-addressed", _data(ME, False), {}, False, False, "_handle_unreliable_data"),
    ("UDATA-overheard", _data(OTHER, False), {}, False, False,
     "_handle_unreliable_data"),
]


#: MX reads an MRTS as its multicast announcement (the last test below).
PARAMS = [
    pytest.param(protocol, *case[1:], id=f"{protocol}-{case[0]}")
    for protocol in ("dot11", "bmmm", "mx")
    for case in CASES
    if not (protocol == "mx" and type(case[1]) is MrtsFrame)
]


@pytest.mark.parametrize("protocol, frame, frames_rx, addressed, sets_nav, hook", PARAMS)
def test_receive_dispatch(protocol, frame, frames_rx, addressed, sets_nav, hook):
    tb = make_dot11_testbed(TRIANGLE, protocol=protocol, seed=1)
    mac = tb.macs[ME]
    ran = []
    for name in HOOKS:
        setattr(mac, name, lambda f, name=name: ran.append((name, f)))
    mac.on_frame_received(frame, SENDER)
    assert mac.stats.frames_rx == frames_rx
    expected_rx_time = tb.phy.frame_airtime(frame.size_bytes) if addressed else 0
    assert mac.stats.control_rx_time == expected_rx_time
    assert mac.nav_until == (tb.sim.now + NAV_US * US if sets_nav else 0)
    assert ran == ([(hook, frame)] if hook else [])


def test_overheard_control_frame_without_duration_sets_no_nav():
    tb = make_dot11_testbed(TRIANGLE, protocol="dot11", seed=1)
    mac = tb.macs[ME]
    mac.on_frame_received(CtsFrame(SENDER, OTHER), SENDER)
    assert mac.nav_until == 0


def test_mx_counts_the_announcement_as_mrts():
    tb = make_dot11_testbed(TRIANGLE, protocol="mx", seed=1)
    named, overhearing = tb.macs[ME], tb.macs[OTHER]
    announce = MrtsFrame(SENDER, (ME,))
    named.on_frame_received(announce, SENDER)
    overhearing.on_frame_received(announce, SENDER)
    airtime = tb.phy.frame_airtime(announce.size_bytes)
    assert named.stats.frames_rx == {"MRTS": 1}
    assert named.stats.control_rx_time == airtime
    assert named._expect_from == SENDER
    assert overhearing.stats.frames_rx == {"MRTS": 1}
    assert overhearing.stats.control_rx_time == 0
    assert overhearing._expect_from is None
