"""The Section 3.4 "mixed-up ABT" phenomenon (Fig. 5).

A sender checking a long run of ABT windows can mistake a *foreign* ABT
(from a nearby transaction's receiver) for one of its own receivers'
acknowledgments -- a false positive. The 20-receiver MRTS cap exists
precisely because the shortest neighboring exchange (352 us) outlasts 20
windows (17 us each). These tests construct the phenomenon directly by
injecting a foreign ABT pulse into a silent window.
"""

import pytest

from repro.core import RmacConfig, RmacProtocol
from repro.phy.busytone import ToneType
from repro.phy.params import DEFAULT_PHY
from repro.sim.trace import Tracer
from repro.sim.units import MS, US

from tests.conftest import collect_upper, make_rmac_testbed


def _line(n_receivers):
    """Sender 0 with n receivers clustered in range."""
    return [(0.0, 0.0)] + [(30.0 + 1.2 * i, 0.0) for i in range(n_receivers)]


def test_foreign_abt_in_window_causes_false_ack(monkeypatch):
    """Receiver 2 never gets the data (injected deafness), but a foreign
    ABT pulse in its window makes the sender count it as acknowledged."""
    tb = make_rmac_testbed(_line(3), seed=1, tracer=Tracer(enabled=True))
    rx_lost = collect_upper(tb.macs[2])

    original = RmacProtocol._handle_reliable_data

    def deaf(self, frame):
        if self.node_id == 2:
            # Receiver 2 misses the data (it sent RBT but the frame is
            # gone); it stays silent -- its window *should* be empty.
            self._receiver_finish(success=False)
            return
        original(self, frame)

    monkeypatch.setattr(RmacProtocol, "_handle_reliable_data", deaf)

    outcomes = []
    tb.sim.at(1 * MS, lambda: tb.macs[0].send_reliable(
        (1, 2, 3), "pkt", 500, on_complete=outcomes.append))
    # The data frame spans [1209us, 3393us]; receiver 2's window is
    # (data_end + 17us, data_end + 34us]. Pulse a foreign ABT into it
    # from node 3's radio position -- wait, node 3 is a real receiver;
    # use a dedicated bystander instead.
    data_end = 1 * MS + (216 + 17 + 2184) * US  # MRTS(30B)=216us airtime
    tb.sim.at(data_end + 18 * US, lambda: _foreign_pulse(tb))
    tb.run(200 * MS)

    outcome = outcomes[0]
    assert 2 in outcome.acked          # the false acknowledgment
    assert rx_lost == []               # ...despite no delivery
    assert tb.macs[0].stats.retransmissions == 0


def _foreign_pulse(tb):
    # A bystander radio (node 1 has finished its ABT by now is receiver
    # index 0 -- its pulse ended; reuse is safe only if not emitting).
    radio = tb.radios[1]
    if not radio.tone_emitting(ToneType.ABT):
        radio.tone_pulse(ToneType.ABT, 17 * US)


def test_receiver_cap_limits_window_span():
    """With the default cap, a Reliable Send to 25 receivers splits so no
    ABT-collection span exceeds 20 windows = 340 us < 352 us (the
    shortest neighboring exchange)."""
    config = RmacConfig()
    assert config.max_receivers * DEFAULT_PHY.l_abt < 352 * US


def test_raised_cap_would_violate_the_bound():
    config = RmacConfig(max_receivers=25)
    assert config.max_receivers * DEFAULT_PHY.l_abt > 352 * US
