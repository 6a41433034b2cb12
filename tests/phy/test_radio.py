"""The per-node radio facade."""

from dataclasses import dataclass

from repro.phy.busytone import ToneType
from repro.sim.units import US
from repro.world.testbed import MacTestbed


@dataclass(frozen=True)
class Frame:
    size_bytes: int


class Recorder:
    def __init__(self):
        self.received = []
        self.errors = []
        self.tx_done = []
        self.rx_starts = []

    def on_frame_received(self, frame, sender):
        self.received.append((frame, sender))

    def on_frame_error(self, sender):
        self.errors.append(sender)

    def on_tx_complete(self, frame, aborted):
        self.tx_done.append((frame, aborted))

    def on_rx_start(self, sender):
        self.rx_starts.append(sender)


def make_pair():
    tb = MacTestbed(coords=[(0, 0), (50, 0)])
    recs = [Recorder(), Recorder()]
    for node, rec in enumerate(recs):
        tb.data_channel.attach(node, rec)
    return tb, recs


def test_transmit_and_receive_via_facade():
    tb, recs = make_pair()
    frame = Frame(100)
    tx = tb.radios[0].transmit(frame)
    assert tb.radios[0].is_transmitting
    tb.run(10_000_000)
    assert recs[1].received == [(frame, 0)]
    assert recs[0].tx_done == [(frame, False)]
    assert not tb.radios[0].is_transmitting


def test_abort_via_facade():
    tb, recs = make_pair()
    tx = tb.radios[0].transmit(Frame(500))
    tb.sim.at(5 * US, lambda: tb.radios[0].abort(tx))
    tb.run(10_000_000)
    assert recs[0].tx_done[0][1] is True
    assert recs[1].errors == [0]


def test_frame_airtime_helper():
    tb, _ = make_pair()
    assert tb.radios[0].frame_airtime(Frame(14)) == 152 * US


def test_tone_roundtrip_via_facade():
    tb, _ = make_pair()
    r0, r1 = tb.radios
    r0.tone_on(ToneType.RBT)
    assert r0.tone_emitting(ToneType.RBT)
    states = {}
    tb.sim.at(1000, lambda: states.update(r1_sees=r1.tone_present(ToneType.RBT),
                                          r0_self=r0.tone_present(ToneType.RBT)))
    tb.run(2000)
    assert states == {"r1_sees": True, "r0_self": False}
    r0.tone_off(ToneType.RBT)
    assert not r0.tone_emitting(ToneType.RBT)


def test_tone_watch_via_facade():
    tb, _ = make_pair()
    hits = []
    tb.radios[1].watch_tone(ToneType.ABT, lambda tone: hits.append(tone))
    tb.radios[0].tone_pulse(ToneType.ABT, 17 * US)
    tb.run(1_000_000)
    assert hits == [ToneType.ABT]


def test_data_busy_and_idle_duration():
    tb, recs = make_pair()
    tb.radios[0].transmit(Frame(14))
    states = {}
    tb.sim.at(50 * US, lambda: states.update(busy=tb.radios[1].data_busy()))
    tb.run(1_000_000)
    assert states["busy"] is True
    assert not tb.radios[1].data_busy()
    assert tb.radios[1].data_idle_duration() > 0
