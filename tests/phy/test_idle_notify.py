"""The busy<->idle notification paths behind the MACs' backoff ticks and
slot countdown."""

from dataclasses import dataclass

import pytest

from repro.phy.busytone import ToneType
from repro.sim.units import US
from repro.world.testbed import MacTestbed


@dataclass(frozen=True)
class Frame:
    size_bytes: int


def test_notify_idle_fires_immediately_when_already_idle():
    tb = MacTestbed(coords=[(0, 0), (50, 0)])
    fired = []
    tb.data_channel.notify_idle(1, lambda: fired.append(tb.sim.now))
    assert fired == [0]


def test_notify_idle_fires_at_transition():
    tb = MacTestbed(coords=[(0, 0), (50, 0)])
    tb.data_channel.transmit(0, Frame(100))  # 496 us airtime
    fired = []
    tb.sim.at(10 * US, lambda: tb.data_channel.notify_idle(1, lambda: fired.append(tb.sim.now)))
    tb.run(5_000_000)
    assert fired == [496 * US + 167]


def test_notify_idle_is_one_shot():
    tb = MacTestbed(coords=[(0, 0), (50, 0)])
    tb.data_channel.transmit(0, Frame(50))
    fired = []
    tb.sim.at(10 * US, lambda: tb.data_channel.notify_idle(1, lambda: fired.append(1)))
    tb.run(2_000_000)
    tb.data_channel.transmit(0, Frame(50))
    tb.run(5_000_000)
    assert fired == [1]  # the second busy period does not re-fire it


def test_notify_idle_sender_side_at_tx_end():
    tb = MacTestbed(coords=[(0, 0), (50, 0)])
    tb.data_channel.transmit(0, Frame(50))  # sender busy with own tx
    fired = []
    tb.sim.at(10 * US, lambda: tb.data_channel.notify_idle(0, lambda: fired.append(tb.sim.now)))
    tb.run(5_000_000)
    # 50 B + 28... Frame(50) raw: airtime = 96 + 200 us = 296 us.
    assert fired == [296 * US]


def test_notify_idle_fires_at_abort():
    tb = MacTestbed(coords=[(0, 0), (50, 0)])
    tx = tb.data_channel.transmit(0, Frame(500))
    fired = []
    tb.sim.at(10 * US, lambda: tb.data_channel.notify_idle(0, lambda: fired.append(tb.sim.now)))
    tb.sim.at(40 * US, lambda: tb.data_channel.abort(tx))
    tb.run(5_000_000)
    assert fired == [40 * US]


def test_tone_notify_idle_immediate_and_at_transition():
    tb = MacTestbed(coords=[(0, 0), (50, 0)])
    channel = tb.tones[ToneType.RBT]
    fired = []
    channel.notify_idle(1, lambda: fired.append(("immediate", tb.sim.now)))
    assert fired == [("immediate", 0)]
    channel.turn_on(0)
    tb.run(1 * US)
    tb.sim.at(100 * US, lambda: channel.notify_idle(1, lambda: fired.append(("cleared", tb.sim.now))))
    tb.sim.at(200 * US, lambda: channel.turn_off(0))
    tb.run(1_000_000)
    assert fired[-1] == ("cleared", 200 * US + 167)


def test_tone_notify_idle_waits_for_all_emitters():
    tb = MacTestbed(coords=[(0, 0), (50, 0), (0, 50)])
    channel = tb.tones[ToneType.RBT]
    channel.turn_on(0)
    channel.turn_on(2)
    tb.run(1 * US)
    fired = []
    tb.sim.at(10 * US, lambda: channel.notify_idle(1, lambda: fired.append(tb.sim.now)))
    tb.sim.at(100 * US, lambda: channel.turn_off(0))
    tb.sim.at(300 * US, lambda: channel.turn_off(2))
    tb.run(1_000_000)
    assert len(fired) == 1
    assert fired[0] > 300 * US  # only when the LAST emitter's tone fades


def test_notify_busy_fires_once_at_the_first_sensed_arrival():
    tb = MacTestbed(coords=[(0, 0), (50, 0), (0, 50)])
    fired = []
    tb.data_channel.notify_busy(1, lambda: fired.append(tb.sim.now))
    tb.sim.at(10 * US, lambda: tb.data_channel.transmit(0, Frame(100)))
    # An overlapping second arrival finds the medium already busy.
    tb.sim.at(20 * US, lambda: tb.data_channel.transmit(2, Frame(100)))
    tb.run(5_000_000)
    assert fired == [10 * US + 167]


def test_notify_busy_fires_on_own_transmission_and_can_be_cancelled():
    tb = MacTestbed(coords=[(0, 0), (50, 0)])
    fired = []
    tb.data_channel.notify_busy(0, lambda: fired.append(("own", tb.sim.now)))
    tb.data_channel.notify_busy(1, lambda: fired.append(("cancelled", tb.sim.now)))
    tb.data_channel.cancel_notify_busy(1)
    tb.sim.at(10 * US, lambda: tb.data_channel.transmit(0, Frame(100)))
    tb.run(5_000_000)
    assert fired == [("own", 10 * US)]


def test_tone_notify_busy_fires_only_when_presence_starts():
    tb = MacTestbed(coords=[(0, 0), (50, 0), (0, 50)])
    channel = tb.tones[ToneType.RBT]
    channel.turn_on(2)
    tb.run(1 * US)
    fired = []
    # Already present at node 1: a second emitter does not fire it.
    channel.notify_busy(1, lambda: fired.append(("second", tb.sim.now)))
    tb.sim.at(10 * US, lambda: channel.turn_on(0))
    tb.run(100 * US)
    channel.cancel_notify_busy(1)
    tb.sim.at(200 * US, lambda: channel.turn_off(0))
    tb.sim.at(200 * US, lambda: channel.turn_off(2))
    tb.run(300 * US)
    channel.notify_busy(1, lambda: fired.append(("fresh", tb.sim.now)))
    tb.sim.at(400 * US, lambda: channel.turn_on(0))
    tb.run(1_000_000)
    assert fired == [("fresh", 400 * US + 167)]


# ---------------------------------------------------------------------------
# One carrier-sense contract for both media
# ---------------------------------------------------------------------------

class _DataMedium:
    """The data channel, made busy by a transmission and idle by its abort."""

    def __init__(self, tb):
        self.channel = tb.data_channel
        self._tx = {}

    def on(self, node):
        self._tx[node] = self.channel.transmit(node, Frame(1000))  # ~4 ms

    def off(self, node):
        self.channel.abort(self._tx.pop(node))


class _ToneMedium:
    """The RBT channel, made busy and idle by turning the tone on and off."""

    def __init__(self, tb):
        self.channel = tb.tones[ToneType.RBT]
        self.on = self.channel.turn_on
        self.off = self.channel.turn_off


@pytest.fixture(params=[_DataMedium, _ToneMedium], ids=["data", "tone"])
def medium(request):
    # Nodes 1 and 2 both sense node 0, 167 ns away.
    tb = MacTestbed(coords=[(0, 0), (50, 0), (0, 50)])
    return tb, request.param(tb)


def test_medium_notify_idle_contract(medium):
    tb, m = medium
    fired = []

    def log(tag):
        return lambda: fired.append((tag, tb.sim.now, m.channel.busy(1)))

    m.channel.notify_idle(1, log("immediate"))
    assert fired == [("immediate", 0, False)]
    tb.sim.at(10 * US, lambda: m.on(0))
    tb.sim.at(20 * US, lambda: m.channel.notify_idle(1, log("idle")))
    tb.sim.at(50 * US, lambda: m.off(0))
    # One-shot: the next busy period does not fire it again.
    tb.sim.at(100 * US, lambda: m.on(0))
    tb.sim.at(150 * US, lambda: m.off(0))
    tb.run(1_000_000)
    assert fired == [("immediate", 0, False), ("idle", 50 * US + 167, False)]


def test_medium_notify_busy_contract(medium):
    tb, m = medium
    fired = []

    def log(tag):
        return lambda: fired.append((tag, tb.sim.now))

    m.channel.notify_busy(1, log("replaced"))
    m.channel.notify_busy(1, log("first"))  # one per node: replaces it
    m.channel.notify_busy(2, log("cancelled"))
    m.channel.cancel_notify_busy(2)
    tb.sim.at(10 * US, lambda: m.on(0))
    tb.sim.at(50 * US, lambda: m.off(0))
    # One-shot: the next busy period does not fire it again.
    tb.sim.at(100 * US, lambda: m.on(0))
    tb.sim.at(150 * US, lambda: m.off(0))
    tb.run(1_000_000)
    assert fired == [("first", 10 * US + 167)]
