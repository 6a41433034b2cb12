"""Capture: a strong frame surviving a weak overlap (extension over the
paper's model).

Capture is the SINR reception decision with the capture margin as the
decode threshold: with one interferer, a frame survives iff it beats
the interferer by the margin.
"""

from dataclasses import dataclass

import pytest

from repro.phy.channel import DataChannel
from repro.phy.neighbors import LinkPowerSpec, NeighborService, StaticPositions
from repro.phy.params import DEFAULT_PHY
from repro.phy.propagation import LogDistanceModel, UnitDiskModel
from repro.phy.sinr import SinrReceptionModel, SinrState
from repro.sim.engine import Simulator
from repro.sim.units import US
from tests.phy.link_oracle import threshold_spec


@dataclass(frozen=True)
class Frame:
    size_bytes: int
    tag: str = ""


class Recorder:
    def __init__(self):
        self.received = []
        self.errors = []

    def on_frame_received(self, frame, sender):
        self.received.append((frame.tag, sender))

    def on_frame_error(self, sender):
        self.errors.append(sender)

    def on_tx_complete(self, frame, aborted):
        pass

    def on_rx_start(self, sender):
        pass


def make(coords, capture_db=None, unit_disk=False):
    """A channel whose reception captures at ``capture_db`` (None: the
    paper's all-overlaps-collide rule), over log-distance thresholds or
    the unit disk."""
    sim = Simulator()
    if unit_disk:
        model, spec = UnitDiskModel(75.0), LinkPowerSpec.unit_disk(75.0)
    else:
        model = LogDistanceModel(path_loss_exponent=3.0)
        spec = threshold_spec(model)
    svc = NeighborService(StaticPositions(coords), model, spec)
    sinr = None
    if capture_db is not None:
        sinr = SinrState(SinrReceptionModel(capture_db, noise_floor_dbm=-90.0))
    channel = DataChannel(sim, svc, DEFAULT_PHY, sinr=sinr)
    recorders = []
    for node in range(len(coords)):
        rec = Recorder()
        channel.attach(node, rec)
        recorders.append(rec)
    return sim, channel, recorders


# Node 1 sits 5 m from node 0 and 12 m from node 2: with exponent 3 both
# signals are decodable at node 1 but the near one is ~11 dB stronger.
NEAR_FAR = [(0.0, 0.0), (5.0, 0.0), (17.0, 0.0)]


def test_strong_frame_survives_weak_interferer():
    sim, ch, recs = make(NEAR_FAR, capture_db=10.0)
    ch.transmit(0, Frame(100, "strong"))
    sim.at(20 * US, lambda: ch.transmit(2, Frame(100, "weak")))
    sim.run()
    assert ("strong", 0) in recs[1].received
    # The weak frame still dies at node 1.
    assert 2 in recs[1].errors


def test_late_strong_frame_captures_the_receiver():
    sim, ch, recs = make(NEAR_FAR, capture_db=10.0)
    ch.transmit(2, Frame(100, "weak"))
    sim.at(20 * US, lambda: ch.transmit(0, Frame(100, "strong")))
    sim.run()
    assert ("strong", 0) in recs[1].received
    assert 2 in recs[1].errors


def test_comparable_powers_still_collide():
    # Two transmitters equidistant from the middle: neither clears 10 dB.
    coords = [(0.0, 0.0), (12.0, 0.0), (24.0, 0.0)]
    sim, ch, recs = make(coords, capture_db=10.0)
    ch.transmit(0, Frame(100, "a"))
    sim.at(20 * US, lambda: ch.transmit(2, Frame(100, "b")))
    sim.run()
    assert recs[1].received == []
    assert sorted(recs[1].errors) == [0, 2]


def test_capture_disabled_everything_collides():
    sim, ch, recs = make(NEAR_FAR, capture_db=None)
    ch.transmit(0, Frame(100, "strong"))
    sim.at(20 * US, lambda: ch.transmit(2, Frame(100, "weak")))
    sim.run()
    assert recs[1].received == []


def test_capture_with_unit_disk_falls_back_to_collision():
    # Unit-disk links all carry the same constant power: no frame can
    # beat another by the margin, so capture degrades to the paper's
    # model rather than misbehaving.
    sim, ch, recs = make([(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)],
                         capture_db=10.0, unit_disk=True)
    ch.transmit(0, Frame(100, "a"))
    sim.at(20 * US, lambda: ch.transmit(2, Frame(100, "b")))
    sim.run()
    assert recs[1].received == []


def test_signal_power_bookkeeping_drains():
    sim, ch, recs = make(NEAR_FAR, capture_db=10.0)
    ch.transmit(0, Frame(50, "x"))
    sim.at(20 * US, lambda: ch.transmit(2, Frame(50, "y")))
    sim.run()
    sim.run(until=sim.now + 10 * US)
    # Both signals were in the air at node 1 together.
    assert ch.sinr.stats()["concurrent_high_water"] == 2
    # Nothing of them is left anywhere: a later solo frame decodes at
    # each receiver with the SINR it has on a fresh channel.
    for sender in (0, 2):
        before = ch.sinr.counters.sum_sinr_db
        ch.transmit(sender, Frame(50, "solo"))
        sim.run()
        fresh_sim, fresh, _ = make(NEAR_FAR, capture_db=10.0)
        fresh.transmit(sender, Frame(50, "solo"))
        fresh_sim.run()
        assert (ch.sinr.counters.sum_sinr_db - before
                == pytest.approx(fresh.sinr.counters.sum_sinr_db, abs=1e-9))
