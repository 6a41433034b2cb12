"""The protocol-level testbed assembly."""

import pytest

from repro.core import RmacConfig, RmacProtocol
from repro.mobility.base import MobilityProvider
from repro.mobility.stationary import StationaryModel
from repro.phy.busytone import ToneType
from repro.phy.neighbors import LinkPowerSpec
from repro.phy.propagation import UnitDiskModel
from repro.phy.sinr import SinrConfig
from repro.world.testbed import MacTestbed


def test_requires_coords_or_provider():
    with pytest.raises(ValueError):
        MacTestbed()
    provider = MobilityProvider([StationaryModel(0, 0)])
    with pytest.raises(ValueError):
        MacTestbed(provider=provider)  # n_nodes missing
    tb = MacTestbed(provider=provider, n_nodes=1)
    assert tb.n_nodes == 1


def test_radios_and_tone_channels_wired():
    tb = MacTestbed(coords=[(0, 0), (50, 0)])
    assert len(tb.radios) == 2
    assert set(tb.tones) == {ToneType.RBT, ToneType.ABT}
    assert tb.radios[0].node_id == 0


def test_node_rngs_are_stable_and_distinct():
    tb = MacTestbed(coords=[(0, 0), (50, 0)], seed=4)
    assert tb.node_rng(0) is tb.node_rng(0)
    tb2 = MacTestbed(coords=[(0, 0), (50, 0)], seed=4)
    assert tb.node_rng(0).random() == tb2.node_rng(0).random()
    assert tb.node_rng(0) is not tb.node_rng(1)


def test_build_macs_starts_protocols():
    started = []

    class SpyMac:
        def __init__(self, i):
            self.i = i

        def start(self):
            started.append(self.i)

    tb = MacTestbed(coords=[(0, 0), (50, 0)])
    tb.build_macs(lambda i, t: SpyMac(i))
    assert started == [0, 1]


def test_links_default_to_the_unit_disk_spec():
    tb = MacTestbed(coords=[(0, 0), (10, 0)])
    model, spec = tb.neighbors.model, tb.neighbors.power_spec
    assert isinstance(model, UnitDiskModel)
    assert model.radio_range == spec.prune_range == tb.phy.radio_range
    unit = LinkPowerSpec.unit_disk(tb.phy.radio_range)
    assert ((spec.rx_threshold_dbm, spec.cs_threshold_dbm,
             spec.keep_threshold_dbm)
            == (unit.rx_threshold_dbm, unit.cs_threshold_dbm,
                unit.keep_threshold_dbm))
    assert tb.sinr_state is None


def test_run_advances_clock():
    tb = MacTestbed(coords=[(0, 0)])
    assert tb.run(1_000_000) == 1_000_000
    assert tb.sim.now == 1_000_000


def test_rmac_protocol_over_log_distance_model():
    """The stack works over a non-unit-disk propagation model too."""
    # Log-distance at the default thresholds decodes out to ~27 m; keep
    # nodes inside.
    tb = MacTestbed(coords=[(0, 0), (20, 0), (0, 20)],
                    sinr=SinrConfig(propagation="logdistance"))
    cfg = RmacConfig(phy=tb.phy)
    tb.build_macs(lambda i, t: RmacProtocol(i, t.sim, t.radios[i],
                                            t.node_rng(i), cfg))
    got = []
    tb.macs[1].upper_rx = lambda p, s: got.append(p)
    tb.macs[0].send_reliable((1, 2), "pkt", 200)
    tb.run(50_000_000)
    assert got == ["pkt"]
