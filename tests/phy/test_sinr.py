"""The SINR interference subsystem: reception, wiring, channel.

The headline behavioral test is the hidden-interference scenario: an
interferer *below* the receiver's carrier-sense threshold (so the
threshold model does not even build a link to it) still injects enough
energy to push a decodable frame under the SINR threshold. The classic
overlap model delivers; SINR drops -- the loss busy tones exist to
prevent, and one the paper's fixed-range model cannot express.
"""

import math
import random
from dataclasses import dataclass

import pytest

from repro.phy.busytone import BusyToneChannel, ToneType
from repro.phy.channel import DataChannel
from repro.phy.neighbors import LinkPowerSpec, NeighborService, StaticPositions
from repro.phy.params import DEFAULT_PHY
from repro.phy.propagation import (
    IN_RANGE_POWER_DBM,
    LogDistanceModel,
    LogDistanceShadowing,
    UnitDiskModel,
)
from repro.phy.sinr import (
    RayleighFading,
    RicianFading,
    SinrConfig,
    SinrReceptionModel,
    dbm_to_mw,
    mw_to_dbm,
    node_radio_offsets,
    wire_sinr,
)
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
        self.rx_starts = []

    def on_frame_received(self, frame, sender):
        self.received.append((frame, sender))

    def on_frame_error(self, sender):
        self.errors.append(sender)

    def on_tx_complete(self, frame, aborted):
        pass

    def on_rx_start(self, sender):
        self.rx_starts.append(sender)


# ----------------------------------------------------------------------
# Unit conversions and the reception model
# ----------------------------------------------------------------------
def test_dbm_mw_round_trip():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(-30.0) == pytest.approx(1e-3)
    assert mw_to_dbm(dbm_to_mw(-67.3)) == pytest.approx(-67.3)
    assert mw_to_dbm(0.0) == -math.inf


def test_reception_model_sinr_math():
    model = SinrReceptionModel(10.0, -90.0)
    # No interference: signal over the noise floor alone.
    assert model.sinr_db(dbm_to_mw(-60.0), 0.0) == pytest.approx(30.0)
    # Equal-power interferer drowns the noise term.
    assert model.sinr_db(1.0, 1.0) == pytest.approx(0.0, abs=1e-6)
    assert model.sinr_db(0.0, 0.0) == -math.inf
    assert model.decodes(10.0) and not model.decodes(9.999)


def test_reception_model_none_threshold_always_decodes():
    model = SinrReceptionModel(None, -90.0)
    assert model.decodes(-math.inf)


# ----------------------------------------------------------------------
# SinrConfig validation and serialization
# ----------------------------------------------------------------------
def test_config_round_trip():
    config = SinrConfig(propagation="logdistance", sinr_threshold_db=12,
                        tx_power_jitter_db=2.0, fading="rician")
    clone = SinrConfig.from_dict(config.to_dict())
    assert clone == config


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        SinrConfig.from_dict({"propagation": "shadowing", "bogus": 1})


def test_config_int_floats_hash_identically():
    assert SinrConfig(noise_floor_dbm=-90) == SinrConfig(noise_floor_dbm=-90.0)
    assert SinrConfig(sinr_threshold_db=10) == SinrConfig(sinr_threshold_db=10.0)


def test_config_validation_errors():
    with pytest.raises(ValueError, match="propagation"):
        SinrConfig(propagation="freespace")
    with pytest.raises(ValueError, match="fading"):
        SinrConfig(fading="nakagami")
    with pytest.raises(ValueError, match="jitter"):
        SinrConfig(tx_power_jitter_db=-1.0)
    with pytest.raises(ValueError, match="cutoff"):
        SinrConfig(interference_cutoff_dbm=-70.0)  # above cs threshold
    with pytest.raises(ValueError, match="unitdisk"):
        SinrConfig(propagation="unitdisk", tx_power_jitter_db=3.0)


def test_link_power_spec_rejects_decodable_but_unsensed_links():
    """A decodable link must be carrier-sensed: a link view's sensed
    group (arrival events, tones) then holds every link that decodes."""
    LinkPowerSpec(rx_threshold_dbm=-75.0, cs_threshold_dbm=-75.0,
                  keep_threshold_dbm=-90.0, prune_range=100.0)
    with pytest.raises(ValueError, match="rx_threshold_dbm"):
        LinkPowerSpec(rx_threshold_dbm=-80.0, cs_threshold_dbm=-75.0,
                      keep_threshold_dbm=-90.0, prune_range=100.0)


def test_config_effective_cutoff_defaults_to_noise_floor():
    assert SinrConfig().effective_cutoff_dbm() == -90.0
    assert SinrConfig(
        interference_cutoff_dbm=-85.0).effective_cutoff_dbm() == -85.0


# ----------------------------------------------------------------------
# Fading samplers
# ----------------------------------------------------------------------
def test_fading_deterministic_in_seed():
    a = [RayleighFading().gain(random.Random(7)) for _ in range(3)]
    b = [RayleighFading().gain(random.Random(7)) for _ in range(3)]
    assert a == b
    rng_a, rng_b = random.Random(9), random.Random(9)
    rician = RicianFading(6.0)
    assert [rician.gain(rng_a) for _ in range(5)] == [
        rician.gain(rng_b) for _ in range(5)]


def test_fading_gains_average_to_unity():
    rng = random.Random(123)
    rayleigh = RayleighFading()
    mean = sum(rayleigh.gain(rng) for _ in range(20_000)) / 20_000
    assert mean == pytest.approx(1.0, rel=0.05)
    rician = RicianFading(6.0)
    mean = sum(rician.gain(rng) for _ in range(20_000)) / 20_000
    assert mean == pytest.approx(1.0, rel=0.05)


# ----------------------------------------------------------------------
# Heterogeneous radios and wiring
# ----------------------------------------------------------------------
def test_homogeneous_radios_skip_offset_arrays():
    assert node_radio_offsets(SinrConfig(), 10, 1) == (None, None)


def test_radio_offsets_deterministic_and_bounded():
    config = SinrConfig(tx_power_jitter_db=3.0, antenna_gain_db=2.0,
                        antenna_gain_jitter_db=1.0)
    tx_a, rx_a = node_radio_offsets(config, 20, seed=5)
    tx_b, rx_b = node_radio_offsets(config, 20, seed=5)
    assert tx_a.tolist() == tx_b.tolist()
    assert rx_a.tolist() == rx_b.tolist()
    tx_c, _ = node_radio_offsets(config, 20, seed=6)
    assert tx_a.tolist() != tx_c.tolist()
    assert all(abs(g - 2.0) <= 1.0 for g in rx_a)
    assert all(abs(t) <= 3.0 + 3.0 for t in tx_a)


def test_wire_sinr_unitdisk_keeps_classic_links():
    wiring = wire_sinr(SinrConfig(propagation="unitdisk"), DEFAULT_PHY, 5, 1)
    assert isinstance(wiring.model, UnitDiskModel)
    assert wiring.model.radio_range == DEFAULT_PHY.radio_range
    spec = wiring.power_spec
    assert (spec.rx_threshold_dbm, spec.cs_threshold_dbm,
            spec.keep_threshold_dbm) == (IN_RANGE_POWER_DBM,) * 3
    assert spec.prune_range == DEFAULT_PHY.radio_range
    assert spec.tx_offset_dbm is None


def test_wire_sinr_shadowing_builds_power_spec():
    config = SinrConfig()
    wiring = wire_sinr(config, DEFAULT_PHY, 5, 1)
    assert isinstance(wiring.model, LogDistanceShadowing)
    spec = wiring.power_spec
    assert spec.keep_threshold_dbm == config.noise_floor_dbm
    assert spec.cs_threshold_dbm == config.cs_threshold_dbm
    # The spatial prune radius covers the interference cutoff with full
    # shadow headroom, so it exceeds the sense radius with that headroom.
    model = wiring.model
    assert spec.prune_range > model.range_for_threshold(
        config.cs_threshold_dbm - model.max_shadow_db())


def test_wire_sinr_heterogeneous_offsets_extend_prune_range():
    base = wire_sinr(SinrConfig(propagation="logdistance"), DEFAULT_PHY, 8, 1)
    hetero = wire_sinr(
        SinrConfig(propagation="logdistance", antenna_gain_db=3.0),
        DEFAULT_PHY, 8, 1)
    assert hetero.power_spec.tx_offset_dbm is not None
    assert hetero.power_spec.prune_range > base.power_spec.prune_range


def test_wire_sinr_shadow_seed_differs_per_run_seed():
    a = wire_sinr(SinrConfig(), DEFAULT_PHY, 5, seed=1)
    b = wire_sinr(SinrConfig(), DEFAULT_PHY, 5, seed=2)
    assert a.model.seed != b.model.seed
    assert a.model.seed == wire_sinr(SinrConfig(), DEFAULT_PHY, 5, 1).model.seed


def test_build_state_constructs_fading_sampler():
    config = SinrConfig(fading="rician", rician_k_db=9.0)
    state = wire_sinr(config, DEFAULT_PHY, 5, 1).build_state(random.Random(3))
    assert isinstance(state.fading, RicianFading)
    assert state.fading.k_db == 9.0
    state = wire_sinr(SinrConfig(), DEFAULT_PHY, 5, 1).build_state()
    assert state.fading is None


# ----------------------------------------------------------------------
# SINR-wired link tables feeding the channel
# ----------------------------------------------------------------------
def _power_world(coords, config, seed=1):
    """Channel + recorders over the link tables ``config`` wires."""
    sim = Simulator()
    wiring = wire_sinr(config, DEFAULT_PHY, len(coords), seed)
    svc = NeighborService(StaticPositions(coords), wiring.model,
                          wiring.power_spec)
    state = wiring.build_state(random.Random(seed))
    channel = DataChannel(sim, svc, DEFAULT_PHY, sinr=state)
    recorders = []
    for node in range(len(coords)):
        rec = Recorder()
        channel.attach(node, rec)
        recorders.append(rec)
    return sim, channel, recorders, state


# LogDistanceModel defaults: P(d) = 15 - 40 - 28*log10(d) dBm, so the
# rx edge (-65 dBm) sits at ~26.8 m and the cs edge (-75 dBm) at ~61 m.
HIDDEN = dict(
    receiver=(0.0, 0.0),
    sender=(20.0, 0.0),       # -61.4 dBm at the receiver: decodable
    interferer=(-62.0, 0.0),  # -75.2 dBm: below carrier sense, hidden
)


def test_hidden_interferer_drops_frame_threshold_model_delivers():
    """The acceptance scenario: an interferer the threshold model cannot
    even see (below cs at the receiver => no link at all) lands the SINR
    decision below threshold. Classic delivers; SINR drops."""
    coords = [HIDDEN["receiver"], HIDDEN["sender"], HIDDEN["interferer"]]
    config = SinrConfig(propagation="logdistance", sinr_threshold_db=15.0)

    # Threshold model: the interferer has no link to the receiver, so
    # the overlap rule sees a clean solo reception.
    sim = Simulator()
    model = LogDistanceModel()
    svc = NeighborService(StaticPositions(coords), model,
                          threshold_spec(model))
    channel = DataChannel(sim, svc, DEFAULT_PHY)
    recs = [Recorder() for _ in coords]
    for node, rec in enumerate(recs):
        channel.attach(node, rec)
    frame = Frame(100, "data")
    channel.transmit(1, frame)
    sim.at(10 * US, lambda: channel.transmit(2, Frame(100, "noise")))
    sim.run()
    assert recs[0].received == [(frame, 1)]

    # SINR: signal -61.4 dBm against interference -75.2 dBm + noise
    # -90 dBm is ~13.7 dB, under the 15 dB threshold.
    sim, channel, recs, state = _power_world(coords, config)
    frame = Frame(100, "data")
    channel.transmit(1, frame)
    sim.at(10 * US, lambda: channel.transmit(2, Frame(100, "noise")))
    sim.run()
    assert recs[0].received == []
    assert recs[0].errors == [1]
    assert state.counters.dropped == 1
    stats = state.stats()
    assert stats["sinr_dropped"] == 1
    assert stats["concurrent_high_water"] == 2


def test_interference_only_link_never_raises_carrier_sense():
    coords = [HIDDEN["receiver"], HIDDEN["sender"], HIDDEN["interferer"]]
    config = SinrConfig(propagation="logdistance", sinr_threshold_db=15.0)
    sim, channel, recs, state = _power_world(coords, config)
    # The hidden interferer transmits first: its energy reaches the
    # receiver but must never flip carrier sense there.
    channel.transmit(2, Frame(100))
    seen = {}
    sim.at(50 * US, lambda: seen.update(busy=channel.busy(0)))
    sim.at(60 * US, lambda: channel.transmit(1, Frame(100, "data")))
    sim.run()
    assert seen == {"busy": False}
    # Its power still counted: the frame from node 1, decodable and
    # overlapping it, dropped on SINR (~13.7 dB against 15 dB).
    assert recs[0].rx_starts == [1]
    assert recs[0].errors == [1]
    assert state.counters.dropped == 1
    assert state.stats()["concurrent_high_water"] == 2
    assert not channel.busy(0)      # and the teardown balanced


def test_solo_delivery_records_sinr_stats():
    coords = [HIDDEN["receiver"], HIDDEN["sender"]]
    config = SinrConfig(propagation="logdistance")
    sim, channel, recs, state = _power_world(coords, config)
    channel.transmit(1, Frame(100))
    sim.run()
    assert len(recs[0].received) == 1
    stats = state.stats()
    assert stats["sinr_dropped"] == 0
    assert stats["delivered"] == 1
    # Signal -61.4 dBm over the -90 dBm noise floor alone: ~28.6 dB.
    assert stats["mean_sinr_db"] == pytest.approx(28.6, abs=0.2)
    assert stats["min_sinr_db"] == stats["mean_sinr_db"]


def test_unitdisk_sinr_reproduces_overlap_collision():
    """Equal constant powers through the real SINR stage: any overlap is
    ~0 dB SINR, no overlap is ~90 dB -- the paper's rule, derived."""
    config = SinrConfig(propagation="unitdisk")
    wiring = wire_sinr(config, DEFAULT_PHY, 3, 1)
    sim = Simulator()
    svc = NeighborService(StaticPositions([(0, 0), (60, 0), (120, 0)]),
                          wiring.model, wiring.power_spec)
    state = wiring.build_state()
    channel = DataChannel(sim, svc, DEFAULT_PHY, sinr=state)
    recs = [Recorder() for _ in range(3)]
    for node, rec in enumerate(recs):
        channel.attach(node, rec)
    channel.transmit(0, Frame(100, "a"))
    sim.at(10 * US, lambda: channel.transmit(2, Frame(100, "b")))
    sim.run()
    assert recs[1].received == []
    assert len(recs[1].errors) == 2
    assert state.counters.dropped == 2


def test_fading_runs_are_seed_deterministic():
    config = SinrConfig(propagation="logdistance", fading="rayleigh")

    def run(seed):
        sim, channel, recs, state = _power_world(
            [HIDDEN["receiver"], HIDDEN["sender"]], config, seed=seed)
        for start in range(6):
            sim.at(start * 700 * US,
                   lambda: channel.transmit(1, Frame(100)))
        sim.run()
        return len(recs[0].received), state.stats()["mean_sinr_db"]

    assert run(4) == run(4)


# ----------------------------------------------------------------------
# Busy tones in the power domain
# ----------------------------------------------------------------------
def test_tone_reaches_sensed_links_only():
    coords = [HIDDEN["receiver"], HIDDEN["sender"], HIDDEN["interferer"]]
    config = SinrConfig(propagation="logdistance")
    wiring = wire_sinr(config, DEFAULT_PHY, len(coords), 1)
    sim = Simulator()
    svc = NeighborService(StaticPositions(coords), wiring.model,
                          wiring.power_spec)
    tone = BusyToneChannel(sim, svc, ToneType.RBT,
                           detect_time=DEFAULT_PHY.cca_time)
    # Node 0 emits: node 1 (-61.4 dBm) clears the -75 dBm carrier-sense
    # threshold, node 2 (-75.2 dBm) is interference-only and must not.
    tone.turn_on(0)
    seen = {}
    sim.at(20 * US, lambda: seen.update(near=tone.busy(1),
                                        far=tone.busy(2)))
    sim.at(30 * US, lambda: tone.turn_off(0))
    sim.run()
    assert seen == {"near": True, "far": False}


def test_unit_disk_base_power_constant_in_range():
    model = UnitDiskModel(75.0)
    assert model.received_power_dbm(50.0) == IN_RANGE_POWER_DBM
    assert model.received_power_dbm(80.0) == -math.inf
    batch = model.received_power_dbm_batch(
        __import__("numpy").array([50.0, 80.0]))
    assert batch.tolist() == [IN_RANGE_POWER_DBM, -math.inf]
