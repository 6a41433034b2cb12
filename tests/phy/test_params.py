"""802.11b timing constants -- the numbers Section 2 relies on."""

import dataclasses
import pickle

import pytest

from repro.phy.params import DEFAULT_PHY, PhyParams, _bits_airtime
from repro.sim.units import US


def test_phy_overhead_is_96_us():
    assert DEFAULT_PHY.phy_overhead == 96 * US
    assert DEFAULT_PHY.preamble_airtime == 72 * US
    assert DEFAULT_PHY.plcp_header_airtime == 24 * US


def test_ack_airtime_matches_paper():
    # "The transmission of an ACK frame (14 bytes) only takes 56 us if
    # transmitted at 2 Mbps."
    assert DEFAULT_PHY.payload_airtime(14) == 56 * US
    assert DEFAULT_PHY.frame_airtime(14) == 152 * US


def test_difs_is_50_us():
    assert DEFAULT_PHY.difs == 50 * US
    assert DEFAULT_PHY.sifs == 10 * US
    assert DEFAULT_PHY.slot_time == 20 * US
    assert DEFAULT_PHY.cca_time == 15 * US


def test_payload_airtime_scales_linearly():
    assert DEFAULT_PHY.payload_airtime(500) == 2000 * US
    assert DEFAULT_PHY.payload_airtime(0) == 0


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        DEFAULT_PHY.payload_airtime(-1)


def test_bits_airtime_requires_integral_ns():
    assert _bits_airtime(8, 2_000_000) == 4 * US
    with pytest.raises(ValueError):
        _bits_airtime(1, 3_000_000)  # 333.33 ns


def test_custom_bitrate():
    phy = PhyParams(bitrate=1_000_000)
    assert phy.payload_airtime(14) == 112 * US


def test_frame_airtime_composition():
    phy = DEFAULT_PHY
    for n in (14, 20, 48, 512):
        assert phy.frame_airtime(n) == phy.phy_overhead + phy.payload_airtime(n)


def _formula(phy, nbytes):
    return (_bits_airtime(phy.preamble_bits, phy.preamble_rate)
            + _bits_airtime(phy.plcp_header_bits, phy.plcp_header_rate)
            + _bits_airtime(8 * nbytes, phy.bitrate))


def test_frame_airtime_memo_matches_the_formula():
    """frame_airtime answers from a per-size memo; every answer, first or
    repeated, is the airtime formula's, and a replaced PhyParams (another
    bitrate) never reads the default's memo."""
    fast = dataclasses.replace(DEFAULT_PHY, bitrate=4_000_000)
    for phy in (DEFAULT_PHY, fast, DEFAULT_PHY, fast):
        for nbytes in range(2401):
            assert phy.frame_airtime(nbytes) == _formula(phy, nbytes)
    assert fast.frame_airtime(14) == 96 * US + 28 * US
    assert DEFAULT_PHY.frame_airtime(14) == 152 * US


def test_frame_airtime_rejects_negative_sizes_every_time():
    for _ in range(3):
        with pytest.raises(ValueError):
            DEFAULT_PHY.frame_airtime(-1)


def test_memo_leaves_equality_hash_and_pickle_unchanged():
    DEFAULT_PHY.frame_airtime(100)  # fill the memo
    fresh = PhyParams()
    assert fresh == DEFAULT_PHY and hash(fresh) == hash(DEFAULT_PHY)
    assert repr(fresh) == repr(DEFAULT_PHY)
    assert dataclasses.asdict(fresh) == dataclasses.asdict(DEFAULT_PHY)
    assert pickle.dumps(fresh) == pickle.dumps(DEFAULT_PHY)
    for phy in (DEFAULT_PHY, PhyParams(bitrate=1_000_000)):
        clone = pickle.loads(pickle.dumps(phy))
        assert clone == phy and hash(clone) == hash(phy)
        assert clone.frame_airtime(100) == _formula(phy, 100)
    other = PhyParams(bitrate=1_000_000)
    assert other != DEFAULT_PHY and hash(other) != hash(DEFAULT_PHY)
