"""Closed-form per-hop capacity model."""

import pytest

from repro.analysis.capacity import (
    bmmm_transaction_time,
    max_forwarding_rate,
    rmac_transaction_time,
    saturation_rate,
)
from repro.sim.units import US


def test_rmac_transaction_composition():
    # 2 receivers, 500 B: MRTS(24B=192us) + 17 + DATA(522B=2184us) + 2*17.
    assert rmac_transaction_time(2, 500) == (192 + 17 + 2184 + 34) * US


def test_bmmm_transaction_is_much_longer():
    n, payload = 4, 500
    assert bmmm_transaction_time(n, payload) > rmac_transaction_time(n, payload)
    # The gap grows linearly in n (632 us vs 41 us per receiver).
    gap_small = bmmm_transaction_time(1, payload) - rmac_transaction_time(1, payload)
    gap_large = bmmm_transaction_time(10, payload) - rmac_transaction_time(10, payload)
    assert gap_large > gap_small


def test_max_forwarding_rate_inverse():
    assert max_forwarding_rate(1_000_000) == pytest.approx(1000.0)
    with pytest.raises(ValueError):
        max_forwarding_rate(0)


def test_saturation_rate_divides_by_contending_forwarders():
    one = saturation_rate(3, 500, forwarders_sharing_channel=1)
    four = saturation_rate(3, 500, forwarders_sharing_channel=4)
    assert one == pytest.approx(4 * four)


def test_saturation_rate_paper_workload_above_120pps():
    """The paper pushes 120 pkt/s through ~3.5-child forwarders; RMAC's
    floor capacity must clear it comfortably (BMMM's much less so)."""
    rmac = saturation_rate(4, 500, forwarders_sharing_channel=3, protocol="rmac")
    bmmm = saturation_rate(4, 500, forwarders_sharing_channel=3, protocol="bmmm")
    assert rmac > 120
    assert rmac > bmmm


def test_validation():
    with pytest.raises(ValueError):
        saturation_rate(1, 100, 0)
    with pytest.raises(ValueError):
        saturation_rate(1, 100, 1, protocol="nope")


def test_capacity_floor_vs_simulation():
    """The simulated network never beats the zero-contention floor, and
    BMMM's delay knee arrives before RMAC's -- the mechanism behind
    Fig. 9's separation."""
    from repro.sim.units import SEC
    from repro.world.network import ScenarioConfig, build_network

    base = dict(n_nodes=16, width=220, height=160, n_packets=60,
                warmup_s=4.0, drain_s=6.0, seed=3)
    delay = {
        (protocol, rate): build_network(
            ScenarioConfig(protocol=protocol, rate_pps=rate, **base)
        ).run().avg_delay_s
        for protocol in ("rmac", "bmmm") for rate in (10, 80)
    }
    # Per-packet delay can never beat the single-hop floor.
    for (protocol, rate), delay_s in delay.items():
        assert delay_s * SEC >= rmac_transaction_time(1, 500) * 0.5
    # The load-induced delay growth is steeper for BMMM (earlier knee).
    rmac_growth = delay[("rmac", 80)] / delay[("rmac", 10)]
    bmmm_growth = delay[("bmmm", 80)] / delay[("bmmm", 10)]
    assert bmmm_growth > rmac_growth
