"""Full-stack assembly from ScenarioConfig."""

import pytest

from repro.world.network import PROTOCOLS, ScenarioConfig, build_network, register_protocol


SMALL = dict(n_nodes=12, width=200, height=150, rate_pps=5, n_packets=10,
             warmup_s=3.0, drain_s=2.0, seed=2)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        build_network(ScenarioConfig(protocol="nope"))


def test_plain_dcf_is_refused_before_the_run():
    """Plain DCF has no reliable multicast, so the registry refuses it
    when the network is built rather than mid-run at the first forward
    to more than one child."""
    assert "dot11" not in PROTOCOLS
    with pytest.raises(ValueError, match="unknown protocol 'dot11'"):
        build_network(ScenarioConfig(protocol="dot11", **SMALL))


def test_all_registered_protocols_run_the_workload():
    for protocol in ("rmac", "bmmm", "bmw", "lbp", "mx"):
        summary = build_network(ScenarioConfig(protocol=protocol, **SMALL)).run()
        assert summary.n_generated == 10
        assert summary.delivery_ratio is not None
        assert summary.delivery_ratio > 0.3, protocol


def test_variant_replaces_fields():
    config = ScenarioConfig(**SMALL)
    v = config.variant(rate_pps=40, seed=9)
    assert v.rate_pps == 40 and v.seed == 9
    assert v.n_nodes == config.n_nodes
    assert config.rate_pps == 5  # original untouched


def test_static_network_rmac_near_perfect_delivery():
    summary = build_network(ScenarioConfig(protocol="rmac", **SMALL)).run()
    assert summary.delivery_ratio > 0.95
    assert summary.avg_drop_ratio == 0.0


def test_mobile_scenario_builds_and_degrades():
    config = ScenarioConfig(protocol="rmac", mobile=True, min_speed=0.0,
                            max_speed=8.0, pause_s=5.0, **SMALL)
    summary = build_network(config).run()
    assert summary.delivery_ratio is not None
    assert 0 < summary.delivery_ratio <= 1.0


def test_mac_overrides_forwarded():
    config = ScenarioConfig(protocol="rmac", mac_overrides={"retry_limit": 1}, **SMALL)
    net = build_network(config)
    assert net.macs[0].config.retry_limit == 1


def test_custom_protocol_registration():
    from repro.core.rmac import RmacProtocol
    from repro.core.config import RmacConfig

    def factory(node_id, tb, rng, overrides):
        return RmacProtocol(node_id, tb.sim, tb.radios[node_id], rng,
                            RmacConfig())

    register_protocol("custom-rmac", factory)
    try:
        summary = build_network(ScenarioConfig(protocol="custom-rmac", **SMALL)).run()
        assert summary.delivery_ratio > 0.5
    finally:
        PROTOCOLS.pop("custom-rmac", None)


def test_same_seed_same_placement_across_protocols():
    """The paper pairs protocols on identical placements per seed."""
    net_a = build_network(ScenarioConfig(protocol="rmac", **SMALL))
    net_b = build_network(ScenarioConfig(protocol="bmmm", **SMALL))
    assert net_a.coords == net_b.coords
