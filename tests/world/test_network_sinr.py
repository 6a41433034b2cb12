"""The SINR subsystem through the full stack: config hashing, run stats,
store round trips, oracle-clean protocol sweeps, campaign resume."""

from dataclasses import asdict

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.farm import CampaignFarm
from repro.experiments.scenarios import scaled_scenario, sinr_preset
from repro.experiments.store import ResultStore, config_hash
from repro.metrics.summary import RunSummary
from repro.phy.sinr import SinrConfig
from repro.world.network import ScenarioConfig, build_network

SMALL = dict(n_nodes=12, width=200.0, height=140.0, rate_pps=20,
             n_packets=10, warmup_s=2.0, drain_s=2.0,
             require_connected=False)

SHADOWING = sinr_preset("shadowing")


# ----------------------------------------------------------------------
# Config hashing
# ----------------------------------------------------------------------
def test_sinr_config_is_part_of_the_hash():
    base = ScenarioConfig(**SMALL)
    shadowed = base.variant(sinr=SHADOWING)
    assert config_hash(shadowed) != config_hash(base)
    assert config_hash(shadowed) != config_hash(
        base.variant(sinr=sinr_preset("shadowing", shadowing_sigma_db=8.0)))
    # Equal configs (int/float spellings included) hash equally.
    assert config_hash(shadowed) == config_hash(
        base.variant(sinr=SinrConfig(propagation="shadowing",
                                     sinr_threshold_db=10)))


# ----------------------------------------------------------------------
# Full-stack runs: stats, determinism
# ----------------------------------------------------------------------
def test_shadowing_run_collects_stats():
    config = ScenarioConfig(protocol="rmac", seed=3, sinr=SHADOWING, **SMALL)
    network = build_network(config)
    summary = network.run()
    stats = summary.sinr
    assert stats is not None
    assert stats["delivered"] > 0
    assert stats["concurrent_high_water"] >= 1
    assert stats["mean_sinr_db"] is not None
    assert stats["min_sinr_db"] <= stats["mean_sinr_db"]
    # The summary carries the run's SINR state as it ended.
    assert network.testbed.sinr_state.stats() == stats


def test_threshold_run_has_no_sinr_stats():
    summary = build_network(
        ScenarioConfig(protocol="rmac", seed=3, **SMALL)).run()
    assert summary.sinr is None


def test_shadowing_run_deterministic_in_seed():
    config = ScenarioConfig(protocol="rmac", seed=11,
                            sinr=sinr_preset("fading"), **SMALL)
    a = build_network(config).run()
    b = build_network(config).run()
    assert asdict(a) == asdict(b)
    c = build_network(config.variant(seed=12)).run()
    assert asdict(c) != asdict(a)


def test_heterogeneous_radios_run_end_to_end():
    config = ScenarioConfig(
        protocol="rmac", seed=5,
        sinr=sinr_preset("shadowing", tx_power_jitter_db=3.0,
                         antenna_gain_jitter_db=1.0),
        **SMALL)
    summary = build_network(config).run()
    assert summary.sinr["delivered"] > 0


# ----------------------------------------------------------------------
# Oracle-clean protocol sweep under shadowing (acceptance criterion)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["rmac", "bmmm"])
@pytest.mark.parametrize("mobile", [False, True])
def test_protocols_run_oracle_clean_under_shadowing(protocol, mobile):
    config = ScenarioConfig(protocol=protocol, seed=2, mobile=mobile,
                            sinr=SHADOWING, oracle=True, **SMALL)
    summary = build_network(config).run()
    assert summary.oracle_violations == 0
    assert summary.n_generated > 0


# ----------------------------------------------------------------------
# Result store round trip
# ----------------------------------------------------------------------
def test_sinr_summary_round_trips_through_store(tmp_path):
    config = ScenarioConfig(protocol="rmac", seed=7, sinr=SHADOWING, **SMALL)
    summary = build_network(config).run()
    store = ResultStore(str(tmp_path / "s"))
    store.record_success("rmac", "stationary", 20, 7,
                         config_hash(config), summary)
    got = ResultStore(str(tmp_path / "s")).get(
        "rmac", "stationary", 20, 7, config_hash(config))
    assert got == summary
    assert got.sinr == summary.sinr


def test_run_summary_sinr_field_survives_dict_round_trip():
    payload = {"sinr_dropped": 4, "delivered": 120, "mean_sinr_db": 21.5,
               "min_sinr_db": 10.2, "concurrent_high_water": 3}
    config = ScenarioConfig(protocol="rmac", seed=1, n_packets=2, n_nodes=6,
                            width=100.0, height=80.0, warmup_s=1.0,
                            drain_s=1.0, require_connected=False)
    summary = build_network(config).run()
    clone = RunSummary.from_dict({**summary.to_dict(), "sinr": payload})
    assert clone.sinr == payload


# ----------------------------------------------------------------------
# Campaign kill-and-resume (acceptance criterion)
# ----------------------------------------------------------------------
def shadowed_config(protocol, scenario, rate, seed):
    return scaled_scenario(protocol, scenario, rate, seed,
                           n_packets=4, n_nodes=10).variant(sinr=SHADOWING)


MATRIX = (["rmac", "bmmm"], ["stationary"], [10], [1, 2])


def test_killed_sinr_campaign_resumes_bit_identical(tmp_path, monkeypatch):
    reference = CampaignFarm(str(tmp_path / "reference")).run(
        *MATRIX, shadowed_config)

    original = runner_module.run_point
    calls = []

    def crashing_run_point(config):
        if len(calls) == 2:
            raise KeyboardInterrupt("simulated kill")
        calls.append(config.seed)
        return original(config)

    path = str(tmp_path / "interrupted")
    monkeypatch.setattr(runner_module, "run_point", crashing_run_point)
    with pytest.raises(KeyboardInterrupt):
        CampaignFarm(path).run(*MATRIX, shadowed_config)
    monkeypatch.setattr(runner_module, "run_point", original)
    resumed = CampaignFarm(path).run(*MATRIX, shadowed_config)

    assert [asdict(r) for r in resumed] == [asdict(r) for r in reference]
