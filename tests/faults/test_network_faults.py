"""Fault plans through the full network stack, the config hash, and
store-backed resume."""

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.farm import CampaignFarm
from repro.experiments.runner import run_point
from repro.experiments.scenarios import scaled_scenario
from repro.experiments.store import config_hash
from repro.faults import FaultPlan, LinkFade, NodeCrash
from repro.phy.error import GilbertElliott
from repro.world.network import ScenarioConfig


def _base_config(**changes) -> ScenarioConfig:
    return ScenarioConfig(
        n_nodes=10, width=150.0, height=100.0, rate_pps=5.0, n_packets=5,
        warmup_s=0.5, drain_s=0.5, seed=3,
    ).variant(**changes)


def _crash_plan() -> FaultPlan:
    # Crash a node mid-traffic, permanently.
    return FaultPlan(crashes=(NodeCrash(node=2, at_s=0.6),))


# ---------------------------------------------------------------------------
# Behavior
# ---------------------------------------------------------------------------
def test_crash_changes_the_run():
    clean = run_point(_base_config())
    faulted = run_point(_base_config(faults=_crash_plan()))
    assert faulted != clean
    assert faulted.total_deliveries < clean.total_deliveries


def test_fades_corrupt_frames():
    plan = FaultPlan(fades=(LinkFade(src=0, dst=1, start_s=0.0),))
    clean = run_point(_base_config())
    faulted = run_point(_base_config(faults=plan))
    assert faulted != clean


def test_faulted_run_is_deterministic():
    config = _base_config(faults=_crash_plan())
    assert run_point(config) == run_point(config)


def test_gilbert_elliott_state_does_not_leak_across_runs():
    """One FaultPlan instance reused for several runs must behave as if
    each run got a pristine model (build_network reconstructs it)."""
    plan = FaultPlan(error_model=GilbertElliott(
        p_gb=0.2, p_bg=0.2, ber_good=0.0, ber_bad=0.01))
    config = _base_config(faults=plan)
    first = run_point(config)
    assert plan.error_model.bad is False  # the plan's copy is never used
    assert run_point(config) == first


# ---------------------------------------------------------------------------
# Config hash
# ---------------------------------------------------------------------------
def test_plan_and_oracle_change_the_hash():
    base = config_hash(_base_config())
    assert config_hash(_base_config(faults=_crash_plan())) != base
    assert config_hash(_base_config(oracle=True)) != base


def test_hash_with_error_model_is_deterministic():
    """The embedded BitErrorModel hashes by parameters, not identity."""
    def make():
        return _base_config(faults=FaultPlan(
            error_model=GilbertElliott(p_gb=0.1, p_bg=0.3, ber_bad=0.05)))
    assert config_hash(make()) == config_hash(make())
    # And survives a serialization round trip of the plan.
    plan = make().faults
    assert config_hash(_base_config(
        faults=FaultPlan.from_dict(plan.to_dict()))) == config_hash(make())


# ---------------------------------------------------------------------------
# Store resume with an active FaultPlan (seeded-replay bit-identity)
# ---------------------------------------------------------------------------
MATRIX = (["rmac"], ["stationary"], [10], [1, 2, 3])


def _faulted_config(protocol, scenario, rate, seed):
    return scaled_scenario(protocol, scenario, rate, seed,
                           n_packets=4, n_nodes=10).variant(
        faults=FaultPlan(
            crashes=(NodeCrash(node=3, at_s=0.6),),
            error_model=GilbertElliott(p_gb=0.3, p_bg=0.3, ber_bad=0.005),
        ),
        oracle=True,
    )


def test_killed_faulted_campaign_resumes_bit_identical(tmp_path, monkeypatch):
    reference = CampaignFarm(str(tmp_path / "reference")).run(
        *MATRIX, _faulted_config)

    original = runner_module.run_point
    calls = []

    def crashing_run_point(config):
        if len(calls) == 1:
            raise KeyboardInterrupt("simulated kill")
        calls.append(config.seed)
        return original(config)

    path = str(tmp_path / "interrupted")
    monkeypatch.setattr(runner_module, "run_point", crashing_run_point)
    with pytest.raises(KeyboardInterrupt):
        CampaignFarm(path).run(*MATRIX, _faulted_config)
    monkeypatch.setattr(runner_module, "run_point", original)

    assert len(CampaignFarm(path)) == 1

    executed = []

    def spying_run_point(config):
        executed.append(config.seed)
        return original(config)

    monkeypatch.setattr(runner_module, "run_point", spying_run_point)
    resumed = CampaignFarm(path).run(*MATRIX, _faulted_config)
    # The completed point came from disk; only the rest simulated.
    assert len(executed) == 2

    # Bit-identical aggregation, including the persisted oracle report.
    assert resumed == reference
    for result in resumed:
        for summary in result.per_seed:
            assert summary.oracle_violations == 0
