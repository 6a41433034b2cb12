"""Resumable experiment campaigns over the on-disk result store."""

import json

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.farm import CampaignFarm, farm_status
from repro.experiments.runner import results_from_store
from repro.experiments.scenarios import scaled_scenario
from repro.experiments.store import ResultStore


def tiny_config(protocol, scenario, rate, seed):
    return scaled_scenario(protocol, scenario, rate, seed,
                           n_packets=4, n_nodes=10)


def test_campaign_runs_and_persists(tmp_path):
    path = tmp_path / "campaign"
    campaign = CampaignFarm(str(path))
    results = campaign.run(["rmac"], ["stationary"], [10], [1, 2], tiny_config)
    assert len(results) == 1
    assert results[0].n_seeds == 2
    assert (path / "results.jsonl").exists()
    lines = (path / "results.jsonl").read_text().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["status"] == "ok" and record["protocol"] == "rmac"
    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["seeds"] == [1, 2]


def test_campaign_resume_skips_completed(tmp_path, monkeypatch):
    path = str(tmp_path / "campaign")
    CampaignFarm(path).run(["rmac"], ["stationary"], [10], [1], tiny_config)

    # Resume with one more seed: only the new point actually simulates.
    executed = []
    original = runner_module.run_point

    def spying_run_point(config):
        executed.append(config.seed)
        return original(config)

    monkeypatch.setattr(runner_module, "run_point", spying_run_point)
    CampaignFarm(path).run(["rmac"], ["stationary"], [10], [1, 2], tiny_config)
    assert executed == [2]


def test_campaign_invalidates_on_config_change(tmp_path):
    path = str(tmp_path / "campaign")
    CampaignFarm(path).run(["rmac"], ["stationary"], [10], [1], tiny_config)

    def changed_config(protocol, scenario, rate, seed):
        return tiny_config(protocol, scenario, rate, seed).variant(n_packets=6)

    results = CampaignFarm(path).run(["rmac"], ["stationary"], [10], [1],
                                     changed_config)
    assert results[0].per_seed[0].n_generated == 6


def test_campaign_progress_callback(tmp_path):
    seen = []
    path = str(tmp_path / "campaign")
    CampaignFarm(path).run(
        ["rmac"], ["stationary"], [10], [1], tiny_config,
        progress=lambda done, total, key, error: seen.append((done, total, error)),
    )
    assert seen == [(1, 1, None)]
    # On resume the cached point still reports progress.
    seen.clear()
    CampaignFarm(path).run(
        ["rmac"], ["stationary"], [10], [1], tiny_config,
        progress=lambda done, total, key, error: seen.append((done, total, key)),
    )
    assert seen == [(1, 1, "rmac|stationary|10|1 (cached)")]


def test_aggregate_partial_store(tmp_path):
    path = str(tmp_path / "campaign")
    campaign = CampaignFarm(path)
    campaign.run(["rmac"], ["stationary"], [10], [1], tiny_config)
    # A store read aggregates the seeds that exist.
    results = results_from_store(campaign.store, ["rmac"])
    assert results[0].n_seeds == 1
    # Nothing stored for another protocol.
    assert results_from_store(campaign.store, ["bmmm"]) == []


# ---------------------------------------------------------------------------
# Resume semantics: a campaign killed mid-run and re-invoked must
# re-simulate only the unfinished points and produce bit-identical
# aggregates to an uninterrupted run.
# ---------------------------------------------------------------------------

MATRIX = (["rmac"], ["stationary", "speed1"], [10], [1, 2])


def test_killed_campaign_resumes_bit_identical(tmp_path, monkeypatch):
    # Uninterrupted reference run (its own store).
    reference = CampaignFarm(str(tmp_path / "reference")).run(
        *MATRIX, tiny_config)

    # Crash (as a kill would) after 2 completed points.
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
        CampaignFarm(path).run(*MATRIX, tiny_config)
    monkeypatch.setattr(runner_module, "run_point", original)

    # The two completed points are durably on disk.
    assert len(CampaignFarm(path)) == 2

    # Re-invoke: only the two unfinished points simulate.
    executed = []

    def spying_run_point(config):
        executed.append((config.mobile, config.seed))
        return original(config)

    monkeypatch.setattr(runner_module, "run_point", spying_run_point)
    resumed = CampaignFarm(path).run(*MATRIX, tiny_config)
    assert len(executed) == 2
    assert (False, 1) not in executed and (False, 2) not in executed

    # Bit-identical per-seed summaries and aggregates: the JSON round
    # trip through the store must not perturb a single float.
    assert resumed == reference


def test_failed_points_rerun_on_resume(tmp_path, monkeypatch):
    path = str(tmp_path / "campaign")
    original = runner_module.run_point

    def failing_run_point(config):
        if config.seed == 2:
            raise RuntimeError("boom")
        return original(config)

    monkeypatch.setattr(runner_module, "run_point", failing_run_point)
    results = CampaignFarm(path).run(["rmac"], ["stationary"], [10], [1, 2],
                                     tiny_config)
    assert results[0].n_seeds == 1 and len(results[0].failures) == 1
    store = ResultStore(path)
    assert len(store) == 1 and len(store.failures()) == 1

    # The failure is recorded but never treated as complete: resume
    # re-runs exactly the failed seed.
    executed = []

    def spying_run_point(config):
        executed.append(config.seed)
        return original(config)

    monkeypatch.setattr(runner_module, "run_point", spying_run_point)
    results = CampaignFarm(path).run(["rmac"], ["stationary"], [10], [1, 2],
                                     tiny_config)
    assert executed == [2]
    assert results[0].n_seeds == 2 and not results[0].failures


def test_campaign_status_reports_missing_and_stale(tmp_path):
    path = str(tmp_path / "campaign")
    campaign = CampaignFarm(path)
    campaign.run(["rmac"], ["stationary"], [10], [1, 2], tiny_config)
    campaign.store.write_manifest({
        "protocols": ["rmac"], "scenarios": ["stationary", "speed1"],
        "rates": [10.0], "seeds": [1, 2],
    })
    status = farm_status(path, make_config=tiny_config)
    assert status["total"] == 4 and status["done"] == 2
    assert status["missing"] == 2 and status["stale"] == 0

    def changed(protocol, scenario, rate, seed):
        return tiny_config(protocol, scenario, rate, seed).variant(n_packets=8)

    status = farm_status(path, make_config=changed)
    assert status["done"] == 0 and status["stale"] == 2
