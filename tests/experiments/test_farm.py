"""The campaign farm: single writer, crash recovery, status.

The acceptance bar: a farmed — even killed-and-resumed — campaign must
produce a store bit-identical per point (``config_hash`` +
``RunSummary`` dict) to a single-process ``campaign run`` of the same
spec.
"""

import json
import os
import signal
import threading
import time
import urllib.request
from dataclasses import asdict

import pytest

from repro.experiments import runner
from repro.experiments.farm import (
    WORKERS_DIR,
    CampaignFarm,
    FarmError,
    farm_status,
    make_status_server,
    render_farm_status,
)
from repro.experiments.scenarios import scaled_scenario
from repro.experiments.store import ResultStore


def tiny_config(protocol, scenario, rate, seed):
    return scaled_scenario(protocol, scenario, rate, seed,
                           n_packets=4, n_nodes=10)


MATRIX = (["rmac"], ["stationary", "speed1"], [10], [1, 2])


def _records_by_key(store):
    return dict(store.records())


def assert_stores_bit_identical(farmed, reference):
    """Per point: same keys, same config_hash, same summary dict."""
    farmed_records = _records_by_key(farmed)
    reference_records = _records_by_key(reference)
    assert sorted(farmed_records) == sorted(reference_records)
    for key, expected in reference_records.items():
        record = farmed_records[key]
        assert record["config_hash"] == expected["config_hash"], key
        assert record["status"] == expected["status"] == "ok", key
        assert record["summary"] == expected["summary"], key


# ---------------------------------------------------------------------------
# CampaignFarm
# ---------------------------------------------------------------------------

def test_farm_bit_identical_to_unsharded_campaign(tmp_path):
    reference_results = CampaignFarm(str(tmp_path / "reference")).run(
        *MATRIX, tiny_config)

    farm = CampaignFarm(str(tmp_path / "farm"))
    results = farm.run(*MATRIX, tiny_config, workers=2)

    # Same aggregates (the JSON round trip must not perturb a float),
    # same per-point records in the store.
    assert results == reference_results
    assert_stores_bit_identical(ResultStore(str(tmp_path / "farm")),
                                ResultStore(str(tmp_path / "reference")))

    counters = farm.counters
    assert counters.points_total == 4 and counters.points_done == 4
    assert counters.points_failed == 0 and counters.workers_died == 0
    assert counters.workers_spawned == 2

    # The final counters are published in farm.json.
    with open(tmp_path / "farm" / "farm.json") as fh:
        assert json.load(fh)["counters"] == asdict(counters)


def test_farm_resume_serves_everything_cached(tmp_path):
    path = str(tmp_path / "farm")
    CampaignFarm(path).run(*MATRIX, tiny_config, workers=2)
    farm = CampaignFarm(path)
    progress = []
    farm.run(*MATRIX, tiny_config, workers=2,
             progress=lambda done, total, key, err:
             progress.append((done, total, key)))
    assert farm.counters.points_cached == 4
    assert farm.counters.points_done == 0
    assert farm.counters.workers_spawned == 0   # nothing left to execute
    assert all(key.endswith("(cached)") for _, _, key in progress)


def test_farm_resume_spawns_no_more_workers_than_points_left(tmp_path):
    path = str(tmp_path / "farm")
    # Three of MATRIX's four points complete in-process first.
    CampaignFarm(path).run(["rmac"], ["stationary", "speed1"], [10], [1],
                           tiny_config)
    CampaignFarm(path).run(["rmac"], ["stationary"], [10], [2], tiny_config)

    farm = CampaignFarm(path)
    farm.run(*MATRIX, tiny_config, workers=2)
    assert farm.counters.points_cached == 3
    assert farm.counters.points_done == 1
    assert farm.counters.workers_spawned == 1   # one point, one worker


def test_in_process_mode_spawns_nothing(tmp_path):
    root = str(tmp_path / "farm")
    farm = CampaignFarm(root)
    results = farm.run(*MATRIX, tiny_config, workers=1)
    assert farm.counters.workers_spawned == 0
    assert farm.counters.points_done == 4
    assert not os.path.exists(os.path.join(root, WORKERS_DIR))
    assert not os.path.exists(os.path.join(root, "shards"))
    # Records land straight in the root store; status reads it.
    assert len(ResultStore(root)) == 4 and len(results) == 2
    status = farm_status(root)
    assert status["state"] == "done" and status["missing"] == 0


def test_farm_captures_point_failures(tmp_path):
    def half_broken(protocol, scenario, rate, seed):
        config = tiny_config(protocol, scenario, rate, seed)
        if seed == 2:
            # Unknown protocol: build_network raises inside the worker.
            config = config.variant(protocol="no-such-mac")
        return config

    farm = CampaignFarm(str(tmp_path / "farm"))
    results = farm.run(["rmac"], ["stationary"], [10], [1, 2], half_broken,
                       workers=2, retries=1)
    assert farm.counters.points_done == 1 and farm.counters.points_failed == 1
    assert len(results) == 1 and results[0].n_seeds == 1
    (failure,) = results[0].failures
    assert failure.seed == 2 and "no-such-mac" in failure.error
    assert failure.attempts == 2    # --retries honoured inside the worker
    # The worker's real traceback travels back with the result.
    assert "build_network" in failure.traceback
    # The failure is persisted (and re-runs on resume, like a campaign's).
    store = ResultStore(str(tmp_path / "farm"))
    assert len(store.failures()) == 1


def test_coordinator_is_the_only_writer(tmp_path):
    root = str(tmp_path / "farm")
    CampaignFarm(root).run(*MATRIX, tiny_config, workers=2)
    assert not os.path.exists(os.path.join(root, "shards"))
    with open(os.path.join(root, "results.jsonl")) as fh:
        lines = [json.loads(line) for line in fh]
    keys = [(r["protocol"], r["scenario"], r["rate_pps"], r["seed"])
            for r in lines]
    assert sorted(keys) == sorted(
        ("rmac", scenario, 10.0, seed)
        for scenario in MATRIX[1] for seed in MATRIX[3])


def _exit_abruptly(config):
    os._exit(9)


def test_farm_whose_workers_all_die_reports_aborted(tmp_path, monkeypatch):
    root = str(tmp_path / "farm")
    # Forked workers inherit the patch and die on their first lease.
    monkeypatch.setattr(runner, "run_point", _exit_abruptly)
    with pytest.raises(FarmError, match="root store"):
        CampaignFarm(root).run(*MATRIX, tiny_config, workers=2)
    status = farm_status(root)
    assert status["state"] == "aborted"
    assert status["done"] == 0 and status["counters"]["workers_died"] == 2


# ---------------------------------------------------------------------------
# Worker death: SIGKILL mid-campaign
# ---------------------------------------------------------------------------

def slow_config(protocol, scenario, rate, seed):
    return scaled_scenario(protocol, scenario, rate, seed,
                           n_packets=120, n_nodes=10)


KILL_MATRIX = (["rmac"], ["stationary"], [60], [1, 2, 3, 4, 5, 6])


def _assassinate_first_leased_worker(root, killed):
    """Poll heartbeats until some worker leases a job, then SIGKILL it."""
    workers_dir = os.path.join(root, WORKERS_DIR)
    deadline = time.time() + 30.0
    while time.time() < deadline:
        if os.path.isdir(workers_dir):
            for name in sorted(os.listdir(workers_dir)):
                if not name.endswith(".json"):
                    continue
                try:
                    with open(os.path.join(workers_dir, name)) as fh:
                        beat = json.load(fh)
                except (OSError, ValueError):
                    continue
                if beat.get("status") == "leased":
                    try:
                        os.kill(beat["pid"], signal.SIGKILL)
                    except OSError:
                        return
                    killed.append(beat)
                    return
        time.sleep(0.01)


def test_sigkilled_worker_requeues_lease_and_farm_completes(tmp_path):
    reference = CampaignFarm(str(tmp_path / "reference")).run(
        *KILL_MATRIX, slow_config)

    root = str(tmp_path / "farm")
    farm = CampaignFarm(root)
    killed = []
    assassin = threading.Thread(
        target=_assassinate_first_leased_worker, args=(root, killed))
    assassin.start()
    try:
        results = farm.run(*KILL_MATRIX, slow_config, workers=2)
    finally:
        assassin.join()

    assert killed, "assassin never saw a leased worker"
    counters = farm.counters
    assert counters.workers_died == 1
    # The killed worker's lease went back to the queue and ran elsewhere
    # (unless the kill landed after the worker sent its outcome, in
    # which case the completed point needed no requeue).
    assert counters.points_requeued <= 1
    assert counters.points_done == len(reference[0].per_seed) == 6

    # Zero missing points, and the store is still bit-identical to the
    # single-process run.
    status = farm_status(root)
    assert status["missing"] == 0 and status["done"] == 6
    assert results == reference
    assert_stores_bit_identical(ResultStore(root),
                                ResultStore(str(tmp_path / "reference")))


# ---------------------------------------------------------------------------
# Status + serve endpoint
# ---------------------------------------------------------------------------

def test_farm_status_fields_and_rendering(tmp_path):
    root = str(tmp_path / "farm")
    CampaignFarm(root).run(*MATRIX, tiny_config, workers=2)
    status = farm_status(root)
    assert status["state"] == "done"
    assert status["total"] == 4 and status["done"] == 4
    assert status["failed"] == 0 and status["missing"] == 0
    assert status["counters"]["workers_spawned"] == 2
    assert "shards" not in status
    assert all(not w["alive"] for w in status["workers"])  # all stopped

    text = render_farm_status(status)
    assert "4/4 points done" in text and "farm [done]" in text


def test_serve_endpoint(tmp_path):
    root = str(tmp_path / "farm")
    CampaignFarm(root).run(*MATRIX, tiny_config, workers=2)
    server = make_status_server(root, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = "http://127.0.0.1:%d" % server.server_address[1]
        with urllib.request.urlopen(base + "/status") as response:
            status = json.load(response)
        assert status["done"] == 4 and status["state"] == "done"
        with urllib.request.urlopen(base + "/") as response:
            assert b"points done" in response.read()
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(base + "/nope")
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def test_serve_answers_an_unreadable_store_with_its_reason(tmp_path):
    """A SINR manifest written before the ``interference`` switch was
    dropped: both pages answer an HTTP error whose body is the one line
    ``repro campaign status`` prints, and the server keeps serving."""
    from repro.experiments.scenarios import sinr_preset

    sinr = sinr_preset("unitdisk").to_dict()
    sinr["interference"] = True
    root = str(tmp_path / "old_store")
    ResultStore(root).write_manifest({
        "protocols": ["rmac"], "scenarios": ["stationary"], "rates": [20],
        "seeds": [1], "scale": "smoke", "sinr": sinr})
    server = make_status_server(root, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        base = "http://127.0.0.1:%d" % server.server_address[1]
        for page in ("/status", "/"):
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(base + page)
            assert exc.value.code == 500
            body = exc.value.read().decode()
            exc.value.close()
            assert body.count("\n") == 1
            assert body.startswith(f"result store {root!r} cannot be read")
            assert "['interference']" in body
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
