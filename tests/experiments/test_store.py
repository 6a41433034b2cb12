"""The append-only JSONL result store."""

import json

import pytest

from repro.experiments.runner import results_from_store, run_point
from repro.experiments.scenarios import scaled_scenario
from repro.experiments.store import (
    ResultStore,
    config_hash,
    point_key,
)
from repro.metrics.summary import RunSummary


@pytest.fixture(scope="module")
def one_run():
    config = scaled_scenario("rmac", "stationary", 10, 1,
                             n_packets=4, n_nodes=10)
    return config, run_point(config)


def test_round_trip_is_bit_identical(tmp_path, one_run):
    config, summary = one_run
    store = ResultStore(str(tmp_path / "s"))
    store.record_success("rmac", "stationary", 10, 1,
                         config_hash(config), summary)
    reopened = ResultStore(str(tmp_path / "s"))
    got = reopened.get("rmac", "stationary", 10, 1, config_hash(config))
    assert got == summary


def test_hash_mismatch_misses(tmp_path, one_run):
    config, summary = one_run
    store = ResultStore(str(tmp_path / "s"))
    store.record_success("rmac", "stationary", 10, 1,
                         config_hash(config), summary)
    assert store.get("rmac", "stationary", 10, 1, "0" * 16) is None
    # ... but completed() still exposes it for aggregation-only reads.
    assert point_key("rmac", "stationary", 10, 1) in store.completed()


def test_int_and_float_rates_are_one_key(tmp_path, one_run):
    config, summary = one_run
    store = ResultStore(str(tmp_path / "s"))
    store.record_success("rmac", "stationary", 10, 1,
                         config_hash(config), summary)
    assert store.get("rmac", "stationary", 10.0, 1,
                     config_hash(config)) == summary


def test_success_supersedes_failure(tmp_path, one_run):
    config, summary = one_run
    h = config_hash(config)
    store = ResultStore(str(tmp_path / "s"))
    store.record_failure("rmac", "stationary", 10, 1, h, "boom", attempts=2)
    assert store.get("rmac", "stationary", 10, 1, h) is None
    assert store.failures()
    store.record_success("rmac", "stationary", 10, 1, h, summary)
    assert store.get("rmac", "stationary", 10, 1, h) == summary
    assert not store.failures()
    # Both records are still in the file (append-only); the last wins.
    lines = (tmp_path / "s" / "results.jsonl").read_text().splitlines()
    assert len(lines) == 2
    reopened = ResultStore(str(tmp_path / "s"))
    assert reopened.get("rmac", "stationary", 10, 1, h) == summary


def test_truncated_final_line_is_tolerated(tmp_path, one_run):
    config, summary = one_run
    store = ResultStore(str(tmp_path / "s"))
    store.record_success("rmac", "stationary", 10, 1,
                         config_hash(config), summary)
    path = tmp_path / "s" / "results.jsonl"
    with open(path, "a") as fh:
        fh.write('{"v": 1, "protocol": "rmac", "scen')  # killed mid-append
    reopened = ResultStore(str(tmp_path / "s"))
    assert len(reopened) == 1
    assert reopened.corrupt_lines == 0


def test_corrupt_middle_line_is_counted_and_skipped(tmp_path, one_run):
    config, summary = one_run
    store = ResultStore(str(tmp_path / "s"))
    path = tmp_path / "s" / "results.jsonl"
    with open(path, "w") as fh:
        fh.write("garbage not json\n")
    store.record_success("rmac", "stationary", 10, 1,
                         config_hash(config), summary)
    reopened = ResultStore(str(tmp_path / "s"))
    assert len(reopened) == 1
    assert reopened.corrupt_lines == 1


def test_unknown_record_and_summary_keys_ignored(tmp_path, one_run):
    config, summary = one_run
    store = ResultStore(str(tmp_path / "s"))
    store.record_success("rmac", "stationary", 10, 1,
                         config_hash(config), summary)
    path = tmp_path / "s" / "results.jsonl"
    record = json.loads(path.read_text())
    record["future_top_level_key"] = {"x": 1}
    record["summary"]["future_metric"] = 0.5
    # Summaries once carried event-loop timings; stores written then
    # hold them as nulls and still load.
    for removed in ("events_processed", "wall_time_s", "events_per_sec",
                    "telemetry"):
        assert removed not in record["summary"]
        record["summary"][removed] = None
    path.write_text(json.dumps(record) + "\n")
    reopened = ResultStore(str(tmp_path / "s"))
    assert reopened.get("rmac", "stationary", 10, 1,
                        config_hash(config)) == summary


def test_missing_required_summary_field_raises(tmp_path, one_run):
    config, summary = one_run
    store = ResultStore(str(tmp_path / "s"))
    store.record_success("rmac", "stationary", 10, 1,
                         config_hash(config), summary)
    path = tmp_path / "s" / "results.jsonl"
    record = json.loads(path.read_text())
    del record["summary"]["delivery_ratio"]
    path.write_text(json.dumps(record) + "\n")
    reopened = ResultStore(str(tmp_path / "s"))
    with pytest.raises(ValueError, match="delivery_ratio"):
        reopened.get("rmac", "stationary", 10, 1, config_hash(config))


def test_open_existing_only(tmp_path):
    with pytest.raises(FileNotFoundError):
        ResultStore(str(tmp_path / "missing"), create=False)


def test_results_from_store_groups_and_filters(tmp_path, one_run):
    config, summary = one_run
    h = config_hash(config)
    store = ResultStore(str(tmp_path / "s"))
    for seed in (2, 1):  # out of order on purpose
        store.record_success("rmac", "stationary", 10, seed, h, summary)
    store.record_success("bmmm", "stationary", 10, 1, h, summary)
    results = results_from_store(store)
    assert [(r.protocol, r.n_seeds) for r in results] == [
        ("bmmm", 1), ("rmac", 2)]
    only_rmac = results_from_store(store, ["rmac"])
    assert [r.protocol for r in only_rmac] == ["rmac"]


def test_status_without_manifest(tmp_path, one_run):
    config, summary = one_run
    store = ResultStore(str(tmp_path / "s"))
    store.record_success("rmac", "stationary", 10, 1,
                         config_hash(config), summary)
    store.record_failure("rmac", "stationary", 10, 2,
                         config_hash(config), "boom")
    status = store.status()
    assert status["done"] == 1 and status["failed"] == 1
    assert status["total"] is None and status["missing"] is None


def test_run_summary_from_dict_rejects_non_dataclass_junk():
    with pytest.raises(ValueError):
        RunSummary.from_dict({"protocol": "rmac"})


def test_config_hash_is_pinned():
    # Stored campaign points are keyed by this hash: a change to the
    # canonical config JSON silently re-simulates every stored point.
    config = scaled_scenario("rmac", "stationary", 10, 1,
                             n_packets=4, n_nodes=10)
    assert config_hash(config) == "a82959b3b35d35ee"


def test_old_farm_shards_fold_into_the_store_once(tmp_path, one_run):
    config, summary = one_run
    h = config_hash(config)
    root = tmp_path / "farm"
    held = ResultStore(str(root))
    held.record_success("rmac", "stationary", 10, 1, h, summary)
    # An older farm's worker stores: one point the root already holds,
    # one it lacks, one captured failure, one stale-hash record.
    shard = ResultStore(str(root / "shards" / "shard-00"))
    shard.record_success("rmac", "stationary", 10, 1, h, summary)
    shard.record_success("rmac", "stationary", 10, 2, h, summary)
    shard.record_failure("rmac", "stationary", 10, 3, h, "boom")
    other = ResultStore(str(root / "shards" / "shard-01"))
    other.record_success("rmac", "speed1", 10, 1, "0" * 16, summary)

    store = ResultStore(str(root))
    assert store.get("rmac", "stationary", 10, 2, h) == summary
    assert store.get("rmac", "speed1", 10, 1, "0" * 16) == summary
    assert not store.failures()
    lines = (root / "results.jsonl").read_text().splitlines()
    assert len(lines) == 3          # held point not appended twice
    assert not (root / "shards").exists()
    assert (root / "shards.folded" / "shard-00" / "results.jsonl").exists()

    # Folded once: reopening appends nothing.
    ResultStore(str(root))
    assert (root / "results.jsonl").read_text().splitlines() == lines
