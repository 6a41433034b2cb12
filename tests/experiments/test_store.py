"""The append-only JSONL result store."""

import json

import pytest

from repro.experiments.farm import farm_status
from repro.experiments.runner import results_from_store, run_point
from repro.experiments.scenarios import scaled_scenario, sinr_preset
from repro.experiments.store import (
    ResultStore,
    config_hash,
    point_key,
)
from repro.faults import FaultPlan
from repro.metrics.summary import RunSummary
from repro.phy.error import GilbertElliott
from repro.phy.sinr import POWER_FIELDS, SinrConfig
from repro.world.network import ScenarioConfig


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


@pytest.mark.parametrize("create", [True, False])
def test_file_at_store_path_is_a_clear_error(tmp_path, create):
    path = tmp_path / "campaign.json"
    path.write_text("{}")
    with pytest.raises(NotADirectoryError, match="campaign.json.*is a file"):
        ResultStore(str(path), create=create)
    assert path.read_text() == "{}"     # left untouched


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
    status = farm_status(str(tmp_path / "s"))
    assert status["done"] == 1 and status["failed"] == 1
    assert status["total"] is None and status["missing"] is None


def test_run_summary_from_dict_rejects_non_dataclass_junk():
    with pytest.raises(ValueError):
        RunSummary.from_dict({"protocol": "rmac"})


#: Configs whose run would ignore one field: each must be rejected, so
#: equal runs never hash differently.
IGNORED_FIELDS = (
    [(f"unitdisk-{name}", lambda name=name: SinrConfig(
        propagation="unitdisk", **{name: -80.0 if "dbm" in name else 3.0}))
     for name in POWER_FIELDS]
    + [("logdistance-shadowing_sigma_db", lambda: SinrConfig(
        propagation="logdistance", shadowing_sigma_db=3.0))]
    + [(f"stationary-{name}", lambda name=name: ScenarioConfig(
        mobile=False, **{name: 1.0})) for name in ScenarioConfig._MOBILITY_FIELDS]
    + [("rayleigh-rician_k_db", lambda: SinrConfig(
        fading="rayleigh", rician_k_db=9.0)),
       ("error-model-ber", lambda: ScenarioConfig(
           ber=1e-5, faults=FaultPlan(error_model=GilbertElliott(
               p_gb=0.1, p_bg=0.3))))]
)


@pytest.mark.parametrize("make", [make for _, make in IGNORED_FIELDS],
                         ids=[name for name, _ in IGNORED_FIELDS])
def test_a_field_the_run_ignores_is_rejected(make):
    with pytest.raises(ValueError, match="not read"):
        make()


def test_config_hash_is_pinned():
    # Stored campaign points are keyed by this hash: a change to the
    # canonical config JSON silently re-simulates every stored point.
    stationary = scaled_scenario("rmac", "stationary", 10, 1,
                                 n_packets=4, n_nodes=10)
    mobile = scaled_scenario("bmmm", "speed2", 60, 2, n_packets=4, n_nodes=10)
    shadowing = stationary.variant(
        sinr=sinr_preset("shadowing", tx_power_dbm=27.5))
    assert config_hash(stationary) == "b7ff673533aa8033"
    assert config_hash(mobile) == "9051d1390508f9f3"
    assert config_hash(shadowing) == "f995e2d97a883193"
