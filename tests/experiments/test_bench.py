"""The ``repro bench`` sweep, baseline discovery and regression gate."""

import json
import os

import pytest

from repro.experiments import bench

#: A sub-second point so the test suite stays fast.
TINY = bench._point("smoke", "rmac", 2, n_nodes=6, width=150.0, height=100.0,
                    rate_pps=5.0, n_packets=3)


def _fake_point(mode="smoke", protocol="rmac", seed=2, eps=1000.0,
                metrics=None):
    return {"mode": mode, "protocol": protocol, "seed": seed,
            "events": 100, "wall_s": 0.1, "eps": eps,
            "metrics": metrics if metrics is not None else {"delivery_ratio": 1.0},
            "subsystem_wall_s": {}}


def _report(*points):
    return {"rev": "test", "events": 100, "wall_s": 0.1,
            "events_per_sec": 1000.0, "points": list(points)}


def test_run_point_returns_metrics_and_throughput():
    record = bench.run_point(TINY)
    assert record["mode"] == "smoke" and record["protocol"] == "rmac"
    assert record["events"] > 0 and record["eps"] > 0
    assert set(record["metrics"]) == set(bench.METRIC_FIELDS)
    assert record["metrics"]["n_generated"] == 3


def test_run_point_repeat_is_deterministic_and_keeps_best():
    repeated = dict(TINY, repeat=3)
    single = bench.run_point(TINY)
    best = bench.run_point(repeated)
    # Determinism: identical simulated outcome, whatever the timing.
    assert best["events"] == single["events"]
    assert best["metrics"] == single["metrics"]


def test_run_bench_aggregates_points():
    report = bench.run_bench([TINY], rev="abc1234")
    assert report["rev"] == "abc1234"
    assert report["recorded_at"].endswith("Z")
    assert len(report["points"]) == 1
    assert report["events"] == report["points"][0]["events"]
    assert report["events_per_sec"] > 0


def test_find_baseline_picks_newest(tmp_path):
    old = tmp_path / "BENCH_aaa.json"
    new = tmp_path / "BENCH_bbb.json"
    old.write_text("{}")
    new.write_text("{}")
    os.utime(old, (1, 1))
    os.utime(new, (2, 2))
    assert bench.find_baseline(str(tmp_path)) == str(new)
    assert bench.find_baseline(str(tmp_path / "missing")) is None
    (tmp_path / "notes.txt").write_text("ignored")


def test_find_baseline_orders_by_recorded_stamp_before_mtime(tmp_path):
    # A fresh checkout writes every baseline at about the same time, so
    # the stamp inside the report decides; unstamped reports sort oldest.
    legacy = tmp_path / "BENCH_aaa.json"
    older = tmp_path / "BENCH_bbb.json"
    newer = tmp_path / "BENCH_ccc.json"
    legacy.write_text("{}")
    older.write_text(json.dumps({"recorded_at": "2026-01-01T00:00:00Z"}))
    newer.write_text(json.dumps({"recorded_at": "2026-02-01T00:00:00Z"}))
    os.utime(legacy, (3, 3))
    os.utime(older, (2, 2))
    os.utime(newer, (1, 1))
    assert bench.find_baseline(str(tmp_path)) == str(newer)


def test_compare_passes_within_threshold():
    ok, lines = bench.compare(_report(_fake_point(eps=800.0)),
                              _report(_fake_point(eps=1000.0)),
                              max_regression=0.30)
    assert ok
    assert any("0.80x" in line for line in lines)


def test_compare_fails_on_regression():
    ok, lines = bench.compare(_report(_fake_point(eps=500.0)),
                              _report(_fake_point(eps=1000.0)),
                              max_regression=0.30)
    assert not ok
    assert any("REGRESSION" in line for line in lines)


def test_compare_reports_metric_drift_without_failing():
    ok, lines = bench.compare(
        _report(_fake_point(metrics={"delivery_ratio": 0.5})),
        _report(_fake_point(metrics={"delivery_ratio": 1.0})),
    )
    assert ok  # drift is loud but the perf gate does not own correctness
    assert any("METRIC DRIFT" in line for line in lines)


def test_compare_handles_new_points():
    ok, lines = bench.compare(_report(_fake_point(seed=99)), _report())
    assert ok
    assert any("no baseline point" in line for line in lines)


def test_committed_baseline_matches_current_behavior():
    """The repo's committed BENCH_*.json must stay reproducible: the same
    seed produces bit-identical metrics on today's code (the determinism
    half of the benchmark contract; throughput is checked in CI)."""
    path = bench.find_baseline(
        os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks"))
    if path is None:
        pytest.skip("no committed baseline")
    baseline = bench.load_baseline(path)
    base_smoke = [p for p in baseline["points"] if p["mode"] == "smoke"]
    assert base_smoke, "committed baseline lacks a smoke point"
    record = bench.run_point(next(
        p for p in bench.SMOKE_POINTS
        if (p["protocol"], p["seed"]) == (base_smoke[0]["protocol"],
                                          base_smoke[0]["seed"])))
    assert record["events"] == base_smoke[0]["events"]
    assert record["metrics"] == base_smoke[0]["metrics"]


def test_tier_points_resolution():
    assert bench.tier_points("smoke") is bench.SMOKE_POINTS
    assert bench.tier_points("full") is bench.FULL_POINTS
    assert bench.tier_points("large") is bench.LARGE_POINTS
    with pytest.raises(ValueError):
        bench.tier_points("galactic")


def test_large_tier_composition():
    sizes = {p["config"]["n_nodes"] for p in bench.LARGE_POINTS}
    assert sizes == {200, 500, 1000}
    # Labels are unique: they are the compare() key at shared mode/seed.
    labels = [p["label"] for p in bench.LARGE_POINTS]
    assert len(labels) == len(set(labels))


def test_compare_keys_on_label():
    a = _fake_point()
    b = dict(_fake_point(eps=2000.0), label="static-200")
    ok, lines = bench.compare(_report(a, b), _report(a, b))
    assert ok
    assert any("[static-200]" in line for line in lines)
    # A labeled point never matches an unlabeled baseline point.
    ok, lines = bench.compare(_report(b), _report(a))
    assert any("no baseline point" in line for line in lines)


def test_markdown_table():
    current = _report(_fake_point(eps=900.0))
    baseline = _report(_fake_point(eps=1000.0))
    table = bench.markdown_table(current, baseline)
    assert table.startswith("| point |")
    assert "0.90x" in table
    assert "900" in table and "1,000" in table
    # Without a baseline the ratio column degrades gracefully.
    assert "--" in bench.markdown_table(current, None)


def test_cli_bench_tier_flag(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setattr(bench, "LARGE_POINTS", [dict(TINY, mode="large")])
    out = tmp_path / "bench-large.json"
    code = main(["bench", "--tier", "large", "--out", str(out),
                 "--baseline", str(tmp_path)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["points"][0]["mode"] == "large"


def test_cli_bench_smoke(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    monkeypatch.setattr(bench, "SMOKE_POINTS", [TINY])
    out = tmp_path / "bench.json"
    baseline = tmp_path / "BENCH_base.json"
    code = main(["bench", "--smoke", "--out", str(out),
                 "--baseline", str(tmp_path)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["points"][0]["events"] > 0
    assert "no committed baseline" in capsys.readouterr().out

    # Second run compared against the first: identical work, passes.
    report["points"][0]["eps"] *= 0.9  # simulate a slightly slower baseline
    baseline.write_text(json.dumps(report))
    code = main(["bench", "--smoke", "--out", str(out),
                 "--baseline", str(baseline)])
    assert code == 0

    # A baseline claiming far higher throughput trips the gate.
    report["points"][0]["eps"] *= 1e6
    baseline.write_text(json.dumps(report))
    code = main(["bench", "--smoke", "--out", str(out),
                 "--baseline", str(baseline), "--max-regression", "30"])
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().out
