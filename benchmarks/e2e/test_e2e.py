"""Tests of the end-to-end benchmark, on a 12-node workload.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (the parent
``benchmarks/conftest.py`` imports ``repro``).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import LAYERS, UNATTRIBUTED, matching_layers  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

REPRO_DIR = os.path.join(run.ROOT, "src", "repro")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def traced_pair():
    return [run.spawn(TINY, 1, True, 120) for _ in range(2)]


def test_repeats_are_identical(spec):
    line = run.measure(TINY, 1, 0, False, spec, expected=None)
    assert line["attempted"] == run.MIN_PASSES
    assert line["failed"] == 0 and line["correct"]


def test_tampered_expected_fails_every_pass_and_names_the_field(spec, capsys):
    truth = run.spawn(TINY, 1, False, 120)
    expected = {str(p["seed"]): dict(p["outputs"]) for p in truth["placements"]}
    first = next(iter(expected))
    expected[first]["total_deliveries"] += 1

    line = run.measure(TINY, 1, 0, False, spec, expected=expected)

    assert line["failed"] / line["attempted"] == 1.0
    assert not line["correct"]
    assert f"placement {first}: drifted from expected in total_deliveries" \
        in capsys.readouterr().err


def test_diverging_repeat_is_reported():
    result = run.spawn(TINY, 1, False, 120)
    other = json.loads(json.dumps(result))
    other["placements"][0]["counters"]["events"] += 1
    problems = run.check_pass(other, result, None)
    assert problems == [f"placement {result['placements'][0]['seed']}: "
                        "repeat diverged in events"]


def test_layer_self_times_sum_to_the_profiled_total(traced_pair):
    layers = traced_pair[0]["layers"]
    attributed = sum(s for layer, s in layers["self_s"].items()
                     if layer != UNATTRIBUTED)
    assert layers["total_s"] > 0
    assert abs(attributed - layers["total_s"]) <= 0.02 * layers["total_s"]


def test_layer_calls_repeat_exactly(traced_pair):
    first, second = (r["layers"]["calls"] for r in traced_pair)
    assert first == second
    assert first["sim"] > 0 and first["mac.rmac"] > 0


def test_profiling_leaves_outputs_unchanged(traced_pair):
    untraced = run.spawn(TINY, 1, False, 120)
    assert run.check_pass(traced_pair[0], untraced, None) == []


def test_every_repro_module_is_in_exactly_one_layer():
    modules = sorted(
        os.path.relpath(os.path.join(dirpath, name), REPRO_DIR).replace(os.sep, "/")
        for dirpath, _dirs, files in os.walk(REPRO_DIR)
        for name in files if name.endswith(".py"))
    assert "sim/engine.py" in modules
    misplaced = {m: matching_layers(m) for m in modules
                 if len(matching_layers(m)) != 1}
    assert misplaced == {}


def test_spec_matches_the_code(spec, traced_pair):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    for name in end_to_end + per_layer:
        assert NAME.match(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)
    assert "setup_s" in end_to_end

    untraced = run.spawn(TINY, 1, False, 120)
    assert set(end_to_end) <= set(run.pass_metrics(untraced))
    assert set(run.layer_metrics([untraced], traced_pair[0])) == set(per_layer)
    assert {f"{layer}.{m}" for layer in LAYERS for m in ("share", "calls")} \
        <= set(per_layer)


def test_full_run_reports_each_workload_and_compares_with_itself(spec, monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", {TINY.name: TINY})
    monkeypatch.setattr(run, "ROUNDS", 2)
    report = run.full_run(2, spec)

    entry = report["workloads"][TINY.name]
    assert list(report["workloads"]) == [TINY.name]
    assert entry["error_rate"] == 0.0 and entry["attempted"] == 3
    assert entry["end_to_end"]["run_us_per_frame"]["n"] == 2
    assert set(entry["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    rows = run.compare(report, report, spec)
    assert {row["metric"] for row in rows} == \
        {"error_rate"} | {m["name"] for m in spec["end_to_end"]}
    assert {row["verdict"] for row in rows} == {"within bound"}


def test_compare_verdicts():
    metric = {"name": "run_us_per_frame", "better": "lower", "bound": 0.1}

    def side(value, q1, q3, samples):
        return {"value": value, "q1": q1, "q3": q3, "samples": samples}

    base = side(100.0, 99.0, 101.0, [99.0, 100.0, 101.0])
    assert run.verdict(base, side(105.0, 104.0, 106.0, [104, 105, 106]),
                       metric) == "within bound"
    assert run.verdict(base, side(120.0, 119.0, 121.0, [119, 120, 121]),
                       metric) == "worse"
    noisy = side(100.0, 80.0, 120.0, [80.0, 100.0, 120.0])
    assert run.verdict(noisy, side(105.0, 104.0, 106.0, [104, 105, 106]),
                       metric) == "unresolved"
    assert run.verdict(noisy, side(50.0, 49.0, 51.0, [49, 50, 51]),
                       metric) == "within bound"


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "static-rmac-75",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
