"""Sweep failure paths: one crashing seed must not void the matrix.

The crash is injected through the config: an unknown protocol name makes
``run_point`` raise inside ``build_network`` -- picklable, so the same
injection works in worker processes.

Every sweep check runs in both modes of the one executor: in-process
(``workers=0``) and across two worker processes (``workers=2``). The
modes loop inside each test rather than through ``parametrize`` so the
test IDs stay stable.
"""

from repro.experiments.runner import (
    PointFailure,
    aggregate,
    run_sweep,
    sweep_failures,
)
from repro.experiments.scenarios import scaled_scenario


def _make_config(crash_seeds=(), crash_protocol="boom"):
    def make(protocol, scenario, rate, seed):
        config = scaled_scenario(protocol, scenario, rate, seed,
                                 n_packets=3, n_nodes=8)
        if seed in crash_seeds:
            return config.variant(protocol=crash_protocol)
        return config

    return make


#: The executor's two modes: in-process, and two worker processes.
WORKER_MODES = (0, 2)


def test_crashing_seed_names_point_and_keeps_survivors():
    for workers in WORKER_MODES:
        results = run_sweep(["rmac"], ["stationary"], [10], [1, 2, 3],
                            _make_config(crash_seeds={2}), workers=workers)
        assert len(results) == 1
        point = results[0]
        assert point.n_seeds == 2                  # survivors aggregated
        assert point["delivery_ratio"] is not None
        assert len(point.failures) == 1
        failure = point.failures[0]
        assert (failure.protocol, failure.scenario, failure.rate_pps,
                failure.seed) == ("rmac", "stationary", 10, 2)
        assert "ValueError" in failure.error
        # The real traceback, from whichever process ran the point.
        assert "build_network" in failure.traceback, workers


def test_parallel_crashing_seed_keeps_survivors():
    results = run_sweep(["rmac"], ["stationary"], [10], [1, 2, 3],
                        _make_config(crash_seeds={2}), workers=2)
    point = results[0]
    assert point.n_seeds == 2
    assert [f.seed for f in point.failures] == [2]


def test_parallel_and_serial_survivor_values_match():
    args = (["rmac"], ["stationary"], [10], [1, 2, 3],
            _make_config(crash_seeds={2}))
    serial = run_sweep(*args, workers=0)
    parallel = run_sweep(*args, workers=2)
    assert serial == parallel   # values, per-seed summaries and failures
    assert serial[0].n_seeds == 2


def test_full_matrix_shape():
    for workers in WORKER_MODES:
        results = run_sweep(["rmac", "bmmm"], ["stationary"], [10, 20], [1],
                            _make_config(), workers=workers)
        assert [(r.protocol, r.rate_pps) for r in results] == [
            ("rmac", 10), ("rmac", 20), ("bmmm", 10), ("bmmm", 20)]


def test_all_seeds_crashing_yields_empty_point():
    for workers in WORKER_MODES:
        results = run_sweep(["rmac"], ["stationary"], [10], [1, 2],
                            _make_config(crash_seeds={1, 2}), workers=workers)
        point = results[0]
        assert point.n_seeds == 0
        assert point["delivery_ratio"] is None
        assert len(point.failures) == 2


def test_retries_are_counted():
    for workers in WORKER_MODES:
        results = run_sweep(["rmac"], ["stationary"], [10], [2],
                            _make_config(crash_seeds={2}), workers=workers,
                            retries=2)
        failure = results[0].failures[0]
        assert failure.attempts == 3  # 1 initial + 2 retries


def test_progress_reports_every_job_with_errors_flagged():
    for workers in WORKER_MODES:
        seen = []
        run_sweep(["rmac"], ["stationary"], [10], [1, 2],
                  _make_config(crash_seeds={2}), workers=workers,
                  progress=lambda done, total, key, error:
                      seen.append((done, total, key, error is not None)))
        assert len(seen) == 2
        assert [s[0] for s in seen] == [1, 2]
        assert all(s[1] == 2 for s in seen)
        failed = {s[2]: s[3] for s in seen}
        assert failed["rmac|stationary|10|2"] is True
        assert failed["rmac|stationary|10|1"] is False


def test_sweep_failures_collects_across_points():
    for workers in WORKER_MODES:
        results = run_sweep(["rmac"], ["stationary"], [5, 10], [1, 2],
                            _make_config(crash_seeds={2}), workers=workers)
        failures = sweep_failures(results)
        assert [(f.rate_pps, f.seed) for f in failures] == [(5, 2), (10, 2)]
        assert all(isinstance(f, PointFailure) for f in failures)


def test_aggregate_defaults_to_no_failures():
    result = aggregate("rmac", "stationary", 10, [])
    assert result.failures == ()
    assert result.n_seeds == 0


def test_clean_sweep_has_no_failures():
    results = run_sweep(["rmac"], ["stationary"], [10], [1], _make_config())
    assert results[0].failures == ()
    assert sweep_failures(results) == []
