"""The multi-process sweep mode (workers > 1) against the in-process one."""

from repro.experiments.runner import run_sweep
from repro.experiments.scenarios import scaled_scenario


def tiny_config(protocol, scenario, rate, seed):
    return scaled_scenario(protocol, scenario, rate, seed,
                           n_packets=4, n_nodes=10)


def test_parallel_matches_serial():
    args = (["rmac"], ["stationary"], [10], [1, 2], tiny_config)
    serial = run_sweep(*args, workers=0)
    parallel = run_sweep(*args, workers=2)
    assert len(serial) == len(parallel) == 1
    assert serial[0].values == parallel[0].values
