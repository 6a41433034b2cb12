"""Full-stack link-table behavior: how a run's link tables get built.

Static runs freeze every sender's table once and then only hit; mobile
runs build, in each position bucket, only the tables that are asked
for, one sender at a time.
The bit-identity of those tables with the brute-force oracle is checked
in ``tests/phy`` and ``tests/properties``; the golden pins in
``tests/integration/test_determinism.py`` hold whole runs fixed.
"""

from repro.world.network import ScenarioConfig, build_network


def run_counters(config):
    network = build_network(config)
    network.run()
    return network.testbed.neighbors.counters


STATIC = ScenarioConfig(n_nodes=40, width=360.0, height=220.0, rate_pps=5.0,
                        n_packets=15, warmup_s=2.0, drain_s=2.0, seed=3)
MOBILE = STATIC.variant(mobile=True, n_nodes=30, width=300.0, height=200.0,
                        seed=4)


def test_static_run_freezes_link_tables_once():
    counters = run_counters(STATIC)
    assert counters.table_rebuilds == 1
    assert counters.table_misses == 0


def test_mobile_run_builds_link_tables_across_epochs():
    counters = run_counters(MOBILE)
    # Tables were built on demand across several bucket epochs; only a
    # static placement ever freezes.
    assert counters.table_rebuilds == 0
    assert counters.table_misses > 1
    assert counters.links_built > 0


def test_neighbor_counters_surface_in_telemetry():
    config = STATIC.variant(collect_telemetry=True, n_packets=5)
    summary = build_network(config).run()
    neighbors = summary.telemetry["neighbors"]
    assert neighbors["table_hits"] > 0
    assert neighbors["links_built"] > 0
    # Static run: every table frozen once, then pure cache hits.
    assert neighbors["table_misses"] == 0
