"""Full-stack link-table behavior: how a run's link tables get built.

A static run reads its placement once and builds each sender's table
the first time the sender transmits or raises a tone; every later ask
hits. A mobile run builds, in each position bucket, only the tables
that are asked for, one sender at a time, against one grid per bucket.
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


def test_static_run_builds_each_table_once():
    counters = run_counters(STATIC)
    # One grid for the whole run, and at most one table per sender.
    assert counters.table_rebuilds == 1
    assert 1 < counters.table_misses <= STATIC.n_nodes
    assert counters.table_hits > counters.table_misses


def test_mobile_run_builds_link_tables_across_epochs():
    counters = run_counters(MOBILE)
    # Tables were built on demand across several bucket epochs, one grid
    # per bucket that built one.
    assert counters.table_rebuilds > 1
    assert counters.table_misses > counters.table_rebuilds
    assert counters.links_built > 0


def test_neighbor_counters_export_as_a_plain_dict():
    neighbors = run_counters(STATIC.variant(n_packets=5)).as_dict()
    assert set(neighbors) == {"table_hits", "table_misses",
                              "table_rebuilds", "links_built"}
    assert neighbors["table_hits"] > 0
    assert neighbors["links_built"] > 0
    # Static run: one grid, each table built once, then cache hits.
    assert neighbors["table_rebuilds"] == 1
    assert neighbors["table_misses"] <= STATIC.n_nodes
