"""Neighborhood evaluation and propagation delays."""

import numpy as np
import pytest

from repro.phy.neighbors import (
    NeighborService,
    StaticPositions,
    propagation_delay_ns,
)
from repro.phy.propagation import UnitDiskModel
from tests.phy.link_oracle import oracle_links


def service(coords, rng=75.0):
    return NeighborService(StaticPositions(coords), UnitDiskModel(rng))


def test_propagation_delay_speed_of_light():
    # 75 m / c ~ 250 ns
    assert propagation_delay_ns(75.0) == pytest.approx(250, abs=1)
    assert propagation_delay_ns(300.0) <= 1001  # paper's tau bound
    assert propagation_delay_ns(0.0) == 1  # floor


def test_links_exclude_sender_and_out_of_range():
    svc = service([(0, 0), (50, 0), (200, 0)])
    links = svc.links_from(0, 0)
    assert [l.node for l in links] == [1]
    assert links[0].in_rx_range


def test_links_symmetric_for_unit_disk():
    svc = service([(0, 0), (74, 0), (149, 0)])
    assert [l.node for l in svc.links_from(1, 0)] == [0, 2]
    assert [l.node for l in svc.links_from(0, 0)] == [1]


def test_static_results_cached():
    svc = service([(0, 0), (50, 0)])
    assert svc.links_from(0, 0) is svc.links_from(0, 10**9)


def test_unknown_sender_rejected():
    svc = service([(0, 0)])
    with pytest.raises(ValueError):
        svc.links_from(5, 0)


class _MovingProvider:
    """Node 1 teleports out of range at t = 1s."""

    def positions(self, time_ns):
        second = np.array([50.0, 0.0]) if time_ns < 10**9 else np.array([500.0, 0.0])
        return np.vstack([[0.0, 0.0], second])

    def is_static(self):
        return False


def test_mobile_cache_window_refreshes():
    svc = NeighborService(_MovingProvider(), UnitDiskModel(75.0), cache_window=1000)
    assert [l.node for l in svc.links_from(0, 0)] == [1]
    assert [l.node for l in svc.links_from(0, 2 * 10**9)] == []


def test_mobile_cache_window_zero_is_exact():
    svc = NeighborService(_MovingProvider(), UnitDiskModel(75.0), cache_window=0)
    assert [l.node for l in svc.links_from(0, 10**9 - 1)] == [1]
    assert [l.node for l in svc.links_from(0, 10**9)] == []


def test_static_positions_validation():
    with pytest.raises(ValueError):
        StaticPositions([[1, 2, 3]])


def test_mobile_cache_follows_position_bucket_epoch():
    """Regression: cached mobile links must match the *current* bucket.

    The cache used to stay valid for a full window from whenever the
    entry was computed, so an entry primed late in bucket k kept serving
    bucket-k links well into bucket k+1 -- while ``positions_at`` had
    already moved on. Links and positions would disagree for the same
    query time. Now the cache is keyed on the position-bucket epoch, so
    a query just past the boundary recomputes.
    """
    import random

    from repro.mobility.base import MobilityProvider
    from repro.mobility.waypoint import RandomWaypointModel

    window = 10_000_000  # 10 ms buckets
    models = [
        RandomWaypointModel(x, y, 200.0, 150.0, 5.0, 30.0, 0.0,
                            random.Random(17 + i))
        for i, (x, y) in enumerate([(0.0, 0.0), (70.0, 10.0),
                                    (140.0, 0.0), (40.0, 100.0)])
    ]
    provider = MobilityProvider(models)
    svc = NeighborService(provider, UnitDiskModel(75.0), cache_window=window)
    exact = NeighborService(provider, UnitDiskModel(75.0), cache_window=0)
    for k in range(40):
        # Prime the cache late in bucket k, then query early in bucket
        # k+1: the second answer must reflect the new bucket's
        # positions, not the cached previous-bucket links.
        for t in (k * window + int(0.95 * window),
                  (k + 1) * window + int(0.05 * window)):
            bucket = t - t % window
            for sender in range(len(models)):
                assert svc.links_from(sender, t) == exact.links_from(sender, bucket)


def test_mobile_cache_hit_within_bucket_returns_same_object():
    svc = NeighborService(_MovingProvider(), UnitDiskModel(75.0),
                          cache_window=1000)
    assert svc.links_from(0, 100) is svc.links_from(0, 900)


class _CountingProvider:
    """Static layout, mobile-flagged: counts positions() materializations."""

    def __init__(self, coords):
        self._coords = np.asarray(coords, dtype=float)
        self.calls = 0

    def positions(self, time_ns):
        self.calls += 1
        return self._coords

    def is_static(self):
        return False


def test_two_slot_position_cache_survives_interleaved_times():
    """Regression: interleaved queries for two buckets must not thrash.

    The position cache used to hold a single snapshot, so an oracle or
    trace lookback alternating between "now" and an earlier time evicted
    the live snapshot on every call -- one provider materialization per
    query. Two slots make the alternating pattern all hits.
    """
    provider = _CountingProvider([(0.0, 0.0), (50.0, 0.0)])
    svc = NeighborService(provider, UnitDiskModel(75.0), cache_window=1000)
    now, lookback = 5_000, 1_500  # distinct buckets
    for _ in range(10):
        svc.positions_at(now)
        svc.positions_at(lookback)
    assert provider.calls == 2
    assert svc.counters.pos_cache_misses == 2
    assert svc.counters.pos_cache_hits == 18
    # A third bucket evicts the least-recently-used slot, not the MRU.
    svc.positions_at(9_500)
    assert provider.calls == 3
    svc.positions_at(9_500)
    svc.positions_at(lookback)
    assert provider.calls == 3


def test_counters_track_table_cache():
    svc = NeighborService(_MovingProvider(), UnitDiskModel(75.0),
                          cache_window=1000)
    # One sender of two is already a dense (>= 25%) bucket: the first
    # miss rebuilds both tables in one batched pass...
    svc.links_from(0, 100)
    # ...the same bucket then hits...
    svc.links_from(0, 900)
    # ...and the next bucket, predicted dense, rebuilds up front.
    svc.links_from(0, 1100)
    counters = svc.counters.as_dict()
    assert counters["table_misses"] == 2
    assert counters["table_hits"] == 1
    assert counters["table_rebuilds"] == 2
    assert counters["links_built"] == 4  # two links per rebuild


def test_grid_and_brute_static_tables_identical():
    import random

    rng = random.Random(5)
    coords = [(rng.uniform(0, 500), rng.uniform(0, 300)) for _ in range(70)]
    svc = service(coords)
    for sender in range(len(coords)):
        assert svc.links_from(sender, 0) == oracle_links(
            coords, sender, svc.model)
    assert svc.counters.table_rebuilds == 1
    assert svc.counters.grid_cells > 0
    assert svc.counters.grid_pairs > 0


def test_static_service_freezes_with_one_batched_rebuild():
    import random

    rng = random.Random(9)
    coords = [(rng.uniform(0, 300), rng.uniform(0, 200)) for _ in range(30)]
    svc = service(coords)
    for _ in range(2):
        for sender in range(len(coords)):
            assert svc.links_from(sender, 0) == oracle_links(
                coords, sender, svc.model)
    assert svc.counters.table_rebuilds == 1
    assert svc.counters.table_misses == 0
    assert svc.counters.table_hits == 2 * len(coords)


def test_table_from_shares_delay_map():
    svc = service([(0, 0), (50, 0), (70, 0)])
    table = svc.table_from(0, 0)
    assert table.delay_map is svc.table_from(0, 0).delay_map
    assert table.delay_map == {l.node: l.delay_ns for l in table.links}


def test_link_is_tuple_compatible():
    from repro.phy.neighbors import Link

    positional = Link(3, 250, True, -40.0)
    keyword = Link(node=3, delay_ns=250, in_rx_range=True, power_dbm=-40.0)
    assert positional == keyword
    assert Link(3, 250, True).power_dbm is None


class _DriftProvider:
    """n nodes on a line, rigidly drifting 1 m per 1 us position bucket."""

    def __init__(self, n):
        self.n = n

    def positions(self, time_ns):
        xs = np.arange(self.n, dtype=np.float64) * 10.0 + float(time_ns // 1000)
        return np.column_stack([xs, np.zeros(self.n)])

    def is_static(self):
        return False


def test_grid_mobile_density_adaptive():
    n = 80
    provider = _DriftProvider(n)
    svc = NeighborService(provider, UnitDiskModel(75.0), cache_window=1000)
    # Sparse traffic: one sender per bucket never triggers a batched
    # rebuild; tables are served lazily against the bucket's grid.
    for bucket in range(3):
        svc.links_from(0, bucket * 1000)
    assert svc.counters.table_rebuilds == 0
    assert svc.counters.table_misses == 3
    # Dense traffic: sweeping every sender upgrades mid-bucket (at 25%
    # distinct senders) to one batched rebuild...
    for s in range(n):
        svc.links_from(s, 3000)
    assert svc.counters.table_rebuilds == 1
    # ...and the next bucket, predicted dense, rebuilds eagerly up front.
    for s in range(n):
        svc.links_from(s, 4000)
    assert svc.counters.table_rebuilds == 2
    # Both flavors (lazy pruned scalar, batched) agree with the oracle.
    for t in (0, 3000, 4000):
        for s in range(n):
            assert svc.links_from(s, t) == oracle_links(
                provider.positions(t), s, svc.model)
