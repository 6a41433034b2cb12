"""Neighborhood evaluation and propagation delays."""

import numpy as np
import pytest

from repro.phy.neighbors import (
    NeighborService,
    StaticPositions,
    propagation_delay_ns,
)
from repro.phy.propagation import IN_RANGE_POWER_DBM, PropagationModel, UnitDiskModel
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
    # A mobile bucket builds only the table it is asked for (sender 0's,
    # not sender 1's)...
    svc.links_from(0, 100)
    # ...the same bucket then hits...
    svc.links_from(0, 900)
    # ...and the next bucket builds sender 0's table again.
    svc.links_from(0, 1100)
    counters = svc.counters.as_dict()
    assert counters["table_misses"] == 2
    assert counters["table_hits"] == 1
    assert counters["table_rebuilds"] == 0
    assert counters["links_built"] == 2  # one link per served table


def test_grid_and_brute_static_tables_identical():
    import random

    rng = random.Random(5)
    coords = [(rng.uniform(0, 500), rng.uniform(0, 300)) for _ in range(70)]
    svc = service(coords)
    tables = [svc.links_from(sender, 0) for sender in range(len(coords))]
    for sender, links in enumerate(tables):
        assert links == oracle_links(coords, sender, svc.model)
    counters = svc.counters
    assert counters.table_rebuilds == 1
    assert counters.grid_cells > 0
    # Each sender evaluates itself and every node it links to, and the
    # grid prunes the rest of the n x n pairs.
    n = len(coords)
    assert counters.links_built == sum(len(links) for links in tables)
    assert counters.links_built + n <= counters.grid_pairs < n * n


def test_static_service_freezes_once():
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
    assert svc.counters.links_built == sum(
        len(svc.links_from(sender, 0)) for sender in range(len(coords)))


def test_table_from_shares_one_view():
    svc = service([(0, 0), (50, 0), (70, 0)])
    table = svc.table_from(0, 0)
    assert table.view is svc.table_from(0, 0).view
    assert table.view.sensed is table.view
    assert {link.node: link.delay_ns for link in table.view.links} == {
        link.node: link.delay_ns for link in table.links}


def test_delay_sorted_views_are_stable_and_cached():
    """The one view lists links by delay, equal delays in link-table
    order, and is built once per table; its sensed group (the links that
    get arrival events and hear tones) keeps that order."""
    from repro.phy.neighbors import Link, LinkTable

    table = LinkTable((Link(1, 30, True, -50.0), Link(2, 10, True, -70.0),
                       Link(3, 30, False, -60.0), Link(4, 10, False, -80.0,
                                                       sensed=False)))
    view = table.view
    assert view is table.view
    assert view.delays == (10, 10, 30, 30)
    assert view.links == tuple(table.links[k] for k in (1, 3, 0, 2))
    assert view.index == {2: 0, 4: 1, 1: 2, 3: 3}
    assert view.span == 30
    # The sensed links split from the interference-only ones, which
    # keep only their delays.
    sensed = view.sensed
    assert sensed.delays == (10, 30, 30)
    assert [link.node for link in sensed.links] == [2, 1, 3]
    assert sensed.index == {2: 0, 1: 1, 3: 2}
    assert sensed.sensed is sensed
    assert view.quiet == (10,)
    assert sensed.quiet == ()
    # With no interference-only link, the sensed group is the view itself.
    classic = LinkTable((Link(1, 30, True, -50.0), Link(2, 10, True, -70.0)))
    assert classic.view.sensed is classic.view
    assert classic.view.quiet == ()
    assert [link.node for link in classic.view.links] == [2, 1]


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


def test_grid_mobile_buckets_build_only_served_tables():
    n = 80
    provider = _DriftProvider(n)
    svc = NeighborService(provider, UnitDiskModel(75.0), cache_window=1000)
    served = {}
    # Sparse traffic: one sender per bucket.
    for bucket in range(3):
        served[0, bucket * 1000] = svc.links_from(0, bucket * 1000)
    # Dense traffic: every sender of a bucket, then every one again from
    # the cache.
    for t in (3000, 4000):
        for s in range(n):
            served[s, t] = svc.links_from(s, t)
        for s in range(n):
            assert svc.links_from(s, t) is served[s, t]
    counters = svc.counters
    assert counters.table_rebuilds == 0
    assert counters.table_misses == len(served)
    assert counters.table_hits == 2 * n
    assert counters.links_built == sum(len(links) for links in served.values())
    for (s, t), links in served.items():
        assert links == oracle_links(provider.positions(t), s, svc.model)


def test_waypoint_1000_tables_equal_oracle_in_any_query_order():
    """The benchmark's scaling geometry: 1000 random-waypoint nodes on
    1600 x 1000 m, unit disk 75 m, 50 ms buckets. Seeded-random senders
    are queried in shuffled order over three buckets and then back in
    the first one; every table is the oracle's."""
    import random

    from repro.mobility.base import MobilityProvider
    from repro.mobility.waypoint import RandomWaypointModel

    rng = random.Random(20)
    width, height, window = 1600.0, 1000.0, 50_000_000
    provider = MobilityProvider([
        RandomWaypointModel(rng.uniform(0, width), rng.uniform(0, height),
                            width, height, 0.0, 8.0, 0.0,
                            random.Random(1000 + i))
        for i in range(1000)])
    svc = NeighborService(provider, UnitDiskModel(75.0), cache_window=window)
    cached_bucket = {}
    built = []
    for bucket in (0, 1, 2, 0):
        senders = rng.sample(range(1000), 100)
        rng.shuffle(senders)
        for sender in senders:
            t = bucket * window + rng.randrange(window)
            links = svc.links_from(sender, t)
            assert links == oracle_links(svc.positions_at(t), sender,
                                         svc.model)
            assert svc.links_from(sender, t) is links
            # A sender's cached table survives until it is asked for in
            # another bucket, so back in bucket 0 some tables still hit.
            if cached_bucket.get(sender) != bucket:
                cached_bucket[sender] = bucket
                built.append(links)
    counters = svc.counters
    assert counters.table_rebuilds == 0
    assert counters.table_misses == len(built)
    assert 300 < len(built) < 400
    assert counters.links_built == sum(len(links) for links in built)


def test_propagation_delay_rounds_like_rint():
    """``propagation_delay_ns`` is ``max(1, rint(d / c))``: halves round
    to even, as ``np.rint`` does, so a builder may use either form."""
    import math
    import random

    from repro.phy.neighbors import _LIGHT_SPEED_M_PER_NS as c

    halves = []
    for k in range(0, 2000, 3):
        d = (k + 0.5) * c
        for _ in range(4):
            d = math.nextafter(d, 0.0)
        for _ in range(9):
            if d / c == k + 0.5:
                halves.append(d)
            d = math.nextafter(d, math.inf)
    assert len(halves) > 300
    rng = random.Random(3)
    distances = halves + [rng.uniform(0.0, 400.0) for _ in range(5000)]
    for d in distances:
        assert propagation_delay_ns(d) == max(1, int(np.rint(d / c)))
    for d in halves:
        k = math.floor(d / c)
        assert propagation_delay_ns(d) == max(1, k + (k % 2))


def test_unit_disk_links_share_one_power_object():
    """A unit-disk model reports the same power on every link; the
    tables hold it as one float object, not one per link."""
    import random

    rng = random.Random(3)
    coords = [(rng.uniform(0, 200), rng.uniform(0, 150)) for _ in range(40)]
    svc = service(coords)
    for sender in range(len(coords)):
        links = svc.links_from(sender, 0)
        assert links == oracle_links(coords, sender, svc.model)
        assert all(link.power_dbm is IN_RANGE_POWER_DBM for link in links)


class _ScalarOnlyModel(PropagationModel):
    """A custom model with scalar predicates only: decodes to 40 m,
    senses to 60 m and reports a distance-dependent power, so the link
    builder's batch calls go through the base-class fallbacks."""

    def in_range(self, distance):
        return distance <= 40.0

    def carrier_sensed(self, distance):
        return distance <= 60.0

    def received_power_dbm(self, distance):
        return -30.0 - distance / 3.0

    def max_range(self):
        return 60.0


def test_scalar_only_model_tables_equal_oracle():
    import random

    rng = random.Random(8)
    coords = [(rng.uniform(0, 250), rng.uniform(0, 150)) for _ in range(50)]
    model = _ScalarOnlyModel()
    svc = NeighborService(StaticPositions(coords), model)
    decodable = sensed_only = 0
    for sender in range(len(coords)):
        links = svc.links_from(sender, 0)
        assert links == oracle_links(coords, sender, model)
        decodable += sum(link.in_rx_range for link in links)
        sensed_only += sum(not link.in_rx_range for link in links)
    assert decodable and sensed_only
