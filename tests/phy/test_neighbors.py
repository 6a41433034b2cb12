"""Neighborhood evaluation and propagation delays."""

import numpy as np
import pytest

from repro.phy.neighbors import (BUCKET_NS, StaticPositions,
                                 propagation_delay_ns)
from tests.phy.link_oracle import oracle_links, unit_disk_service


def service(coords, rng=75.0):
    return unit_disk_service(StaticPositions(coords), rng)


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
    assert svc.table_from(0, 0) is svc.table_from(0, 10**9)


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
    svc = unit_disk_service(_MovingProvider())
    assert [l.node for l in svc.links_from(0, 0)] == [1]
    assert [l.node for l in svc.links_from(0, 2 * 10**9)] == []


def test_static_positions_validation():
    with pytest.raises(ValueError):
        StaticPositions([[1, 2, 3]])


class _CountingProvider:
    """A fixed or waypoint placement that counts positions() snapshots."""

    def __init__(self, inner, static):
        self._inner = inner
        self._static = static
        self.calls = 0

    def positions(self, time_ns):
        self.calls += 1
        return self._inner.positions(time_ns)

    def is_static(self):
        return self._static


def _waypoints(n, seed):
    import random

    from repro.mobility.base import MobilityProvider
    from repro.mobility.waypoint import RandomWaypointModel

    rng = random.Random(seed)
    return MobilityProvider([
        RandomWaypointModel(rng.uniform(0, 200), rng.uniform(0, 150),
                            200.0, 150.0, 5.0, 30.0, 0.0,
                            random.Random(seed + i))
        for i in range(n)])


def test_static_tables_built_on_first_ask_then_shared():
    """A static placement is one bucket that never ends: each sender's
    table is built the first time it is asked for, at any time, and then
    served as the same object; the placement is read once."""
    import random

    rng = random.Random(9)
    coords = [(rng.uniform(0, 300), rng.uniform(0, 200)) for _ in range(30)]
    provider = _CountingProvider(StaticPositions(coords), static=True)
    svc = unit_disk_service(provider)
    first = {}
    for t in (0, 7 * BUCKET_NS + 3, 10**12):
        for sender in range(len(coords)):
            view = svc.table_from(sender, t)
            assert first.setdefault(sender, view) is view
            assert svc.links_from(sender, t) == oracle_links(
                coords, sender, svc.model, svc.power_spec)
    counters = svc.counters
    assert provider.calls == 1
    assert counters.table_rebuilds == 1
    assert counters.table_misses == len(coords)
    # Three rounds of table_from, three of links_from, one miss each.
    assert counters.table_hits == 6 * len(coords) - len(coords)
    assert counters.links_built == sum(
        len(view.links) for view in first.values())


def test_mobile_cache_follows_position_bucket_epoch():
    """A mobile table is rebuilt exactly at each 50 ms bucket boundary,
    from the positions at the start of the bucket.

    A table asked for late in bucket k is served until the bucket ends;
    the first ask at the boundary of bucket k+1 builds a new one, equal
    to the oracle's over the positions at k+1's start, and
    :meth:`positions_at` agrees with it.
    """
    n = 6
    waypoints = _waypoints(n, 17)
    provider = _CountingProvider(waypoints, static=False)
    svc = unit_disk_service(provider)
    for k in range(20):
        start = k * BUCKET_NS
        pos = waypoints.positions(start)
        misses = svc.counters.table_misses
        views = [svc.table_from(sender, start) for sender in range(n)]
        assert svc.counters.table_misses == misses + n
        for sender, view in enumerate(views):
            assert svc.links_from(sender, start) == oracle_links(
                pos, sender, svc.model, svc.power_spec)
            assert svc.table_from(sender, start + BUCKET_NS - 1) is view
        assert svc.counters.table_misses == misses + n
        np.testing.assert_array_equal(
            svc.positions_at(start + BUCKET_NS - 1), pos)
    # One snapshot and one grid per bucket.
    assert provider.calls == 20
    assert svc.counters.table_rebuilds == 20


def test_mobile_cache_hit_within_bucket_returns_same_object():
    svc = unit_disk_service(_MovingProvider())
    assert svc.table_from(0, 100) is svc.table_from(0, BUCKET_NS - 1)


def test_counters_track_table_cache():
    svc = unit_disk_service(_MovingProvider())
    # A mobile bucket builds only the table it is asked for (sender 0's,
    # not sender 1's)...
    svc.links_from(0, 100)
    # ...the same bucket then hits...
    svc.links_from(0, 900)
    # ...and the next bucket builds sender 0's table again.
    svc.links_from(0, BUCKET_NS + 100)
    counters = svc.counters.as_dict()
    assert counters["table_misses"] == 2
    assert counters["table_hits"] == 1
    assert counters["table_rebuilds"] == 2  # one grid per bucket
    assert counters["links_built"] == 2  # one link per served table


def test_grid_and_brute_static_tables_identical():
    import random

    rng = random.Random(5)
    coords = [(rng.uniform(0, 500), rng.uniform(0, 300)) for _ in range(70)]
    svc = service(coords)
    tables = [svc.links_from(sender, 0) for sender in range(len(coords))]
    for sender, links in enumerate(tables):
        assert links == oracle_links(coords, sender, svc.model,
                                     svc.power_spec)
    counters = svc.counters
    assert counters.table_rebuilds == 1
    assert counters.links_built == sum(len(links) for links in tables)


def test_table_from_shares_one_view():
    svc = service([(0, 0), (50, 0), (70, 0)])
    view = svc.table_from(0, 0)
    assert view is svc.table_from(0, 0)
    assert view.sensed is view
    assert {link.node: link.delay_ns for link in view.links} == {
        link.node: link.delay_ns for link in svc.links_from(0, 0)}


def test_delay_sorted_views_are_stable_and_cached():
    """A table lists links by delay, equal delays in node order, and is
    built once per bucket; a view's sensed group (the links that get
    arrival events and hear tones) keeps that order."""
    from repro.phy.neighbors import Link, LinkView

    # Nodes 1 and 3 are 30 m from node 0, nodes 2 and 4 are 10 m away.
    svc = service([(0, 0), (30, 0), (-10, 0), (0, 30), (0, -10)])
    table = svc.table_from(0, 0)
    assert table is svc.table_from(0, 0)
    assert [link.node for link in table.links] == [2, 4, 1, 3]
    assert table.delays == (33, 33, 100, 100)
    assert table.index == {2: 0, 4: 1, 1: 2, 3: 3}
    assert table.span == 100
    assert [link.node for link in svc.links_from(0, 0)] == [1, 2, 3, 4]

    view = LinkView((Link(2, 10, True, -70.0),
                     Link(4, 10, False, -80.0, sensed=False),
                     Link(1, 30, True, -50.0), Link(3, 30, False, -60.0)))
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
    assert table.sensed is table
    assert table.quiet == ()


def test_link_is_tuple_compatible():
    from repro.phy.neighbors import Link

    positional = Link(3, 250, True, -40.0)
    keyword = Link(node=3, delay_ns=250, in_rx_range=True, power_dbm=-40.0)
    assert positional == keyword
    assert Link(3, 250, True).power_dbm is None


class _DriftProvider:
    """n nodes on a line, rigidly drifting 1 m per position bucket."""

    def __init__(self, n):
        self.n = n

    def positions(self, time_ns):
        xs = (np.arange(self.n, dtype=np.float64) * 10.0
              + float(time_ns // BUCKET_NS))
        return np.column_stack([xs, np.zeros(self.n)])

    def is_static(self):
        return False


def test_grid_mobile_buckets_build_only_served_tables():
    n = 80
    provider = _DriftProvider(n)
    svc = unit_disk_service(provider)
    served = {}
    # Sparse traffic: one sender per bucket.
    for bucket in range(3):
        served[0, bucket * BUCKET_NS] = svc.table_from(0, bucket * BUCKET_NS)
    # Dense traffic: every sender of a bucket, then every one again from
    # the cache.
    for t in (3 * BUCKET_NS, 4 * BUCKET_NS):
        for s in range(n):
            served[s, t] = svc.table_from(s, t)
        for s in range(n):
            assert svc.table_from(s, t) is served[s, t]
    counters = svc.counters
    assert counters.table_rebuilds == 5
    assert counters.table_misses == len(served)
    assert counters.table_hits == 2 * n
    assert counters.links_built == sum(
        len(view.links) for view in served.values())
    for (s, t), view in served.items():
        assert tuple(sorted(view.links)) == oracle_links(
            provider.positions(t), s, svc.model, svc.power_spec)


def test_waypoint_1000_tables_equal_oracle_in_any_query_order():
    """The benchmark's scaling geometry: 1000 random-waypoint nodes on
    1600 x 1000 m, unit disk 75 m, 50 ms buckets. Seeded-random senders
    are queried in shuffled order over three buckets and then back in
    the first one; every table is the oracle's. Going back to bucket 0
    rebuilds its tables, so each ask of a new bucket is a miss."""
    import random

    from repro.mobility.base import MobilityProvider
    from repro.mobility.waypoint import RandomWaypointModel

    rng = random.Random(20)
    width, height = 1600.0, 1000.0
    provider = MobilityProvider([
        RandomWaypointModel(rng.uniform(0, width), rng.uniform(0, height),
                            width, height, 0.0, 8.0, 0.0,
                            random.Random(1000 + i))
        for i in range(1000)])
    svc = unit_disk_service(provider)
    built = []
    for bucket in (0, 1, 2, 0):
        senders = rng.sample(range(1000), 100)
        rng.shuffle(senders)
        for sender in senders:
            t = bucket * BUCKET_NS + rng.randrange(BUCKET_NS)
            links = svc.links_from(sender, t)
            assert links == oracle_links(svc.positions_at(t), sender,
                                         svc.model, svc.power_spec)
            assert svc.links_from(sender, t) == links
            built.append(links)
    counters = svc.counters
    assert counters.table_rebuilds == 4
    assert counters.table_misses == len(built) == 400
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
