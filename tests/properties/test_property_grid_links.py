"""Property: grid-indexed link tables are *exactly* the brute-force oracle's.

``NeighborService`` builds every link table sender by sender against a
spatial grid: all senders at once when a static placement freezes, and
only the senders asked for in each mobile bucket. For every sender, the
table must have the same node set, the same ``delay_ns``, the same ``in_rx_range`` flag and the
same ``power_dbm`` (to the last bit) as the scan-everything oracle in
``tests/phy/link_oracle.py``, under the unit-disk spec and under
threshold specs on the log-distance models (with and without shadowing,
heterogeneous radios and interference-only tails), across mobility
bucket epochs, and with nodes straddling grid-cell boundaries. Every
decodable link is sensed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.base import MobilityProvider
from repro.mobility.waypoint import RandomWaypointModel
from repro.phy.neighbors import LinkPowerSpec, NeighborService, StaticPositions
from repro.phy.params import DEFAULT_PHY
from repro.phy.propagation import LogDistanceModel, UnitDiskModel
from repro.phy.sinr import SinrConfig, wire_sinr
from tests.phy.link_oracle import oracle_links, threshold_spec

WIDTH, HEIGHT = 400.0, 250.0


def make_rule(kind, sense_extra_db):
    """The unit disk, or log-distance thresholds whose carrier sense
    reaches ``sense_extra_db`` below decode."""
    if kind == "unit":
        return UnitDiskModel(75.0), LinkPowerSpec.unit_disk(75.0)
    model = LogDistanceModel()
    return model, threshold_spec(model, -65.0, -65.0 - sense_extra_db)


def make_coords(rng, n, clustered):
    coords = []
    for i in range(n):
        if clustered and i % 3 == 0 and coords:
            # Pile some nodes near others (dense cells) and some right on
            # multiples of the cell size (boundary straddlers).
            x, y = coords[rng.randrange(len(coords))]
            coords.append((min(WIDTH, x + rng.uniform(0, 2.0)),
                           min(HEIGHT, y + rng.uniform(0, 2.0))))
        elif i % 5 == 0:
            edge = 75.0 * rng.randrange(0, 5) + rng.choice((-1e-9, 0.0, 1e-9))
            coords.append((min(max(edge, 0.0), WIDTH), rng.uniform(0, HEIGHT)))
        else:
            coords.append((rng.uniform(0, WIDTH), rng.uniform(0, HEIGHT)))
    return coords


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 50),
    kind=st.sampled_from(["unit", "log"]),
    sense_extra_db=st.sampled_from([0.0, 10.0]),
    clustered=st.booleans(),
)
def test_static_grid_tables_equal_brute(seed, n, kind, sense_extra_db,
                                        clustered):
    rng = random.Random(seed)
    provider = StaticPositions(make_coords(rng, n, clustered))
    model, spec = make_rule(kind, sense_extra_db)
    grid = NeighborService(provider, model, spec)
    pos = provider.positions(0)
    for sender in range(n):
        links = grid.links_from(sender, 0)
        assert links == oracle_links(pos, sender, model, spec)
        # Decodable => sensed: every link that decodes gets arrival events.
        assert all(link.sensed for link in links if link.in_rx_range)


def make_power_spec(kind, hetero, n, seed):
    """The SINR subsystem's wiring: model + LinkPowerSpec."""
    overrides = dict(antenna_gain_db=2.0, antenna_gain_jitter_db=1.0,
                     tx_power_jitter_db=3.0) if hetero else {}
    config = SinrConfig(propagation=kind, **overrides)
    wiring = wire_sinr(config, DEFAULT_PHY, n, seed)
    return wiring.model, wiring.power_spec


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 50),
    kind=st.sampled_from(["shadowing", "logdistance"]),
    hetero=st.booleans(),
    clustered=st.booleans(),
)
def test_static_power_mode_grid_tables_equal_brute(
        seed, n, kind, hetero, clustered):
    """SINR-wired links (pair-aware shadowing, heterogeneous radio
    offsets, interference-only tails) keep the grid == oracle
    bit-identity contract: same nodes, delays, flags and ``power_dbm``
    to the last bit. The shadow cache is per-model, so the service and
    the oracle share one model instance -- exactly how the testbed
    wires it."""
    rng = random.Random(seed)
    provider = StaticPositions(make_coords(rng, n, clustered))
    model, spec = make_power_spec(kind, hetero, n, seed)
    grid = NeighborService(provider, model, spec)
    pos = provider.positions(0)
    for sender in range(n):
        links = grid.links_from(sender, 0)
        assert links == oracle_links(pos, sender, model, spec)
        for link in links:
            assert link.sensed == (link.power_dbm >= spec.cs_threshold_dbm)
            assert link.in_rx_range == (link.power_dbm >= spec.rx_threshold_dbm)
            assert link.power_dbm >= spec.keep_threshold_dbm
            assert link.sensed or not link.in_rx_range


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 24),
    hetero=st.booleans(),
)
def test_mobile_power_mode_grid_tables_equal_brute(seed, n, hetero):
    rng = random.Random(seed)
    models = [
        RandomWaypointModel(x, y, WIDTH, HEIGHT, 0.5, 8.0, 1.0,
                            random.Random(seed * 1000 + i))
        for i, (x, y) in enumerate(make_coords(rng, n, clustered=True))
    ]
    provider = MobilityProvider(models)
    model, spec = make_power_spec("shadowing", hetero, n, seed)
    window = 50_000_000
    grid = NeighborService(provider, model, spec, cache_window=window)
    for epoch in range(3):
        t = epoch * window + window // 3
        pos = provider.positions(t - t % window)
        for sender in range(n):
            assert grid.links_from(sender, t) == oracle_links(
                pos, sender, model, spec)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 30),
    kind=st.sampled_from(["unit", "log"]),
    window=st.sampled_from([10_000_000, 50_000_000]),
)
def test_mobile_grid_tables_equal_brute_across_epochs(seed, n, kind, window):
    rng = random.Random(seed)
    models = [
        RandomWaypointModel(x, y, WIDTH, HEIGHT, 0.5, 8.0, 1.0,
                            random.Random(seed * 1000 + i))
        for i, (x, y) in enumerate(make_coords(rng, n, clustered=True))
    ]
    provider = MobilityProvider(models)
    model, spec = make_rule(kind, 0.0)
    grid = NeighborService(provider, model, spec, cache_window=window)
    for epoch in range(4):
        t = epoch * window + window // 3
        pos = provider.positions(t - t % window)
        for sender in range(n):
            assert grid.links_from(sender, t) == oracle_links(
                pos, sender, model, spec)
