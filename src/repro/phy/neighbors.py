"""Neighborhood evaluation: who hears whom, and with what delay.

The data channel and the busy-tone channels both need, at the moment a
transmission (or tone emission) starts, the set of nodes that will sense
it and the per-link propagation delay. This module centralizes that
computation over a position provider:

* static scenarios: every sender's link table is computed once and frozen
  (later calls are a single list index);
* mobile scenarios: positions are bucketed to a configurable window
  (default 50 ms -- at the paper's top speed of 8 m/s a node moves 0.4 mm
  per us and 0.4 m per 50 ms, negligible against the 75 m radio range),
  and cached link tables are keyed on the *same* bucket epoch, so links
  and positions can never disagree mid-window. Set ``cache_window=0``
  for exact per-call evaluation.

Links are found through a :class:`~repro.phy.grid.SpatialGrid` (cell
size = the model's ``max_range()``), which prunes candidates to the
3 x 3 cell neighborhoods. One per-sender builder,
:meth:`NeighborService._table_of`, serves every table: a static
placement freezes by building all senders' tables through it once, and
a mobile bucket builds only the tables that are asked for, against one
grid per bucket. It computes the candidates' distances in numpy and
filters and labels them with the model's batch calls: in threshold mode
``carrier_sensed_batch`` keeps a link, ``in_range_batch`` marks it
decodable and ``received_power_dbm_batch`` gives its power (a model on
the base constant power needs no call: its links share
``IN_RANGE_POWER_DBM``); in power mode one ``link_power_dbm_batch``
call gives the powers every decision reads. One pass over plain Python
lists then constructs the links. The tests check it against a
brute-force oracle that scans all n nodes per sender with the scalar
predicates (``tests/phy/link_oracle.py``).

**Power mode** (:class:`LinkPowerSpec`, used by the SINR subsystem):
instead of the model's boolean range predicates, links are kept down to
an *interference* cutoff (default: the noise floor) and every decision
-- decodable, carrier-sensed, kept at all -- is a threshold on the
link's received power, which includes per-pair shadowing
(``model.link_power_dbm``) and per-node heterogeneous radio offsets.
Links below carrier sense but above the cutoff are *interference-only*
(``Link.sensed`` False): their power counts in SINR decodes (read from
the table's :class:`SinrView` when a decode replays its window), but
they never raise carrier sense or busy-tone detection, and the data
channel gives them no arrival events. The grid cell size
becomes the spec's ``prune_range`` (the interference radius), not the
model's ``max_range()``. ``link_power_dbm_batch`` is bit-identical to
the oracle's scalar ``link_power_dbm``, so power-mode tables are exact
too (property-tested against the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.phy.grid import SpatialGrid
from repro.phy.propagation import IN_RANGE_POWER_DBM, PropagationModel

#: Sort key for delay-ordered views: a Link's ``delay_ns`` and a
#: ``(node, delay)`` map item's delay are both field 1.
_second = itemgetter(1)

#: Speed of light in meters per nanosecond.
_LIGHT_SPEED_M_PER_NS = 0.299792458


def propagation_delay_ns(distance_m: float) -> int:
    """One-way propagation delay for ``distance_m`` meters, >= 1 ns."""
    return max(1, round(distance_m / _LIGHT_SPEED_M_PER_NS))


class PositionProvider(Protocol):
    """Supplies node positions at a simulation time (ns)."""

    def positions(self, time_ns: int) -> np.ndarray:
        """(N, 2) float array of node positions in meters."""

    def is_static(self) -> bool:
        """True if positions never change (enables permanent caching)."""


class StaticPositions:
    """A trivial provider for fixed node placements."""

    def __init__(self, coords: Sequence[Sequence[float]]):
        self._coords = np.asarray(coords, dtype=float)
        if self._coords.ndim != 2 or self._coords.shape[1] != 2:
            raise ValueError("coords must be an (N, 2) array-like")
        self._coords.setflags(write=False)

    def positions(self, time_ns: int) -> np.ndarray:
        return self._coords

    def is_static(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._coords)


class Link(NamedTuple):
    """One receiver of a transmission: its id, link delay, decodability.

    A NamedTuple (not a dataclass): a 1000-node run constructs tens of
    thousands of these per bucket epoch and tuple construction is
    several times cheaper, while field access, equality and positional
    construction stay source-compatible.
    """

    node: int
    delay_ns: int
    in_rx_range: bool  # False => carrier-sensed only (cannot decode)
    #: Received power at the node (dBm). Every PropagationModel reports
    #: one (unit-disk models a documented constant); the None default
    #: only serves hand-built links. Feeds the SINR reception stage and
    #: busy-tone power thresholds.
    power_dbm: Optional[float] = None
    #: False => interference-only: the node's radio cannot sense this
    #: transmission (no carrier sense, no busy-tone detection), but its
    #: power still counts as interference in SINR decodes. Only the
    #: power-mode link builder produces False; classic links are always
    #: sensed (the carrier-sense predicate is the keep filter there).
    sensed: bool = True


#: A node -> delay map as ``(delays, nodes)``, sorted by delay.
DelayOrder = Tuple[Tuple[int, ...], Tuple[int, ...]]


def order_by_delay(delay_map: Dict[int, int]) -> DelayOrder:
    """``(delays, nodes)`` of a node -> delay map, sorted by delay.

    The sort is stable, so equal delays keep the map's order: the order
    a fan-out of per-node events over the map must fire in.
    """
    items = sorted(delay_map.items(), key=_second)
    return tuple([item[1] for item in items]), tuple([item[0] for item in items])


class SinrView:
    """A table's links in arrival order, as the SINR reception stage
    and the data channel under it read them.

    Arrival ``k`` is ``by_delay``'s ``k``-th link: ``links[k]``, after
    ``delays[k]``; ``index`` maps a node to its ``k``. ``heard`` is
    ``(delays, links)`` of the links the receiver's radio notices
    (sensed or decodable), the ones that get arrival events; ``quiet``
    holds the delays of the rest, the interference-only links, in the
    same order. With no interference-only link, ``heard`` is
    ``by_delay`` itself. ``mw[k]`` caches link ``k``'s power in mW once
    :meth:`power_mw` has read it (None until then).
    """

    __slots__ = ("delays", "links", "index", "span", "heard", "quiet", "mw")

    def __init__(self, by_delay: Tuple[Tuple[int, ...], Tuple[Link, ...]]):
        delays, links = by_delay
        self.delays = delays
        self.links = links
        self.index = {link.node: k for k, link in enumerate(links)}
        self.mw: List[Optional[float]] = [None] * len(links)
        #: The longest delay: every arrival has started ``span`` after the
        #: transmission starts and ended ``span`` after it ends.
        self.span = delays[-1] if delays else 0
        heard = [k for k, link in enumerate(links)
                 if link.sensed or link.in_rx_range]
        if len(heard) == len(links):
            self.heard = by_delay
            self.quiet: Tuple[int, ...] = ()
        else:
            self.heard = (tuple([delays[k] for k in heard]),
                          tuple([links[k] for k in heard]))
            self.quiet = tuple([delays[k] for k, link in enumerate(links)
                                if not (link.sensed or link.in_rx_range)])

    def power_mw(self, k: int) -> float:
        """Link ``k``'s received power in mW, converted once per view."""
        power = self.mw[k]
        if power is None:
            power = self.mw[k] = 10.0 ** (
                self.links[k].power_dbm / 10.0)  # type: ignore[operator]
        return power


class LinkTable:
    """One sender's links for one bucket epoch, plus derived views.

    ``delay_map`` (node -> delay_ns) is built lazily and shared by every
    busy-tone emission in the epoch, instead of each emission re-deriving
    its own dict from the links. It covers *sensed* links only: a
    busy tone (like carrier sense) reaches exactly the nodes whose
    radios detect energy; power-mode interference-only links are
    excluded. ``tone_map`` restricts further to links at or above an
    explicit power threshold (busy-tone detection in the power domain);
    one threshold is cached since a run uses a single tone threshold.

    A frame's arrival fan-outs fire in delay order, and a tone's
    presence changes take their reserved positions in that order, so
    each view has a lazily-built, delay-sorted twin: ``by_delay`` for the
    links, ``delay_order`` and ``tone_order`` for the maps (see
    :func:`order_by_delay`). A channel with SINR reception reads
    ``sinr_view`` instead of ``by_delay``.
    """

    __slots__ = ("links", "_by_delay", "_sinr_view", "_delay_map",
                 "_delay_order", "_tone_thr", "_tone_map", "_tone_order")

    def __init__(self, links: Tuple[Link, ...]):
        self.links = links
        self._by_delay: Optional[Tuple[Tuple[int, ...], Tuple[Link, ...]]] = None
        self._sinr_view: Optional[SinrView] = None
        self._delay_map: Optional[Dict[int, int]] = None
        self._delay_order: Optional[DelayOrder] = None
        self._tone_thr: Optional[float] = None
        self._tone_map: Optional[Dict[int, int]] = None
        self._tone_order: Optional[DelayOrder] = None

    @property
    def by_delay(self) -> Tuple[Tuple[int, ...], Tuple[Link, ...]]:
        """``(delays, links)`` sorted by delay, ties in link order."""
        view = self._by_delay
        if view is None:
            links = tuple(sorted(self.links, key=_second))
            view = self._by_delay = (tuple([link.delay_ns for link in links]), links)
        return view

    @property
    def sinr_view(self) -> SinrView:
        """``by_delay`` as a :class:`SinrView`."""
        view = self._sinr_view
        if view is None:
            view = self._sinr_view = SinrView(self.by_delay)
        return view

    @property
    def delay_map(self) -> Dict[int, int]:
        mapping = self._delay_map
        if mapping is None:
            mapping = {link.node: link.delay_ns
                       for link in self.links if link.sensed}
            self._delay_map = mapping
        return mapping

    @property
    def delay_order(self) -> DelayOrder:
        """``delay_map`` as delay-sorted ``(delays, nodes)``."""
        view = self._delay_order
        if view is None:
            view = self._delay_order = order_by_delay(self.delay_map)
        return view

    def tone_map(self, threshold_dbm: float) -> Dict[int, int]:
        """node -> delay for links whose power clears ``threshold_dbm``."""
        if self._tone_thr != threshold_dbm:
            self._tone_map = {
                link.node: link.delay_ns for link in self.links
                if link.power_dbm is not None
                and link.power_dbm >= threshold_dbm
            }
            self._tone_order = None
            self._tone_thr = threshold_dbm
        return self._tone_map  # type: ignore[return-value]

    def tone_order(self, threshold_dbm: float) -> DelayOrder:
        """``tone_map(threshold_dbm)`` as delay-sorted ``(delays, nodes)``."""
        mapping = self.tone_map(threshold_dbm)
        view = self._tone_order
        if view is None:
            view = self._tone_order = order_by_delay(mapping)
        return view


@dataclass(eq=False)
class LinkPowerSpec:
    """Power-domain link-building thresholds (the SINR subsystem's view).

    When a :class:`NeighborService` carries one of these, link tables
    are built from received *power* rather than the model's boolean
    range predicates: a candidate is kept iff its link power (pair-aware
    ``model.link_power_dbm`` plus per-node radio offsets) reaches
    ``keep_threshold_dbm`` (the interference cutoff), decodes iff it
    reaches ``rx_threshold_dbm``, and is carrier-sensed
    (:attr:`Link.sensed`) iff it reaches ``cs_threshold_dbm``.
    ``prune_range`` bounds the spatial search (the grid cell size): the
    distance beyond which no link -- even with maximal shadowing and
    radio offsets -- can reach the cutoff.
    """

    rx_threshold_dbm: float
    cs_threshold_dbm: float
    keep_threshold_dbm: float
    prune_range: float
    #: Per-node transmit-side offset (tx-power jitter + antenna gain,
    #: dB), indexed by sender id; None = homogeneous radios.
    tx_offset_dbm: Optional[np.ndarray] = None
    #: Per-node receive-side antenna gain (dB), indexed by receiver id.
    rx_gain_dbm: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.prune_range <= 0:
            raise ValueError("prune_range must be positive")
        if self.keep_threshold_dbm > self.cs_threshold_dbm:
            raise ValueError(
                "keep_threshold_dbm (interference cutoff) must not exceed "
                "cs_threshold_dbm")
        if (self.tx_offset_dbm is None) != (self.rx_gain_dbm is None):
            raise ValueError(
                "tx_offset_dbm and rx_gain_dbm must be set together")


class NeighborCounters:
    """Plain counters for the neighbor layer (``NeighborService.counters``).

    ``table_hits``/``table_misses`` count :meth:`NeighborService.table_from`
    calls served from a cached table vs ones that built one;
    ``table_rebuilds`` counts static freezes (all senders' tables built
    at once, at most one per service); ``links_built`` counts Link
    objects constructed; ``grid_cells`` accumulates the occupied cells of
    every grid built and ``grid_pairs`` the candidates evaluated per
    table built; ``pos_cache_*`` count the mobility position-snapshot
    cache.
    """

    __slots__ = ("table_hits", "table_misses", "table_rebuilds",
                 "links_built", "grid_cells", "grid_pairs",
                 "pos_cache_hits", "pos_cache_misses")

    def __init__(self):
        self.table_hits = 0
        self.table_misses = 0
        self.table_rebuilds = 0
        self.links_built = 0
        self.grid_cells = 0
        self.grid_pairs = 0
        self.pos_cache_hits = 0
        self.pos_cache_misses = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class NeighborService:
    """Computes and caches per-sender neighbor/link information."""

    def __init__(
        self,
        provider: PositionProvider,
        model: PropagationModel,
        cache_window: int = 50_000_000,
        power_spec: Optional[LinkPowerSpec] = None,
    ):
        self._provider = provider
        self._model = model
        #: Whether the model keeps the base ``received_power_dbm``: then
        #: every link the threshold builder keeps (all carrier-sensed)
        #: reports IN_RANGE_POWER_DBM, and the links share that one float
        #: object instead of holding a float each.
        self._constant_power = (type(model).received_power_dbm
                                is PropagationModel.received_power_dbm)
        self._power_spec = power_spec
        self._static = provider.is_static()
        self._cache_window = int(cache_window)
        #: Static providers: one LinkTable per sender, indexed by sender
        #: id, frozen on first use.
        self._tables: Optional[List[LinkTable]] = None
        #: Mobile providers: sender -> (position bucket, table). An entry
        #: is valid iff its bucket equals the bucket of the query time --
        #: one integer comparison, and links can never disagree with what
        #: ``positions_at`` returns for the same time.
        self._cache: Dict[int, Tuple[int, LinkTable]] = {}
        #: Spatial index over the positions of bucket ``_grid_bucket``.
        self._grid: Optional[SpatialGrid] = None
        self._grid_bucket: int = -1
        #: Two-slot LRU of position snapshots, keyed by bucket epoch.
        #: One slot thrashes when two different times are interleaved
        #: (e.g. an oracle or trace lookback alongside the live clock);
        #: two slots make that access pattern all hits.
        self._pos_buckets: List[int] = [-1, -1]
        self._pos_arrays: List[Optional[np.ndarray]] = [None, None]
        self._pos_mru: int = 0
        self.counters = NeighborCounters()

    @property
    def model(self) -> PropagationModel:
        return self._model

    @property
    def power_spec(self) -> Optional[LinkPowerSpec]:
        """The power-domain link spec, or None on the classic path."""
        return self._power_spec

    def _search_range(self) -> float:
        """Spatial pruning radius: interference radius in power mode."""
        spec = self._power_spec
        return spec.prune_range if spec is not None else self._model.max_range()

    def _bucket(self, time_ns: int) -> int:
        """The position-bucket epoch ``time_ns`` falls into."""
        window = self._cache_window
        return time_ns if window == 0 else time_ns - time_ns % window

    def positions_at(self, time_ns: int) -> np.ndarray:
        """Positions at ``time_ns`` (cached within the mobility window)."""
        arrays = self._pos_arrays
        if self._static:
            pos = arrays[0]
            if pos is None:
                pos = self._provider.positions(0)
                arrays[0] = pos
            return pos
        bucket = self._bucket(time_ns)
        buckets = self._pos_buckets
        mru = self._pos_mru
        counters = self.counters
        if buckets[mru] == bucket:
            counters.pos_cache_hits += 1
            return arrays[mru]  # type: ignore[return-value]
        lru = 1 - mru
        if buckets[lru] == bucket:
            counters.pos_cache_hits += 1
            self._pos_mru = lru
            return arrays[lru]  # type: ignore[return-value]
        counters.pos_cache_misses += 1
        pos = self._provider.positions(bucket)
        buckets[lru] = bucket
        arrays[lru] = pos
        self._pos_mru = lru
        return pos

    def links_from(self, sender: int, time_ns: int) -> Tuple[Link, ...]:
        """All nodes that sense a transmission from ``sender`` at ``time_ns``.

        Excludes the sender itself. For each, reports the propagation delay
        and whether the node can actually decode (vs carrier-sense only).
        """
        return self.table_from(sender, time_ns).links

    def table_from(self, sender: int, time_ns: int) -> LinkTable:
        """The sender's :class:`LinkTable` at ``time_ns``.

        Static providers are frozen on first use: every sender's table is
        built then and later calls are a single list index. Mobile
        providers build a table only when it is asked for, against one
        spatial grid per position bucket, and cache it until the bucket
        changes -- so cached links are exactly the ones implied by
        ``positions_at`` at the same time, never a stale set left over
        from the previous bucket, and nobody pays for tables nobody
        asks for.
        """
        counters = self.counters
        if self._static:
            tables = self._tables
            if tables is None:
                tables = self._tables = self._freeze()
            if not 0 <= sender < len(tables):
                raise ValueError(f"unknown sender id {sender}")
            counters.table_hits += 1
            return tables[sender]
        bucket = self._bucket(time_ns)
        cached = self._cache.get(sender)
        if cached is not None and cached[0] == bucket:
            counters.table_hits += 1
            return cached[1]
        grid = self._grid
        if grid is None or self._grid_bucket != bucket:
            grid = self._grid = self._new_grid(self.positions_at(time_ns))
            self._grid_bucket = bucket
        if not 0 <= sender < grid.n:
            raise ValueError(f"unknown sender id {sender}")
        counters.table_misses += 1
        table = self._table_of(sender, grid)
        self._cache[sender] = (bucket, table)
        return table

    def _new_grid(self, pos: np.ndarray) -> SpatialGrid:
        grid = SpatialGrid(pos, self._search_range())
        self.counters.grid_cells += grid.n_cells
        return grid

    def _freeze(self) -> List[LinkTable]:
        """Every sender's table over the static placement, built once."""
        grid = self._new_grid(self.positions_at(0))
        self.counters.table_rebuilds += 1
        return [self._table_of(sender, grid) for sender in range(grid.n)]

    def _table_of(self, sender: int, grid: SpatialGrid) -> LinkTable:
        """One sender's links against its 3x3 cell neighborhood.

        ``grid.candidates_of(sender)`` is a sorted superset of every node
        within the search range, so links come out in ascending-node
        order. Per candidate, the float64 operations are the oracle's
        (``tests/phy/link_oracle.py``): the same subtraction and
        ``np.hypot`` for distances, the model's batch predicates and
        powers (``carrier_sensed_batch``, ``in_range_batch`` and
        ``received_power_dbm_batch``; in power mode
        ``link_power_dbm_batch``), each bit-identical to the scalar form
        the oracle calls, and banker's-rounded delays -- so every Link
        equals the oracle's to the last bit.
        """
        cand = grid.candidates_of(sender)
        xs, ys = grid.xs, grid.ys
        dists = np.hypot(xs[cand] - xs[sender], ys[cand] - ys[sender])
        counters = self.counters
        counters.grid_pairs += len(cand)
        c = _LIGHT_SPEED_M_PER_NS
        new = tuple.__new__
        spec = self._power_spec
        # tuple.__new__ skips the namedtuple __new__ wrapper (~2x cheaper
        # per link); every construction supplies all five fields, so the
        # result is the 5-tuple Link(...) would build. ``round(d / c) or 1``
        # is propagation_delay_ns inlined (d >= 0, so ``or 1`` is the floor).
        if spec is None:
            model = self._model
            keep = dists <= model.max_range()
            keep &= model.carrier_sensed_batch(dists)
            nodes, dists = cand[keep], dists[keep]
            if self._constant_power:
                powers = [IN_RANGE_POWER_DBM] * len(dists)
            else:
                powers = model.received_power_dbm_batch(dists).tolist()
            links = tuple([
                new(Link, (node, round(d / c) or 1, rx, p, True))
                for node, d, rx, p in zip(nodes.tolist(), dists.tolist(),
                                          model.in_range_batch(dists).tolist(),
                                          powers)
                if node != sender])
        else:
            near = (dists <= spec.prune_range) & (cand != sender)
            nodes, dists = cand[near], dists[near]
            powers = self._model.link_power_dbm_batch(
                np.full(len(nodes), sender), nodes, dists)
            tx = spec.tx_offset_dbm
            if tx is not None:
                # The oracle's addition order: (base + tx offset) + rx gain.
                powers = powers + tx[sender]
                powers = powers + spec.rx_gain_dbm[nodes]  # type: ignore[index]
            keep = spec.keep_threshold_dbm
            rx = spec.rx_threshold_dbm
            cs = spec.cs_threshold_dbm
            links = tuple([
                new(Link, (node, round(d / c) or 1, p >= rx, p, p >= cs))
                for node, d, p in zip(nodes.tolist(), dists.tolist(),
                                      powers.tolist())
                if p >= keep])
        counters.links_built += len(links)
        return LinkTable(links)
