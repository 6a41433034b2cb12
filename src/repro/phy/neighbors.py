"""Neighborhood evaluation: who hears whom, and with what delay.

The data channel and the busy-tone channels both need, at the moment a
transmission (or tone emission) starts, the set of nodes that will sense
it and the per-link propagation delay. This module centralizes that
computation over a position provider, and gives every reader one view
of a sender's links (:class:`LinkView`, in arrival order) and one record
of an emission on the air (:class:`Emission`):

* static scenarios: every sender's link table is computed once and frozen
  (later calls are a single list index);
* mobile scenarios: positions are bucketed to a configurable window
  (default 50 ms -- at the paper's top speed of 8 m/s a node moves 0.4 mm
  per us and 0.4 m per 50 ms, negligible against the 75 m radio range),
  and cached link tables are keyed on the *same* bucket epoch, so links
  and positions can never disagree mid-window. Set ``cache_window=0``
  for exact per-call evaluation.

Links are found through a :class:`~repro.phy.grid.SpatialGrid` (cell
size = the spec's ``prune_range``), which prunes candidates to the
3 x 3 cell neighborhoods. One per-sender builder,
:meth:`NeighborService._table_of`, serves every table: a static
placement freezes by building all senders' tables through it once, and
a mobile bucket builds only the tables that are asked for, against one
grid per bucket. It computes the candidates' distances in numpy, one
``link_power_dbm_batch`` call gives their powers, and one pass over
plain Python lists constructs the links. The tests check it against a
brute-force oracle that scans all n nodes per sender with the scalar
``link_power_dbm`` (``tests/phy/link_oracle.py``).

**One link rule** (:class:`LinkPowerSpec`): the model reports power,
and every decision -- kept at all, carrier-sensed, decodable -- is a
threshold on the link's received power, which includes per-pair
shadowing (``model.link_power_dbm``) and per-node heterogeneous radio
offsets. Links are kept down to an *interference* cutoff. Links below
carrier sense but above the cutoff are *interference-only*
(``Link.sensed`` False): their power counts in SINR decodes (read from
the table's :class:`LinkView` when a decode replays its window), but
they never raise carrier sense or busy-tone detection, and the data
channel gives them no arrival events. A decodable link is always
sensed (the spec rejects ``rx_threshold_dbm < cs_threshold_dbm``), so
the view's ``sensed`` group holds every link that can decode. The
paper's fixed range is the spec :meth:`LinkPowerSpec.unit_disk` over
:class:`~repro.phy.propagation.UnitDiskModel` powers: all three
thresholds at :data:`~repro.phy.propagation.IN_RANGE_POWER_DBM`, so a
node within the range is kept, sensed and decodable, and no link is
interference-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.phy.grid import SpatialGrid
from repro.phy.propagation import IN_RANGE_POWER_DBM, PropagationModel
from repro.sim.engine import passed

#: Sort key for delay-ordered views: a Link's ``delay_ns``.
_delay = itemgetter(1)

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
    #: only serves hand-built links. Feeds the SINR reception stage.
    power_dbm: Optional[float] = None
    #: False => interference-only: the node's radio cannot sense this
    #: transmission (no carrier sense, no busy-tone detection), but its
    #: power still counts as interference in SINR decodes. Only a spec
    #: whose interference cutoff lies below carrier sense produces False.
    sensed: bool = True


class LinkView:
    """A table's links in delay order: the order of their arrivals.

    ``links[k]`` is reached ``delays[k]`` after the sender starts (equal
    delays in link-table order) and ``index`` maps a node to its ``k``.
    The links split into two groups. ``sensed`` is the view of the
    links the receiver's radio senses: they get arrival events, raise
    carrier sense and hear busy tones. It is the view itself when every
    link is sensed, and its own ``sensed`` is itself. ``quiet`` holds
    the delays of the others, the interference-only links, which only
    take reserved seqs after the sensed ones. A decodable link is always
    sensed (:class:`LinkPowerSpec` guarantees it), so no decodable link
    is quiet.
    ``mw[k]`` caches link ``k``'s power in mW once :meth:`power_mw` has
    read it (None until then).
    """

    __slots__ = ("delays", "links", "index", "span", "quiet", "mw", "_sensed")

    def __init__(self, links: Tuple[Link, ...]):
        self.links = links
        self.delays = delays = tuple([link.delay_ns for link in links])
        self.index = {link.node: k for k, link in enumerate(links)}
        self.mw: List[Optional[float]] = [None] * len(links)
        #: The longest delay: every arrival has started ``span`` after the
        #: transmission starts and ended ``span`` after it ends.
        self.span = delays[-1] if delays else 0
        quiet = tuple([link.delay_ns for link in links if not link.sensed])
        self.quiet = quiet
        # None stands for the view itself: a view holding itself would be
        # a reference cycle, kept until the cyclic collector runs.
        self._sensed = LinkView(tuple([link for link in links
                                       if link.sensed])) if quiet else None

    @property
    def sensed(self) -> "LinkView":
        """The view of the sensed links (itself when all are sensed)."""
        sensed = self._sensed
        return self if sensed is None else sensed

    def power_mw(self, k: int) -> float:
        """Link ``k``'s received power in mW, converted once per view."""
        power = self.mw[k]
        if power is None:
            power = self.mw[k] = 10.0 ** (
                self.links[k].power_dbm / 10.0)  # type: ignore[operator]
        return power


#: A view with no links: a crashed emitter's busy tone reaches nobody.
NO_LINKS = LinkView(())


class Emission:
    """One transmission or busy tone on the air: when each link of its
    view has it.

    Link ``k`` of ``view`` has it from position ``(start +
    view.delays[k], seq + k)`` until ``(end + view.delays[k], end_seq +
    k)``. ``seq`` and ``end_seq`` are the first seqs of the blocks its
    start and end took in the event order
    (:meth:`~repro.sim.engine.Simulator.fan_out` or
    :meth:`~repro.sim.engine.Simulator.reserve`): the positions one
    event per link would have had, so they order against each other and
    against the executing event's ``(now, now_seq)`` exactly as those
    events would. ``end`` is None while it lasts.
    """

    __slots__ = ("view", "start", "seq", "end", "end_seq")

    def __init__(self, view: LinkView, start: int, seq: int):
        self.view = view
        self.start = start
        self.seq = seq
        self.end: Optional[int] = None
        self.end_seq = 0

    def started(self, k: int, now: int, now_seq: int) -> bool:
        """Whether link ``k``'s start position has passed at ``(now, now_seq)``."""
        return passed(self.start + self.view.delays[k], self.seq + k,
                      now, now_seq)

    def ended(self, k: int, now: int, now_seq: int) -> bool:
        """Whether link ``k``'s end position has passed at ``(now, now_seq)``."""
        end = self.end
        return end is not None and passed(
            end + self.view.delays[k], self.end_seq + k, now, now_seq)

    def live(self, k: int, now: int, now_seq: int) -> bool:
        """Whether link ``k`` has it at ``(now, now_seq)``."""
        return self.started(k, now, now_seq) and not self.ended(k, now, now_seq)


class LinkTable:
    """One sender's links for one bucket epoch, and their :class:`LinkView`.

    The view is built on first read, once per table, and shared by every
    transmission and busy-tone emission of the epoch: the data channel
    fans out over its sensed links, the SINR stage replays over all of
    them and the tone channels reach its sensed links. Most mobile
    tables are never read, so most never build one.
    """

    __slots__ = ("links", "_view")

    def __init__(self, links: Tuple[Link, ...]):
        self.links = links
        self._view: Optional[LinkView] = None

    @property
    def view(self) -> LinkView:
        """The links as a :class:`LinkView`, sorted by delay, ties in link order."""
        view = self._view
        if view is None:
            view = self._view = LinkView(
                tuple(sorted(self.links, key=_delay)))
        return view


@dataclass(eq=False)
class LinkPowerSpec:
    """The link rule: power thresholds that build every link table.

    A candidate is kept iff its link power (pair-aware
    ``model.link_power_dbm`` plus per-node radio offsets) reaches
    ``keep_threshold_dbm`` (the interference cutoff), decodes iff it
    reaches ``rx_threshold_dbm``, and is carrier-sensed
    (:attr:`Link.sensed`) iff it reaches ``cs_threshold_dbm``. The
    thresholds must order ``keep <= cs <= rx``, so every decodable link
    is sensed.
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
        if self.rx_threshold_dbm < self.cs_threshold_dbm:
            raise ValueError(
                "rx_threshold_dbm must not be below cs_threshold_dbm "
                "(a decodable link must be carrier-sensed)")
        if (self.tx_offset_dbm is None) != (self.rx_gain_dbm is None):
            raise ValueError(
                "tx_offset_dbm and rx_gain_dbm must be set together")

    @classmethod
    def unit_disk(cls, radio_range: float) -> "LinkPowerSpec":
        """The paper's fixed range over
        :class:`~repro.phy.propagation.UnitDiskModel` powers: a node
        within ``radio_range`` reports :data:`IN_RANGE_POWER_DBM` and is
        kept, sensed and decodable; one beyond it reports ``-inf``."""
        return cls(IN_RANGE_POWER_DBM, IN_RANGE_POWER_DBM,
                   IN_RANGE_POWER_DBM, radio_range)


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
        power_spec: LinkPowerSpec,
        cache_window: int = 50_000_000,
    ):
        self._provider = provider
        self._model = model
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
    def power_spec(self) -> LinkPowerSpec:
        """The link rule every table is built by."""
        return self._power_spec

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
        grid = SpatialGrid(pos, self._power_spec.prune_range)
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
        within ``prune_range``, so links come out in ascending-node
        order. Per candidate, the float64 operations are the oracle's
        (``tests/phy/link_oracle.py``): the same subtraction and
        ``np.hypot`` for distances, ``link_power_dbm_batch`` (bit-identical
        to the scalar ``link_power_dbm`` the oracle calls) plus the radio
        offsets in the oracle's order, and banker's-rounded delays -- so
        every Link equals the oracle's to the last bit.
        """
        cand = grid.candidates_of(sender)
        xs, ys = grid.xs, grid.ys
        dists = np.hypot(xs[cand] - xs[sender], ys[cand] - ys[sender])
        counters = self.counters
        counters.grid_pairs += len(cand)
        spec = self._power_spec
        near = dists <= spec.prune_range
        nodes, dists = cand[near], dists[near]
        # The sender is among the candidates; the list pass below drops
        # it, which is cheaper than one more numpy mask.
        powers = self._model.link_power_dbm_batch(sender, nodes, dists)
        tx = spec.tx_offset_dbm
        if tx is not None:
            # The oracle's addition order: (base + tx offset) + rx gain.
            powers = powers + tx[sender]
            powers = powers + spec.rx_gain_dbm[nodes]  # type: ignore[index]
        keep = spec.keep_threshold_dbm
        rx = spec.rx_threshold_dbm
        cs = spec.cs_threshold_dbm
        c = _LIGHT_SPEED_M_PER_NS
        new = tuple.__new__
        # tuple.__new__ skips the namedtuple __new__ wrapper (~2x cheaper
        # per link); every construction supplies all five fields, so the
        # result is the 5-tuple Link(...) would build. ``round(d / c) or 1``
        # is propagation_delay_ns inlined (d >= 0, so ``or 1`` is the floor).
        links = tuple([
            new(Link, (node, round(d / c) or 1, p >= rx, p, p >= cs))
            for node, d, p in zip(nodes.tolist(), dists.tolist(),
                                  powers.tolist())
            if p >= keep and node != sender])
        counters.links_built += len(links)
        return LinkTable(links)
