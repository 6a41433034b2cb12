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
3 x 3 cell neighborhoods. It serves tables in two flavors:

* **batched** -- :meth:`NeighborService._build_tables` builds *all*
  senders' tables in one numpy pass: distances, ``carrier_sensed``/
  ``in_range`` masks, received powers and propagation delays are
  array-evaluated at once. Static providers freeze through it on first
  use; mobile buckets use it when dense (>=25% of senders queried,
  judged from the previous bucket's traffic or detected mid-bucket).
* **per sender** -- :meth:`NeighborService._compute_links_pruned`
  serves one sender of a sparse mobile bucket against the bucket's
  grid, so light traffic never pays for tables nobody asks for.

Both flavors use the same float64 operations element-wise and the same
ascending-node candidate order, so they agree bit for bit. The tests
check both against a brute-force oracle that scans all n nodes per
sender (``tests/phy/link_oracle.py``).

**Power mode** (:class:`LinkPowerSpec`, used by the SINR subsystem):
instead of the model's boolean range predicates, links are kept down to
an *interference* cutoff (default: the noise floor) and every decision
-- decodable, carrier-sensed, kept at all -- is a threshold on the
link's received power, which includes per-pair shadowing
(``model.link_power_dbm``) and per-node heterogeneous radio offsets.
Links below carrier sense but above the cutoff are *interference-only*
(``Link.sensed`` False): they feed the SINR interference tracker but
never raise carrier sense or busy-tone detection. The grid cell size
becomes the spec's ``prune_range`` (the interference radius), not the
model's ``max_range()``. The scalar and batched power paths share the
same float64 operations, so they stay bit-exact in power mode too
(property-tested against the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.phy.grid import SpatialGrid
from repro.phy.propagation import PropagationModel

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

    A NamedTuple (not a dataclass): the batched rebuild constructs tens
    of thousands of these per bucket epoch and tuple construction is
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
    #: power still lands in the SINR interference tracker. Only the
    #: power-mode link builder produces False; classic links are always
    #: sensed (the carrier-sense predicate is the keep filter there).
    sensed: bool = True


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
    """

    __slots__ = ("links", "_delay_map", "_tone_thr", "_tone_map")

    def __init__(self, links: Tuple[Link, ...]):
        self.links = links
        self._delay_map: Optional[Dict[int, int]] = None
        self._tone_thr: Optional[float] = None
        self._tone_map: Optional[Dict[int, int]] = None

    @property
    def delay_map(self) -> Dict[int, int]:
        mapping = self._delay_map
        if mapping is None:
            mapping = {link.node: link.delay_ns
                       for link in self.links if link.sensed}
            self._delay_map = mapping
        return mapping

    def tone_map(self, threshold_dbm: float) -> Dict[int, int]:
        """node -> delay for links whose power clears ``threshold_dbm``."""
        if self._tone_thr != threshold_dbm:
            self._tone_map = {
                link.node: link.delay_ns for link in self.links
                if link.power_dbm is not None
                and link.power_dbm >= threshold_dbm
            }
            self._tone_thr = threshold_dbm
        return self._tone_map  # type: ignore[return-value]


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
    """Plain counters for the neighbor layer (telemetry satellite).

    ``table_hits``/``table_misses`` count :meth:`NeighborService.table_from`
    calls served from a cached table vs ones that (re)computed;
    ``table_rebuilds`` counts batched all-sender rebuilds (the static
    freeze included); ``links_built`` counts Link objects constructed;
    ``grid_cells``/``grid_pairs`` accumulate occupied cells and candidate
    pairs touched per rebuild; ``pos_cache_*`` count the mobility
    position-snapshot cache.
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
        self._power_spec = power_spec
        self._static = provider.is_static()
        self._cache_window = int(cache_window)
        #: One LinkTable per sender, indexed by sender id: frozen once for
        #: static providers, rebuilt per dense bucket for mobile ones.
        self._tables: Optional[List[LinkTable]] = None
        #: Bucket epoch ``_tables`` was built for (mobile providers).
        self._tables_bucket: int = -1
        #: Sparse mobile buckets: sender -> (position bucket, table). An
        #: entry is valid iff its bucket equals the bucket of the query
        #: time -- one integer comparison, and links can never disagree
        #: with what ``positions_at`` returns for the same time.
        self._cache: Dict[int, Tuple[int, LinkTable]] = {}
        #: Mobile density bookkeeping: bucket epoch it refers to,
        #: per-sender queried-this-bucket flags, and the distinct-sender
        #: count. The previous bucket's density decides whether the next
        #: one rebuilds eagerly or serves lazily.
        self._seen_bucket: int = -1
        self._seen_count: int = 0
        self._seen_flags: Optional[bytearray] = None
        #: Per-bucket spatial index for lazily served (sparse) buckets.
        self._lazy_grid: Optional[SpatialGrid] = None
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

    def _link_power(self, sender: int, node: int, distance: float) -> float:
        """Scalar link power incl. radio offsets (power mode only).

        Addition order matches the batched path exactly
        (``(base + tx_offset) + rx_gain``) so scalar and batch powers
        are bit-identical.
        """
        spec = self._power_spec
        power = self._model.link_power_dbm(sender, node, distance)
        tx = spec.tx_offset_dbm
        if tx is not None:
            power = power + float(tx[sender])
            power = power + float(spec.rx_gain_dbm[node])  # type: ignore[index]
        return power

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
        precomputed and later calls are a single list index. Mobile
        providers key caching on the position-bucket epoch, so cached
        links are exactly the ones implied by ``positions_at`` at the
        same time -- never a stale set left over from the previous
        bucket. Mobile caching adapts to query density per bucket: when
        the previous bucket queried >=25% of the senders (or this one
        does, mid-bucket), *all* tables are rebuilt in one batched numpy
        pass; sparse buckets are served sender by sender against the
        bucket's spatial index, so light traffic never pays for tables
        nobody asks for.
        """
        counters = self.counters
        if self._static:
            tables = self._tables
            if tables is None:
                tables = self._tables = self._build_tables(self.positions_at(0))
            if not 0 <= sender < len(tables):
                raise ValueError(f"unknown sender id {sender}")
            counters.table_hits += 1
            return tables[sender]
        bucket = self._bucket(time_ns)
        flags = self._seen_flags
        rebuilt = False
        if bucket != self._seen_bucket:
            pos = self.positions_at(time_ns)
            n = len(pos)
            dense = self._seen_count * 4 >= n
            self._seen_bucket = bucket
            self._seen_count = 0
            flags = self._seen_flags = bytearray(n)
            self._lazy_grid = None
            if dense:
                counters.table_misses += 1
                self._tables = self._build_tables(pos)
                self._tables_bucket = bucket
                rebuilt = True
        if not 0 <= sender < len(flags):  # type: ignore[arg-type]
            raise ValueError(f"unknown sender id {sender}")
        if not flags[sender]:  # type: ignore[index]
            flags[sender] = 1  # type: ignore[index]
            self._seen_count += 1
        if bucket == self._tables_bucket:
            if not rebuilt:
                counters.table_hits += 1
            return self._tables[sender]  # type: ignore[index]
        cached = self._cache.get(sender)
        if cached is not None and cached[0] == bucket:
            counters.table_hits += 1
            return cached[1]
        counters.table_misses += 1
        if self._seen_count * 4 >= len(flags):  # type: ignore[arg-type]
            # The bucket turned dense mid-flight: one batched rebuild
            # now beats continuing sender by sender.
            tables = self._build_tables(self.positions_at(time_ns))
            self._tables = tables
            self._tables_bucket = bucket
            return tables[sender]
        lazy = self._lazy_grid
        if lazy is None:
            lazy = self._lazy_grid = SpatialGrid(
                self.positions_at(time_ns), self._search_range())
            counters.grid_cells += lazy.n_cells
        table = LinkTable(self._compute_links_pruned(sender, time_ns, lazy))
        counters.links_built += len(table.links)
        self._cache[sender] = (bucket, table)
        return table

    def _build_tables(self, pos: np.ndarray) -> List[LinkTable]:
        """All senders' link tables in one batched numpy pass.

        Exactness contract vs :meth:`_compute_links_pruned`: identical
        float64 element-wise operations (subtract / ``np.hypot`` / divide
        / ``np.rint`` == banker's ``round``), the model's ``*_batch``
        predicates agree bit-for-bit with their scalar forms, and the
        lexsort reproduces the per-sender ascending-node order.
        """
        model = self._model
        spec = self._power_spec
        counters = self.counters
        n = len(pos)
        counters.table_rebuilds += 1
        search_range = self._search_range()
        grid = SpatialGrid(pos, search_range)
        senders, cands = grid.pairs()
        counters.grid_cells += grid.n_cells
        counters.grid_pairs += len(senders)
        keep = senders != cands
        senders, cands = senders[keep], cands[keep]
        dists = np.hypot(pos[cands, 0] - pos[senders, 0],
                         pos[cands, 1] - pos[senders, 1])
        keep = dists <= search_range
        senders, cands, dists = senders[keep], cands[keep], dists[keep]
        if spec is not None:
            powers = model.link_power_dbm_batch(senders, cands, dists)
            tx = spec.tx_offset_dbm
            if tx is not None:
                powers = powers + tx[senders]
                powers = powers + spec.rx_gain_dbm[cands]  # type: ignore[index]
            keep = powers >= spec.keep_threshold_dbm
            if not keep.all():
                senders, cands = senders[keep], cands[keep]
                dists, powers = dists[keep], powers[keep]
            order = np.lexsort((cands, senders))
            senders, cands = senders[order], cands[order]
            dists, powers = dists[order], powers[order]
            in_rx = powers >= spec.rx_threshold_dbm
            sensed_flags = powers >= spec.cs_threshold_dbm
            powers_list = powers.tolist()
            sensed_list = sensed_flags.tolist()
        else:
            sensed = model.carrier_sensed_batch(dists)
            if not sensed.all():
                senders, cands, dists = (senders[sensed], cands[sensed],
                                         dists[sensed])
            order = np.lexsort((cands, senders))
            senders, cands, dists = senders[order], cands[order], dists[order]
            in_rx = model.in_range_batch(dists)
            powers_list = model.received_power_dbm_batch(dists).tolist()
            sensed_list = repeat(True)
        delays = np.rint(dists / _LIGHT_SPEED_M_PER_NS)
        np.maximum(delays, 1.0, out=delays)
        nodes_list = cands.tolist()
        delays_list = delays.astype(np.int64).tolist()
        in_rx_list = in_rx.tolist()
        # tuple.__new__ skips the namedtuple __new__ wrapper (~2x cheaper
        # per link; construction dominates the rebuild at large n). The
        # zip always supplies all five fields, so the result is the same
        # 5-tuple Link(...) would build, defaults included.
        flat = list(map(tuple.__new__, repeat(Link),
                        zip(nodes_list, delays_list, in_rx_list, powers_list,
                            sensed_list)))
        counters.links_built += len(flat)
        bounds = np.searchsorted(senders, np.arange(n + 1)).tolist()
        return [LinkTable(tuple(flat[bounds[s]:bounds[s + 1]]))
                for s in range(n)]

    def _links_by_power(self, sender: int, cand: np.ndarray,
                        dists: np.ndarray) -> Tuple[Link, ...]:
        """Scalar power-mode link loop of the per-sender path.

        Same float64 operations per element as the batched power branch
        of :meth:`_build_tables`, candidates visited in ascending-node
        order -- bit-identical to the batched path by construction.
        """
        spec = self._power_spec
        links: List[Link] = []
        for idx in np.flatnonzero(dists <= spec.prune_range):
            node = int(cand[idx])
            if node == sender:
                continue
            d = float(dists[idx])
            power = self._link_power(sender, node, d)
            if power < spec.keep_threshold_dbm:
                continue
            links.append(
                Link(
                    node=node,
                    delay_ns=propagation_delay_ns(d),
                    in_rx_range=power >= spec.rx_threshold_dbm,
                    power_dbm=power,
                    sensed=power >= spec.cs_threshold_dbm,
                )
            )
        return tuple(links)

    def _compute_links_pruned(self, sender: int, time_ns: int,
                              grid: SpatialGrid) -> Tuple[Link, ...]:
        """One sender's links against its 3x3 cell neighborhood only.

        The sparse-bucket path: a scalar loop over
        ``grid.candidates_of(sender)`` (a sorted superset of every node
        within the search range). Distances come from the same
        element-wise subtract/``np.hypot`` as :meth:`_build_tables`,
        candidates are visited in ascending-node order, and each
        per-link scalar call agrees bit for bit with its batch form --
        so the result is bit-identical to the batched rebuild.
        """
        pos = self.positions_at(time_ns)
        cand = grid.candidates_of(sender)
        deltas = pos[cand] - pos[sender]
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        if self._power_spec is not None:
            return self._links_by_power(sender, cand, dists)
        links: List[Link] = []
        model = self._model
        max_range = model.max_range()
        power_fn = model.received_power_dbm
        sensed_fn = model.carrier_sensed
        in_range_fn = model.in_range
        delay_fn = propagation_delay_ns
        append = links.append
        for idx in np.flatnonzero(dists <= max_range):
            node = int(cand[idx])
            if node == sender:
                continue
            d = float(dists[idx])
            if not sensed_fn(d):
                continue
            append(Link(node, delay_fn(d), in_range_fn(d), float(power_fn(d))))
        return tuple(links)
