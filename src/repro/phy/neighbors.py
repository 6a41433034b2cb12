"""Neighborhood evaluation: who hears whom, and with what delay.

The data channel and the busy-tone channels both need, at the moment a
transmission (or tone emission) starts, the set of nodes that will sense
it and the per-link propagation delay. This module centralizes that
computation over a position provider, and gives every reader one view
of a sender's links (:class:`LinkView`, in arrival order) and one record
of an emission on the air (:class:`Emission`):

* one cache: the links of a bucket of simulated time. A mobile
  provider's positions are bucketed to :data:`BUCKET_NS` (50 ms); a
  query in a new bucket drops the old bucket's snapshot and tables, so
  links and positions can never disagree. A static provider's bucket
  is always 0: its tables are built on first ask and never dropped.

Links are found through a :class:`~repro.phy.grid.SpatialGrid` (cell
size = the spec's ``prune_range``), built once per bucket from the
bucket's position snapshot. One per-sender builder,
:meth:`NeighborService._table_of`, serves every table, and only the
tables that are asked for are built. It computes the candidates'
distances in numpy, one ``link_power_dbm_batch`` call gives their
powers, and one pass over plain Python lists constructs the links. The
tests check it against a brute-force oracle that scans all n nodes per
sender with the scalar ``link_power_dbm`` (``tests/phy/link_oracle.py``).

**One link rule** (:class:`LinkPowerSpec`): the model reports power,
and every decision -- kept at all, carrier-sensed, decodable -- is a
threshold on the link's received power, which includes per-pair
shadowing (``model.link_power_dbm``) and per-node heterogeneous radio
offsets. Links are kept down to an *interference* cutoff. Links below
carrier sense but above the cutoff are *interference-only*
(``Link.sensed`` False): their power counts in SINR decodes (read from
the sender's :class:`LinkView` when a decode replays its window), but
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

#: The position bucket of a mobile provider (ns): links and positions
#: are evaluated once per 50 ms of simulated time. At the paper's top
#: speed of 8 m/s a node moves 0.4 m per bucket, negligible against
#: the 75 m radio range.
BUCKET_NS = 50_000_000


def propagation_delay_ns(distance_m: float) -> int:
    """One-way propagation delay for ``distance_m`` meters, >= 1 ns."""
    return max(1, round(distance_m / _LIGHT_SPEED_M_PER_NS))


class PositionProvider(Protocol):
    """Supplies node positions at a simulation time (ns)."""

    def positions(self, time_ns: int) -> np.ndarray:
        """(N, 2) float array of node positions in meters."""

    def is_static(self) -> bool:
        """True if positions never change (one bucket for the whole run)."""


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
    calls served from the current bucket's tables vs ones that built a
    table; ``table_rebuilds`` counts spatial grids built (one per
    bucket that builds a table, so one per static placement);
    ``links_built`` counts Link objects constructed.
    """

    __slots__ = ("table_hits", "table_misses", "table_rebuilds",
                 "links_built")

    def __init__(self):
        self.table_hits = 0
        self.table_misses = 0
        self.table_rebuilds = 0
        self.links_built = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class NeighborService:
    """Computes and caches per-sender link tables, one bucket at a time.

    The cache holds one bucket: its position snapshot, its spatial grid
    (built on the first table asked for) and a dict from sender to the
    sender's :class:`LinkView`. A query in another bucket drops them
    all and starts that bucket afresh, so a cached table always agrees
    with what :meth:`positions_at` returns for the same time. A static
    provider's bucket is always 0: its tables are built on first ask
    and kept for the run.
    """

    def __init__(
        self,
        provider: PositionProvider,
        model: PropagationModel,
        power_spec: LinkPowerSpec,
    ):
        self._provider = provider
        self._model = model
        self._power_spec = power_spec
        self._static = provider.is_static()
        #: The current bucket and its snapshot, grid and tables.
        self._bucket = -1
        self._positions: Optional[np.ndarray] = None
        self._grid: Optional[SpatialGrid] = None
        self._views: Dict[int, LinkView] = {}
        self.counters = NeighborCounters()

    @property
    def model(self) -> PropagationModel:
        return self._model

    @property
    def power_spec(self) -> LinkPowerSpec:
        """The link rule every table is built by."""
        return self._power_spec

    def _refresh(self, time_ns: int) -> None:
        """Make the bucket of ``time_ns`` current, dropping the old one's
        snapshot, grid and tables if it changes."""
        bucket = 0 if self._static else time_ns - time_ns % BUCKET_NS
        if bucket != self._bucket:
            self._bucket = bucket
            self._positions = self._provider.positions(bucket)
            self._grid = None
            self._views = {}

    def positions_at(self, time_ns: int) -> np.ndarray:
        """Positions at the start of ``time_ns``'s bucket."""
        self._refresh(time_ns)
        return self._positions  # type: ignore[return-value]

    def links_from(self, sender: int, time_ns: int) -> Tuple[Link, ...]:
        """All nodes that sense a transmission from ``sender`` at
        ``time_ns``, in ascending node order.

        Excludes the sender itself. For each, reports the propagation delay
        and whether the node can actually decode (vs carrier-sense only).
        """
        # Nodes are unique in a table, so tuples sort by node alone.
        return tuple(sorted(self.table_from(sender, time_ns).links))

    def table_from(self, sender: int, time_ns: int) -> LinkView:
        """The sender's links at ``time_ns`` as a delay-ordered
        :class:`LinkView`, built on the first ask in the bucket and
        shared by every transmission and busy tone of the bucket."""
        self._refresh(time_ns)
        counters = self.counters
        view = self._views.get(sender)
        if view is not None:
            counters.table_hits += 1
            return view
        grid = self._grid
        if grid is None:
            grid = self._grid = SpatialGrid(
                self._positions, self._power_spec.prune_range)  # type: ignore[arg-type]
            counters.table_rebuilds += 1
        if not 0 <= sender < grid.n:
            raise ValueError(f"unknown sender id {sender}")
        counters.table_misses += 1
        view = self._views[sender] = self._table_of(sender, grid)
        return view

    def _table_of(self, sender: int, grid: SpatialGrid) -> LinkView:
        """One sender's links against its 3x3 cell neighborhood.

        ``grid.candidates_of(sender)`` is a sorted superset of every node
        within ``prune_range``, so links come out in ascending-node
        order before the view sorts them by delay (a stable sort: equal
        delays stay in node order). Per candidate, the float64
        operations are the oracle's (``tests/phy/link_oracle.py``): the
        same subtraction and ``np.hypot`` for distances,
        ``link_power_dbm_batch`` (bit-identical to the scalar
        ``link_power_dbm`` the oracle calls) plus the radio offsets in
        the oracle's order, and banker's-rounded delays -- so every Link
        equals the oracle's to the last bit.
        """
        cand = grid.candidates_of(sender)
        xs, ys = grid.xs, grid.ys
        dists = np.hypot(xs[cand] - xs[sender], ys[cand] - ys[sender])
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
        links = [
            new(Link, (node, round(d / c) or 1, p >= rx, p, p >= cs))
            for node, d, p in zip(nodes.tolist(), dists.tolist(),
                                  powers.tolist())
            if p >= keep and node != sender]
        self.counters.links_built += len(links)
        links.sort(key=_delay)
        return LinkView(tuple(links))
