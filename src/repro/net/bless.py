"""The simplified BLESS tree protocol (Section 4.1.1).

"In this simple protocol, the node with ID=0 is always designated as the
root node; and the tree is formed by only one operation -- a periodical
one-hop broadcast of the routing messages. This broadcast is performed by
the unreliable services of RMAC or BMMM accordingly."

Mechanics chosen here (the paper gives only the sentence above; all
values are configurable, and ``tests/integration/test_ablations.py``
sweeps the period):

* every node broadcasts ``RoutingMessage(origin, hops, parent)`` each
  ``period`` (default 0.5 s), with a random initial phase to avoid
  network-wide synchronization;
* a node's parent is its neighbor with the smallest advertised
  hops-to-root (ties broken by node id); its own hops = parent's + 1;
* neighbor entries expire after ``expiry`` (default 4 periods), so nodes
  that move away are dropped and the tree reconfigures -- the paper's
  explanation for the mobility-induced delivery drop;
* a node's *children* are the neighbors whose latest non-expired message
  named it as parent. The multicast application forwards to exactly this
  set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mac.addresses import BROADCAST
from repro.mac.base import MacProtocol
from repro.net.packet import RoutingMessage
from repro.sim.engine import Simulator
from repro.sim.units import SEC

#: hops value advertised while not joined to the tree.
UNJOINED = 255


@dataclass(frozen=True)
class BlessConfig:
    """Tunables of the simplified BLESS protocol.

    The paper does not give its routing period; the default heartbeat is
    calibrated against its Fig. 7: a 0.5 s period with a 4-period expiry
    keeps static delivery ~1.0 (shorter expiries let clustered hello
    losses evict live children under load) while repairing mobile trees
    fast enough to approach the paper's mobile delivery levels.
    ``tests/integration/test_ablations.py`` sweeps the period.
    """

    period: int = SEC // 2
    #: Entries unheard for this long are dropped (must exceed period).
    expiry: int = 2 * SEC
    root: int = 0
    #: Per-broadcast jitter as a fraction of the period. Without it a
    #: hello stream phase-locks against the source's constant-bit-rate
    #: data traffic and the *same* hello collides every period, which
    #: expires live neighbors in bursts.
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.expiry < self.period:
            raise ValueError("expiry must be at least one period")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")


class _NeighborEntry:
    __slots__ = ("hops", "parent", "heard_at")

    def __init__(self, hops: int, parent: int, heard_at: int):
        self.hops = hops
        self.parent = parent
        self.heard_at = heard_at


class BlessProtocol:
    """One node's tree-maintenance state."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        mac: MacProtocol,
        config: BlessConfig,
        rng: random.Random,
    ):
        self.node_id = node_id
        self.sim = sim
        self.mac = mac
        self.config = config
        self._rng = rng
        self._table: Dict[int, _NeighborEntry] = {}
        #: Lower bound on the oldest ``heard_at`` in the table; lets
        #: :meth:`_expire` skip the full scan (the common case: every
        #: routing message triggers a reselect, but entries only age out
        #: on the heartbeat timescale). Maintained lazily -- it may lag
        #: below the true minimum, never above it.
        self._oldest_heard: int = 0
        #: Set when expiry removed entries: the cached minimum (the
        #: current parent) may be gone, so the next routing message
        #: falls back to a full :meth:`_reselect` scan.
        self._stale_best: bool = False
        self.parent: int = -1
        self.hops: int = 0 if node_id == config.root else UNJOINED
        #: (time, parent) history, for tree-churn analysis.
        self.parent_changes: List[Tuple[int, int]] = []

    @property
    def is_root(self) -> bool:
        return self.node_id == self.config.root

    @property
    def joined(self) -> bool:
        return self.is_root or self.hops < UNJOINED

    def start(self) -> None:
        """Begin the periodic broadcast with a random phase."""
        phase = self._rng.randrange(self.config.period)
        self.sim.after(phase, self._broadcast, label="bless-tx")

    # ------------------------------------------------------------------
    def _broadcast(self) -> None:
        message = RoutingMessage(self.node_id, self.hops, self.parent)
        self.mac.send_unreliable(BROADCAST, message, message.payload_bytes)
        gap = self.config.period
        if self.config.jitter:
            spread = int(gap * self.config.jitter)
            gap += self._rng.randint(-spread, spread)
        self.sim.after(gap, self._broadcast, label="bless-tx")

    def on_routing_message(self, message: RoutingMessage, sender: int) -> None:
        """Handle a neighbor's broadcast (called from the network layer).

        Parent selection is incremental: the current parent is by
        construction the table's minimum ``(hops, id)`` key, so a single
        updated entry only needs comparing against it. A full rescan
        (:meth:`_reselect`) happens only when the update can *worsen*
        the minimum -- the parent's own advertisement degraded, or
        expiry removed entries -- instead of on every heartbeat from
        every neighbor.
        """
        origin = message.origin
        hops = message.hops_to_root
        entry = self._table.get(origin)
        if entry is None:
            self._table[origin] = _NeighborEntry(
                hops, message.parent, self.sim.now)
        else:  # steady state: refresh in place, no allocation
            entry.hops = hops
            entry.parent = message.parent
            entry.heard_at = self.sim.now
        if self.is_root:
            return
        self._expire()
        if self._stale_best:
            self._stale_best = False
            self._reselect()
            return
        parent = self.parent
        if parent == -1:
            if hops < UNJOINED:
                self._adopt(origin, hops)
        elif origin == parent:
            if hops + 1 > self.hops:
                self._reselect()  # our parent got worse: rescan
            else:
                self.hops = hops + 1  # improved/unchanged, still minimal
        elif hops < UNJOINED:
            best_hops = self.hops - 1
            if hops < best_hops or (hops == best_hops and origin < parent):
                self._adopt(origin, hops)

    def _adopt(self, neighbor: int, hops: int) -> None:
        self.parent_changes.append((self.sim.now, neighbor))
        self.parent = neighbor
        self.hops = hops + 1

    # ------------------------------------------------------------------
    def _expire(self) -> None:
        cutoff = self.sim.now - self.config.expiry
        if self._oldest_heard >= cutoff:
            return  # nothing can be stale yet
        table = self._table
        stale = [n for n, e in table.items() if e.heard_at < cutoff]
        if stale:
            self._stale_best = True
            for n in stale:
                del table[n]
        # Tighten the bound to the surviving minimum so the next calls
        # short-circuit until that entry actually ages out.
        self._oldest_heard = (
            min(e.heard_at for e in table.values()) if table else self.sim.now
        )

    def _reselect(self) -> None:
        """Re-derive parent and hops from the live neighbor table."""
        if self.is_root:
            return
        self._expire()
        best: Optional[int] = None
        best_hops = UNJOINED
        for neighbor, entry in self._table.items():
            hops = entry.hops
            if hops >= UNJOINED:
                continue
            if hops < best_hops or (hops == best_hops and neighbor < best):
                best_hops = hops
                best = neighbor
        if best is None:
            new_parent, new_hops = -1, UNJOINED
        else:
            new_parent, new_hops = best, best_hops + 1
        if new_parent != self.parent:
            self.parent_changes.append((self.sim.now, new_parent))
        self.parent = new_parent
        self.hops = new_hops
        self._stale_best = False

    def children(self) -> Tuple[int, ...]:
        """Neighbors currently claiming this node as their parent."""
        self._expire()
        return tuple(
            sorted(n for n, e in self._table.items() if e.parent == self.node_id)
        )
