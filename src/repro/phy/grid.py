"""Uniform spatial hashing for neighbor-candidate pruning.

``NeighborService`` needs, for every sender, the set of nodes within the
link spec's ``prune_range``. The brute-force answer is an O(n)
distance pass per sender -- O(n^2) per mobility bucket, which is exactly
the per-bucket cost that caps topology size (ROADMAP: "as fast as the
hardware allows" at 1000+ nodes).

A :class:`SpatialGrid` buckets positions into square cells of side
``cell_size``. When ``cell_size >= prune_range``, any two nodes within
``prune_range`` of each other differ by at most 1 in each floor-cell
coordinate, so every sender's true neighbor set is contained in its
3 x 3 cell neighborhood. Candidate generation therefore touches at most
9 cells per sender instead of all n nodes, and the caller only has to
re-check the exact distance predicate on that superset.

Implementation notes:

* Cells are keyed by a single integer ``cx * M + cy`` with
  ``M = max(cy) + 2``. Coordinates are shifted non-negative first, so a
  probe at ``cy - 1`` or ``cy + 1`` encodes to a key no *real* cell can
  own (``M - 1`` and ``max(cy) + 1`` are outside the occupied cy range)
  -- the sentinel rows make the 9 fixed key offsets collision-free.
* Occupied cells are found once with argsort + ``np.unique``. For
  :meth:`SpatialGrid.pairs` (all nodes at once, no per-cell Python
  loop), each of the 9 neighbor offsets is resolved for every node with
  one ``searchsorted`` probe, and member ranges are expanded with a
  cumulative-sum trick (:func:`expand_ranges`).
* :meth:`SpatialGrid.candidates_of` (one sender) merges the plain-list
  members of up to 9 cells, found by dict probes, and caches the
  sorted result per cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: Relative key offsets of the 3 x 3 cell neighborhood, as deltas on the
#: flattened ``cx * M + cy`` key (filled in per-grid since M varies).
_NEIGHBOR_OFFSETS = ((-1, -1), (-1, 0), (-1, 1),
                     (0, -1), (0, 0), (0, 1),
                     (1, -1), (1, 0), (1, 1))


def expand_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate ``[arange(s, e) for s, e in zip(starts, ends)]`` without
    a Python loop. Every range must be non-empty (``ends > starts``)."""
    counts = ends - starts
    total = int(counts.sum())
    out = np.ones(total, dtype=np.int64)
    boundaries = np.cumsum(counts[:-1])
    out[0] = starts[0]
    # At each range boundary, jump from the previous range's last index
    # (ends[i-1] - 1) to the next range's first (starts[i]).
    out[boundaries] = starts[1:] - ends[:-1] + 1
    return np.cumsum(out)


class SpatialGrid:
    """An immutable uniform grid over one snapshot of node positions."""

    __slots__ = ("cell_size", "n", "n_cells", "xs", "ys", "_keys", "_key_offsets",
                 "_order", "_uniq_keys", "_starts", "_ends", "_cand_cache",
                 "_key_list", "_cells")

    def __init__(self, positions: np.ndarray, cell_size: float):
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("positions must be an (N, 2) array-like")
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self.n = len(pos)
        #: Contiguous coordinate columns of the snapshot: indexing them
        #: by a candidate array is cheaper than indexing rows of ``pos``.
        self.xs = np.ascontiguousarray(pos[:, 0])
        self.ys = np.ascontiguousarray(pos[:, 1])
        cells = np.floor(pos / self.cell_size).astype(np.int64)
        if self.n:
            cells -= cells.min(axis=0)
            mult = int(cells[:, 1].max()) + 2
        else:
            mult = 2
        keys = cells[:, 0] * mult + cells[:, 1] if self.n else np.empty(0, np.int64)
        order = np.argsort(keys, kind="stable")
        uniq, starts = np.unique(keys[order], return_index=True)
        self._keys = keys
        self._key_offsets = tuple(dx * mult + dy for dx, dy in _NEIGHBOR_OFFSETS)
        self._order = order
        self._uniq_keys = uniq
        self._starts = starts
        self._ends = np.append(starts[1:], self.n)
        #: Number of occupied cells (a counter: cells per grid built).
        self.n_cells = len(uniq)
        #: Lazy plain-list copies for :meth:`candidates_of`: every node's
        #: cell key, and cell key -> member ids (ascending). Built on the
        #: first call; :meth:`pairs` never pays for them.
        self._key_list: List[int] = []
        self._cells: Optional[Dict[int, List[int]]] = None
        #: cell key -> sorted candidate array. Every sender in a cell
        #: shares the exact same 3x3 candidate set, and a bucket's
        #: queries cluster on the same few cells (one hello burst = many
        #: senders clustered around the same coordinates), so the
        #: 9-probe search amortizes to one per *cell* per snapshot.
        self._cand_cache: dict = {}

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """All (sender, candidate) index pairs from the 3 x 3 neighborhoods.

        Self-pairs are included (the caller filters them with the rest of
        the distance predicate). For every pair actually within
        ``cell_size`` of each other, both orientations appear -- this is
        the superset the exact distance check then prunes.
        """
        n = self.n
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        uniq, starts, ends = self._uniq_keys, self._starts, self._ends
        keys, order = self._keys, self._order
        last = len(uniq) - 1
        senders = []
        candidates = []
        for offset in self._key_offsets:
            probe = keys + offset
            idx = np.searchsorted(uniq, probe)
            np.minimum(idx, last, out=idx)
            hit = np.flatnonzero(uniq[idx] == probe)
            if hit.size == 0:
                continue
            cell = idx[hit]
            cell_starts, cell_ends = starts[cell], ends[cell]
            senders.append(np.repeat(hit, cell_ends - cell_starts))
            candidates.append(order[expand_ranges(cell_starts, cell_ends)])
        return np.concatenate(senders), np.concatenate(candidates)

    def candidates_of(self, node: int) -> np.ndarray:
        """Candidate node ids for one sender (sorted, includes ``node``)."""
        if not 0 <= node < self.n:
            raise ValueError(f"unknown node id {node}")
        cells = self._cells
        if cells is None:
            cells = self._cell_lists()
        key = self._key_list[node]
        cached = self._cand_cache.get(key)
        if cached is not None:
            return cached
        merged: List[int] = []
        for offset in self._key_offsets:
            merged += cells.get(key + offset, ())
        # Each cell's members are ascending (stable argsort), so the
        # concatenation is a few sorted runs that timsort merges.
        merged.sort()
        result = np.array(merged, dtype=np.int64)
        self._cand_cache[key] = result
        return result

    def _cell_lists(self) -> Dict[int, List[int]]:
        """Plain-list copies of the cell index, for per-sender probes."""
        self._key_list = self._keys.tolist()
        order = self._order.tolist()
        bounds = self._starts.tolist() + [self.n]
        cells = self._cells = {
            key: order[start:end] for key, start, end
            in zip(self._uniq_keys.tolist(), bounds, bounds[1:])}
        return cells
