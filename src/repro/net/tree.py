"""Tree snapshots and the Fig. 6 / Section 4.1.1 statistics.

The paper reports, over its random 75-node topologies: average and
99-percentile hops-to-root of 3.87 and 10, and average and 99-percentile
children per non-leaf node of 3.54 and 9. :func:`bfs_tree` builds the
shortest-hop tree the simplified BLESS protocol converges to on a static
topology, and :func:`tree_statistics` computes those four numbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TreeSnapshot:
    """A rooted tree over node ids 0..n-1. ``parents[root] == -1``;
    unreachable nodes also carry -1 with ``hops`` of None."""

    root: int
    parents: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.root < len(self.parents):
            raise ValueError("root outside node range")
        if self.parents[self.root] != -1:
            raise ValueError("root must have parent -1")

    @property
    def n_nodes(self) -> int:
        return len(self.parents)

    def children_map(self) -> Dict[int, List[int]]:
        children: Dict[int, List[int]] = {i: [] for i in range(self.n_nodes)}
        for node, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent].append(node)
        return children

    def hops(self) -> List[Optional[int]]:
        """Hops to root per node (None if detached or on a cycle)."""
        out: List[Optional[int]] = [None] * self.n_nodes
        out[self.root] = 0
        for node in range(self.n_nodes):
            if out[node] is not None:
                continue
            path = []
            cursor: int = node
            seen = set()
            while cursor >= 0 and out[cursor] is None and cursor not in seen:
                seen.add(cursor)
                path.append(cursor)
                cursor = self.parents[cursor]
            base = out[cursor] if cursor >= 0 and out[cursor] is not None else None
            for i, member in enumerate(reversed(path), start=1):
                out[member] = base + i if base is not None else None
        return out

    def reachable(self) -> List[int]:
        """Nodes connected to the root through parent links."""
        return [n for n, h in enumerate(self.hops()) if h is not None]


def bfs_tree(coords: Sequence[Sequence[float]], radio_range: float, root: int = 0) -> TreeSnapshot:
    """The shortest-hop (BFS) tree over the unit-disk graph.

    This is the fixed point of the simplified BLESS selection rule
    (min-hops parent, ties to the smallest id) on a static topology.
    """
    arr = np.asarray(coords, dtype=float)
    n = len(arr)
    deltas = arr[:, None, :] - arr[None, :, :]
    dists = np.hypot(deltas[..., 0], deltas[..., 1])
    parents = [-1] * n
    hops = [None] * n
    hops[root] = 0
    queue: deque[int] = deque([root])
    while queue:
        node = queue.popleft()
        neighbors = sorted(np.flatnonzero(dists[node] <= radio_range))
        for neighbor in neighbors:
            if neighbor != node and hops[neighbor] is None:
                hops[neighbor] = hops[node] + 1
                parents[neighbor] = node
                queue.append(neighbor)
    return TreeSnapshot(root=root, parents=tuple(parents))


def tree_statistics(tree: TreeSnapshot) -> Dict[str, float]:
    """The four Section 4.1.1 numbers for one tree."""
    hop_values = [h for h in tree.hops() if h is not None and h > 0]
    children = tree.children_map()
    child_counts = [len(c) for c in children.values() if c]
    return {
        "avg_hops": float(np.mean(hop_values)) if hop_values else 0.0,
        "p99_hops": float(np.percentile(hop_values, 99)) if hop_values else 0.0,
        "avg_children": float(np.mean(child_counts)) if child_counts else 0.0,
        "p99_children": float(np.percentile(child_counts, 99)) if child_counts else 0.0,
        "reachable": float(len(tree.reachable())),
    }


def placement_tree_statistics(
    n_nodes: int = 75, placements: int = 10, seed: int = 1000,
) -> List[Dict[str, float]]:
    """Fig. 6's statistics over random connected placements.

    Placement ``i`` draws ``n_nodes`` nodes on the paper's 500 x 300 m
    plain from ``random.Random(seed + i)``; each row is the
    :func:`tree_statistics` of its BFS tree at 75 m range, plus the seed.
    """
    import random

    from repro.world.placement import random_placement

    rows = []
    for i in range(placements):
        coords = random_placement(n_nodes, 500, 300, random.Random(seed + i))
        stats = tree_statistics(bfs_tree(coords, 75.0))
        stats["seed"] = seed + i
        rows.append(stats)
    return rows
