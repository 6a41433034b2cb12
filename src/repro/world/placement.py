"""Random node placement for the paper's topologies.

The evaluation drops 75 nodes uniformly on a 500 m x 300 m plain with a
75 m radio range. With those densities the topology is essentially always
connected, but a disconnected draw would silently depress every delivery
metric, so :func:`random_placement` can (optionally, on by default)
redraw until the unit-disk graph is connected -- a standard hygiene step
the paper does not discuss.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np

from repro.phy.grid import SpatialGrid


def _unit_disk_adjacency_csr(
    coords: np.ndarray, radio_range: float
) -> Tuple[np.ndarray, List[int]]:
    """Unit-disk adjacency as (neighbor ids, per-node CSR bounds).

    Grid-pruned: candidate pairs come from 3 x 3 cell neighborhoods
    instead of the full n x n distance matrix, so connectivity checks on
    1000-node placement draws stay cheap (they re-run per rejected draw).
    """
    grid = SpatialGrid(coords, radio_range)
    senders, cands = grid.pairs()
    keep = senders != cands
    senders, cands = senders[keep], cands[keep]
    dists = np.hypot(coords[cands, 0] - coords[senders, 0],
                     coords[cands, 1] - coords[senders, 1])
    keep = dists <= radio_range
    senders, cands = senders[keep], cands[keep]
    order = np.argsort(senders, kind="stable")
    senders, cands = senders[order], cands[order]
    bounds = np.searchsorted(senders, np.arange(len(coords) + 1)).tolist()
    return cands, bounds


def connected_components(
    coords: Sequence[Sequence[float]], radio_range: float
) -> List[List[int]]:
    """Connected components of the unit-disk graph, each sorted by id."""
    arr = np.asarray(coords, dtype=float)
    neighbors, bounds = _unit_disk_adjacency_csr(arr, radio_range)
    seen = [False] * len(arr)
    components: List[List[int]] = []
    for start in range(len(arr)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = []
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in neighbors[bounds[node]:bounds[node + 1]].tolist():
                if not seen[neighbor]:
                    seen[neighbor] = True
                    stack.append(neighbor)
        components.append(sorted(component))
    return components


def random_placement(
    n_nodes: int,
    width: float,
    height: float,
    rng: random.Random,
    radio_range: float = 75.0,
    require_connected: bool = True,
    max_tries: int = 200,
) -> List[Tuple[float, float]]:
    """Place ``n_nodes`` uniformly at random on a ``width x height`` plain.

    With ``require_connected`` the draw is repeated until the unit-disk
    graph at ``radio_range`` is connected (raises RuntimeError after
    ``max_tries`` -- a sign the density is simply too low).
    """
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if width <= 0 or height <= 0:
        raise ValueError("area dimensions must be positive")
    for _ in range(max_tries):
        coords = [(rng.uniform(0, width), rng.uniform(0, height)) for _ in range(n_nodes)]
        if not require_connected or len(connected_components(coords, radio_range)) == 1:
            return coords
    raise RuntimeError(
        f"no connected placement of {n_nodes} nodes in {width}x{height} m "
        f"at range {radio_range} m after {max_tries} tries"
    )
