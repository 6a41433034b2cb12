"""Brute-force link oracle: the reference for every link-table test.

``NeighborService`` builds each sender's links against the 3 x 3 cell
neighborhood of a spatial grid: numpy distances over the grid's
candidates, then one pass over plain lists. This module answers the
same question the slow, obvious way: one O(n) distance pass per sender, then a scalar
loop over *all* n nodes in ascending order. It uses the same float64
operations per link (subtract, ``np.hypot``, the model's scalar
``link_power_dbm``, banker's-rounded delays), so the service must match
it bit for bit -- node set, delays, decode and sense flags and
``power_dbm``.
"""

from typing import List, Tuple

import numpy as np

from repro.phy.neighbors import (Link, LinkPowerSpec, NeighborService,
                                 PositionProvider, propagation_delay_ns)
from repro.phy.propagation import LogDistanceModel, PropagationModel, UnitDiskModel


def oracle_links(pos, sender: int, model: PropagationModel,
                 power_spec: LinkPowerSpec) -> Tuple[Link, ...]:
    """``sender``'s links over the (n, 2) positions ``pos``.

    A node is kept iff it lies within ``power_spec.prune_range`` and its
    link power (pair-aware model power plus the sender's tx offset plus
    the receiver's rx gain) reaches the interference cutoff; decode and
    sense are thresholds on that power.
    """
    pos = np.asarray(pos, dtype=float)
    if not 0 <= sender < len(pos):
        raise ValueError(f"unknown sender id {sender}")
    deltas = pos - pos[sender]
    dists = np.hypot(deltas[:, 0], deltas[:, 1])
    links: List[Link] = []
    for node in range(len(pos)):
        if node == sender:
            continue
        d = float(dists[node])
        if d > power_spec.prune_range:
            continue
        power = model.link_power_dbm(sender, node, d)
        if power_spec.tx_offset_dbm is not None:
            power = power + float(power_spec.tx_offset_dbm[sender])
            power = power + float(power_spec.rx_gain_dbm[node])
        if power < power_spec.keep_threshold_dbm:
            continue
        links.append(Link(node, propagation_delay_ns(d),
                          power >= power_spec.rx_threshold_dbm, power,
                          power >= power_spec.cs_threshold_dbm))
    return tuple(links)


def unit_disk_service(provider: PositionProvider,
                      radio_range: float = 75.0) -> NeighborService:
    """A service over the paper's unit disk of ``radio_range`` meters."""
    return NeighborService(provider, UnitDiskModel(radio_range),
                           LinkPowerSpec.unit_disk(radio_range))


def threshold_spec(model: LogDistanceModel, rx_threshold_dbm: float = -65.0,
                   cs_threshold_dbm: float = -75.0) -> LinkPowerSpec:
    """Decode and carrier-sense thresholds on ``model``'s power, with
    links kept down to carrier sense (no interference-only links)."""
    return LinkPowerSpec(rx_threshold_dbm, cs_threshold_dbm, cs_threshold_dbm,
                         model.range_for_threshold(cs_threshold_dbm))
