"""Brute-force link oracle: the reference for every link-table test.

``NeighborService`` builds each sender's links against the 3 x 3 cell
neighborhood of a spatial grid: numpy distances over the grid's
candidates, then one pass over plain lists. This module answers the
same question the slow, obvious way: one O(n) distance pass per sender, then a scalar
loop over *all* n nodes in ascending order. It uses the same float64
operations per link (subtract, ``np.hypot``, the model's scalar
predicates, banker's-rounded delays), so the service must match it bit
for bit -- node set, delays, decode and sense flags and ``power_dbm``.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.phy.neighbors import Link, LinkPowerSpec, propagation_delay_ns
from repro.phy.propagation import PropagationModel


def oracle_links(pos, sender: int, model: PropagationModel,
                 power_spec: Optional[LinkPowerSpec] = None
                 ) -> Tuple[Link, ...]:
    """``sender``'s links over the (n, 2) positions ``pos``.

    Classic mode keeps a node iff it lies within ``model.max_range()``
    and is carrier-sensed. Power mode keeps it iff it lies within
    ``power_spec.prune_range`` and its link power (pair-aware model
    power plus the sender's tx offset plus the receiver's rx gain)
    reaches the interference cutoff; decode and sense are thresholds on
    that power.
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
        if power_spec is None:
            if d > model.max_range() or not model.carrier_sensed(d):
                continue
            links.append(Link(node, propagation_delay_ns(d), model.in_range(d),
                              float(model.received_power_dbm(d))))
            continue
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
