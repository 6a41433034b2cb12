"""The layer map and the cProfile roll-up of self time by layer.

Every module under ``src/repro`` belongs to exactly one layer. An entry
ending in ``/`` claims a whole package; any other entry claims one file.
``test_e2e.py`` fails when a module matches no entry, so a new module
must be placed here before the benchmark accepts it.

Self time (cProfile ``tottime``) of a ``repro`` function goes to that
function's layer. Self time of a function outside ``repro`` (builtins,
the standard library, numpy) is split over its callers in proportion to
the per-caller-edge self time pstats records, and follows a caller
outside ``repro`` up to the first ``repro`` frame. So the time a layer
spends in ``heapq``, ``math`` or numpy counts as that layer's time.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: layer -> the module paths (relative to ``src/repro``) it owns.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim/",),
    "phy.channel": ("phy/channel.py", "phy/radio.py", "phy/error.py",
                    "phy/params.py", "phy/__init__.py"),
    "phy.busytone": ("phy/busytone.py",),
    "phy.links": ("phy/neighbors.py", "phy/grid.py", "phy/propagation.py"),
    "phy.sinr": ("phy/sinr.py",),
    "mac.rmac": ("core/", "mac/rmac.py"),
    "mac.dot11": ("mac/dot11.py", "mac/bmmm.py", "mac/bmw.py", "mac/lamm.py",
                  "mac/lbp.py", "mac/mx.py"),
    "mac.common": ("mac/base.py", "mac/backoff.py", "mac/frames.py",
                   "mac/stats.py", "mac/addresses.py", "mac/__init__.py"),
    "net": ("net/",),
    "mobility": ("mobility/",),
    "world": ("world/", "metrics/", "faults/", "oracle/", "analysis/",
              "experiments/", "__init__.py", "__main__.py", "cli.py"),
}

#: Where self time goes when no ``repro`` frame is above it.
UNATTRIBUTED = "unattributed"


def matching_layers(module: str) -> list:
    """Every layer with an entry claiming ``module``, a path relative to
    ``src/repro`` with ``/`` separators (the tests require exactly one)."""
    return [layer for layer, entries in LAYERS.items()
            if any(module == e or (e.endswith("/") and module.startswith(e))
                   for e in entries)]


def layer_of(module: str) -> Optional[str]:
    """The one layer owning ``module``, or None when unclaimed or claimed
    twice."""
    found = matching_layers(module)
    return found[0] if len(found) == 1 else None


def rollup(stats: dict, repro_dir: str) -> dict:
    """Roll a ``pstats.Stats(...).stats`` table up by layer.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "total_s": s}``.
    ``self_s`` has every layer plus :data:`UNATTRIBUTED`; its values sum
    to ``total_s``, the profile's total self time. ``calls`` counts calls
    of the layer's own functions.
    """
    prefix = os.path.abspath(repro_dir) + os.sep
    own: Dict[tuple, Optional[str]] = {}
    for key in stats:
        filename = key[0]
        if filename.startswith(prefix):
            module = filename[len(prefix):].replace(os.sep, "/")
            layer = layer_of(module)
            own[key] = layer if layer is not None else UNATTRIBUTED
        else:
            own[key] = None

    shares: Dict[tuple, Dict[str, float]] = {}
    resolving = set()

    def share(key: tuple) -> Dict[str, float]:
        if key in shares:
            return shares[key]
        layer = own.get(key)
        if layer is not None:
            return {layer: 1.0}
        if key in resolving or key not in stats:
            return {UNATTRIBUTED: 1.0}
        resolving.add(key)
        callers = stats[key][4]
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if not any(weights.values()):
            weights = {caller: edge[1] for caller, edge in callers.items()}
        total = sum(weights.values())
        result: Dict[str, float] = {}
        if total <= 0:
            result[UNATTRIBUTED] = 1.0
        else:
            for caller, weight in weights.items():
                for layer, part in share(caller).items():
                    result[layer] = result.get(layer, 0.0) + part * weight / total
        resolving.discard(key)
        shares[key] = result
        return result

    self_s = {layer: 0.0 for layer in (*LAYERS, UNATTRIBUTED)}
    calls = {layer: 0 for layer in LAYERS}
    total = 0.0
    for key, (_cc, nc, tt, _ct, _callers) in stats.items():
        total += tt
        for layer, part in share(key).items():
            self_s[layer] += tt * part
        layer = own[key]
        if layer is not None and layer != UNATTRIBUTED:
            calls[layer] += nc
    return {"self_s": self_s, "calls": calls, "total_s": total}
