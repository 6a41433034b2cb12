"""Mobility interfaces.

A :class:`MobilityModel` yields one node's position at any simulation
time; a :class:`MobilityProvider` aggregates the per-node models into the
``(N, 2)`` position arrays the PHY's
:class:`~repro.phy.neighbors.NeighborService` consumes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

import numpy as np


class MobilityModel(ABC):
    """One node's trajectory."""

    @abstractmethod
    def position(self, time_ns: int) -> Tuple[float, float]:
        """Position in meters at ``time_ns``. Must be time-monotonic safe:
        querying out of order is allowed for times already materialized."""


class MobilityProvider:
    """Adapts per-node mobility models to the PHY's PositionProvider."""

    def __init__(self, models: Sequence[MobilityModel]):
        if not models:
            raise ValueError("need at least one mobility model")
        self._models: List[MobilityModel] = list(models)

    def __len__(self) -> int:
        return len(self._models)

    def model(self, node: int) -> MobilityModel:
        return self._models[node]

    def positions(self, time_ns: int) -> np.ndarray:
        return np.array([m.position(time_ns) for m in self._models], dtype=float)

    def is_static(self) -> bool:
        """Never: the models move (a placement that does not is a
        :class:`~repro.phy.neighbors.StaticPositions`)."""
        return False
