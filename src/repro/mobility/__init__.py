"""Mobility models.

The paper evaluates three scenarios: stationary, and two random-waypoint
settings (MAX-SPEED 4 m/s with 10 s pauses; 8 m/s with 5 s pauses).
Positions are computed analytically at query time -- no per-tick movement
events -- so mobility adds no event-queue load. A stationary placement
needs no model: it is a :class:`~repro.phy.neighbors.StaticPositions`.
"""

from repro.mobility.base import MobilityModel, MobilityProvider
from repro.mobility.waypoint import RandomWaypointModel

__all__ = [
    "MobilityModel",
    "MobilityProvider",
    "RandomWaypointModel",
]
