"""Propagation models: the received power on every link.

The paper's evaluation uses a fixed 75 m radio range (GloMoSim's default
range-threshold behaviour), which the :class:`UnitDiskModel` reproduces.
:class:`LogDistanceModel` computes power from a log-distance path loss,
which still falls off with distance alone. :class:`LogDistanceShadowing`
breaks that circularity: every node pair draws a lognormal shadowing
term (deterministic in the seed), so reception becomes link-specific --
the propagation substrate the SINR interference subsystem
(:mod:`repro.phy.sinr`) builds on.

A model reports power only. Who decodes and who senses whom is one
rule, the thresholds of a :class:`~repro.phy.neighbors.LinkPowerSpec`
on that power; the paper's unit disk is the spec
:meth:`~repro.phy.neighbors.LinkPowerSpec.unit_disk` over
:class:`UnitDiskModel` powers (:data:`IN_RANGE_POWER_DBM` inside the
range, ``-inf`` outside).
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Dict, Tuple

import numpy as np

from repro.sim.rng import derive_seed

#: Received power (dBm) :class:`UnitDiskModel` reports inside its range:
#: 0 dBm = 1 mW. Under SINR reception this makes every in-range signal
#: equally strong, which reduces accumulated-interference decisions to
#: the paper's all-overlaps-collide rule (see ``repro.phy.sinr``).
IN_RANGE_POWER_DBM = 0.0


class PropagationModel(ABC):
    """Reports the received power of a transmission, in dBm.

    The scalar methods are the reference semantics; the ``*_batch``
    variants evaluate a whole array at once for the link builder (see
    :mod:`repro.phy.neighbors`), which reads ``link_power_dbm_batch``.
    Every batch form must be bit-identical to its scalar form, so that
    link tables equal the brute-force oracle's to the last bit.
    """

    @abstractmethod
    def received_power_dbm(self, distance: float) -> float:
        """Received power at ``distance`` meters (dBm)."""

    @abstractmethod
    def received_power_dbm_batch(self, distances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`received_power_dbm` (float array, same shape)."""

    # -- pair-aware power (shadowing/fading hooks) ----------------------
    def link_power_dbm(self, sender: int, receiver: int,
                       distance: float) -> float:
        """Received power on the ``sender -> receiver`` link (dBm).

        Defaults to the distance-only :meth:`received_power_dbm`;
        pair-dependent models (``LogDistanceShadowing``) override it.
        """
        return self.received_power_dbm(distance)

    def link_power_dbm_batch(self, sender: int, receivers: np.ndarray,
                             distances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`link_power_dbm` from one ``sender``."""
        return self.received_power_dbm_batch(distances)


class UnitDiskModel(PropagationModel):
    """Fixed circular radio range (the paper's model; default 75 m).

    Power is :data:`IN_RANGE_POWER_DBM` within ``radio_range`` (inclusive)
    and ``-inf`` beyond it.
    """

    def __init__(self, radio_range: float = 75.0):
        if radio_range <= 0:
            raise ValueError("radio_range must be positive")
        self.radio_range = float(radio_range)

    def received_power_dbm(self, distance: float) -> float:
        return IN_RANGE_POWER_DBM if distance <= self.radio_range else -math.inf

    def received_power_dbm_batch(self, distances: np.ndarray) -> np.ndarray:
        return np.where(distances <= self.radio_range,
                        IN_RANGE_POWER_DBM, -np.inf)

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnitDiskModel(range={self.radio_range}m)"


class LogDistanceModel(PropagationModel):
    """Log-distance path loss.

    ``PL(d) = PL(d0) + 10 * n * log10(d / d0)`` dB, so the received power
    is ``tx_power_dbm - PL(d)``.
    """

    def __init__(
        self,
        tx_power_dbm: float = 15.0,
        path_loss_exponent: float = 2.8,
        reference_loss_db: float = 40.0,
        reference_distance: float = 1.0,
    ):
        if path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        self.tx_power_dbm = tx_power_dbm
        self.path_loss_exponent = path_loss_exponent
        self.reference_loss_db = reference_loss_db
        self.reference_distance = reference_distance

    def received_power_dbm(self, distance: float) -> float:
        """Received power at ``distance`` meters (clamped to d0 up close).

        Routed through ``np.log10`` (not ``math.log10``): numpy's log10
        can differ from libm's by 1 ulp, and the scalar and batch paths
        must agree bit-for-bit for the grid path's "bit-identical
        results" contract to hold.
        """
        d = max(distance, self.reference_distance)
        loss = self.reference_loss_db + 10.0 * self.path_loss_exponent * float(
            np.log10(d / self.reference_distance)
        )
        return self.tx_power_dbm - loss

    def received_power_dbm_batch(self, distances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`received_power_dbm` (float array, same shape)."""
        d = np.maximum(distances, self.reference_distance)
        loss = self.reference_loss_db + 10.0 * self.path_loss_exponent * np.log10(
            d / self.reference_distance
        )
        return self.tx_power_dbm - loss

    def range_for_threshold(self, threshold_dbm: float) -> float:
        """The distance at which received power falls to ``threshold_dbm``.

        Used by the SINR wiring to size the spatial grid to an
        *interference* radius (power down to the noise floor) instead of
        the carrier-sense radius.
        """
        margin = self.tx_power_dbm - self.reference_loss_db - threshold_dbm
        return self.reference_distance * 10.0 ** (margin / (10.0 * self.path_loss_exponent))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LogDistanceModel(n={self.path_loss_exponent}, "
            f"tx={self.tx_power_dbm}dBm)"
        )


class LogDistanceShadowing(LogDistanceModel):
    """Log-distance path loss with per-link lognormal shadowing.

    Every unordered node pair ``{a, b}`` draws one Gaussian shadowing
    term (dB domain; lognormal in linear power) that is *frozen for the
    whole run*: shadowing models obstacles in the environment, which do
    not flicker per frame -- per-frame variation is fast fading, handled
    separately in :mod:`repro.phy.sinr`. Draws are derived from ``seed``
    via :func:`repro.sim.rng.derive_seed`, so runs are deterministic,
    bit-reproducible across processes, and campaign-resumable.

    Draws are truncated to ``+- max_sigma_factor * sigma`` so that a
    finite distance bounds every link above a power cutoff, which the
    spatial pruning needs (an untruncated lognormal has unbounded gain).

    The distance-only :meth:`received_power_dbm` keeps the *median*
    (no-shadow) power; links read the pair-aware :meth:`link_power_dbm`.
    """

    def __init__(
        self,
        shadowing_sigma_db: float = 6.0,
        seed: int = 0,
        max_sigma_factor: float = 3.0,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be non-negative")
        if max_sigma_factor <= 0:
            raise ValueError("max_sigma_factor must be positive")
        self.shadowing_sigma_db = float(shadowing_sigma_db)
        self.seed = int(seed)
        self.max_sigma_factor = float(max_sigma_factor)
        #: Per-pair shadow cache. Shadowing is a property of the static
        #: environment between two endpoints, so one draw per pair per
        #: run; the cache makes the scalar and batch link paths
        #: trivially bit-identical (same float from the same dict).
        self._shadow: Dict[Tuple[int, int], float] = {}

    def max_shadow_db(self) -> float:
        """The largest possible shadowing gain (truncation bound, dB)."""
        return self.max_sigma_factor * self.shadowing_sigma_db

    def shadow_db(self, a: int, b: int) -> float:
        """The frozen shadowing term for the unordered pair ``{a, b}``."""
        key = (a, b) if a <= b else (b, a)
        value = self._shadow.get(key)
        if value is None:
            draw = random.Random(
                derive_seed(self.seed, "shadow", key[0], key[1])
            ).gauss(0.0, self.shadowing_sigma_db)
            bound = self.max_shadow_db()
            value = self._shadow[key] = max(-bound, min(bound, draw))
        return value

    def link_power_dbm(self, sender: int, receiver: int,
                       distance: float) -> float:
        return self.received_power_dbm(distance) + self.shadow_db(sender, receiver)

    def link_power_dbm_batch(self, sender: int, receivers: np.ndarray,
                             distances: np.ndarray) -> np.ndarray:
        base = self.received_power_dbm_batch(distances)
        shadow_db = self.shadow_db
        shadows = np.fromiter(
            (shadow_db(sender, r) for r in receivers.tolist()),
            dtype=float, count=len(distances),
        )
        return base + shadows

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LogDistanceShadowing(n={self.path_loss_exponent}, "
            f"sigma={self.shadowing_sigma_db}dB, seed={self.seed})"
        )
