"""Propagation models.

The paper's evaluation uses a fixed 75 m radio range (GloMoSim's default
range-threshold behaviour), which the :class:`UnitDiskModel` reproduces.
:class:`LogDistanceModel` computes a received-power-vs-threshold decision
from a log-distance path loss, which still reduces to a deterministic
circular range. :class:`LogDistanceShadowing` breaks that circularity:
every node pair draws a lognormal shadowing term (deterministic in the
seed), so reception becomes link-specific -- the propagation substrate
the SINR interference subsystem (:mod:`repro.phy.sinr`) builds on.

Every model reports received power. Models that do not actually compute
power (``UnitDiskModel`` and any minimal subclass) fall back to a
documented constant -- :data:`IN_RANGE_POWER_DBM` inside carrier-sense
range, ``-inf`` outside -- so power-aware consumers (SINR
accumulation and capture, busy-tone power thresholds) never have to type-sniff the
model.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Dict, Tuple

import numpy as np

from repro.sim.rng import derive_seed

#: Received power (dBm) reported inside carrier-sense range by models
#: that do not compute real powers (``UnitDiskModel``): 0 dBm = 1 mW.
#: Under SINR reception this makes every in-range signal equally strong,
#: which reduces accumulated-interference decisions to the paper's
#: all-overlaps-collide rule (see ``repro.phy.sinr``).
IN_RANGE_POWER_DBM = 0.0


class PropagationModel(ABC):
    """Decides whether a transmission is receivable and senseable.

    The scalar predicates are the reference semantics; the ``*_batch``
    variants evaluate a whole distance array at once, for both link
    builders (see :mod:`repro.phy.neighbors`): the threshold builder
    filters and labels a sender's candidates with ``carrier_sensed_batch``,
    ``in_range_batch`` and ``received_power_dbm_batch``, the power-mode
    builder reads ``link_power_dbm_batch``. The base-class batch
    fallbacks call the scalar predicate per element, so any subclass is
    automatically batch-correct; the built-in models override them with
    true array expressions that are bit-identical to their scalar forms.
    """

    #: True when link power depends on the endpoint pair (shadowing,
    #: per-link fading), not on distance alone. Pair-dependent models
    #: must override :meth:`link_power_dbm` (+ batch); consumers that
    #: cache by distance must not.
    pair_dependent: bool = False

    @abstractmethod
    def in_range(self, distance: float) -> bool:
        """True if a frame can be received at ``distance`` meters."""

    @abstractmethod
    def max_range(self) -> float:
        """An upper bound on the reception distance (for spatial pruning)."""

    def carrier_sensed(self, distance: float) -> bool:
        """True if a transmission at ``distance`` raises carrier sense.

        Defaults to the reception range; subclasses may extend it (real
        radios sense further than they decode).
        """
        return self.in_range(distance)

    def in_range_batch(self, distances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`in_range` (bool array, same shape)."""
        return np.fromiter((self.in_range(float(d)) for d in distances),
                           dtype=bool, count=len(distances))

    def carrier_sensed_batch(self, distances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`carrier_sensed` (bool array, same shape)."""
        return np.fromiter((self.carrier_sensed(float(d)) for d in distances),
                           dtype=bool, count=len(distances))

    # -- received power (every model reports one) -----------------------
    def received_power_dbm(self, distance: float) -> float:
        """Received power at ``distance`` meters (dBm).

        Base fallback for models that do not compute real powers:
        :data:`IN_RANGE_POWER_DBM` inside carrier-sense range, ``-inf``
        outside. Threshold models override this with the path-loss
        computation.
        """
        return IN_RANGE_POWER_DBM if self.carrier_sensed(distance) else -math.inf

    def received_power_dbm_batch(self, distances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`received_power_dbm` (float array, same shape)."""
        return np.fromiter((self.received_power_dbm(float(d)) for d in distances),
                           dtype=float, count=len(distances))

    # -- pair-aware power (shadowing/fading hooks) ----------------------
    def link_power_dbm(self, sender: int, receiver: int,
                       distance: float) -> float:
        """Received power on the ``sender -> receiver`` link (dBm).

        Defaults to the distance-only :meth:`received_power_dbm`;
        pair-dependent models (``LogDistanceShadowing``) override it.
        """
        return self.received_power_dbm(distance)

    def link_power_dbm_batch(self, senders: np.ndarray, receivers: np.ndarray,
                             distances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`link_power_dbm` (float array, same shape)."""
        return self.received_power_dbm_batch(distances)


class UnitDiskModel(PropagationModel):
    """Fixed circular radio range (the paper's model; default 75 m)."""

    def __init__(self, radio_range: float = 75.0, sense_range: float | None = None):
        if radio_range <= 0:
            raise ValueError("radio_range must be positive")
        self.radio_range = float(radio_range)
        self.sense_range = float(sense_range) if sense_range is not None else self.radio_range
        if self.sense_range < self.radio_range:
            raise ValueError("sense_range must be >= radio_range")

    def in_range(self, distance: float) -> bool:
        return distance <= self.radio_range

    def carrier_sensed(self, distance: float) -> bool:
        return distance <= self.sense_range

    def in_range_batch(self, distances: np.ndarray) -> np.ndarray:
        return distances <= self.radio_range

    def carrier_sensed_batch(self, distances: np.ndarray) -> np.ndarray:
        return distances <= self.sense_range

    def received_power_dbm_batch(self, distances: np.ndarray) -> np.ndarray:
        return np.where(self.carrier_sensed_batch(distances),
                        IN_RANGE_POWER_DBM, -np.inf)

    def max_range(self) -> float:
        return self.sense_range

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnitDiskModel(range={self.radio_range}m, sense={self.sense_range}m)"


class LogDistanceModel(PropagationModel):
    """Log-distance path loss with a reception power threshold.

    ``PL(d) = PL(d0) + 10 * n * log10(d / d0)`` dB. A frame is receivable
    when ``tx_power_dbm - PL(d) >= rx_threshold_dbm`` and carrier-sensed
    when it clears ``cs_threshold_dbm`` (typically ~10 dB lower).
    """

    def __init__(
        self,
        tx_power_dbm: float = 15.0,
        path_loss_exponent: float = 2.8,
        reference_loss_db: float = 40.0,
        reference_distance: float = 1.0,
        rx_threshold_dbm: float = -65.0,
        cs_threshold_dbm: float = -75.0,
    ):
        if path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if cs_threshold_dbm > rx_threshold_dbm:
            raise ValueError("carrier-sense threshold must not exceed rx threshold")
        self.tx_power_dbm = tx_power_dbm
        self.path_loss_exponent = path_loss_exponent
        self.reference_loss_db = reference_loss_db
        self.reference_distance = reference_distance
        self.rx_threshold_dbm = rx_threshold_dbm
        self.cs_threshold_dbm = cs_threshold_dbm

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

    def in_range(self, distance: float) -> bool:
        return self.received_power_dbm(distance) >= self.rx_threshold_dbm

    def carrier_sensed(self, distance: float) -> bool:
        return self.received_power_dbm(distance) >= self.cs_threshold_dbm

    def in_range_batch(self, distances: np.ndarray) -> np.ndarray:
        return self.received_power_dbm_batch(distances) >= self.rx_threshold_dbm

    def carrier_sensed_batch(self, distances: np.ndarray) -> np.ndarray:
        return self.received_power_dbm_batch(distances) >= self.cs_threshold_dbm

    def max_range(self) -> float:
        return self.range_for_threshold(self.cs_threshold_dbm)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LogDistanceModel(n={self.path_loss_exponent}, "
            f"rx_range={self.range_for_threshold(self.rx_threshold_dbm):.1f}m)"
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

    Draws are truncated to ``+- max_sigma_factor * sigma`` so the model
    can still report a finite :meth:`max_range` for spatial pruning
    (an untruncated lognormal has unbounded gain).

    The distance-only predicates (``in_range``/``carrier_sensed``)
    deliberately keep the *median* (no-shadow) semantics: this model is
    meant to be consumed through the pair-aware :meth:`link_power_dbm`
    by the power-domain link builder (see
    :class:`repro.phy.neighbors.LinkPowerSpec`), which derives
    decode/sense decisions from the shadowed power itself.
    """

    pair_dependent = True

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

    def link_power_dbm_batch(self, senders: np.ndarray, receivers: np.ndarray,
                             distances: np.ndarray) -> np.ndarray:
        base = self.received_power_dbm_batch(distances)
        shadow_db = self.shadow_db
        shadows = np.fromiter(
            (shadow_db(int(s), int(r)) for s, r in zip(senders, receivers)),
            dtype=float, count=len(distances),
        )
        return base + shadows

    def max_range(self) -> float:
        """Sense radius with full shadow headroom (for spatial pruning)."""
        return self.range_for_threshold(
            self.cs_threshold_dbm - self.max_shadow_db())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LogDistanceShadowing(n={self.path_loss_exponent}, "
            f"sigma={self.shadowing_sigma_db}dB, seed={self.seed})"
        )
