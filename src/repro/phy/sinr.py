"""SINR interference subsystem: accumulated-power reception.

The paper evaluates RMAC in GloMoSim's fixed-range threshold world: a
frame is corrupted iff another sensed transmission overlaps it at the
receiver. That model cannot express the two effects busy tones exist to
fight -- *hidden interference* (a transmitter outside carrier-sense
range still injects energy) and *capture* (a strong frame surviving a
weak overlap). This module replaces the boolean overlap rule with a
power-domain one:

* an :class:`InterferenceTracker` accumulates the concurrent in-air
  power at every node (mW-domain sums over active transmission
  windows);
* an :class:`SinrReceptionModel` decides decode/corrupt at arrival end
  from the signal-to-interference-plus-noise ratio against a threshold;
* optional fast fading (:class:`RayleighFading` / :class:`RicianFading`)
  perturbs each arrival's power, deterministically in the run seed;
* :func:`wire_sinr` assembles the propagation model
  (:class:`~repro.phy.propagation.LogDistanceShadowing` by default),
  per-node heterogeneous radios (tx power / antenna-gain jitter) and
  the power-domain link-building spec consumed by
  :class:`~repro.phy.neighbors.NeighborService`.

Capture is a special case of SINR: with one interferer and the capture
margin as ``sinr_threshold_db``, a frame survives iff it beats the
interferer by the margin. With several interferers SINR is stricter
(their powers add), which is the physically right reading.
:class:`SinrState` is the data channel's only optional reception stage
(:meth:`SinrState.arrive` / :meth:`SinrState.depart` plus the decode
decision at arrival end).

Determinism: shadowing draws hang off ``derive_seed(seed, ...)`` per
node pair, radio jitter per node, and fading off a dedicated RNG stream
consumed in event order -- identical seeds give bit-identical runs, and
interrupted campaigns resume exactly (the whole config participates in
the result store's ``config_hash``).

With SINR *disabled* (``ScenarioConfig.sinr = None``, the default) each
step of the channel's arrival pipeline pays one ``is None`` test -- the
same zero-cost discipline as :mod:`repro.faults`.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.phy.params import PhyParams
from repro.phy.propagation import (
    LogDistanceModel,
    LogDistanceShadowing,
    PropagationModel,
    UnitDiskModel,
)
from repro.sim.rng import derive_seed


def dbm_to_mw(dbm: float) -> float:
    """dBm -> milliwatts (``-inf`` maps to 0.0)."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Milliwatts -> dBm (0.0 maps to ``-inf``)."""
    return 10.0 * math.log10(mw) if mw > 0.0 else -math.inf


#: Propagation choices for :attr:`SinrConfig.propagation`.
PROPAGATION_KINDS = ("shadowing", "logdistance", "unitdisk")

#: Fast-fading choices for :attr:`SinrConfig.fading`.
FADING_KINDS = ("rayleigh", "rician")


@dataclass(frozen=True)
class SinrConfig:
    """Declarative description of one run's SINR/interference setup.

    Part of :class:`~repro.world.network.ScenarioConfig` (and therefore
    of the result store's ``config_hash``): two configs differing in any
    field here are different experiment points, and ``None`` hashes
    identically to configs that predate the field.
    """

    #: Propagation substrate: "shadowing" (LogDistanceShadowing, the
    #: default), "logdistance" (deterministic path loss) or "unitdisk"
    #: (the paper's fixed range; every in-range signal counts as
    #: :data:`~repro.phy.propagation.IN_RANGE_POWER_DBM`, which makes
    #: SINR reception coincide with the overlap-collision rule).
    propagation: str = "shadowing"
    #: Decode threshold: a reception survives iff
    #: ``signal / (noise + peak interference) >= threshold``. ``None``
    #: disables the check (every non-collided arrival decodes).
    sinr_threshold_db: Optional[float] = 10.0
    #: Thermal-noise floor (dBm) added to the interference sum.
    noise_floor_dbm: float = -90.0
    #: When False the interference tracker is not consulted: the
    #: classic all-overlaps-collide rule applies and SINR reduces to a
    #: signal-vs-noise check. With a permissive threshold this is
    #: behaviorally identical to the threshold path (property-tested).
    interference: bool = True
    #: Concurrent signals weaker than this (dBm, at the receiver) are
    #: ignored -- they also bound the spatial grid's interference
    #: radius. ``None`` means the noise floor. Must not exceed the
    #: carrier-sense threshold.
    interference_cutoff_dbm: Optional[float] = None
    #: Lognormal shadowing sigma (dB; "shadowing" propagation only).
    shadowing_sigma_db: float = 6.0
    #: Fast fading applied per arrival: None, "rayleigh" or "rician".
    fading: Optional[str] = None
    #: Rician K factor (dB; ratio of line-of-sight to scattered power).
    rician_k_db: float = 6.0
    #: Base transmit power (dBm; threshold-model propagation only).
    tx_power_dbm: float = 15.0
    #: Heterogeneous radios: each node's tx power is jittered uniformly
    #: in ``+- tx_power_jitter_db`` (deterministic in the seed).
    tx_power_jitter_db: float = 0.0
    #: Base antenna gain (dB), applied on both ends of every link.
    antenna_gain_db: float = 0.0
    #: Per-node antenna-gain jitter (uniform ``+-``, deterministic).
    antenna_gain_jitter_db: float = 0.0
    #: Path-loss exponent for the threshold models.
    path_loss_exponent: float = 2.8
    #: Receive / carrier-sense power thresholds (dBm).
    rx_threshold_dbm: float = -65.0
    cs_threshold_dbm: float = -75.0

    #: Float fields coerced in ``__post_init__`` so configs built with
    #: ints hash identically to ones built with floats (the result
    #: store keys points by a hash of the whole scenario config).
    _FLOAT_FIELDS = ("noise_floor_dbm", "shadowing_sigma_db", "rician_k_db",
                     "tx_power_dbm", "tx_power_jitter_db", "antenna_gain_db",
                     "antenna_gain_jitter_db", "path_loss_exponent",
                     "rx_threshold_dbm", "cs_threshold_dbm")
    _OPT_FLOAT_FIELDS = ("sinr_threshold_db", "interference_cutoff_dbm")

    def __post_init__(self):
        if self.propagation not in PROPAGATION_KINDS:
            raise ValueError(
                f"propagation must be one of {PROPAGATION_KINDS}, "
                f"got {self.propagation!r}")
        if self.fading is not None and self.fading not in FADING_KINDS:
            raise ValueError(
                f"fading must be None or one of {FADING_KINDS}, "
                f"got {self.fading!r}")
        for name in self._FLOAT_FIELDS:
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        for name in self._OPT_FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and type(value) is not float:
                object.__setattr__(self, name, float(value))
        if self.tx_power_jitter_db < 0 or self.antenna_gain_jitter_db < 0:
            raise ValueError("jitter ranges must be non-negative")
        cutoff = self.effective_cutoff_dbm()
        if self.propagation != "unitdisk" and cutoff > self.cs_threshold_dbm:
            raise ValueError(
                "interference_cutoff_dbm must not exceed cs_threshold_dbm "
                "(links would lose carrier sense before losing interference)")
        if self.propagation == "unitdisk" and (
                self.tx_power_jitter_db or self.antenna_gain_db
                or self.antenna_gain_jitter_db):
            raise ValueError(
                "heterogeneous radios (tx/antenna jitter) require a "
                "power-threshold propagation model, not unitdisk")

    def effective_cutoff_dbm(self) -> float:
        """The interference cutoff actually applied (noise floor default)."""
        cutoff = self.interference_cutoff_dbm
        return self.noise_floor_dbm if cutoff is None else cutoff

    # -- stable serialization (campaign manifests, CLI) -----------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SinrConfig":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown SinrConfig field(s) {sorted(unknown)}")
        return cls(**payload)


class RayleighFading:
    """Rayleigh fast fading: per-arrival power gain ~ Exponential(1)."""

    KIND = "rayleigh"

    def gain(self, rng: random.Random) -> float:
        return rng.expovariate(1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return "RayleighFading()"


class RicianFading:
    """Rician fast fading with K factor (line-of-sight power ratio).

    ``gain = |h|^2`` with ``h = sqrt(K/(K+1)) + CN(0, 1/(K+1))``;
    ``E[gain] = 1``, so fading redistributes power without biasing it.
    """

    KIND = "rician"

    def __init__(self, k_db: float = 6.0):
        k = dbm_to_mw(k_db)  # dB -> linear ratio (same 10^(x/10) map)
        self._los = math.sqrt(k / (k + 1.0))
        self._sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        self.k_db = float(k_db)

    def gain(self, rng: random.Random) -> float:
        re = self._los + rng.gauss(0.0, self._sigma)
        im = rng.gauss(0.0, self._sigma)
        return re * re + im * im

    def __repr__(self) -> str:  # pragma: no cover
        return f"RicianFading(K={self.k_db}dB)"


class InterferenceTracker:
    """Accumulated concurrent in-air power per node (mW domain).

    The data channel adds every arriving signal (decodable or
    interference-only) at arrival start and removes it at arrival end;
    ``high_water`` records the most signals ever concurrently in the air
    at one node (telemetry).
    """

    __slots__ = ("_signals", "_totals", "high_water")

    def __init__(self):
        #: node -> {transmission: power_mw} of signals currently in the air.
        self._signals: Dict[int, Dict[object, float]] = {}
        #: node -> running mW sum (kept incrementally; rebuilt from the
        #: signal map on removal underflow of floating-point drift).
        self._totals: Dict[int, float] = {}
        self.high_water = 0

    def add(self, node: int, tx: object, power_mw: float) -> float:
        """Register a signal; returns the node's new total (mW)."""
        signals = self._signals.get(node)
        if signals is None:
            signals = self._signals[node] = {}
        signals[tx] = power_mw
        count = len(signals)
        if count > self.high_water:
            self.high_water = count
        total = self._totals.get(node, 0.0) + power_mw
        self._totals[node] = total
        return total

    def remove(self, node: int, tx: object) -> None:
        """Unregister a signal at its arrival end."""
        signals = self._signals.get(node)
        if signals is None:
            return
        power = signals.pop(tx, None)
        if power is None:
            return
        if signals:
            # Re-summing instead of subtracting keeps the running total
            # exactly equal to the sum of live signals (no accumulated
            # float drift over millions of add/remove cycles).
            self._totals[node] = math.fsum(signals.values())
        else:
            del self._signals[node]
            self._totals.pop(node, None)

    def total_mw(self, node: int) -> float:
        """Total in-air power at ``node`` right now (mW)."""
        return self._totals.get(node, 0.0)

    def concurrent(self, node: int) -> int:
        """Number of signals currently in the air at ``node``."""
        signals = self._signals.get(node)
        return len(signals) if signals else 0


class SinrReceptionModel:
    """Decode/corrupt decision from SINR against a threshold.

    ``sinr_db = signal / (noise + interference)`` in dB; a reception
    decodes iff it meets ``threshold_db`` (``None`` = always). Soft
    errors: frames that clear the SINR threshold still pass through the
    channel's :class:`~repro.phy.error.BitErrorModel`, so a BER model
    layers residual bit errors on top of interference losses.
    """

    __slots__ = ("threshold_db", "noise_floor_dbm", "noise_mw")

    def __init__(self, threshold_db: Optional[float], noise_floor_dbm: float):
        self.threshold_db = threshold_db
        self.noise_floor_dbm = float(noise_floor_dbm)
        self.noise_mw = dbm_to_mw(noise_floor_dbm)

    def sinr_db(self, signal_mw: float, interference_mw: float) -> float:
        denom = self.noise_mw + interference_mw
        if signal_mw <= 0.0:
            return -math.inf
        return 10.0 * math.log10(signal_mw / denom)

    def decodes(self, sinr_db: float) -> bool:
        threshold = self.threshold_db
        return threshold is None or sinr_db >= threshold


class SinrCounters:
    """Per-run interference statistics (telemetry section ``sinr``)."""

    __slots__ = ("dropped", "delivered", "sum_sinr_db", "min_sinr_db")

    def __init__(self):
        #: Receptions corrupted by the SINR decision alone (would have
        #: decoded under the threshold model).
        self.dropped = 0
        #: Receptions delivered with a finite SINR measurement.
        self.delivered = 0
        self.sum_sinr_db = 0.0
        self.min_sinr_db: Optional[float] = None

    def record_delivery(self, sinr_db: float) -> None:
        self.delivered += 1
        self.sum_sinr_db += sinr_db
        if self.min_sinr_db is None or sinr_db < self.min_sinr_db:
            self.min_sinr_db = sinr_db


class SinrState:
    """Everything the :class:`~repro.phy.channel.DataChannel` needs for
    SINR reception: the decision model, the interference tracker, the
    optional fading sampler and its RNG stream, and the counters."""

    __slots__ = ("reception", "tracker", "fading", "rng", "interference",
                 "counters")

    def __init__(
        self,
        reception: SinrReceptionModel,
        interference: bool = True,
        fading=None,
        rng: Optional[random.Random] = None,
    ):
        self.reception = reception
        self.tracker = InterferenceTracker()
        self.interference = interference
        self.fading = fading
        self.rng = rng if rng is not None else random.Random(0)
        self.counters = SinrCounters()

    def arrive(self, node: int, tx: object, power_dbm: float,
               ongoing: dict) -> Tuple[float, float]:
        """Price one arrival at ``node``: ``(signal_mw, interference_mw)``.

        Fading (if any) draws once per arrival, in event order. With
        interference accounting on, the signal lands in the tracker and
        raises the peak interference of every reception in ``ongoing``
        (the node's in-progress receptions, keyed by transmission).
        """
        # Every PropagationModel reports a link power (unit-disk models a
        # constant), so ``power_dbm`` is never None here.
        power_mw = 10.0 ** (power_dbm / 10.0)
        fading = self.fading
        if fading is not None:
            power_mw *= fading.gain(self.rng)
        if not self.interference:
            return power_mw, 0.0
        total = self.tracker.add(node, tx, power_mw)
        for rec in ongoing.values():
            itf = total - rec.signal_mw
            if itf > rec.peak_itf_mw:
                rec.peak_itf_mw = itf
        return power_mw, total - power_mw

    def depart(self, node: int, tx: object) -> None:
        """The arrival of ``tx`` at ``node`` ended: drop its power."""
        if self.interference:
            self.tracker.remove(node, tx)

    def stats(self) -> dict:
        """JSON-serializable per-run stats (RunSummary / telemetry)."""
        counters = self.counters
        delivered = counters.delivered
        return {
            "sinr_dropped": counters.dropped,
            "delivered": delivered,
            "mean_sinr_db": (counters.sum_sinr_db / delivered
                             if delivered else None),
            "min_sinr_db": counters.min_sinr_db,
            "concurrent_high_water": self.tracker.high_water,
        }


@dataclass
class SinrWiring:
    """The assembled pieces :class:`~repro.world.testbed.MacTestbed`
    plugs into the PHY stack."""

    config: SinrConfig
    model: PropagationModel
    #: Power-domain link-building spec (None for unitdisk propagation,
    #: which keeps the classic distance-threshold link path).
    power_spec: Optional[object]
    #: Busy-tone detection threshold in the power domain (None for
    #: unitdisk propagation: tones fall back to sensed links).
    tone_threshold_dbm: Optional[float]

    def build_state(self, rng: Optional[random.Random] = None) -> SinrState:
        """A fresh per-run channel state (tracker/counters start empty)."""
        config = self.config
        fading = None
        if config.fading == "rayleigh":
            fading = RayleighFading()
        elif config.fading == "rician":
            fading = RicianFading(config.rician_k_db)
        return SinrState(
            SinrReceptionModel(config.sinr_threshold_db,
                               config.noise_floor_dbm),
            interference=config.interference,
            fading=fading,
            rng=rng,
        )


def node_radio_offsets(config: SinrConfig, n_nodes: int, seed: int):
    """Per-node heterogeneous radio gains, deterministic in ``seed``.

    Returns ``(tx_offset_dbm, rx_gain_dbm)`` float arrays -- or
    ``(None, None)`` when every node is identical (the homogeneous path
    stays free of per-link add passes).

    A node's transmit-side offset is its tx-power jitter plus its
    antenna gain; its receive-side gain is the antenna gain again
    (antennas are reciprocal). Each node's draws come from
    ``derive_seed(seed, "sinr-radio", i)``.
    """
    if not (config.tx_power_jitter_db or config.antenna_gain_db
            or config.antenna_gain_jitter_db):
        return None, None
    tx = np.empty(n_nodes, dtype=float)
    rx = np.empty(n_nodes, dtype=float)
    for i in range(n_nodes):
        rng = random.Random(derive_seed(seed, "sinr-radio", i))
        jitter = (rng.uniform(-config.tx_power_jitter_db,
                              config.tx_power_jitter_db)
                  if config.tx_power_jitter_db else 0.0)
        gain = config.antenna_gain_db
        if config.antenna_gain_jitter_db:
            gain += rng.uniform(-config.antenna_gain_jitter_db,
                                config.antenna_gain_jitter_db)
        tx[i] = jitter + gain
        rx[i] = gain
    return tx, rx


def wire_sinr(config: SinrConfig, phy: PhyParams, n_nodes: int,
              seed: int) -> SinrWiring:
    """Assemble the propagation model + link spec for one scenario run."""
    from repro.phy.neighbors import LinkPowerSpec

    if config.propagation == "unitdisk":
        # The paper's geometry, SINR reception on top: links keep the
        # classic distance-threshold path (constant in-range power).
        model: PropagationModel = UnitDiskModel(phy.radio_range)
        return SinrWiring(config, model, None, None)

    kwargs = dict(
        tx_power_dbm=config.tx_power_dbm,
        path_loss_exponent=config.path_loss_exponent,
        rx_threshold_dbm=config.rx_threshold_dbm,
        cs_threshold_dbm=config.cs_threshold_dbm,
    )
    if config.propagation == "shadowing":
        model = LogDistanceShadowing(
            shadowing_sigma_db=config.shadowing_sigma_db,
            seed=derive_seed(seed, "sinr-shadow"),
            **kwargs,
        )
        shadow_headroom = model.max_shadow_db()
    else:
        model = LogDistanceModel(**kwargs)
        shadow_headroom = 0.0

    tx_offset, rx_gain = node_radio_offsets(config, n_nodes, seed)
    headroom = shadow_headroom
    if tx_offset is not None:
        headroom += max(float(tx_offset.max()), 0.0)
        headroom += max(float(rx_gain.max()), 0.0)
    cutoff = config.effective_cutoff_dbm()
    prune_range = model.range_for_threshold(cutoff - headroom)
    spec = LinkPowerSpec(
        rx_threshold_dbm=config.rx_threshold_dbm,
        cs_threshold_dbm=config.cs_threshold_dbm,
        keep_threshold_dbm=cutoff,
        prune_range=prune_range,
        tx_offset_dbm=tx_offset,
        rx_gain_dbm=rx_gain,
    )
    return SinrWiring(config, model, spec, config.cs_threshold_dbm)
