"""SINR interference subsystem: accumulated-power reception.

The paper evaluates RMAC in GloMoSim's fixed-range threshold world: a
frame is corrupted iff another sensed transmission overlaps it at the
receiver. That model cannot express the two effects busy tones exist to
fight -- *hidden interference* (a transmitter outside carrier-sense
range still injects energy) and *capture* (a strong frame surviving a
weak overlap). This module replaces the boolean overlap rule with a
power-domain one:

* an :class:`SinrReceptionModel` decides decode/corrupt at arrival end
  from the signal-to-interference-plus-noise ratio against a threshold;
* a :class:`SinrState` supplies that ratio's inputs by *replaying* the
  reception's window from the recent transmissions
  (:meth:`SinrState.replay`): the concurrent in-air power at the
  receiver, accumulated in the mW domain with the float operations of a
  running per-node sum, and its peak over the window;
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
:class:`SinrState` is the data channel's only optional reception stage.
The channel tells it when each transmission starts and ends, with the
seqs its arrivals take in the event order
(:meth:`SinrState.start` / :meth:`SinrState.end`), and asks it for a
decode's signal and peak interference at arrival end. No arrival event
calls into it, so links that only interfere need no events at all. A
transmission's record, :class:`TxArrivals`, is the
:class:`~repro.phy.neighbors.Emission` a busy tone keeps too, over the
sender's whole :class:`~repro.phy.neighbors.LinkView`, with the stage's
bookkeeping on top.

Determinism: shadowing draws hang off ``derive_seed(seed, ...)`` per
node pair, radio jitter per node, and fading off a dedicated RNG stream,
drawn lazily but in the order of the arrival starts' positions --
identical seeds give bit-identical runs, and
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
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.phy.neighbors import Emission, LinkPowerSpec, LinkView
from repro.phy.params import PhyParams
from repro.phy.propagation import (
    LogDistanceModel,
    LogDistanceShadowing,
    PropagationModel,
    UnitDiskModel,
)
from repro.sim.rng import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sim.engine import Simulator


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
    #: When False concurrent power is not accounted: the classic
    #: all-overlaps-collide rule applies and SINR reduces to a
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
    """Per-run interference statistics (``RunSummary.sinr``)."""

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


class TxArrivals(Emission):
    """One transmission's arrivals, as the SINR stage replays them: an
    :class:`~repro.phy.neighbors.Emission` over the table's whole view,
    interference-only links included, with the stage's bookkeeping."""

    __slots__ = ("anchor", "signals", "drawn", "counted")

    def __init__(self, view: LinkView, start: int, seq: int):
        super().__init__(view, start, seq)
        #: The earliest start among the transmissions on the air or still
        #: propagating when this one started (see SinrState.start).
        self.anchor = start
        #: With fading: arrival powers in mW, gains included, as drawn.
        self.signals: Optional[List[float]] = None
        #: How many arrivals have drawn their fading gain.
        self.drawn = 0
        #: True once every arrival start has been counted for the high
        #: water mark.
        self.counted = False

    def signal(self, k: int) -> float:
        """Arrival ``k``'s power in mW (with its fading gain, once drawn)."""
        signals = self.signals
        if signals is not None:
            return signals[k]
        return self.view.power_mw(k)


class SinrState:
    """Everything the :class:`~repro.phy.channel.DataChannel` needs for
    SINR reception: the decision model, the optional fading sampler and
    its RNG stream, the counters, and the recent transmissions a decode
    replays.

    The channel reports each transmission's start (:meth:`start`) and
    end (:meth:`end`) with the seqs its arrivals take, and asks for a
    reception's signal and peak interference only when the reception
    ends otherwise intact (:meth:`replay`). No arrival event calls in.
    """

    __slots__ = ("reception", "interference", "fading", "rng", "counters",
                 "high_water", "_sim", "_recent", "_undrawn", "_deferred")

    def __init__(
        self,
        reception: SinrReceptionModel,
        interference: bool = True,
        fading=None,
        rng: Optional[random.Random] = None,
    ):
        self.reception = reception
        self.interference = interference
        self.fading = fading
        self.rng = rng if rng is not None else random.Random(0)
        self.counters = SinrCounters()
        #: The most signals ever concurrently in the air at one node
        #: (a counter; stays 0 without interference accounting).
        self.high_water = 0
        self._sim: Optional["Simulator"] = None
        #: Transmissions whose arrivals a later replay may read, in
        #: start order (interference accounting only).
        self._recent: List[TxArrivals] = []
        #: Transmissions with arrivals whose fading gain is not drawn yet.
        self._undrawn: List[TxArrivals] = []
        #: Ended transmissions with arrival starts not yet counted for
        #: the high water mark (a frame aborted before every start).
        self._deferred: List[TxArrivals] = []

    def bind(self, sim: "Simulator") -> None:
        """Read positions against ``sim``'s ``(now, now_seq)``."""
        self._sim = sim

    def start(self, view: LinkView, seq: int) -> TxArrivals:
        """A transmission starts now; its arrivals took the seqs from ``seq``.

        Its anchor is the earliest start among the transmissions still on
        the air or still propagating (itself included). A signal that is
        live when one of its receptions starts began at or after that
        anchor, so a removal before every live transmission's anchor can
        no longer change a replay: a finished transmission whose last
        arrival ended before all of them is dropped. Transmissions not
        yet counted for the high water mark keep theirs in force.
        """
        sim = self._sim
        now = sim.now  # type: ignore[union-attr]
        air = TxArrivals(view, now, seq)
        if self.fading is not None:
            if self._undrawn:
                self._draw(now, sim.now_seq)  # type: ignore[union-attr]
            air.signals = [0.0] * len(view.delays)
            self._undrawn.append(air)
        if not self.interference:
            # Decodes then read the reception's own signal only.
            return air
        recent = self._recent
        anchor = floor = oldest = now
        for other in recent:
            end = other.end
            if end is None or end + other.view.span >= now:
                if anchor == now:
                    anchor = other.start  # the first live one, by start order
            elif other.counted:
                if end + other.view.span < oldest:
                    oldest = end + other.view.span
                continue
            if other.anchor < floor:
                floor = other.anchor
        air.anchor = anchor
        if oldest < floor:
            recent[:] = [other for other in recent if other.end is None
                         or other.end + other.view.span >= floor]
        recent.append(air)
        return air

    def end(self, air: TxArrivals, end_seq: int) -> None:
        """``air``'s transmission ends now (or is aborted); its arrivals'
        ends took the seqs from ``end_seq``. Counts its arrival starts for
        the high water mark once they have all passed."""
        sim = self._sim
        air.end = sim.now  # type: ignore[union-attr]
        air.end_seq = end_seq
        if not self.interference:
            return
        now = sim.now  # type: ignore[union-attr]
        now_seq = sim.now_seq  # type: ignore[union-attr]
        deferred = self._deferred
        if deferred:
            deferred[:] = [other for other in deferred
                           if not self._count(other, now, now_seq)]
        if not self._count(air, now, now_seq):
            deferred.append(air)

    def _count(self, air: TxArrivals, now: int, now_seq: int) -> bool:
        """Raise the high water mark to the signals live at each of
        ``air``'s arrival starts up to ``(now, now_seq)``: the arrival
        itself plus the other transmissions' arrivals at its node that
        started before it and had not ended. True (and ``air`` counted)
        once every start has passed.

        Only transmissions that overlap ``air``'s start window can be
        live there; when there are no more of them than the high water
        mark, no start can raise it.
        """
        view = air.view
        delays = view.delays
        n = len(delays)
        start = air.start
        seq0 = air.seq
        last = start + view.span
        done = not n or air.started(n - 1, now, now_seq)
        others = [other for other in self._recent if other is not air
                  and other.start <= last and (other.end is None
                  or other.end + other.view.span >= start)]
        high = self.high_water
        if len(others) >= high:
            links = view.links
            for k in range(n):
                if not air.started(k, now, now_seq):
                    break
                time = start + delays[k]
                seq = seq0 + k
                node = links[k].node
                live = 1
                for other in others:
                    j = other.view.index.get(node)
                    if j is not None and other.live(j, time, seq):
                        live += 1
                if live > high:
                    high = live
            self.high_water = high
        air.counted = done
        return done

    def _draw(self, now: int, now_seq: int) -> None:
        """Draw the fading gain of every arrival that has started by
        ``(now, now_seq)``, in the order of their start positions: one
        draw per arrival, interference-only ones included, from one
        stream, as if each start drew when it passed."""
        due = []
        pending = []
        for air in self._undrawn:
            delays = air.view.delays
            n = len(delays)
            start = air.start
            seq = air.seq
            k = air.drawn
            while k < n and air.started(k, now, now_seq):
                due.append((start + delays[k], seq + k, air, k))
                k += 1
            air.drawn = k
            if k < n:
                pending.append(air)
        self._undrawn = pending
        if due:
            # Positions are unique, so the sort never compares past them.
            due.sort()
            gain = self.fading.gain
            rng = self.rng
            for _, _, air, k in due:
                air.signals[k] = air.view.power_mw(k) * gain(rng)  # type: ignore[index]

    def replay(self, air: TxArrivals, node: int) -> Tuple[float, float]:
        """``(signal_mw, peak_interference_mw)`` of ``air``'s arrival at
        ``node``, which ends now.

        Replays the node's running interference sum over the reception's
        window, float operation for float operation: each start adds its
        power to the running total, each end re-sums the live signals
        with ``math.fsum``. The total at the reception's
        start is the ``fsum`` at the last removal before it, plus each
        signal added since; a start inside the window raises the peak if
        ``total - signal`` exceeds it.
        """
        sim = self._sim
        now = sim.now  # type: ignore[union-attr]
        if self.fading is not None:
            self._draw(now, sim.now_seq)  # type: ignore[union-attr]
        view = air.view
        k = view.index[node]
        signal = air.signal(k)
        if not self.interference:
            return signal, 0.0
        delay = view.delays[k]
        lo = (air.start + delay, air.seq + k)
        hi = (air.end + delay, air.end_seq + k)  # type: ignore[operator]
        last_removal = (-1, -1)
        before = []  # (start, power, arrival) of the signals live at lo
        edges = []   # (position, power, arrival); power None at an end
        for other in self._recent:
            j = other.view.index.get(node)
            if j is None or other is air:
                continue
            delay = other.view.delays[j]
            begin = (other.start + delay, other.seq + j)
            if begin > hi:
                continue
            end = other.end
            finish = None if end is None else (end + delay, other.end_seq + j)
            if finish is not None and finish < lo:
                if finish > last_removal:
                    last_removal = finish
                continue
            power = other.signal(j)
            if begin < lo:
                before.append((begin, power, other))
            else:
                edges.append((begin, power, other))
            if finish is not None and finish < hi:
                edges.append((finish, None, other))
        # Positions are unique, so sorts never compare past them.
        before.sort()
        total = math.fsum([entry[1] for entry in before
                           if entry[0] < last_removal])
        for begin, power, _ in before:
            if begin > last_removal:
                total += power
        total += signal
        peak = total - signal
        if edges:
            live = {other: power for _, power, other in before}
            live[air] = signal
            edges.sort()
            for _, power, other in edges:
                if power is None:
                    del live[other]
                    total = math.fsum(live.values())
                else:
                    live[other] = power
                    total += power
                    itf = total - signal
                    if itf > peak:
                        peak = itf
        return signal, peak

    def stats(self) -> dict:
        """JSON-serializable per-run stats (``RunSummary.sinr``).

        A run cut at a horizon may leave arrival starts uncounted for
        the high water mark; they are counted here, up to the current
        position.
        """
        sim = self._sim
        if self.interference and sim is not None:
            for air in self._recent:
                if not air.counted:
                    self._count(air, sim.now, sim.now_seq)
        counters = self.counters
        delivered = counters.delivered
        return {
            "sinr_dropped": counters.dropped,
            "delivered": delivered,
            "mean_sinr_db": (counters.sum_sinr_db / delivered
                             if delivered else None),
            "min_sinr_db": counters.min_sinr_db,
            "concurrent_high_water": self.high_water,
        }
@dataclass
class SinrWiring:
    """The assembled pieces :class:`~repro.world.testbed.MacTestbed`
    plugs into the PHY stack."""

    config: SinrConfig
    model: PropagationModel
    #: Power-domain link-building spec (None for unitdisk propagation,
    #: which keeps the classic distance-threshold link path).
    power_spec: Optional[LinkPowerSpec]

    def build_state(self, rng: Optional[random.Random] = None) -> SinrState:
        """A fresh per-run channel state (counters start empty)."""
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
    if config.propagation == "unitdisk":
        # The paper's geometry, SINR reception on top: links keep the
        # classic distance-threshold path (constant in-range power).
        model: PropagationModel = UnitDiskModel(phy.radio_range)
        return SinrWiring(config, model, None)

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
    return SinrWiring(config, model, spec)
