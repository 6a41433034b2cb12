"""Full-stack network assembly from a scenario description.

A :class:`ScenarioConfig` describes one experiment run exactly as
Section 4.1 does: node count, plain, radio range, mobility setting,
MAC protocol under test, source rate, packet count, seed.
:func:`build_network` wires placement -> mobility -> PHY -> MAC ->
BLESS -> multicast app -> metrics, and :meth:`Network.run` executes the
run and returns the :class:`~repro.metrics.summary.RunSummary`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.core.config import RmacConfig
from repro.core.rmac import RmacProtocol
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.mac.base import MacProtocol
from repro.mac.bmmm import BmmmProtocol
from repro.mac.bmw import BmwProtocol
from repro.mac.dot11 import Dot11Config
from repro.mac.lamm import LammProtocol
from repro.mac.lbp import LbpProtocol
from repro.mac.mx import MxProtocol
from repro.metrics.collectors import MetricsCollector
from repro.metrics.summary import RunSummary, summarize
from repro.mobility.base import MobilityProvider
from repro.mobility.waypoint import RandomWaypointModel
from repro.net.bless import BlessConfig
from repro.net.multicast import MulticastConfig
from repro.net.stack import NetworkLayer
from repro.oracle import InvariantOracle
from repro.phy.error import NoErrors, UniformBitErrors, error_model_from_dict
from repro.phy.neighbors import StaticPositions
from repro.phy.params import DEFAULT_PHY
from repro.phy.sinr import SinrConfig
from repro.sim.rng import derive_seed
from repro.sim.trace import NullBuffer, Tracer
from repro.sim.units import SEC
from repro.world.placement import random_placement
from repro.world.testbed import MacTestbed


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment run (defaults follow Section 4.1)."""

    protocol: str = "rmac"
    n_nodes: int = 75
    width: float = 500.0
    height: float = 300.0
    radio_range: float = 75.0
    #: "stationary", or random waypoint with the speeds below.
    mobile: bool = False
    min_speed: float = 0.0
    max_speed: float = 4.0
    pause_s: float = 10.0
    rate_pps: float = 10.0
    n_packets: int = 200
    payload_bytes: int = 500
    seed: int = 1
    warmup_s: float = 5.0
    #: Extra time after the last source emission for in-flight packets.
    drain_s: float = 5.0
    #: BLESS heartbeat period and neighbor expiry (calibrated defaults:
    #: see :class:`~repro.net.bless.BlessConfig`).
    bless_period_s: float = BlessConfig.period / SEC
    bless_expiry_s: float = BlessConfig.expiry / SEC
    require_connected: bool = True
    #: Uniform bit-error rate on the data channel (0 = collision-only
    #: losses, the paper's setting). Section 3.4 notes the MRTS cap
    #: "can be further reduced in case of high error bit rate";
    #: ``tests/integration/test_error_channel.py`` sweeps this.
    ber: float = 0.0
    #: Protocol-config overrides (e.g. {"retry_limit": 4}).
    mac_overrides: dict = field(default_factory=dict)
    #: Optional fault-injection plan (crashes, fades, corruption windows,
    #: replacement error model). Part of the config -- and therefore of
    #: the result store's config_hash -- so faulted campaign points
    #: resume exactly like fault-free ones.
    faults: Optional[FaultPlan] = None
    #: Attach the protocol invariant oracle to the run (violations
    #: surface in the RunSummary).
    oracle: bool = False
    #: Optional SINR interference subsystem (see repro.phy.sinr):
    #: accumulated-power reception, shadowing/fading propagation,
    #: heterogeneous radios. ``None`` (the threshold path) keeps every
    #: channel hot path on one ``is None`` test.
    sinr: Optional[SinrConfig] = None

    #: Float-typed fields coerced in __post_init__ so a config built
    #: with ``rate_pps=10`` hashes and compares identically to one
    #: built with ``rate_pps=10.0`` (the result store keys points by a
    #: hash of the whole config).
    _FLOAT_FIELDS = ("width", "height", "radio_range", "min_speed",
                     "max_speed", "pause_s", "rate_pps", "warmup_s",
                     "drain_s", "bless_period_s", "bless_expiry_s", "ber")

    #: Fields only a mobile run reads.
    _MOBILITY_FIELDS = ("min_speed", "max_speed", "pause_s")

    def __post_init__(self):
        for name in self._FLOAT_FIELDS:
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        if not self.mobile:
            for name in self._MOBILITY_FIELDS:
                if getattr(self, name) != self.__dataclass_fields__[name].default:
                    raise ValueError(
                        f"{name} is not read by a stationary run "
                        f"(mobile=False); leave it at its default")
        if (self.ber and self.faults is not None
                and self.faults.error_model is not None):
            raise ValueError("ber is not read when the fault plan replaces "
                             "the error model; leave it at 0")

    def variant(self, **changes) -> "ScenarioConfig":
        """A copy with fields replaced (sweep helper)."""
        return replace(self, **changes)


#: MAC factory registry: name -> (node_id, testbed, rng, overrides) -> MAC.
MacFactory = Callable[[int, MacTestbed, random.Random, dict], MacProtocol]

PROTOCOLS: Dict[str, MacFactory] = {}


def register_protocol(name: str, factory: MacFactory) -> None:
    """Register a MAC protocol for use in scenarios (plug-in point)."""
    PROTOCOLS[name] = factory


def _make_rmac(node_id: int, tb: MacTestbed, rng: random.Random, overrides: dict):
    config = RmacConfig(**overrides)
    return RmacProtocol(node_id, tb.sim, tb.radios[node_id], rng, config, tracer=tb.tracer)


def _dot11_family(cls):
    def factory(node_id: int, tb: MacTestbed, rng: random.Random, overrides: dict):
        config = Dot11Config(**overrides)
        return cls(node_id, tb.sim, tb.radios[node_id], rng, config, tracer=tb.tracer)

    return factory


# Plain DCF (``Dot11Dcf``) is not registered: it has no reliable
# multicast, so the multicast network stack cannot run on it.
register_protocol("rmac", _make_rmac)
register_protocol("bmmm", _dot11_family(BmmmProtocol))
register_protocol("bmw", _dot11_family(BmwProtocol))
register_protocol("lamm", _dot11_family(LammProtocol))
register_protocol("lbp", _dot11_family(LbpProtocol))
register_protocol("mx", _dot11_family(MxProtocol))


class Network:
    """A fully wired simulated network, ready to run.

    ``tracer`` overrides the testbed's default, disabled tracer: it is
    the one way to ask a run for a trace (``Tracer(enabled=True)``, or a
    bounded-memory backend such as ``RingBuffer`` or ``JsonlTraceSink``
    on long traced runs). A trace never changes the run.
    """

    def __init__(self, config: ScenarioConfig, tracer: Optional[Tracer] = None):
        if config.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {config.protocol!r}; "
                f"registered: {sorted(PROTOCOLS)}"
            )
        self.config = config
        master = random.Random(derive_seed(config.seed, "placement"))
        self.coords = random_placement(
            config.n_nodes,
            config.width,
            config.height,
            master,
            radio_range=config.radio_range,
            require_connected=config.require_connected,
        )
        if config.mobile:
            models = []
            for i, (x, y) in enumerate(self.coords):
                leg_rng = random.Random(derive_seed(config.seed, "waypoint", i))
                models.append(
                    RandomWaypointModel(
                        x,
                        y,
                        config.width,
                        config.height,
                        config.min_speed,
                        config.max_speed,
                        config.pause_s,
                        leg_rng,
                    )
                )
            provider = MobilityProvider(models)
        else:
            provider = StaticPositions(self.coords)
        phy = replace(DEFAULT_PHY, radio_range=config.radio_range)
        plan = config.faults
        if plan is not None and plan.error_model is not None:
            # Rebuild from parameters so a stateful model (GilbertElliott)
            # starts fresh every run: replays stay bit-identical even when
            # one FaultPlan instance is shared across sweep points.
            error_model = error_model_from_dict(plan.error_model.to_dict())
        elif config.ber:
            error_model = UniformBitErrors(config.ber)
        else:
            error_model = NoErrors()
        injector = FaultInjector(plan) if plan else None
        if config.oracle and tracer is None:
            # The oracle needs the trace stream but the run did not ask
            # for a trace: enable one that retains nothing.
            tracer = Tracer(enabled=True, buffer=NullBuffer())
        self.testbed = MacTestbed(
            provider=provider,
            n_nodes=config.n_nodes,
            phy=phy,
            seed=config.seed,
            error_model=error_model,
            tracer=tracer,
            faults=injector,
            sinr=config.sinr,
        )
        tb = self.testbed
        self.oracle: Optional[InvariantOracle] = (
            InvariantOracle().attach(tb.tracer) if config.oracle else None
        )
        factory = PROTOCOLS[config.protocol]
        self.macs: List[MacProtocol] = tb.build_macs(
            lambda i, t: factory(i, t, t.node_rng(i), config.mac_overrides)
        )
        self.metrics = MetricsCollector()
        bless_config = BlessConfig(
            period=round(config.bless_period_s * SEC),
            expiry=round(config.bless_expiry_s * SEC),
        )
        mc_config = MulticastConfig(
            rate_pps=config.rate_pps,
            n_packets=config.n_packets,
            payload_bytes=config.payload_bytes,
            start_time=round(config.warmup_s * SEC),
        )
        self.layers: List[NetworkLayer] = [
            NetworkLayer(
                i,
                tb.sim,
                self.macs[i],
                bless_config,
                mc_config,
                tb.rngs.stream("net", i),
                metrics=self.metrics,
            )
            for i in range(config.n_nodes)
        ]
        for layer in self.layers:
            layer.start()
        self._mc_config = mc_config

    @property
    def sim(self):
        return self.testbed.sim

    def run(self) -> RunSummary:
        """Run warm-up + traffic + drain and summarize."""
        end = self._mc_config.traffic_end + round(self.config.drain_s * SEC)
        self.sim.run(until=end)
        if self.oracle is not None:
            self.oracle.finish()
        self.testbed.tracer.close()
        return self.summary()

    def summary(self) -> RunSummary:
        sinr_state = self.testbed.sinr_state
        return summarize(
            self.config.protocol,
            self.metrics,
            [mac.stats for mac in self.macs],
            oracle=self.oracle.report() if self.oracle is not None else None,
            sinr=sinr_state.stats() if sinr_state is not None else None,
        )


def build_network(config: ScenarioConfig, tracer: Optional[Tracer] = None) -> Network:
    """Convenience constructor (the public API entry point).

    ``tracer`` overrides the testbed's default tracer (see
    :class:`Network`). Everything that shapes the run lives in
    ``config``, so the scenario hash identifies every recorded result.
    """
    return Network(config, tracer=tracer)
