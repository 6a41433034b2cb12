"""Protocol-level assembly for tests, examples and MAC-only benchmarks.

A :class:`MacTestbed` wires a simulator, the data channel, the RBT/ABT
busy-tone channels and one radio per node from a set of coordinates (or a
mobility-driven position provider), then builds MAC instances on request.
It is the smallest thing that can run a real RMAC/BMMM exchange; the full
network stack (routing tree + multicast application) composes on top in
:mod:`repro.world.network`.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.phy.busytone import BusyToneChannel, ToneType
from repro.phy.channel import DataChannel
from repro.phy.error import BitErrorModel
from repro.phy.neighbors import (LinkPowerSpec, NeighborService,
                                 PositionProvider, StaticPositions)
from repro.phy.params import DEFAULT_PHY, PhyParams
from repro.phy.propagation import PropagationModel, UnitDiskModel
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.injector import FaultInjector
    from repro.phy.sinr import SinrConfig, SinrState


class MacTestbed:
    """Simulator + channels + one radio per node."""

    def __init__(
        self,
        coords: Optional[Sequence[Sequence[float]]] = None,
        *,
        provider: Optional[PositionProvider] = None,
        n_nodes: Optional[int] = None,
        phy: PhyParams = DEFAULT_PHY,
        error_model: Optional[BitErrorModel] = None,
        seed: int = 1,
        tracer: Optional[Tracer] = None,
        faults: Optional["FaultInjector"] = None,
        sinr: Optional["SinrConfig"] = None,
    ):
        if provider is None:
            if coords is None:
                raise ValueError("give either coords or a position provider")
            provider = StaticPositions(coords)
            n_nodes = len(coords)
        if n_nodes is None:
            raise ValueError("n_nodes is required with a custom provider")
        self.n_nodes = n_nodes
        self.phy = phy
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        #: ``Tracer(enabled=True)`` (with any backend, e.g. a RingBuffer
        #: or JsonlTraceSink) asks for a trace; by default none is kept.
        self.tracer = tracer if tracer is not None else Tracer()
        #: SINR subsystem (see repro.phy.sinr): the wiring supplies the
        #: propagation model and the link spec; the per-run channel state
        #: (recent transmissions, counters) hangs off the data channel.
        #: Without it, links are the paper's unit disk.
        self.sinr_state: Optional["SinrState"] = None
        if sinr is not None:
            from repro.phy.sinr import wire_sinr

            wiring = wire_sinr(sinr, phy, n_nodes, seed)
            model: PropagationModel = wiring.model
            power_spec = wiring.power_spec
            self.sinr_state = wiring.build_state(self.rngs.stream("fading"))
        else:
            model = UnitDiskModel(phy.radio_range)
            power_spec = LinkPowerSpec.unit_disk(phy.radio_range)
        self.neighbors = NeighborService(provider, model, power_spec)
        #: Optional fault injector shared by the data and tone channels.
        self.faults = faults
        self.data_channel = DataChannel(
            self.sim,
            self.neighbors,
            phy,
            error_model=error_model,
            rng=self.rngs.stream("channel"),
            tracer=self.tracer,
            faults=faults,
            sinr=self.sinr_state,
        )
        self.tones: Dict[ToneType, BusyToneChannel] = {
            tone: BusyToneChannel(
                self.sim, self.neighbors, tone, detect_time=phy.cca_time,
                tracer=self.tracer, faults=faults,
            )
            for tone in ToneType
        }
        self.radios: List[Radio] = [
            Radio(i, self.data_channel, self.tones) for i in range(n_nodes)
        ]
        self.macs: List[object] = [None] * n_nodes

    def node_rng(self, node_id: int) -> random.Random:
        """The deterministic backoff RNG stream for one node."""
        return self.rngs.stream("mac", node_id)

    def build_macs(self, factory: Callable[[int, "MacTestbed"], object]) -> List[object]:
        """Construct one MAC per node via ``factory(node_id, testbed)``."""
        self.macs = [factory(i, self) for i in range(self.n_nodes)]
        for mac in self.macs:
            mac.start()  # type: ignore[attr-defined]
        return self.macs

    def run(self, until: int) -> int:
        """Run the simulation until ``until`` ns."""
        return self.sim.run(until=until)
