"""The benchmark's workloads.

A workload is a scenario factory plus a number of placements. One *pass*
builds and runs the scenario once per placement, each with its own seed,
so a pass averages over random topologies the way the paper averages
over ten placements per point. The seeds of a pass come from the
benchmark seed alone (:meth:`Workload.seeds`).

The factories import ``repro`` when called, so ``run.py`` can list the
workloads without importing the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class Workload:
    name: str
    #: Placements per pass.
    placements: int
    #: placement seed -> ScenarioConfig
    scenario: Callable[[int], object]

    def seeds(self, seed: int) -> List[int]:
        """The placement seeds of one pass; disjoint across benchmark seeds."""
        return [seed * 1000 + i for i in range(self.placements)]

    def warm_up(self):
        """A 12-node variant of the workload, run untimed before a pass so
        lazy imports and first-call costs stay out of the timings."""
        return self.scenario(2).variant(
            n_nodes=12, width=200.0, height=140.0, rate_pps=5.0, n_packets=10)


def _static_rmac_75(seed: int):
    # The paper's Section 4.1 network on the threshold reception path with
    # frozen static link tables: kernel, RMAC and busy tones do the work.
    from repro.experiments.scenarios import paper_scenario

    return paper_scenario("rmac", "stationary", 40, seed, n_packets=30)


def _mobile_bmmm_75(seed: int):
    # The same network under BMMM: per-receiver RTS/CTS/DATA/RAK/ACK, no
    # busy tones, and mobility refreshing link tables every 50 ms window.
    from repro.experiments.scenarios import paper_scenario

    return paper_scenario("bmmm", "speed2", 20, seed, n_packets=12)


def _sinr_rmac_75(seed: int):
    # The static RMAC network with accumulated-power SINR reception under
    # lognormal shadowing. tx_power_dbm=27.5 puts the rx edge at the
    # paper's 75 m (EXPERIMENTS.md); at the preset's 15 dBm the edge is
    # ~27 m and most placements deliver almost nothing.
    from repro.experiments.scenarios import paper_scenario, sinr_preset

    return paper_scenario("rmac", "stationary", 40, seed, n_packets=8).variant(
        sinr=sinr_preset("shadowing", tx_power_dbm=27.5))


def _waypoint_rmac_1000(seed: int):
    # The 1000-node random-waypoint scaling point at the paper's density:
    # link-table rebuilds, BLESS heartbeats, set-up and memory dominate;
    # MAC contention is light. Simulated time is kept to 2.5 s so a pass
    # holds four placements with a calibration between each (see run.py).
    from repro.world.network import ScenarioConfig

    return ScenarioConfig(
        protocol="rmac", n_nodes=1000, width=1600.0, height=1000.0,
        mobile=True, rate_pps=2.0, n_packets=2, warmup_s=1.2, drain_s=0.3,
        seed=seed)


def _tiny_rmac_12(seed: int):
    from repro.world.network import ScenarioConfig

    return ScenarioConfig(n_nodes=12, width=200.0, height=140.0,
                          rate_pps=5.0, n_packets=10, seed=seed)


#: The benchmark workloads, in the order a full run interleaves them.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("static-rmac-75", 8, _static_rmac_75),
        Workload("mobile-bmmm-75", 6, _mobile_bmmm_75),
        Workload("sinr-rmac-75", 5, _sinr_rmac_75),
        Workload("waypoint-rmac-1000", 4, _waypoint_rmac_1000),
    )
}

#: A sub-second workload for the benchmark's own tests; not benchmarked.
TINY = Workload("tiny-rmac-12", 2, _tiny_rmac_12)

#: Every workload a child process can run.
ALL_WORKLOADS: Dict[str, Workload] = {**WORKLOADS, TINY.name: TINY}
