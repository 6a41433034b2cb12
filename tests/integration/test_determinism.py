"""Bit-for-bit reproducibility from a seed."""

import hashlib
from dataclasses import asdict

import pytest

from repro.experiments.bench import METRIC_FIELDS
from repro.experiments.scenarios import sinr_preset
from repro.faults.plan import CorruptionWindow, FaultPlan, LinkFade, NodeCrash
from repro.sim.trace import TraceBuffer, TraceEvent, Tracer
from repro.world.network import ScenarioConfig, build_network

SMALL = dict(n_nodes=14, width=220, height=150, rate_pps=10, n_packets=15,
             warmup_s=3.0, drain_s=2.0)


def fingerprint(summary):
    return tuple(sorted(asdict(summary).items()))


def test_same_seed_identical_summary():
    a = build_network(ScenarioConfig(protocol="rmac", seed=5, **SMALL)).run()
    b = build_network(ScenarioConfig(protocol="rmac", seed=5, **SMALL)).run()
    assert fingerprint(a) == fingerprint(b)


def test_same_seed_identical_event_counts():
    net_a = build_network(ScenarioConfig(protocol="rmac", seed=5, **SMALL))
    net_a.run()
    net_b = build_network(ScenarioConfig(protocol="rmac", seed=5, **SMALL))
    net_b.run()
    assert net_a.sim.events_processed == net_b.sim.events_processed


def test_different_seed_different_placement():
    net_a = build_network(ScenarioConfig(protocol="rmac", seed=5, **SMALL))
    net_b = build_network(ScenarioConfig(protocol="rmac", seed=6, **SMALL))
    assert net_a.coords != net_b.coords


def test_mobile_runs_reproducible():
    config = ScenarioConfig(protocol="bmmm", seed=9, mobile=True,
                            max_speed=8.0, pause_s=5.0, **SMALL)
    a = build_network(config).run()
    b = build_network(config).run()
    assert fingerprint(a) == fingerprint(b)


def test_trace_identical_for_same_seed():
    config = ScenarioConfig(protocol="rmac", seed=7, trace=True, **SMALL)
    net_a = build_network(config)
    net_a.run()
    net_b = build_network(config)
    net_b.run()
    trace_a = [(e.time, e.node, e.kind) for e in net_a.testbed.tracer.events]
    trace_b = [(e.time, e.node, e.kind) for e in net_b.testbed.tracer.events]
    assert trace_a == trace_b


class HashBuffer(TraceBuffer):
    """Streams every trace event into a SHA-256; keeps nothing."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._count = 0

    def append(self, event: TraceEvent) -> None:
        self._hash.update(event.to_json().encode())
        self._hash.update(b"\n")
        self._count += 1

    def snapshot(self):
        return []

    def __len__(self) -> int:
        return self._count

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


#: Pinned outcomes of five small runs: static RMAC and BMMM on the
#: paper's unit-disk reception, RMAC under SINR reception with shadowing
#: and Rayleigh fading, BMMM under injected faults, and mobile RMAC
#: (random waypoint, so link tables are rebuilt per position bucket,
#: both in one batched pass and sender by sender). Unlike the
#: same-commit comparisons above, these hold across commits: a change
#: that claims to leave behavior alone must reproduce every value
#: exactly. A deliberate behavior change re-pins them and says why.
GOLDEN = {
    "rmac": dict(
        config=dict(protocol="rmac", seed=5),
        events=11942,
        trace_events=5638,
        trace_sha256="31d1358818e69412a35c64e876a8cd0c"
                     "1bc311c558a1311706acf0073894ee98",
        metrics=dict(
            delivery_ratio=1.0, avg_delay_s=0.007006294943589743,
            max_delay_s=0.013494324, avg_drop_ratio=0.0,
            avg_retx_ratio=0.0, avg_txoh_ratio=0.1871947496947497,
            mrts_len_avg=25.0, mrts_len_max=36.0, abort_avg=0.0,
            n_generated=15, total_deliveries=195, total_drops=0,
            total_retransmissions=0),
    ),
    "bmmm": dict(
        config=dict(protocol="bmmm", seed=3),
        events=19306,
        trace_events=7814,
        trace_sha256="310a9637ac923944fcc2ee81f373e8dc"
                     "8a8310dade193b690555dbfe69b7d147",
        metrics=dict(
            delivery_ratio=1.0, avg_delay_s=0.009939419871794872,
            max_delay_s=0.02140899, avg_drop_ratio=0.0,
            avg_retx_ratio=0.0, avg_txoh_ratio=0.9731884057971015,
            mrts_len_avg=None, mrts_len_max=None, abort_avg=None,
            n_generated=15, total_deliveries=195, total_drops=0,
            total_retransmissions=0),
    ),
    "rmac-sinr": dict(
        config=dict(protocol="rmac", seed=5,
                    sinr=sinr_preset("fading", tx_power_dbm=27.5)),
        events=27465,
        trace_events=7158,
        trace_sha256="4bb06e6cd673edaeb72b41b8532fad8b"
                     "d12aef630076d38d147b2e076556cc82",
        metrics=dict(
            delivery_ratio=1.0, avg_delay_s=0.008499538435897435,
            max_delay_s=0.023236563, avg_drop_ratio=0.0,
            avg_retx_ratio=0.2476190476190476,
            avg_txoh_ratio=0.19711254027251926,
            mrts_len_avg=22.900763358778626, mrts_len_max=42.0,
            abort_avg=0.0716953448045885, n_generated=15,
            total_deliveries=195, total_drops=0, total_retransmissions=26),
        sinr=dict(
            concurrent_high_water=3, delivered=1678,
            mean_sinr_db=29.29965442435093, min_sinr_db=10.193546019598221,
            sinr_dropped=92),
    ),
    "bmmm-faults": dict(
        config=dict(protocol="bmmm", seed=3, faults=FaultPlan(
            crashes=(NodeCrash(node=4, at_s=3.3, recover_s=4.0),),
            fades=(LinkFade(src=1, dst=2, start_s=3.0, end_s=4.5),),
            corruption=(CorruptionWindow(start_s=3.0, end_s=5.0,
                                         probability=0.3),))),
        events=81109,
        trace_events=20824,
        trace_sha256="c3648d044022561f487fda0306f4538c"
                     "eb5b384caaa8f5f07cb8f0aa9ac8c0f0",
        metrics=dict(
            delivery_ratio=0.9692307692307692,
            avg_delay_s=0.019874483544973544, max_delay_s=0.130567521,
            avg_drop_ratio=0.10666666666666666,
            avg_retx_ratio=3.253333333333333,
            avg_txoh_ratio=0.4458894003320492,
            mrts_len_avg=None, mrts_len_max=None, abort_avg=None,
            n_generated=15, total_deliveries=189, total_drops=8,
            total_retransmissions=244),
    ),
    "rmac-mobile": dict(
        config=dict(protocol="rmac", seed=5, mobile=True),
        events=11752,
        trace_events=5462,
        trace_sha256="7a9be5894409f5a85a13c9c158ef987c"
                     "4fc9896d92713b24fbbdb094bac0b872",
        metrics=dict(
            delivery_ratio=1.0, avg_delay_s=0.0068581059179487185,
            max_delay_s=0.013518324, avg_drop_ratio=0.0,
            avg_retx_ratio=0.0, avg_txoh_ratio=0.2483058608058608,
            mrts_len_avg=27.0, mrts_len_max=36.0, abort_avg=0.0,
            n_generated=15, total_deliveries=195, total_drops=0,
            total_retransmissions=0),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_is_bit_identical_across_commits(name):
    golden = GOLDEN[name]
    buffer = HashBuffer()
    network = build_network(
        ScenarioConfig(**golden["config"], **SMALL),
        tracer=Tracer(enabled=True, buffer=buffer))
    summary = network.run()
    assert {field: getattr(summary, field)
            for field in METRIC_FIELDS} == golden["metrics"]
    assert summary.sinr == golden.get("sinr")
    assert network.sim.events_processed == golden["events"]
    assert len(buffer) == golden["trace_events"]
    assert buffer.digest == golden["trace_sha256"]
