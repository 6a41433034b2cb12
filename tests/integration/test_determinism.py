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
    config = ScenarioConfig(protocol="rmac", seed=7, **SMALL)
    net_a = build_network(config, tracer=Tracer(enabled=True))
    net_a.run()
    net_b = build_network(config, tracer=Tracer(enabled=True))
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


#: Pinned outcomes of eleven small runs: static RMAC and BMMM on the
#: paper's unit-disk reception, RMAC under SINR reception with shadowing
#: and Rayleigh fading, BMMM, BMW, LBP, MX and LAMM under the same
#: injected faults (so every 802.11-family MAC runs its retry and drop
#: paths), mobile RMAC (random
#: waypoint, so link tables are rebuilt per position bucket), and mobile
#: RMAC under SINR reception with shadowing (shadowed link tables
#: across position buckets), and BMMM under SINR reception with Rician
#: fading and heterogeneous radios. Unlike the
#: same-commit comparisons above, these hold across commits: a change
#: that claims to leave behavior alone must reproduce every value
#: exactly. A deliberate behavior change re-pins them and says why.
#: ``events`` counts heap events, not behavior: it fell when the backoff
#: countdown stopped spending one event per idle slot, and again when
#: busy-tone presence stopped spending one event per listener per
#: turn-on and turn-off, and again (on the SINR pins) when
#: interference-only links stopped getting arrival events.
#: A node crash, a link fade and a corruption window, all inside the
#: traffic phase: enough loss to reach every MAC's retry limit.
FAULTS = FaultPlan(
    crashes=(NodeCrash(node=4, at_s=3.3, recover_s=4.0),),
    fades=(LinkFade(src=1, dst=2, start_s=3.0, end_s=4.5),),
    corruption=(CorruptionWindow(start_s=3.0, end_s=5.0, probability=0.3),))

GOLDEN = {
    "rmac": dict(
        config=dict(protocol="rmac", seed=5),
        events=4881,
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
        events=14998,
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
        events=12064,
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
        config=dict(protocol="bmmm", seed=3, faults=FAULTS),
        events=35797,
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
    "bmw-faults": dict(
        config=dict(protocol="bmw", seed=3, faults=FAULTS),
        events=21761,
        trace_events=11539,
        trace_sha256="d8c296189c79e2021c525ce9458d9f38"
                     "584da78443a46caf62d2c6cc69495e52",
        metrics=dict(
            delivery_ratio=0.9128205128205128,
            avg_delay_s=0.02019294907303371, max_delay_s=0.07897348,
            avg_drop_ratio=0.19714285714285715,
            avg_retx_ratio=5.266666666666667,
            avg_txoh_ratio=0.8001773703161004,
            mrts_len_avg=None, mrts_len_max=None, abort_avg=None,
            n_generated=15, total_deliveries=178, total_drops=14,
            total_retransmissions=376),
    ),
    "lbp-faults": dict(
        config=dict(protocol="lbp", seed=3, faults=FAULTS),
        events=27187,
        trace_events=13930,
        trace_sha256="9f241b3373e935e010b4443b996d11a1"
                     "8c9d827f935aa9eaa333d43b932079b0",
        metrics=dict(
            delivery_ratio=0.7589743589743589,
            avg_delay_s=0.026915198675675676, max_delay_s=0.102002613,
            avg_drop_ratio=0.6596536796536797,
            avg_retx_ratio=5.6060606060606055,
            avg_txoh_ratio=0.7274254608375592,
            mrts_len_avg=None, mrts_len_max=None, abort_avg=None,
            n_generated=15, total_deliveries=148, total_drops=41,
            total_retransmissions=350),
    ),
    "mx-faults": dict(
        config=dict(protocol="mx", seed=3, faults=FAULTS),
        events=5216,
        trace_events=2686,
        trace_sha256="c1e8b634f4127c75ae2c97a82983f8c5"
                     "09c73e5d9dc3f3371224d0b12c75ea66",
        metrics=dict(
            delivery_ratio=0.4256410256410256,
            avg_delay_s=0.00722495048192771, max_delay_s=0.023671133,
            avg_drop_ratio=0.0, avg_retx_ratio=0.5619047619047619,
            avg_txoh_ratio=0.21101190476190473,
            mrts_len_avg=32.142857142857146, mrts_len_max=36.0,
            abort_avg=0.0, n_generated=15, total_deliveries=83,
            total_drops=0, total_retransmissions=29),
    ),
    "lamm-faults": dict(
        config=dict(protocol="lamm", seed=3, faults=FAULTS),
        events=35352,
        trace_events=20351,
        trace_sha256="bc28c42dfe0c27734bff901f9ca0bbab"
                     "16ca9d03181980ec78366003b46f7ebe",
        metrics=dict(
            delivery_ratio=0.9743589743589743,
            avg_delay_s=0.029597466305263158, max_delay_s=0.204237144,
            avg_drop_ratio=0.13333333333333336,
            avg_retx_ratio=3.453333333333334,
            avg_txoh_ratio=0.40371114998172863,
            mrts_len_avg=None, mrts_len_max=None, abort_avg=None,
            n_generated=15, total_deliveries=190, total_drops=10,
            total_retransmissions=259),
    ),
    "rmac-mobile": dict(
        config=dict(protocol="rmac", seed=5, mobile=True),
        events=4807,
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
    "rmac-sinr-mobile": dict(
        config=dict(protocol="rmac", seed=5, mobile=True,
                    sinr=sinr_preset("shadowing", tx_power_dbm=27.5)),
        events=11771,
        trace_events=6985,
        trace_sha256="05467c5311fa7226cd5a0c8ad10eb649"
                     "29c1860c5c09ac9a1a386a66b9ea169a",
        metrics=dict(
            delivery_ratio=1.0, avg_delay_s=0.008335934205128206,
            max_delay_s=0.021899987, avg_drop_ratio=0.0,
            avg_retx_ratio=0.18095238095238095,
            avg_txoh_ratio=0.19475790349106675,
            mrts_len_avg=23.274193548387096, mrts_len_max=42.0,
            abort_avg=0.06335034013605442, n_generated=15,
            total_deliveries=195, total_drops=0, total_retransmissions=19),
        sinr=dict(
            concurrent_high_water=3, delivered=1669,
            mean_sinr_db=31.185398984711295, min_sinr_db=10.225548409644322,
            sinr_dropped=76),
    ),
    "bmmm-sinr-rician": dict(
        config=dict(protocol="bmmm", seed=3,
                    sinr=sinr_preset("shadowing", tx_power_dbm=27.5,
                                     fading="rician",
                                     tx_power_jitter_db=2.0)),
        events=27865,
        trace_events=9430,
        trace_sha256="5d891983d861f1611e3bdfbf9a940064"
                     "fc37545b7cce8c1c847a474896b8542b",
        metrics=dict(
            delivery_ratio=1.0, avg_delay_s=0.010162827825641025,
            max_delay_s=0.028440944, avg_drop_ratio=0.0,
            avg_retx_ratio=0.2111111111111111,
            avg_txoh_ratio=0.7933080045625335,
            mrts_len_avg=None, mrts_len_max=None, abort_avg=None,
            n_generated=15, total_deliveries=195, total_drops=0,
            total_retransmissions=19),
        sinr=dict(
            concurrent_high_water=3, delivered=6395,
            mean_sinr_db=31.35937422838956, min_sinr_db=10.035501720916109,
            sinr_dropped=375),
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
