"""Event-loop telemetry (repro.sim.telemetry)."""

import json

import pytest

from repro.sim.engine import Simulator
from repro.sim.telemetry import Telemetry, TelemetryReport


def _load(sim, n=50):
    for i in range(n):
        sim.after(i * 100, lambda: None, label="rmac-pump")
        sim.after(i * 100 + 7, lambda: None, label="tone-on")


def test_detached_simulator_has_no_collector():
    sim = Simulator()
    assert sim._telemetry is None
    _load(sim)
    sim.run()
    assert sim.events_processed == 100


def test_label_counts_and_events():
    sim = Simulator()
    telemetry = Telemetry().attach(sim)
    _load(sim, n=30)
    sim.run()
    report = telemetry.report(sim)
    assert report.events == 60
    assert report.label_counts == {"rmac-pump": 30, "tone-on": 30}
    assert report.events_per_sec > 0
    assert report.wall_s > 0


def test_subsystem_wall_time_groups_by_label_prefix():
    sim = Simulator()
    telemetry = Telemetry().attach(sim)
    _load(sim, n=10)
    sim.run()
    report = telemetry.report(sim)
    assert set(report.subsystem_wall_s) == {"rmac", "tone"}
    assert all(v >= 0 for v in report.subsystem_wall_s.values())


def test_heap_depth_sampling():
    sim = Simulator()
    telemetry = Telemetry(heap_sample_interval=4).attach(sim)
    _load(sim, n=40)
    sim.run()
    report = telemetry.report(sim)
    assert report.heap_depth_max > 0
    assert report.heap_depth_last == 0  # queue drained
    assert 0 < report.heap_depth_mean <= report.heap_depth_max


def test_detach_restores_fast_path():
    sim = Simulator()
    telemetry = Telemetry().attach(sim)
    sim.after(10, lambda: None, label="a")
    sim.run()
    telemetry.detach(sim)
    sim.after(10, lambda: None, label="a")
    sim.run()
    assert telemetry.events == 1  # second event not recorded


def test_report_is_json_serializable():
    sim = Simulator()
    telemetry = Telemetry().attach(sim)
    _load(sim, n=5)
    sim.run()
    report = telemetry.report(sim)
    payload = json.loads(report.to_json())
    assert payload["events"] == 10
    assert "label_counts" in payload and "heap_depth" in payload
    assert isinstance(report, TelemetryReport)


def test_render_mentions_throughput():
    sim = Simulator()
    telemetry = Telemetry().attach(sim)
    _load(sim, n=5)
    sim.run()
    text = telemetry.report(sim).render()
    assert "events/sec" in text and "rmac-pump" in text


def test_sections_land_in_report_dict_and_render():
    sim = Simulator()
    telemetry = Telemetry().attach(sim)
    _load(sim, n=5)
    sim.run()
    telemetry.set_section("neighbors", {"table_rebuilds": 3, "table_hits": 99})
    report = telemetry.report(sim)
    payload = json.loads(report.to_json())
    assert payload["neighbors"] == {"table_rebuilds": 3, "table_hits": 99}
    assert "table_rebuilds=3" in report.render()


def test_sections_default_empty_and_replaceable():
    sim = Simulator()
    telemetry = Telemetry().attach(sim)
    _load(sim, n=2)
    sim.run()
    assert telemetry.report(sim).sections == {}
    telemetry.set_section("cache", {"hits": 1})
    telemetry.set_section("cache", {"hits": 2})
    assert telemetry.report(sim).sections == {"cache": {"hits": 2}}


def test_sim_time_tracked_from_attach_point():
    sim = Simulator()
    sim.after(1000, lambda: None)
    sim.run()
    telemetry = Telemetry().attach(sim)
    sim.after(500, lambda: None)
    sim.run()
    report = telemetry.report(sim)
    assert report.sim_time_ns == 500


def test_invalid_sample_interval_rejected():
    with pytest.raises(ValueError):
        Telemetry(heap_sample_interval=0)


def test_network_run_surfaces_telemetry():
    from repro.world.network import ScenarioConfig, build_network

    config = ScenarioConfig(protocol="rmac", n_nodes=8, width=180, height=130,
                            n_packets=3, rate_pps=5, seed=2,
                            collect_telemetry=True)
    summary = build_network(config).run()
    assert summary.events_processed > 0
    assert summary.events_per_sec > 0
    assert summary.telemetry["events"] == summary.events_processed
    assert summary.telemetry["label_counts"]


#: Per-label event counts of two small runs, identical to one heap
#: event per PHY fan-out member: telemetry turns inline fan-out
#: draining off, so every arrival is its own event. Busy-tone presence
#: costs events only where a waiter checks a change (``tone-check``).
LABEL_COUNTS = {
    "rmac": {"Ttx_abt": 12, "Twf_abt": 9, "Twf_rbt": 9, "app-emit": 3,
             "backoff-expiry": 163, "backoff-tick": 347, "bless-tx": 165,
             "rx-end": 597, "rx-start": 597, "tone-check": 3,
             "tone-pulse-end": 21, "tx-end": 183},
    "bmmm": {"app-emit": 3, "backoff-expiry": 163, "backoff-tick": 554,
             "bless-tx": 165, "rx-end": 873, "rx-start": 873,
             "sifs-data": 9, "sifs-rak": 21, "sifs-response": 42,
             "sifs-rts": 12, "tx-end": 258},
}


@pytest.mark.parametrize("protocol", sorted(LABEL_COUNTS))
def test_network_label_counts_are_pinned(protocol):
    from repro.world.network import ScenarioConfig, build_network

    config = ScenarioConfig(protocol=protocol, n_nodes=8, width=180,
                            height=130, n_packets=3, rate_pps=5, seed=2,
                            collect_telemetry=True)
    summary = build_network(config).run()
    assert summary.telemetry["label_counts"] == LABEL_COUNTS[protocol]
    assert summary.events_processed == sum(LABEL_COUNTS[protocol].values())


def test_network_without_flag_has_none_telemetry():
    from repro.world.network import ScenarioConfig, build_network

    config = ScenarioConfig(protocol="rmac", n_nodes=8, width=180, height=130,
                            n_packets=3, rate_pps=5, seed=2)
    summary = build_network(config).run()
    assert summary.telemetry is None
    assert summary.events_processed is None
