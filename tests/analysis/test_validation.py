"""Paper-claim validation bands."""

from dataclasses import replace

import pytest

from repro.analysis.validation import (
    CLAIMS,
    all_pass,
    analytic_evidence,
    validate,
)
from repro.experiments.runner import aggregate
from repro.metrics.summary import RunSummary


def _summary(protocol, **kw):
    fields = dict(
        protocol=protocol, n_nodes=40, n_generated=100, total_deliveries=3900,
        delivery_ratio=0.99, avg_delay_s=0.05, max_delay_s=0.4,
        avg_drop_ratio=0.001, avg_retx_ratio=0.3, avg_txoh_ratio=0.22,
        mrts_len_avg=25.0, mrts_len_p99=57.0, mrts_len_max=60.0,
        abort_avg=0.0002, abort_p99=0.001, abort_max=0.01,
        n_forwarders=10, total_drops=0, total_retransmissions=30,
    )
    fields.update(kw)
    return RunSummary(**fields)


def good_sweep():
    """A sweep matching every paper claim."""
    results = []
    for scenario in ("stationary", "speed1", "speed2"):
        mobile = scenario != "stationary"
        for rate in (10, 60):
            rmac = _summary(
                "rmac",
                delivery_ratio=0.7 if mobile else 0.99,
                avg_retx_ratio=1.0 if mobile else 0.3,
                avg_txoh_ratio=0.6 if mobile else 0.22,
                avg_delay_s=0.3,
            )
            bmmm = _summary(
                "bmmm",
                delivery_ratio=0.5 if mobile else 0.95,
                avg_txoh_ratio=1.0,
                avg_delay_s=0.8,
                mrts_len_avg=None, mrts_len_p99=None, mrts_len_max=None,
                abort_avg=None, abort_p99=None, abort_max=None,
            )
            results.append(aggregate("rmac", scenario, rate, [rmac]))
            results.append(aggregate("bmmm", scenario, rate, [bmmm]))
    return results


def good_family():
    """Family runs matching the Section 2 survey claims."""
    return [aggregate(protocol, "stationary", 10,
                      [_summary(protocol, delivery_ratio=deliv,
                                avg_txoh_ratio=txoh)])
            for protocol, deliv, txoh in (
                ("rmac", 1.0, 0.2), ("bmmm", 1.0, 1.0), ("lamm", 1.0, 0.8),
                ("bmw", 1.0, 0.7), ("lbp", 0.95, 0.5), ("mx", 0.9, 0.2))]


def good_topology():
    """Ten tree-statistics rows in Fig. 6's bands."""
    return [dict(avg_hops=4.4, p99_hops=10.0, avg_children=2.4,
                 p99_children=8.0, reachable=75.0, seed=1000 + i)
            for i in range(10)]


def good_evidence():
    """Conforming evidence for every scale, as ``validate`` keywords."""
    return dict(results=good_sweep(), family=good_family(),
                topology=good_topology(), analytic=analytic_evidence())


def test_all_claims_pass_on_conforming_sweep():
    evidence = good_evidence()
    rows = validate(evidence.pop("results"), **evidence)
    assert len(rows) == len(CLAIMS)
    assert all(r["verdict"] == "PASS" for r in rows)
    assert all_pass(rows)


def test_static_delivery_regression_detected():
    results = good_sweep()
    # Break the stationary delivery claim.
    broken = [
        aggregate("rmac", r.scenario, r.rate_pps,
                  [_summary("rmac", delivery_ratio=0.5)])
        if r.protocol == "rmac" and r.scenario == "stationary" else r
        for r in results
    ]
    rows = validate(broken)
    verdicts = {r["claim"]: r["verdict"] for r in rows}
    assert verdicts["deliv-static"] == "FAIL"
    assert not all_pass(rows)


def test_overhead_regression_detected():
    results = good_sweep()
    broken = [
        aggregate("rmac", r.scenario, r.rate_pps,
                  [_summary("rmac", avg_txoh_ratio=0.9)])
        if r.protocol == "rmac" and r.scenario == "stationary" else r
        for r in results
    ]
    verdicts = {r["claim"]: r["verdict"] for r in validate(broken)}
    assert verdicts["txoh-static"] == "FAIL"


def test_missing_points_yield_na():
    rows = validate([])  # empty sweep: nothing to check
    assert all(r["verdict"] == "n/a" for r in rows)
    assert all_pass(rows)  # n/a is not failure


def test_real_small_sweep_passes_claims():
    """End to end: a real (tiny) sweep satisfies the claim bands."""
    from repro.experiments.runner import run_sweep
    from repro.experiments.scenarios import scaled_scenario

    def make(protocol, scenario, rate, seed):
        return scaled_scenario(protocol, scenario, rate, seed,
                               n_packets=40, n_nodes=16)

    results = run_sweep(["rmac", "bmmm"], ["stationary", "speed2"], [10],
                        [1, 2], make)
    rows = validate(results)
    failing = [r for r in rows if r["verdict"] == "FAIL"]
    # Tiny sweeps are noisy; the structural claims must still hold.
    critical = {"deliv-static", "delay-ordering", "txoh-static", "mrts-short"}
    assert not [r for r in failing if r["claim"] in critical], failing


def _tweak(results, protocol, scenarios, rates=None, **values):
    """``results`` with ``values`` overriding the metrics of
    ``protocol``'s points in ``scenarios`` (at ``rates``, or all)."""
    return [replace(r, values={**r.values, **values})
            if r.protocol == protocol and r.scenario in scenarios
            and (rates is None or r.rate_pps in rates) else r
            for r in results]


def _analytic(**values):
    return lambda ev: {**ev, "analytic": {**ev["analytic"], **values}}


def _topology(**values):
    return lambda ev: {**ev, "topology": [{**row, **values}
                                          for row in ev["topology"]]}


def _sweep(protocol, scenarios, rates=None, **values):
    return lambda ev: {**ev, "results": _tweak(ev["results"], protocol,
                                               scenarios, rates, **values)}


def _family(protocol, **values):
    return lambda ev: {**ev, "family": _tweak(ev["family"], protocol,
                                              ("stationary",), **values)}


MOBILE = ("speed1", "speed2")

#: One input per claim that breaks its band (just past it where the
#: band was tightened from an earlier, looser copy).
BREAKS = {
    "phy-overhead": _analytic(phy_overhead_us=100.0),
    "bmmm-control-632n": _analytic(
        bmmm_control_us={n: 600.0 * n for n in (1, 2, 4, 8, 16, 20)}),
    "rmac-control-fraction": lambda ev: {**ev, "analytic": {
        **ev["analytic"], "rmac_control_us": {
            **ev["analytic"]["rmac_control_us"], 20: 0.4 * 632 * 20}}},
    "receiver-cap": _analytic(max_receivers=21),
    "tree-hops": _topology(avg_hops=6.0),
    "tree-children": _topology(avg_children=1.5),
    "tree-spans": lambda ev: {**ev, "topology": ev["topology"][:-1]
                              + [{**ev["topology"][-1], "reachable": 74.0}]},
    "deliv-static": _sweep("rmac", ("stationary",), delivery_ratio=0.96),
    "deliv-mobile-ordering": _sweep("bmmm", MOBILE, delivery_ratio=0.7),
    "drop-static": _sweep("rmac", ("stationary",), avg_drop_ratio=0.015),
    "drop-mobile": _sweep("bmmm", ("stationary",), avg_drop_ratio=0.005),
    "delay-ordering": _sweep("bmmm", ("speed1",), (60,), avg_delay_s=0.2),
    "delay-bounded": _sweep("rmac", ("speed2",), (10,), avg_delay_s=2.5),
    "retx-static": _sweep("rmac", ("stationary",), (60,), avg_retx_ratio=0.65),
    "retx-mobile": _sweep("rmac", ("speed2",), avg_retx_ratio=0.2),
    "txoh-static": _sweep("bmmm", ("stationary",), (10,), avg_txoh_ratio=0.6),
    "txoh-mobile": _sweep("bmmm", ("speed2",), (60,), avg_txoh_ratio=0.5),
    "mrts-short": _sweep("rmac", ("speed1",), (10,), mrts_len_avg=15.0),
    "mrts-cap": _sweep("rmac", ("speed2",), (60,), mrts_len_max=140.0),
    "abort-rare": _sweep("rmac", ("speed1",), (60,), abort_max=0.4),
    "family-delivery": _family("lbp", delivery_ratio=0.85),
    "family-txoh": _family("lamm", avg_txoh_ratio=1.1),
    "mx-uncertified": _family("mx", delivery_ratio=1.0),
}


def test_every_claim_has_a_breaking_input():
    assert sorted(BREAKS) == sorted(c.claim_id for c in CLAIMS)


def _verdict(claim_id, evidence):
    rows = validate(evidence.pop("results"), **evidence)
    return {r["claim"]: r["verdict"] for r in rows}[claim_id]


@pytest.mark.parametrize("claim_id", [c.claim_id for c in CLAIMS])
def test_claim_passes_conforming_and_fails_broken_evidence(claim_id):
    assert _verdict(claim_id, good_evidence()) == "PASS"
    assert _verdict(claim_id, BREAKS[claim_id](good_evidence())) == "FAIL"


def test_mistyped_metric_is_an_error_not_na():
    """Only missing points read n/a: a claim reading a metric no sweep
    records raises instead of passing as n/a."""
    from repro.analysis.validation import Claim, _stationary

    claim = Claim("typo", "-", "-", "bench",
                  lambda pts: max(_stationary(pts, "rmac", "avg_txoh")) < 0.4)
    points = {(r.protocol, r.scenario, r.rate_pps): r for r in good_sweep()}
    with pytest.raises(KeyError):
        claim.evaluate(points)


def test_validate_prints_each_claims_scale():
    rows = validate(good_sweep(), sweep_scale="small")
    scales = {c.claim_id: c.scale for c in CLAIMS}
    assert {r["scale"] for r in rows} == {"analytic", "topology", "small",
                                          "family"}
    assert all(r["scale"] == ("small" if scales[r["claim"]] == "bench"
                              else scales[r["claim"]]) for r in rows)
