"""The paper's claims, each stated once as a checkable band.

Sections 2-4 and the conclusion make concrete claims ("R_deliv is close
to 1 when stationary", "R_txoh is around 0.2 in case of stationary
nodes", "the MRTS length ... is less than 74 bytes in most cases",
"632n us", ...). This module turns each into a :class:`Claim` with an
explicit band and the scale its evidence is taken at, so
``python -m repro validate`` prints a pass/fail table and a regression
in the implementation surfaces as a failing claim rather than a
silently shifted number. ``CLAIMS`` is the only place a paper claim is
stated; CI judges every one of them at bench scale.

Four scales of evidence:

* ``analytic`` -- the closed forms of :mod:`repro.analysis.overhead`
  (:func:`analytic_evidence`);
* ``topology`` -- Fig. 6's BFS trees over ten 75-node placements
  (:func:`repro.net.tree.placement_tree_statistics`);
* ``bench`` -- the RMAC-vs-BMMM sweep over all three scenarios
  (``FIGURE_SCALES["bench"]`` in :mod:`repro.experiments.scenarios`;
  other sweep scales are judged against the same bands);
* ``family`` -- every MAC of the Section 2 survey on one static
  20-node network (:func:`repro.experiments.scenarios.family_scenario`).

Bands are wider than the paper's point values: they encode each claim's
*shape* (orderings and magnitudes) at bench scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.overhead import (
    abt_detection_time,
    bmmm_control_overhead,
    max_receivers_per_mrts,
    rmac_control_overhead,
    rmac_min_exchange_time,
)
from repro.experiments.runner import SweepResult
from repro.mac.frames import ACK_BYTES, MRTS_FIXED_BYTES
from repro.phy.params import DEFAULT_PHY
from repro.sim.units import US

#: Section 2's table of group sizes.
GROUP_SIZES = (1, 2, 4, 8, 16, 20)

MOBILE = ("speed1", "speed2")
ALL_SCENARIOS = ("stationary",) + MOBILE


class MissingEvidence(LookupError):
    """The evidence lacks the points a claim needs: the claim reads n/a."""


@dataclass(frozen=True)
class Claim:
    """One checkable claim from the paper."""

    claim_id: str
    source: str          # where the paper states it
    statement: str       # the claim, paraphrased
    scale: str           # analytic, topology, bench or family
    check: Callable[[object], bool]

    def evaluate(self, evidence: object) -> Optional[bool]:
        """True/False, or None when the evidence lacks the needed points."""
        if not evidence:
            return None
        try:
            return bool(self.check(evidence))
        except MissingEvidence:
            return None


def _values(points, protocol, scenarios, metric):
    """One metric of ``protocol`` at every point of ``scenarios``."""
    values = [v[metric] for (p, s, _), v in points.items()
              if p == protocol and s in scenarios]
    if not values or None in values:
        raise MissingEvidence(f"{protocol} {metric} over {scenarios}")
    return values


def _stationary(points, protocol, metric):
    return _values(points, protocol, ("stationary",), metric)


def _mobile(points, protocol, metric):
    return _values(points, protocol, MOBILE, metric)


def _mean(values):
    return sum(values) / len(values)


def _paired(points, scenarios, metric):
    """(RMAC, BMMM) values of ``metric`` at every point both ran."""
    pairs = []
    for (p, s, r), v in points.items():
        other = points.get(("bmmm", s, r))
        if p == "rmac" and s in scenarios and other is not None:
            if v[metric] is None or other[metric] is None:
                raise MissingEvidence(f"{metric} at {(s, r)}")
            pairs.append((v[metric], other[metric]))
    if not pairs:
        raise MissingEvidence(f"paired {metric} over {scenarios}")
    return pairs


def _tree_mean(rows, stat):
    return _mean([row[stat] for row in rows])


def _family(results, protocol, metric):
    if protocol not in results:
        raise MissingEvidence(f"family run of {protocol}")
    return results[protocol][metric]


def _mrts_lengths_ordered(points):
    return all(avg <= p99 <= top or p99 == top for avg, p99, top in zip(
        _values(points, "rmac", ALL_SCENARIOS, "mrts_len_avg"),
        _values(points, "rmac", ALL_SCENARIOS, "mrts_len_p99"),
        _values(points, "rmac", ALL_SCENARIOS, "mrts_len_max")))


CLAIMS: List[Claim] = [
    Claim(
        "phy-overhead",
        "Section 2",
        "96 us PHY overhead per frame; 56 us ACK payload airtime",
        "analytic",
        lambda a: a["phy_overhead_us"] == 96 and a["ack_airtime_us"] == 56,
    ),
    Claim(
        "bmmm-control-632n",
        "Section 2",
        "BMMM's control frames cost 632n us per data frame",
        "analytic",
        lambda a: all(a["bmmm_control_us"][n] == 632 * n for n in GROUP_SIZES),
    ),
    Claim(
        "rmac-control-fraction",
        "Sections 2-3",
        "RMAC's control cost under 0.35 of BMMM's at every group size",
        "analytic",
        lambda a: all(a["rmac_control_us"][n] < 0.35 * a["bmmm_control_us"][n]
                      for n in GROUP_SIZES),
    ),
    Claim(
        "receiver-cap",
        "Section 3.4",
        "17 us ABT window, 352 us minimal exchange, so at most 20 receivers",
        "analytic",
        lambda a: a["abt_detection_us"] == 17
        and a["min_exchange_us"] == 352 and a["max_receivers"] == 20,
    ),
    Claim(
        "tree-hops",
        "Fig. 6 / Section 4.1.1",
        "hops to root: mean 2.5-5.5, 99p 6-13 (paper: 3.87 / 10)",
        "topology",
        lambda rows: 2.5 <= _tree_mean(rows, "avg_hops") <= 5.5
        and 6 <= _tree_mean(rows, "p99_hops") <= 13,
    ),
    Claim(
        "tree-children",
        "Fig. 6 / Section 4.1.1",
        "children per non-leaf: mean 1.8-5.0, 99p 5-12 (paper: 3.54 / 9)",
        "topology",
        lambda rows: 1.8 <= _tree_mean(rows, "avg_children") <= 5.0
        and 5 <= _tree_mean(rows, "p99_children") <= 12,
    ),
    Claim(
        "tree-spans",
        "Section 4.1.1",
        "every placement's tree reaches all 75 nodes",
        "topology",
        lambda rows: all(row["reachable"] == 75 for row in rows),
    ),
    Claim(
        "deliv-static",
        "Fig. 7a / Conclusion",
        "stationary R_deliv close to 1 for RMAC (> 0.97 at every rate)",
        "bench",
        lambda pts: min(_stationary(pts, "rmac", "delivery_ratio")) > 0.97,
    ),
    Claim(
        "deliv-mobile-ordering",
        "Fig. 7b,c / Conclusion",
        "mobile R_deliv drops below 0.99 but stays above BMMM's",
        "bench",
        lambda pts: all(r > b for r, b in _paired(
            pts, MOBILE, "delivery_ratio"))
        and max(_mobile(pts, "rmac", "delivery_ratio")) < 0.99,
    ),
    Claim(
        "drop-static",
        "Fig. 8a",
        "stationary R_drop tiny for RMAC (paper: ~0.003 at 120 pkt/s)",
        "bench",
        lambda pts: max(_stationary(pts, "rmac", "avg_drop_ratio")) < 0.01,
    ),
    Claim(
        "drop-mobile",
        "Fig. 8",
        "worst R_drop at speed2 at least the stationary worst, both protocols",
        "bench",
        lambda pts: all(
            max(_values(pts, p, ("speed2",), "avg_drop_ratio"))
            >= max(_stationary(pts, p, "avg_drop_ratio"))
            for p in ("rmac", "bmmm")),
    ),
    Claim(
        "delay-ordering",
        "Fig. 9",
        "RMAC's end-to-end delay below BMMM's everywhere",
        "bench",
        lambda pts: all(r < b for r, b in _paired(
            pts, ALL_SCENARIOS, "avg_delay_s")),
    ),
    Claim(
        "delay-bounded",
        "Fig. 9 / Conclusion",
        "RMAC's average delay under 2 s at every point",
        "bench",
        lambda pts: max(_stationary(pts, "rmac", "avg_delay_s")
                        + _mobile(pts, "rmac", "avg_delay_s")) < 2.0,
    ),
    Claim(
        "retx-static",
        "Fig. 10 / Conclusion",
        "stationary R_retx low for RMAC: all < 0.6, best < 0.45 "
        "(paper: <= 0.32)",
        "bench",
        lambda pts: min(_stationary(pts, "rmac", "avg_retx_ratio")) < 0.45
        and max(_stationary(pts, "rmac", "avg_retx_ratio")) < 0.6,
    ),
    Claim(
        "retx-mobile",
        "Fig. 10 / Conclusion",
        "mobile R_retx around 1 for RMAC (paper: < 1.3), above its "
        "stationary mean at speed2",
        "bench",
        lambda pts: max(_mobile(pts, "rmac", "avg_retx_ratio")) < 2.0
        and _mean(_values(pts, "rmac", ("speed2",), "avg_retx_ratio"))
        > _mean(_stationary(pts, "rmac", "avg_retx_ratio")),
    ),
    Claim(
        "txoh-static",
        "Fig. 11 / Conclusion",
        "stationary R_txoh around 0.2 for RMAC, BMMM's over 3x RMAC's",
        "bench",
        lambda pts: max(_stationary(pts, "rmac", "avg_txoh_ratio")) < 0.4
        and all(b > 3 * r for r, b in _paired(
            pts, ("stationary",), "avg_txoh_ratio")),
    ),
    Claim(
        "txoh-mobile",
        "Fig. 11 / Conclusion",
        "mobile R_txoh below ~1.1 for RMAC and below BMMM's",
        "bench",
        lambda pts: max(_mobile(pts, "rmac", "avg_txoh_ratio")) < 1.3
        and all(b > r for r, b in _paired(pts, MOBILE, "avg_txoh_ratio")),
    ),
    Claim(
        "mrts-short",
        "Fig. 12 / Conclusion",
        "MRTS average short, 99% under 74 bytes",
        "bench",
        lambda pts: all(MRTS_FIXED_BYTES + 6 <= avg < 74 for avg in _values(
            pts, "rmac", ALL_SCENARIOS, "mrts_len_avg"))
        and max(_stationary(pts, "rmac", "mrts_len_p99")) <= 74,
    ),
    Claim(
        "mrts-cap",
        "Fig. 12 / Section 3.4",
        "MRTS 99p and maximum within the 20-receiver cap (132 bytes)",
        "bench",
        lambda pts: max(_values(pts, "rmac", ALL_SCENARIOS, "mrts_len_p99")
                        + _values(pts, "rmac", ALL_SCENARIOS,
                                  "mrts_len_max")) <= 132
        and _mrts_lengths_ordered(pts),
    ),
    Claim(
        "abort-rare",
        "Fig. 13 / Conclusion",
        "MRTS abortion rare: average < 0.02, maximum < 0.3 "
        "(paper: avg < 0.0035 stationary)",
        "bench",
        lambda pts: max(_values(pts, "rmac", ALL_SCENARIOS, "abort_avg")) < 0.02
        and max(_values(pts, "rmac", ALL_SCENARIOS, "abort_max")) < 0.3,
    ),
    Claim(
        "family-delivery",
        "Section 2",
        "the positive-feedback MACs (RMAC, BMMM, LAMM, BMW, LBP) deliver "
        "> 0.9 on a static network",
        "family",
        lambda fam: all(_family(fam, p, "delivery_ratio") > 0.9
                        for p in ("rmac", "bmmm", "lamm", "bmw", "lbp")),
    ),
    Claim(
        "family-txoh",
        "Section 2",
        "RMAC has the lowest control overhead; LAMM's is below BMMM's",
        "family",
        lambda fam: all(_family(fam, p, "avg_txoh_ratio")
                        > _family(fam, "rmac", "avg_txoh_ratio")
                        for p in ("bmmm", "lamm", "bmw"))
        and _family(fam, "lamm", "avg_txoh_ratio")
        < _family(fam, "bmmm", "avg_txoh_ratio"),
    ),
    Claim(
        "mx-uncertified",
        "Section 2",
        "MX (receiver-initiated) cannot certify delivery: R_deliv < 1",
        "family",
        lambda fam: _family(fam, "mx", "delivery_ratio") < 1.0,
    ),
]


def analytic_evidence() -> Dict[str, object]:
    """The closed-form numbers the ``analytic`` claims are judged on."""
    return {
        "phy_overhead_us": DEFAULT_PHY.phy_overhead / US,
        "ack_airtime_us": DEFAULT_PHY.payload_airtime(ACK_BYTES) / US,
        "bmmm_control_us": {n: bmmm_control_overhead(n) / US for n in GROUP_SIZES},
        "rmac_control_us": {n: rmac_control_overhead(n) / US for n in GROUP_SIZES},
        "abt_detection_us": abt_detection_time() / US,
        "min_exchange_us": rmac_min_exchange_time() / US,
        "max_receivers": max_receivers_per_mrts(),
    }


def _points_by_key(results: Sequence[SweepResult]) -> Dict[tuple, SweepResult]:
    return {(r.protocol, r.scenario, r.rate_pps): r for r in results}


def validate(
    results: Sequence[SweepResult],
    family: Sequence[SweepResult] = (),
    topology: Sequence[dict] = (),
    analytic: Optional[dict] = None,
    sweep_scale: str = "bench",
) -> List[dict]:
    """Judge every claim on its scale's evidence; returns printable rows.

    ``results`` is the RMAC-vs-BMMM sweep the ``bench`` claims read (its
    scale is printed as ``sweep_scale``); ``family`` the family runs,
    ``topology`` Fig. 6's per-placement tree statistics and ``analytic``
    :func:`analytic_evidence`. A claim whose evidence is absent reads
    ``n/a``.
    """
    evidence = {
        "analytic": analytic,
        "topology": list(topology),
        "bench": _points_by_key(results),
        "family": {r.protocol: r for r in family},
    }
    rows = []
    for claim in CLAIMS:
        verdict = claim.evaluate(evidence[claim.scale])
        rows.append({
            "claim": claim.claim_id,
            "source": claim.source,
            "statement": claim.statement,
            "scale": sweep_scale if claim.scale == "bench" else claim.scale,
            "verdict": {True: "PASS", False: "FAIL", None: "n/a"}[verdict],
        })
    return rows


def all_pass(rows: Sequence[dict]) -> bool:
    """True if no claim failed (n/a rows do not count as failures)."""
    return all(row["verdict"] != "FAIL" for row in rows)


def validate_store(store, topology: Sequence[dict] = (),
                   analytic: Optional[dict] = None) -> List[dict]:
    """Evaluate every claim against an on-disk result store
    (``repro validate --from DIR``): aggregates whatever points the
    store holds -- no simulation -- and claims whose points are missing
    (the family claims always) report ``n/a`` rather than failing, so a
    partially-populated campaign can be sanity-checked while it is
    still running."""
    from repro.experiments.runner import results_from_store

    return validate(results_from_store(store, ("rmac", "bmmm")),
                    topology=topology, analytic=analytic,
                    sweep_scale=(store.manifest() or {}).get("scale", "store"))
