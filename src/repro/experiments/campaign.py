"""Checkpointed experiment campaigns (the orchestration layer).

Ownership: :class:`Campaign` owns the **workflow view** of a store —
which points a matrix expects, which are done, stale or missing, and
their aggregates. Execution (manifest, resume, retries, failure
capture, worker processes) is :class:`repro.experiments.farm.CampaignFarm`,
which writes through the store as jobs complete; ``Campaign.run`` is a
thin call into it. Persistence (record format, hashing, durability) is
owned by :class:`repro.experiments.store.ResultStore`.

A paper-scale sweep (480 runs at 10 000 packets) takes hours in pure
Python. A campaign makes that survivable: every finished (protocol,
scenario, rate, seed) point is durably appended to the store before the
next one starts, so the process can be killed at any instant and
re-invoked — only missing, failed, or configuration-changed points are
re-simulated, and the resumed aggregates are bit-identical to an
uninterrupted run (``tests/experiments/test_campaign.py`` asserts this).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.farm import CampaignFarm
from repro.experiments.runner import SweepResult, aggregate
from repro.experiments.store import PointKey, ResultStore, config_hash, point_key
from repro.world.network import ScenarioConfig

MakeConfig = Callable[[str, str, float, int], ScenarioConfig]


class Campaign:
    """A resumable sweep persisted to an on-disk result store.

    ``store`` is a directory path (created on demand; a v0 single-file
    JSON checkpoint at that path is migrated in place) or an already-open
    :class:`ResultStore`.
    """

    def __init__(self, store):
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)

    @property
    def path(self) -> str:
        return self.store.directory

    def __len__(self) -> int:
        """Completed points on disk."""
        return len(self.store)

    # ------------------------------------------------------------------
    def run(
        self,
        protocols: Sequence[str],
        scenarios: Sequence[str],
        rates: Sequence[float],
        seeds: Sequence[int],
        make_config: MakeConfig,
        **options,
    ) -> List[SweepResult]:
        """Run (or resume) the matrix; every completed point is durably
        on disk before the next begins. Returns aggregated results.

        A thin call into :meth:`CampaignFarm.run` over this store;
        ``options`` are its keywords unchanged (``workers``,
        ``retries``, ``progress``, ``manifest_extra``).
        """
        return CampaignFarm(self.store).run(
            protocols, scenarios, rates, seeds, make_config, **options)

    # ------------------------------------------------------------------
    def aggregate(
        self,
        protocols: Sequence[str],
        scenarios: Sequence[str],
        rates: Sequence[float],
        seeds: Sequence[int],
    ) -> List[SweepResult]:
        """Aggregate stored points for a matrix (only points present are
        used; a point with no stored seeds is omitted entirely)."""
        completed = self.store.completed()
        results: List[SweepResult] = []
        for protocol in protocols:
            for scenario in scenarios:
                for rate in rates:
                    summaries = []
                    for seed in seeds:
                        summary = completed.get(point_key(protocol, scenario, rate, seed))
                        if summary is not None:
                            summaries.append(summary)
                    if summaries:
                        results.append(aggregate(protocol, scenario, rate, summaries))
        return results

    # ------------------------------------------------------------------
    def expected_hashes(self, make_config: MakeConfig) -> Optional[Dict[PointKey, str]]:
        """key -> config hash for the manifest's full matrix (no
        simulation — just config construction), or None without a
        manifest."""
        manifest = self.store.manifest()
        if manifest is None:
            return None
        expected: Dict[PointKey, str] = {}
        for protocol in manifest["protocols"]:
            for scenario in manifest["scenarios"]:
                for rate in manifest["rates"]:
                    for seed in manifest["seeds"]:
                        config = make_config(protocol, scenario, rate, seed)
                        expected[point_key(protocol, scenario, rate, seed)] = (
                            config_hash(config)
                        )
        return expected

    def status(self, make_config: Optional[MakeConfig] = None) -> dict:
        """Progress report: totals plus per-(protocol, scenario) rows.

        With ``make_config`` (and a stored manifest) the report also
        distinguishes *stale* points — completed under a configuration
        whose hash no longer matches — from missing ones.
        """
        expected = self.expected_hashes(make_config) if make_config else None
        totals = self.store.status(expected)
        per_group: Dict[tuple, dict] = {}

        def group(protocol, scenario):
            return per_group.setdefault(
                (protocol, scenario),
                {"protocol": protocol, "scenario": scenario,
                 "done": 0, "failed": 0, "stale": 0,
                 "total": 0 if expected is not None else None},
            )

        if expected is not None:
            for (protocol, scenario, _r, _s) in expected:
                group(protocol, scenario)["total"] += 1
        for (protocol, scenario, rate, seed), record in self.store.records():
            row = group(protocol, scenario)
            key = (protocol, scenario, rate, seed)
            if record["status"] != "ok":
                row["failed"] += 1
            elif expected is not None and expected.get(key) not in (
                    None, record["config_hash"]):
                row["stale"] += 1
            else:
                row["done"] += 1
        totals["rows"] = [per_group[k] for k in sorted(per_group)]
        return totals
