"""Sweep runner: the (point, seed) matrix, its jobs and its aggregates.

Ownership: this module owns **the matrix and aggregation** — turning a
(protocols x scenarios x rates x seeds) matrix into jobs, and per-seed
outcomes into per-point :class:`SweepResult` averages through one fold,
:func:`aggregate_points`, which both a farm run and a store read
(:func:`results_from_store`) call. Execution, resume and status are
:class:`repro.experiments.farm.CampaignFarm`, the one executor
(``run_sweep`` is a thin call into it); persistence lives in
:mod:`repro.experiments.store`.

A *point* is (protocol, scenario, rate); each point runs over several
seeds (the paper: ten random placements, identical across protocols so
the comparison is paired) and the summaries are averaged.

Fault tolerance: paper-scale campaigns are hundreds of runs; one
crashing seed must not void the other 479. A failed job is captured as
a :class:`PointFailure` naming the exact (protocol, scenario, rate,
seed) that died (with its traceback), optionally retried, and the
surviving seeds are still aggregated.

Checkpointing: pass ``store=ResultStore(dir)`` and every finished job is
appended to disk *as it completes* (success or captured failure), while
jobs whose exact configuration hash is already stored are served from
disk without simulating. Killing a sweep therefore costs only the
in-flight jobs; re-invoking with the same arguments resumes. Without a
store, the sweep writes through a temporary one that is removed on
return.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.store import PointKey, ResultStore
from repro.metrics.summary import RunSummary
from repro.world.network import ScenarioConfig, build_network


def run_point(config: ScenarioConfig) -> RunSummary:
    """Build and run one scenario; returns its summary."""
    return build_network(config).run()


#: RunSummary fields averaged across seeds (None values are skipped).
_MEAN_FIELDS = (
    "delivery_ratio",
    "avg_delay_s",
    "avg_drop_ratio",
    "avg_retx_ratio",
    "avg_txoh_ratio",
    "mrts_len_avg",
    "abort_avg",
)
#: Fields combined with max / pooled p99 semantics.
_MAX_FIELDS = ("mrts_len_max", "max_delay_s", "abort_max")
_P99_FIELDS = ("mrts_len_p99", "abort_p99")


@dataclass(frozen=True)
class PointFailure:
    """One (protocol, scenario, rate, seed) run that raised."""

    protocol: str
    scenario: str
    rate_pps: float
    seed: int
    error: str
    traceback: str
    #: How many times the job was attempted (1 + retries used).
    attempts: int

    @property
    def key(self) -> str:
        return f"{self.protocol}|{self.scenario}|{self.rate_pps}|{self.seed}"

    def __str__(self) -> str:
        return f"{self.key}: {self.error} (after {self.attempts} attempt(s))"


@dataclass(frozen=True)
class SweepResult:
    """Seed-averaged metrics for one (protocol, scenario, rate) point."""

    protocol: str
    scenario: str
    rate_pps: float
    n_seeds: int
    values: Dict[str, Optional[float]]
    per_seed: Tuple[RunSummary, ...]
    #: Seeds of this point whose runs raised (empty on a clean sweep).
    failures: Tuple[PointFailure, ...] = ()

    def __getitem__(self, key: str) -> Optional[float]:
        return self.values[key]


def aggregate(
    protocol: str,
    scenario: str,
    rate_pps: float,
    summaries: Sequence[RunSummary],
    failures: Sequence[PointFailure] = (),
) -> SweepResult:
    """Average per-seed summaries into one sweep point."""
    values: Dict[str, Optional[float]] = {}
    for name in _MEAN_FIELDS + _P99_FIELDS:
        samples = [getattr(s, name) for s in summaries if getattr(s, name) is not None]
        values[name] = sum(samples) / len(samples) if samples else None
    for name in _MAX_FIELDS:
        samples = [getattr(s, name) for s in summaries if getattr(s, name) is not None]
        values[name] = max(samples) if samples else None
    return SweepResult(
        protocol=protocol,
        scenario=scenario,
        rate_pps=rate_pps,
        n_seeds=len(summaries),
        values=values,
        per_seed=tuple(summaries),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class Job:
    """One unit of sweep work: a single (point, seed) run."""

    protocol: str
    scenario: str
    rate_pps: float
    seed: int
    config: ScenarioConfig

    @property
    def key(self) -> str:
        return f"{self.protocol}|{self.scenario}|{self.rate_pps}|{self.seed}"


def build_jobs(
    protocols: Sequence[str],
    scenarios: Sequence[str],
    rates: Sequence[float],
    seeds: Sequence[int],
    make_config,
) -> List[Job]:
    """The full matrix as jobs, in canonical matrix order.

    The order is load-bearing: :func:`aggregate_points` emits points in
    the order it first sees them, so a farm run's results come out in
    matrix order, and the store/farm layers key caches by
    :attr:`Job.key`.
    """
    jobs: List[Job] = []
    for protocol in protocols:
        for scenario in scenarios:
            for rate in rates:
                for seed in seeds:
                    jobs.append(
                        Job(protocol, scenario, rate, seed,
                            make_config(protocol, scenario, rate, seed))
                    )
    return jobs


def aggregate_points(
    outcomes: Iterable[Tuple[PointKey, object]],
) -> List[SweepResult]:
    """Fold per-seed outcomes into seed-averaged points.

    ``outcomes`` yields ((protocol, scenario, rate, seed), outcome)
    pairs, each outcome a ``RunSummary`` or a :class:`PointFailure`.
    They are grouped by (protocol, scenario, rate); points come out in
    the order they are first seen, and each point's seeds in the order
    given.
    """
    groups: Dict[Tuple[str, str, float], List[object]] = {}
    for (protocol, scenario, rate, _seed), outcome in outcomes:
        groups.setdefault((protocol, scenario, rate), []).append(outcome)
    return [
        aggregate(*point,
                  [o for o in chunk if isinstance(o, RunSummary)],
                  [o for o in chunk if isinstance(o, PointFailure)])
        for point, chunk in groups.items()
    ]


#: Progress callback: (done, total, job_key, error_or_None).
ProgressFn = Callable[[int, int, str, Optional[str]], None]


def run_sweep(
    protocols: Sequence[str],
    scenarios: Sequence[str],
    rates: Sequence[float],
    seeds: Sequence[int],
    make_config,
    workers: int = 0,
    *,
    retries: int = 0,
    progress: Optional[ProgressFn] = None,
    store: Optional[ResultStore] = None,
) -> List[SweepResult]:
    """Run the full matrix and aggregate per point.

    ``make_config(protocol, scenario, rate, seed) -> ScenarioConfig`` lets
    callers choose paper-scale or bench-scale runs. Execution is
    :meth:`repro.experiments.farm.CampaignFarm.run` over ``store`` (or a
    throwaway temporary store): in-process at ``workers <= 1``, across
    ``workers`` processes otherwise. A crashing run is captured as a
    :class:`PointFailure` and never aborts the rest of the matrix.

    Parameters
    ----------
    retries:
        Re-run a failed job up to this many extra times before recording
        it as a :class:`PointFailure`.
    progress:
        Called after every finished job as ``progress(done, total,
        job_key, error_or_None)`` -- e.g. for live console reporting.
        Jobs served from the store count too (key suffixed " (cached)").
    store:
        A :class:`~repro.experiments.store.ResultStore` to resume from
        and write through: jobs whose exact config hash is already
        stored are not re-simulated, and every finished job (success or
        captured failure) is appended as it completes, so an
        interrupted sweep loses only its in-flight jobs.
    """
    from repro.experiments.farm import CampaignFarm

    def sweep(out) -> List[SweepResult]:
        return CampaignFarm(out).run(
            protocols, scenarios, rates, seeds, make_config,
            workers=workers, retries=retries, progress=progress)

    if store is not None:
        return sweep(store)
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
        return sweep(scratch)


def sweep_failures(results: Sequence[SweepResult]) -> List[PointFailure]:
    """Every captured failure across a sweep's results, in matrix order."""
    collected: List[PointFailure] = []
    for result in results:
        collected.extend(result.failures)
    return collected


def results_from_store(
    store: ResultStore,
    protocols: Optional[Sequence[str]] = None,
) -> List[SweepResult]:
    """Aggregate whatever a store holds, without simulating anything.

    Every completed point, in key order, through :func:`aggregate_points`
    — a partially-populated store yields partial results, each point
    averaged over the seeds actually present. Powers ``repro figure
    --from DIR`` and ``repro validate --from DIR``.
    """
    return aggregate_points(
        (key, summary) for key, summary in sorted(store.completed().items())
        if protocols is None or key[0] in protocols)
