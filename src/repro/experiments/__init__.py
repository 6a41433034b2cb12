"""Experiment harness: the paper's scenarios, sweep runner and figures.

Ownership boundaries within the package (each module's docstring is the
API reference for its layer):

* :mod:`~repro.experiments.scenarios` — the Section 4.1 matrix as
  config factories (``paper_scenario`` / ``scaled_scenario``); pure
  construction, no execution.
* :mod:`~repro.experiments.runner` — the matrix and aggregation:
  ``run_sweep`` turns (protocol, scenario, rate, seed) jobs into
  seed-averaged ``SweepResult`` points through the farm;
  ``results_from_store`` aggregates without simulating.
* :mod:`~repro.experiments.store` — persistence: the append-only JSONL
  ``ResultStore``, the config hash, and migration of legacy layouts
  (v0 checkpoint files, an older farm's ``shards/``).
* :mod:`~repro.experiments.campaign` — workflow: ``Campaign`` reports a
  store's status (done / failed / stale / missing) and aggregates; its
  ``run`` is a thin call into the farm.
* :mod:`~repro.experiments.farm` — execution: ``CampaignFarm`` is the
  one executor, in-process at ``workers <= 1``, otherwise leasing jobs
  from one queue to worker processes (crash detection + lease requeue);
  either way the coordinator is the only writer of the one store;
  ``farm_status`` and ``make_status_server`` power ``repro campaign
  serve``.
* :mod:`~repro.experiments.figures` — figure definitions: what each
  paper figure plots, and rows from results or straight from a store.
* :mod:`~repro.experiments.report` — presentation: text tables, CSV,
  campaign status rendering.
* :mod:`~repro.experiments.bench` — ``METRIC_FIELDS``, the
  ``RunSummary`` fields that pin a run's outcome. Performance is
  measured by ``benchmarks/e2e`` only (end to end, uninstrumented).
"""

from repro.experiments.scenarios import (
    PAPER_RATES,
    SCENARIOS,
    paper_scenario,
    scaled_scenario,
)
from repro.experiments.store import (
    ResultStore,
    config_hash,
    point_key,
)
from repro.experiments.campaign import Campaign
from repro.experiments.farm import CampaignFarm, FarmCounters, farm_status
from repro.experiments.runner import (
    PointFailure,
    SweepResult,
    results_from_store,
    run_point,
    run_sweep,
    sweep_failures,
)
from repro.experiments.figures import (
    FIGURES,
    FigureSpec,
    figure_rows,
    figure_rows_from_store,
)
from repro.experiments.report import format_table, render_status, rows_to_csv

__all__ = [
    "Campaign",
    "CampaignFarm",
    "FarmCounters",
    "PAPER_RATES",
    "ResultStore",
    "SCENARIOS",
    "config_hash",
    "farm_status",
    "paper_scenario",
    "point_key",
    "scaled_scenario",
    "PointFailure",
    "SweepResult",
    "results_from_store",
    "run_point",
    "run_sweep",
    "sweep_failures",
    "FIGURES",
    "FigureSpec",
    "figure_rows",
    "figure_rows_from_store",
    "format_table",
    "render_status",
    "rows_to_csv",
]
