"""Experiment harness: the paper's scenarios, sweep runner and figures.

Ownership boundaries within the package (each module's docstring is the
API reference for its layer):

* :mod:`~repro.experiments.scenarios` — the Section 4.1 matrix as
  config factories (``paper_scenario`` / ``scaled_scenario``) and the
  ``--scale`` presets (``FIGURE_SCALES``, rebuilt from a campaign
  manifest by ``manifest_make_config``); pure construction, no
  execution.
* :mod:`~repro.experiments.runner` — the matrix and aggregation:
  ``run_sweep`` turns (protocol, scenario, rate, seed) jobs into
  seed-averaged ``SweepResult`` points through the farm;
  ``aggregate_points`` is the one fold from per-seed outcomes to
  points, which ``results_from_store`` also uses to aggregate a store
  without simulating.
* :mod:`~repro.experiments.store` — persistence: the append-only JSONL
  ``ResultStore`` and the config hash.
* :mod:`~repro.experiments.farm` — execution and progress:
  ``CampaignFarm`` is the one executor and the only object over a
  store, in-process at ``workers <= 1``, otherwise leasing jobs from
  one queue to worker processes (crash detection + lease requeue);
  either way the coordinator is the only writer of the one store.
  ``farm_status`` is the one progress count (done / failed / stale /
  missing over the manifest's matrix, plus liveness) that ``repro
  campaign status`` and ``repro campaign serve`` both print;
  ``make_status_server`` serves it.
* :mod:`~repro.experiments.figures` — figure definitions: what each
  paper figure plots, and rows from results or straight from a store.
* :mod:`~repro.experiments.report` — presentation: text tables, CSV,
  ``repro campaign status`` rendering.
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
