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

Every public name below resolves on first access (PEP 562) from the one
name -> submodule table ``_EXPORTS``, so ``from repro.experiments import
CampaignFarm`` works as always, but importing the package, or
:mod:`~repro.experiments.bench` or :mod:`~repro.experiments.scenarios`
alone, loads no farm (``multiprocessing``, ``socket``), store, runner,
figures or report: a simulation process pays only for what its run uses.
"""

from importlib import import_module

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "PAPER_RATES": "scenarios",
    "SCENARIOS": "scenarios",
    "paper_scenario": "scenarios",
    "scaled_scenario": "scenarios",
    "ResultStore": "store",
    "config_hash": "store",
    "point_key": "store",
    "CampaignFarm": "farm",
    "FarmCounters": "farm",
    "farm_status": "farm",
    "PointFailure": "runner",
    "SweepResult": "runner",
    "results_from_store": "runner",
    "run_point": "runner",
    "run_sweep": "runner",
    "sweep_failures": "runner",
    "FIGURES": "figures",
    "FigureSpec": "figures",
    "figure_rows": "figures",
    "figure_rows_from_store": "figures",
    "format_table": "report",
    "render_status": "report",
    "rows_to_csv": "report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
