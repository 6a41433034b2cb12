"""The campaign executor: one work-queue farm, in-process or multi-process.

Ownership: this module owns **execution** — running a campaign's
(protocol, scenario, rate, seed) points, durably recording each one,
and, across worker processes, keeping the workers fed and surviving
their deaths (lease requeue). Scenario construction stays in
:mod:`~repro.experiments.scenarios`, persistence in
:mod:`~repro.experiments.store` (the farm root *is* a ``ResultStore``
directory), aggregation in :mod:`~repro.experiments.runner`.

:class:`CampaignFarm` is the only executor and the only object over a
store: ``run_sweep`` (its store-less entry point) and ``repro campaign
run`` are thin calls into :meth:`CampaignFarm.run`. The coordinator is
the **only writer**: each job runs :func:`run_job` (``run_point`` with
retries) and its outcome goes through one ``finish`` step that appends
the first completion of each point to the root store, fsynced, before
progress is reported.

* **In-process** (``workers <= 1``). No process is spawned; the
  coordinator runs each job itself.
* **Multi-process** (``workers > 1``). One pending queue, dispatched in
  matrix order one lease at a time; workers send their outcomes back on
  a result queue and never open a store. The coordinator watches
  process liveness: a dead worker's leased job returns to the *front*
  of the queue and runs elsewhere. A killed worker therefore loses only
  its leased point; a killed coordinator loses only the outcomes still
  in flight, and the next run re-executes them. Records are per point
  bit-identical (``config_hash`` and ``RunSummary`` dict) to an
  in-process run, because every point is a deterministic function of
  its config and the record is written by the same code.

Liveness is observable while the farm runs: the coordinator maintains
``DIR/farm.json`` and every worker heartbeats ``DIR/workers/worker-NN
.json`` (atomic replace, one write per lease/completion), which is what
``repro campaign serve --out DIR`` reads. :func:`farm_status` is the
one progress count of a store directory: ``repro campaign status`` and
``repro campaign serve`` both print it. The farm counters
(done/requeued, worker deaths) are in ``farm.json`` under
``"counters"``, final once the run is done or aborted.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments import runner
from repro.experiments.runner import (
    Job,
    PointFailure,
    ProgressFn,
    SweepResult,
    aggregate_points,
    build_jobs,
)
from repro.experiments.scenarios import MakeConfig, manifest_make_config
from repro.experiments.store import (
    PointKey,
    ResultStore,
    config_hash,
    point_key,
)
from repro.metrics.summary import RunSummary

#: Subdirectory holding one heartbeat JSON file per worker.
WORKERS_DIR = "workers"
#: Coordinator state file (started_at, totals, progress, state).
FARM_STATE = "farm.json"

#: A worker heartbeat older than this is reported dead by the serve
#: endpoint even if its pid still exists (e.g. a stopped process).
HEARTBEAT_STALE_S = 30.0
#: How long the coordinator waits on the result queue before it
#: re-checks worker liveness.
POLL_S = 0.2
#: Minimum interval between ``farm.json`` rewrites while running.
STATE_WRITE_S = 1.0


class FarmError(RuntimeError):
    """The farm cannot make progress (every worker died)."""


@dataclass
class FarmCounters:
    """Execution counters for one farm run (``farm.json["counters"]``)."""

    points_total: int = 0
    points_cached: int = 0
    points_done: int = 0
    points_failed: int = 0
    points_requeued: int = 0
    workers_spawned: int = 0
    workers_died: int = 0


def _write_json_atomic(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _write_heartbeat(path: str, worker_id: int, done: int, status: str,
                     last_key: Optional[str]) -> None:
    _write_json_atomic(path, {
        "worker": worker_id,
        "pid": os.getpid(),
        "time": time.time(),
        "status": status,
        "done": done,
        "last_key": last_key,
    })


#: A job's final outcome: (summary, error, traceback, attempts) — the
#: summary on success, else the last error and its formatted traceback.
JobOutcome = Tuple[Optional[RunSummary], Optional[str], Optional[str], int]


def run_job(job: Job, retries: int) -> JobOutcome:
    """Run one job with up to ``retries`` re-runs; the coordinator
    records the outcome.

    ``run_point`` is looked up on :mod:`~repro.experiments.runner` at
    call time, so a patched ``runner.run_point`` is the one that runs
    in-process (and in workers forked after the patch).
    """
    error = tb = None
    for attempts in range(1, retries + 2):
        try:
            return runner.run_point(job.config), None, None, attempts
        except Exception as exc:  # captured, never fatal to the farm
            error = f"{type(exc).__name__}: {exc}"
            tb = traceback.format_exc()
    return None, error, tb, attempts


def _worker_main(worker_id: int, heartbeat_path: str, task_queue,
                 result_queue, retries: int) -> None:
    """One farm worker: lease → :func:`run_job` → send the outcome."""
    done = 0
    while True:
        job = task_queue.get()
        if job is None:
            _write_heartbeat(heartbeat_path, worker_id, done, "stopped", None)
            return
        _write_heartbeat(heartbeat_path, worker_id, done, "leased", job.key)
        outcome = run_job(job, retries)
        done += 1
        _write_heartbeat(heartbeat_path, worker_id, done, "idle", job.key)
        result_queue.put((worker_id, job.key, outcome))


class CampaignFarm:
    """The campaign executor over one farm directory.

    ``out`` is the farm root (a directory path or an already-open
    :class:`ResultStore`); it is the campaign's one result store, so
    after :meth:`run` the directory works with every store consumer
    unchanged (``repro campaign status --out``, ``repro figure --from``,
    ``repro validate --from``).
    """

    def __init__(self, out):
        self.store = out if isinstance(out, ResultStore) else ResultStore(out)
        self.counters = FarmCounters()

    @property
    def path(self) -> str:
        return self.store.directory

    def __len__(self) -> int:
        return len(self.store)

    # ------------------------------------------------------------------
    def run(
        self,
        protocols: Sequence[str],
        scenarios: Sequence[str],
        rates: Sequence[float],
        seeds: Sequence[int],
        make_config,
        *,
        workers: int = 0,
        retries: int = 0,
        progress: Optional[ProgressFn] = None,
        manifest_extra: Optional[dict] = None,
    ) -> List[SweepResult]:
        """Run (or resume) the matrix: in this process at ``workers <=
        1``, across ``workers`` processes otherwise.

        Points the root store already holds under their exact config
        hash are served as cached; everything else is executed,
        recorded and aggregated. No more processes are spawned than
        points are left to run. ``manifest_extra`` merges extra keys
        (e.g. the CLI's ``scale``) into the stored manifest so ``repro
        campaign status`` can rebuild the matrix later. The counters
        are ``self.counters`` and, once the run ends, ``farm.json``'s
        ``"counters"``. If the run raises (every worker died, Ctrl-C),
        ``farm.json`` says ``"aborted"``.
        """
        jobs = build_jobs(protocols, scenarios, rates, seeds, make_config)
        hashes = {job.key: config_hash(job.config) for job in jobs}
        cached = self._replay(jobs, hashes)
        to_run = [job for job in jobs if job.key not in cached]
        n_workers = min(workers, len(to_run)) if workers > 1 else 0

        manifest = {
            "protocols": [str(p) for p in protocols],
            "scenarios": [str(s) for s in scenarios],
            "rates": [float(r) for r in rates],
            "seeds": [int(s) for s in seeds],
            "farm": {"workers": n_workers},
        }
        manifest.update(manifest_extra or {})
        self.store.write_manifest(manifest)

        total = len(jobs)
        counters = self.counters = FarmCounters(
            points_total=total, points_cached=len(cached))
        if progress is not None:
            for done, key in enumerate(cached, start=1):
                progress(done, total, key + " (cached)", None)

        outcomes: Dict[str, object] = dict(cached)
        started_at = last_state_write = time.time()
        self._write_state("running", started_at, total, counters)

        def write_state_if_due() -> None:
            nonlocal last_state_write
            now = time.time()
            if now - last_state_write >= STATE_WRITE_S:
                last_state_write = now
                self._write_state("running", started_at, total, counters)

        def finish(job: Job, outcome: JobOutcome) -> None:
            """Record a job's first completion: durable record,
            counters, progress."""
            summary, error, tb, attempts = outcome
            point = (job.protocol, job.scenario, job.rate_pps, job.seed,
                     hashes[job.key])
            if summary is not None:
                self.store.record_success(*point, summary)
                outcomes[job.key] = summary
                counters.points_done += 1
            else:
                self.store.record_failure(*point, error=error,
                                          attempts=attempts)
                outcomes[job.key] = PointFailure(
                    protocol=job.protocol, scenario=job.scenario,
                    rate_pps=job.rate_pps, seed=job.seed, error=error,
                    traceback=tb, attempts=attempts)
                counters.points_failed += 1
            if progress is not None:
                progress(len(outcomes), total, job.key, error)
            write_state_if_due()

        try:
            if n_workers:
                self._execute_processes(to_run, n_workers, retries, finish,
                                        write_state_if_due)
            else:
                for job in to_run:
                    finish(job, run_job(job, retries))
        except BaseException:
            self._write_state("aborted", started_at, total, counters)
            raise
        self._write_state("done", started_at, total, counters)
        return aggregate_points(
            ((job.protocol, job.scenario, job.rate_pps, job.seed),
             outcomes[job.key]) for job in jobs)

    # ------------------------------------------------------------------
    def _replay(self, jobs: Sequence[Job],
                hashes: Dict[str, str]) -> Dict[str, RunSummary]:
        """Completed points in the root store, by job key."""
        cached: Dict[str, RunSummary] = {}
        for job in jobs:
            hit = self.store.get(job.protocol, job.scenario, job.rate_pps,
                                 job.seed, hashes[job.key])
            if hit is not None:
                cached[job.key] = hit
        return cached

    # ------------------------------------------------------------------
    def _execute_processes(self, to_run, n_workers, retries, finish,
                           write_state_if_due) -> None:
        """The coordinator loop: dispatch, detect death, requeue."""
        counters = self.counters
        os.makedirs(os.path.join(self.path, WORKERS_DIR), exist_ok=True)
        jobs_by_key = {job.key: job for job in to_run}
        pending: Deque[Job] = deque(to_run)

        ctx = multiprocessing.get_context()
        result_queue = ctx.Queue()
        task_queues = [ctx.Queue() for _ in range(n_workers)]
        procs: Dict[int, object] = {}
        for i in range(n_workers):
            heartbeat = os.path.join(self.path, WORKERS_DIR,
                                     f"worker-{i:02d}.json")
            proc = ctx.Process(
                target=_worker_main,
                args=(i, heartbeat, task_queues[i], result_queue, retries),
                daemon=True,
            )
            proc.start()
            procs[i] = proc
            counters.workers_spawned += 1

        leased: Dict[int, Job] = {}
        idle: Set[int] = set()
        dead: Set[int] = set()
        completed: Set[str] = set()

        def dispatch(worker_id: int) -> None:
            if pending:
                leased[worker_id] = pending.popleft()
                task_queues[worker_id].put(leased[worker_id])
            else:
                idle.add(worker_id)

        try:
            for i in range(n_workers):
                dispatch(i)
            while len(completed) < len(to_run):
                try:
                    message = result_queue.get(timeout=POLL_S)
                except queue_module.Empty:
                    message = None
                if message is not None:
                    worker_id, key, outcome = message
                    leased.pop(worker_id, None)
                    if key not in completed:
                        completed.add(key)
                        job = jobs_by_key[key]
                        if job in pending:  # a requeued lease finished
                            pending.remove(job)
                        finish(job, outcome)
                    if worker_id not in dead:
                        dispatch(worker_id)
                # -- liveness: requeue the leases of dead workers -------
                for worker_id, proc in procs.items():
                    if worker_id in dead or proc.is_alive():
                        continue
                    dead.add(worker_id)
                    idle.discard(worker_id)
                    counters.workers_died += 1
                    job = leased.pop(worker_id, None)
                    if job is not None and job.key not in completed:
                        counters.points_requeued += 1
                        pending.appendleft(job)
                while pending and idle:
                    dispatch(idle.pop())
                if len(dead) == n_workers and len(completed) < len(to_run):
                    raise FarmError(
                        f"all {n_workers} farm workers died with "
                        f"{len(to_run) - len(completed)} point(s) "
                        f"unfinished; completed work is in the root "
                        f"store — re-run to resume")
                write_state_if_due()
        finally:
            for worker_id, proc in procs.items():
                if proc.is_alive():
                    task_queues[worker_id].put(None)
            for proc in procs.values():
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            for q in task_queues + [result_queue]:
                q.cancel_join_thread()
                q.close()

    # ------------------------------------------------------------------
    def _write_state(self, state: str, started_at: float, total: int,
                     counters: FarmCounters) -> None:
        _write_json_atomic(os.path.join(self.path, FARM_STATE), {
            "state": state,
            "pid": os.getpid(),
            "started_at": started_at,
            "updated_at": time.time(),
            "total": total,
            "counters": asdict(counters),
        })


# ---------------------------------------------------------------------------
# Status (what `repro campaign serve` publishes)
# ---------------------------------------------------------------------------

def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (OSError, TypeError):
        return False
    return True


#: The manifest keys that define a campaign's matrix.
_MATRIX_KEYS = ("protocols", "scenarios", "rates", "seeds")


def farm_status(out: str, now: Optional[float] = None,
                make_config: Optional[MakeConfig] = None) -> dict:
    """One JSON-ready snapshot of a store directory's progress.

    Computed purely from on-disk state (the root store, its manifest,
    heartbeats, ``farm.json``) so it works from any process at any
    moment — during the run, after a crash, or long after completion.
    ``repro campaign status`` and ``repro campaign serve`` both print
    it; fields are documented in ``docs/campaign-farm.md`` ("The serve
    endpoint").

    Points are counted over the manifest's matrix. A point is *done*
    when its latest record is ``ok`` under the config hash the matrix
    expects now, *stale* when ``ok`` under another hash, *failed* when
    it is a captured failure and *missing* without a record. The
    expected hashes come from ``make_config``, by default rebuilt from
    the manifest (:func:`~repro.experiments.scenarios.manifest_make_config`);
    without one, every ``ok`` record counts as done. Without a manifest
    every record is counted and ``total``/``missing`` are None.
    """
    now = time.time() if now is None else now
    root = ResultStore(out, create=False)
    manifest = root.manifest() or {}
    records = dict(root.records())
    expected: Optional[Dict[PointKey, Optional[str]]] = None
    if all(k in manifest for k in _MATRIX_KEYS):
        make_config = make_config or manifest_make_config(manifest)
        expected = {
            point_key(protocol, scenario, rate, seed): (
                config_hash(make_config(protocol, scenario, rate, seed))
                if make_config is not None else None)
            for protocol in manifest["protocols"]
            for scenario in manifest["scenarios"]
            for rate in manifest["rates"]
            for seed in manifest["seeds"]
        }

    rows: Dict[tuple, dict] = {}
    for key in (records if expected is None else expected):
        row = rows.setdefault(key[:2], {
            "protocol": key[0], "scenario": key[1], "done": 0,
            "failed": 0, "stale": 0,
            "total": None if expected is None else 0})
        if expected is not None:
            row["total"] += 1
        record = records.get(key)
        if record is None:
            continue
        if record["status"] != "ok":
            row["failed"] += 1
        elif expected is not None and expected[key] not in (
                None, record["config_hash"]):
            row["stale"] += 1
        else:
            row["done"] += 1
    done, failed, stale = (sum(row[field] for row in rows.values())
                           for field in ("done", "failed", "stale"))
    total = missing = None
    if expected is not None:
        total = len(expected)
        missing = total - done - failed - stale

    state_path = os.path.join(out, FARM_STATE)
    state: dict = {}
    if os.path.exists(state_path):
        with open(state_path) as fh:
            state = json.load(fh)
    started_at = state.get("started_at")
    cached = (state.get("counters") or {}).get("points_cached", 0)
    points_per_sec = eta_s = None
    if started_at and now > started_at and done > cached:
        points_per_sec = (done - cached) / (now - started_at)
        if missing is not None and points_per_sec > 0:
            eta_s = (missing + stale) / points_per_sec

    workers = []
    workers_dir = os.path.join(out, WORKERS_DIR)
    if os.path.isdir(workers_dir):
        for name in sorted(os.listdir(workers_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(workers_dir, name)) as fh:
                    beat = json.load(fh)
            except (OSError, ValueError):
                continue
            age = now - beat.get("time", 0.0)
            alive = (beat.get("status") not in ("stopped",)
                     and _pid_alive(beat.get("pid"))
                     and age < HEARTBEAT_STALE_S)
            workers.append({
                "worker": beat.get("worker"),
                "pid": beat.get("pid"),
                "status": beat.get("status"),
                "alive": alive,
                "age_s": round(age, 3),
                "done": beat.get("done"),
                "last_key": beat.get("last_key"),
            })

    return {
        "state": state.get("state", "unknown"),
        "total": total,
        "done": done,
        "failed": failed,
        "stale": stale,
        "missing": missing,
        "rows": [rows[k] for k in sorted(rows)],
        "cached": cached,
        "points_per_sec": points_per_sec,
        "eta_s": eta_s,
        "counters": state.get("counters"),
        "workers": workers,
        "workers_alive": sum(1 for w in workers if w["alive"]),
        "updated_at": now,
    }


def render_farm_status(status: dict) -> str:
    """A compact human-readable form of :func:`farm_status`."""
    lines = []
    total = status["total"]
    head = (f"{status['done']}/{total}" if total is not None
            else str(status["done"]))
    lines.append(f"farm [{status['state']}]: {head} points done, "
                 f"{status['failed']} failed, {status['stale']} stale"
                 + (f", {status['missing']} missing"
                    if status["missing"] is not None else ""))
    if status["points_per_sec"]:
        eta = (f", eta {status['eta_s']:.0f}s"
               if status["eta_s"] is not None else "")
        lines.append(f"rate: {status['points_per_sec']:.2f} points/s{eta}")
    for worker in status["workers"]:
        flag = "alive" if worker["alive"] else "dead"
        lines.append(f"worker {worker['worker']}: {flag} "
                     f"({worker['status']}, {worker['done']} done, "
                     f"heartbeat {worker['age_s']:.1f}s ago)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The serve endpoint
# ---------------------------------------------------------------------------

def unreadable_store_reason(out: str, exc: ValueError) -> str:
    """The one line naming a store whose manifest this version cannot
    read (``farm_status`` raised ``exc``, say on a dropped config field)."""
    return f"result store {out!r} cannot be read by this version: {exc}"


def make_status_server(out: str, host: str = "127.0.0.1", port: int = 8765):
    """A threading HTTP server publishing a farm directory's status.

    ``GET /status`` returns the :func:`farm_status` JSON (recomputed
    from disk per request, so long-polling it streams live progress);
    ``GET /`` returns the human-readable rendering. A store this version
    cannot read answers 500 with :func:`unreadable_store_reason` as the
    plain-text body. The caller owns the server lifecycle
    (``serve_forever`` / ``shutdown``).
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            text = "text/plain; charset=utf-8"
            try:
                status = farm_status(out)
            except (FileNotFoundError, NotADirectoryError):
                self.send_error(404, "no farm store at %r" % out)
                return
            except ValueError as exc:
                self._reply(500, unreadable_store_reason(out, exc) + "\n", text)
                return
            if self.path.rstrip("/") in ("", "/"):
                self._reply(200, render_farm_status(status), text)
            elif self.path == "/status":
                self._reply(200, json.dumps(status, indent=1, sort_keys=True)
                            + "\n", "application/json")
            else:
                self.send_error(404, "unknown path (try / or /status)")

        def _reply(self, code: int, text: str, content_type: str) -> None:
            body = text.encode()
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # quiet; status is pull-based
            pass

    return ThreadingHTTPServer((host, port), Handler)
