"""The campaign executor: one work-queue farm, in-process or multi-process.

Ownership: this module owns **execution** — running a campaign's
(protocol, scenario, rate, seed) points, durably recording each one,
and, across worker processes, keeping the workers fed (work-stealing),
surviving their deaths (lease requeue + shard replay), and folding the
per-shard result stores back into one canonical store. Scenario
construction stays in :mod:`~repro.experiments.scenarios`, persistence
in :mod:`~repro.experiments.store` (the farm only composes
``ResultStore`` directories), aggregation in
:mod:`~repro.experiments.runner`.

:class:`CampaignFarm` is the only executor: ``run_sweep``,
``Campaign.run`` and ``repro campaign run`` are thin calls into
:meth:`CampaignFarm.run`. Both modes run the same per-job function
(:func:`run_job`: ``run_point`` with retries, then one fsynced record):

* **In-process** (``workers <= 1``). No process is spawned; every
  point is recorded straight into the canonical root store.
* **Multi-process** (``workers > 1``), with these properties:

  * **Sharded stores.** Every worker appends to its *own*
    ``ResultStore`` directory (``DIR/shards/shard-NN/``), so there is
    no cross-process write contention and a worker's completed points
    are durable the instant its ``record_success`` returns.
  * **Deterministic point→shard assignment.** A point's home shard is
    ``int(config_hash, 16) % n_shards``, so a re-invoked farm rebuilds
    the same queues and a shard store can always be traced back to the
    points it was responsible for.
  * **Work-stealing.** A worker whose home queue drains steals from
    the *longest* remaining queue, so one slow shard cannot leave the
    other cores idle. Stolen points are recorded in the thief's shard
    store; the merge does not care.
  * **Crash detection + lease requeue.** The coordinator leases
    exactly one job to a worker at a time and watches process
    liveness. A killed worker's leased job returns to the front of its
    home queue and runs elsewhere; the dead worker's partial shard
    store is *replayed* on the next run, never discarded.
  * **Deterministic merge.** :func:`repro.experiments.store.merge_stores`
    folds the shard stores into the canonical root store
    (``DIR/results.jsonl``) — per point bit-identical (``config_hash``
    and ``RunSummary`` dict) to an in-process run of the same spec,
    because every point is a deterministic function of its config and
    the record format is shared.

Liveness is observable while the farm runs: the coordinator maintains
``DIR/farm.json`` and every worker heartbeats ``DIR/workers/worker-NN
.json`` (atomic replace, one write per lease/completion), which is what
``repro campaign serve --out DIR`` reads — see :func:`farm_status` for
the exact fields. Farm counters (done/stolen/requeued, worker deaths)
thread into the :class:`~repro.sim.telemetry.Telemetry` pipeline as a
``"farm"`` section.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.experiments import runner
from repro.experiments.runner import (
    Job,
    PointFailure,
    ProgressFn,
    SweepResult,
    build_jobs,
    collect_results,
)
from repro.experiments.store import (
    ResultStore,
    config_hash,
    merge_stores,
)
from repro.metrics.summary import RunSummary

#: Subdirectory of the farm root holding one ResultStore per shard.
SHARDS_DIR = "shards"
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


def shard_index(point_hash: str, n_shards: int) -> int:
    """Deterministic home shard for a point: hash mod shard count."""
    return int(point_hash, 16) % n_shards


def shard_name(index: int) -> str:
    return f"shard-{index:02d}"


def shard_dirs(root: str, n_shards: int) -> List[str]:
    return [os.path.join(root, SHARDS_DIR, shard_name(i))
            for i in range(n_shards)]


def existing_shard_dirs(root: str) -> List[str]:
    """Every shard store directory present under ``root``, sorted —
    including shards left by an earlier run with a different worker
    count (their points replay into the new queues all the same)."""
    base = os.path.join(root, SHARDS_DIR)
    if not os.path.isdir(base):
        return []
    return sorted(
        os.path.join(base, name) for name in os.listdir(base)
        if os.path.isdir(os.path.join(base, name))
    )


@dataclass
class FarmCounters:
    """Execution counters for one farm run (a telemetry section)."""

    points_total: int = 0
    points_cached: int = 0
    points_done: int = 0
    points_failed: int = 0
    points_stolen: int = 0
    points_requeued: int = 0
    workers_spawned: int = 0
    workers_died: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "points_total": self.points_total,
            "points_cached": self.points_cached,
            "points_done": self.points_done,
            "points_failed": self.points_failed,
            "points_stolen": self.points_stolen,
            "points_requeued": self.points_requeued,
            "workers_spawned": self.workers_spawned,
            "workers_died": self.workers_died,
        }


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


def run_job(job: Job, job_hash: str, store: ResultStore,
            retries: int) -> JobOutcome:
    """Run one job with up to ``retries`` re-runs, then durably record
    its outcome in ``store`` (success or captured failure).

    ``run_point`` is looked up on :mod:`~repro.experiments.runner` at
    call time, so a patched ``runner.run_point`` is the one that runs
    in-process (and in workers forked after the patch).
    """
    error = tb = None
    for attempts in range(1, retries + 2):
        try:
            summary = runner.run_point(job.config)
        except Exception as exc:  # captured, never fatal to the farm
            error = f"{type(exc).__name__}: {exc}"
            tb = traceback.format_exc()
            continue
        store.record_success(job.protocol, job.scenario, job.rate_pps,
                             job.seed, job_hash, summary)
        return summary, None, None, attempts
    store.record_failure(job.protocol, job.scenario, job.rate_pps,
                         job.seed, job_hash, error=error, attempts=attempts)
    return None, error, tb, attempts


def _worker_main(worker_id: int, shard_dir: str, heartbeat_path: str,
                 task_queue, result_queue, retries: int) -> None:
    """One farm worker: lease → :func:`run_job` into its own shard → ack.

    The shard-store append (fsynced) happens *before* the ack, so a
    worker killed between the two leaves a durable record; the
    coordinator requeues the lease and the re-run's identical record is
    deduplicated by the merge.
    """
    store = ResultStore(shard_dir)
    done = 0
    while True:
        task = task_queue.get()
        if task is None:
            _write_heartbeat(heartbeat_path, worker_id, done, "stopped", None)
            return
        job, job_hash = task
        _write_heartbeat(heartbeat_path, worker_id, done, "leased", job.key)
        outcome = run_job(job, job_hash, store, retries)
        done += 1
        _write_heartbeat(heartbeat_path, worker_id, done, "idle", job.key)
        result_queue.put((worker_id, job.key, outcome))


class CampaignFarm:
    """The campaign executor over one farm directory.

    ``out`` is the farm root (a directory path or an already-open
    :class:`ResultStore`); it doubles as the canonical merged store, so
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
        telemetry=None,
    ) -> List[SweepResult]:
        """Run (or resume) the matrix: in this process at ``workers <=
        1``, across ``workers`` processes (one shard each) otherwise.

        Resume sources, in order: the canonical root store, then every
        existing shard store (a dead worker's partial shard is replayed
        here). Completed points are served as cached; everything else is
        executed, merged, and aggregated. No more processes are spawned
        than points are left to run. ``manifest_extra`` merges extra
        keys (e.g. the CLI's ``scale``) into the stored manifest so
        ``repro campaign status`` can rebuild the matrix later.
        ``telemetry`` (a :class:`~repro.sim.telemetry.Telemetry`) gets
        the farm counters as a ``"farm"`` section.
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
            "farm": {"workers": n_workers, "shards": n_workers},
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
            """Record a job's first completion: outcome, counters,
            progress."""
            summary, error, tb, attempts = outcome
            if summary is not None:
                outcomes[job.key] = summary
                counters.points_done += 1
            else:
                outcomes[job.key] = PointFailure(
                    protocol=job.protocol, scenario=job.scenario,
                    rate_pps=job.rate_pps, seed=job.seed, error=error,
                    traceback=tb, attempts=attempts)
                counters.points_failed += 1
            if progress is not None:
                progress(len(outcomes), total, job.key, error)
            write_state_if_due()

        if n_workers:
            self._execute_processes(to_run, hashes, n_workers, retries,
                                    finish, write_state_if_due)
        else:
            for job in to_run:
                finish(job, run_job(job, hashes[job.key], self.store,
                                    retries))

        # -- merge: fold every shard store into the canonical root ------
        merged = merge_stores(
            self.store,
            [ResultStore(d) for d in existing_shard_dirs(self.path)],
        )
        self._write_state("done", started_at, total, counters,
                          merged=merged)
        if telemetry is not None:
            telemetry.set_section("farm", counters.as_dict())
        return collect_results(jobs, seeds, outcomes)

    # ------------------------------------------------------------------
    def _replay(self, jobs: Sequence[Job],
                hashes: Dict[str, str]) -> Dict[str, RunSummary]:
        """Completed points on disk: the root store first, then every
        shard store left by an earlier run."""
        cached: Dict[str, RunSummary] = {}
        replay_stores = [ResultStore(d) for d in
                         existing_shard_dirs(self.path)]
        for job in jobs:
            hit = self.store.get(job.protocol, job.scenario, job.rate_pps,
                                 job.seed, hashes[job.key])
            for source in replay_stores if hit is None else ():
                hit = source.get(job.protocol, job.scenario, job.rate_pps,
                                 job.seed, hashes[job.key])
                if hit is not None:
                    break
            if hit is not None:
                cached[job.key] = hit
        return cached

    # ------------------------------------------------------------------
    def _execute_processes(self, to_run, hashes, n_workers, retries,
                           finish, write_state_if_due) -> None:
        """The coordinator loop: dispatch, steal, detect death, requeue."""
        counters = self.counters
        os.makedirs(os.path.join(self.path, WORKERS_DIR), exist_ok=True)
        jobs_by_key = {job.key: job for job in to_run}
        dirs = shard_dirs(self.path, n_workers)
        pending: List[Deque[Tuple[Job, str]]] = [deque()
                                                 for _ in range(n_workers)]
        for job in to_run:
            job_hash = hashes[job.key]
            pending[shard_index(job_hash, n_workers)].append((job, job_hash))

        ctx = multiprocessing.get_context()
        result_queue = ctx.Queue()
        task_queues = [ctx.Queue() for _ in range(n_workers)]
        procs: Dict[int, object] = {}
        heartbeat = {
            i: os.path.join(self.path, WORKERS_DIR, f"worker-{i:02d}.json")
            for i in range(n_workers)
        }
        for i in range(n_workers):
            proc = ctx.Process(
                target=_worker_main,
                args=(i, dirs[i], heartbeat[i], task_queues[i],
                      result_queue, retries),
                daemon=True,
            )
            proc.start()
            procs[i] = proc
            counters.workers_spawned += 1

        leased: Dict[int, Tuple[Job, str]] = {}
        idle: Set[int] = set()
        dead: Set[int] = set()
        completed_keys: Set[str] = set()

        def next_task(worker_id: int):
            """Home queue first; otherwise steal from the longest one."""
            if pending[worker_id]:
                return pending[worker_id].popleft()
            richest = max(range(n_workers), key=lambda s: len(pending[s]))
            if pending[richest]:
                counters.points_stolen += 1
                return pending[richest].pop()
            return None

        def dispatch(worker_id: int) -> None:
            task = next_task(worker_id)
            if task is None:
                idle.add(worker_id)
                return
            leased[worker_id] = task
            task_queues[worker_id].put(task)

        def cancel_duplicate(key: str) -> None:
            """Drop a still-queued requeue of an already-completed job
            (the original worker's ack raced its death detection)."""
            for shard_queue in pending:
                for task in shard_queue:
                    if task[0].key == key:
                        shard_queue.remove(task)
                        return

        try:
            for i in range(n_workers):
                dispatch(i)
            while len(completed_keys) < len(to_run):
                try:
                    message = result_queue.get(timeout=POLL_S)
                except queue_module.Empty:
                    message = None
                if message is not None:
                    worker_id, key, outcome = message
                    task = leased.pop(worker_id, None)
                    if key not in completed_keys:
                        completed_keys.add(key)
                        cancel_duplicate(key)
                        finish(jobs_by_key[key], outcome)
                    if worker_id not in dead and task is not None:
                        dispatch(worker_id)
                # -- liveness: requeue the leases of dead workers -------
                for worker_id, proc in procs.items():
                    if worker_id in dead or proc.is_alive():
                        continue
                    dead.add(worker_id)
                    counters.workers_died += 1
                    task = leased.pop(worker_id, None)
                    if task is not None and task[0].key not in completed_keys:
                        counters.points_requeued += 1
                        job, job_hash = task
                        pending[shard_index(job_hash, n_workers)].appendleft(
                            task)
                        for w in sorted(idle - dead):
                            idle.discard(w)
                            dispatch(w)
                alive = [w for w in procs if w not in dead]
                if not alive and len(completed_keys) < len(to_run):
                    raise FarmError(
                        f"all {len(procs)} farm workers died with "
                        f"{len(to_run) - len(completed_keys)} point(s) "
                        f"unfinished; completed work is in the shard "
                        f"stores — re-run to resume")
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
                     counters: FarmCounters, merged: Optional[dict] = None,
                     ) -> None:
        payload = {
            "state": state,
            "pid": os.getpid(),
            "started_at": started_at,
            "updated_at": time.time(),
            "total": total,
            "counters": counters.as_dict(),
        }
        if merged is not None:
            payload["merged"] = merged
        _write_json_atomic(os.path.join(self.path, FARM_STATE), payload)


# ---------------------------------------------------------------------------
# Status (what `repro campaign serve` publishes)
# ---------------------------------------------------------------------------

def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (OSError, TypeError):
        return False
    return True


def farm_status(out: str, now: Optional[float] = None) -> dict:
    """One JSON-ready snapshot of a farm directory's live progress.

    Computed purely from on-disk state (shard manifests, heartbeats,
    ``farm.json``) so it works from any process at any moment — during
    the run, after a crash, or long after completion. Fields are
    documented in ``docs/campaign-farm.md`` ("The serve endpoint").
    """
    now = time.time() if now is None else now
    root = ResultStore(out, create=False)
    manifest = root.manifest() or {}
    state_path = os.path.join(out, FARM_STATE)
    state: dict = {}
    if os.path.exists(state_path):
        with open(state_path) as fh:
            state = json.load(fh)

    ok_keys: Set[tuple] = set()
    failed_keys: Set[tuple] = set()
    shards = []
    shard_stores = [("", root)]
    for directory in existing_shard_dirs(out):
        shard_stores.append((os.path.basename(directory),
                             ResultStore(directory)))
    for name, store in shard_stores:
        ok = failed = 0
        for key, record in store.records():
            if record["status"] == "ok":
                ok += 1
                ok_keys.add(key)
            else:
                failed += 1
                failed_keys.add(key)
        if name:
            shards.append({"shard": name, "ok": ok, "failed": failed})

    done = len(ok_keys)
    failed = len(failed_keys - ok_keys)
    total = None
    if all(k in manifest for k in ("protocols", "scenarios", "rates", "seeds")):
        total = (len(manifest["protocols"]) * len(manifest["scenarios"])
                 * len(manifest["rates"]) * len(manifest["seeds"]))
    missing = None if total is None else max(total - done - failed, 0)

    started_at = state.get("started_at")
    cached = (state.get("counters") or {}).get("points_cached", 0)
    points_per_sec = eta_s = None
    if started_at and now > started_at and done > cached:
        points_per_sec = (done - cached) / (now - started_at)
        if missing is not None and points_per_sec > 0:
            eta_s = missing / points_per_sec

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
        "missing": missing,
        "cached": cached,
        "points_per_sec": points_per_sec,
        "eta_s": eta_s,
        "counters": state.get("counters"),
        "workers": workers,
        "workers_alive": sum(1 for w in workers if w["alive"]),
        "shards": shards,
        "updated_at": now,
    }


def render_farm_status(status: dict) -> str:
    """A compact human-readable form of :func:`farm_status`."""
    lines = []
    total = status["total"]
    head = (f"{status['done']}/{total}" if total is not None
            else str(status["done"]))
    lines.append(f"farm [{status['state']}]: {head} points done, "
                 f"{status['failed']} failed"
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
    for shard in status["shards"]:
        lines.append(f"{shard['shard']}: {shard['ok']} ok, "
                     f"{shard['failed']} failed")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The serve endpoint
# ---------------------------------------------------------------------------

def make_status_server(out: str, host: str = "127.0.0.1", port: int = 8765):
    """A threading HTTP server publishing a farm directory's status.

    ``GET /status`` returns the :func:`farm_status` JSON (recomputed
    from disk per request, so long-polling it streams live progress);
    ``GET /`` returns the human-readable rendering. The caller owns the
    server lifecycle (``serve_forever`` / ``shutdown``).
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 (http.server API)
            try:
                status = farm_status(out)
            except FileNotFoundError:
                self.send_error(404, "no farm store at %r" % out)
                return
            if self.path.rstrip("/") in ("", "/"):
                body = render_farm_status(status).encode()
                content_type = "text/plain; charset=utf-8"
            elif self.path == "/status":
                body = (json.dumps(status, indent=1, sort_keys=True)
                        + "\n").encode()
                content_type = "application/json"
            else:
                self.send_error(404, "unknown path (try / or /status)")
                return
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # quiet; status is pull-based
            pass

    return ThreadingHTTPServer((host, port), Handler)
