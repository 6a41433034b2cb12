"""Append-only on-disk result store for experiment campaigns.

Ownership: this module owns **persistence only** — the record format,
the config hash and durability. It knows nothing about how points are
executed (``farm``), how they are averaged (``runner``), how progress
is counted (``farm.farm_status``) or what they mean (``figures``,
``analysis``); those layers read and write through :class:`ResultStore`.

A store is a *directory* holding:

* ``results.jsonl`` — one JSON record per line, append-only. A record
  is either a completed point or a captured failure; a later record for
  the same (protocol, scenario, rate, seed) supersedes earlier ones, so
  a re-run after a failure simply appends the success.
* ``manifest.json`` — optional campaign matrix (written by
  ``repro campaign run``) so ``repro campaign status`` can report
  missing and stale counts without the caller re-deriving the matrix.

Record schema (version 1)::

    {"v": 1, "protocol": "rmac", "scenario": "stationary",
     "rate_pps": 10.0, "seed": 1, "config_hash": "<16 hex chars>",
     "status": "ok", "summary": {... RunSummary fields ...}}

    {"v": 1, ..., "status": "failed", "error": "...", "attempts": 2}

``config_hash`` is SHA-256 over the canonical JSON of the full
:class:`~repro.world.network.ScenarioConfig` (sorted keys), truncated
to 16 hex characters: a stored point is only reused when the *entire*
configuration that produced it is unchanged. The store does not
interpret the config: a config holds only what its run reads (each
config class rejects values its run would ignore), so equal runs hash
equally.

Compatibility rules:

* unknown top-level keys and unknown ``summary`` keys are ignored, so
  newer stores load under older code (forward compatibility);
* a record missing a required ``RunSummary`` field raises a clear
  ``ValueError`` when its summary is materialized — never a silent
  partial summary;
* a truncated final line (the process was killed mid-append) is
  skipped; malformed lines elsewhere are skipped too and counted in
  :attr:`ResultStore.corrupt_lines`;
* anything but a directory at the store path raises
  ``NotADirectoryError`` naming the path.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Dict, Iterator, Optional, Tuple

from repro.metrics.summary import RunSummary
from repro.sim.rng import sha256

#: Record schema version written by this code.
SCHEMA_VERSION = 1

#: A point's identity within a store: (protocol, scenario, rate, seed).
PointKey = Tuple[str, str, float, int]


def _canonical_default(obj) -> object:
    """JSON fallback for non-dataclass config members.

    Objects exposing ``to_dict`` (the ``BitErrorModel`` inside a
    ``FaultPlan``) serialize through their stable parameter dict --
    ``str()`` would embed a memory address and break hash determinism.
    """
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return str(obj)


def canonical_config_json(config) -> str:
    """The canonical JSON form of a ScenarioConfig (hashing input)."""
    return json.dumps(asdict(config), sort_keys=True, default=_canonical_default)


def config_hash(config) -> str:
    """Stable fingerprint of a full scenario configuration: SHA-256 of
    its canonical JSON, truncated to 16 hex chars."""
    return sha256(
        canonical_config_json(config).encode()).hexdigest()[:16]


def point_key(protocol: str, scenario: str, rate_pps: float, seed: int) -> PointKey:
    """Normalized store key (rate as float, seed as int)."""
    return (str(protocol), str(scenario), float(rate_pps), int(seed))


class ResultStore:
    """An append-only directory store of completed sweep points.

    Open with ``ResultStore(path)`` to create-or-resume, or
    ``ResultStore(path, create=False)`` to require an existing store
    (the read-only CLI paths: ``status``, ``figure --from``).
    """

    RESULTS_NAME = "results.jsonl"
    MANIFEST_NAME = "manifest.json"

    def __init__(self, directory: str, create: bool = True):
        if os.path.exists(directory) and not os.path.isdir(directory):
            raise NotADirectoryError(
                f"{directory!r} is a file, not a result store directory")
        if not os.path.isdir(directory):
            if not create:
                raise FileNotFoundError(f"no result store at {directory!r}")
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.path = os.path.join(directory, self.RESULTS_NAME)
        #: Malformed non-final lines skipped during load.
        self.corrupt_lines = 0
        self._records: Dict[PointKey, dict] = {}
        self._load()

    # -- loading -------------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path) as fh:
            lines = fh.readlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key = point_key(record["protocol"], record["scenario"],
                                record["rate_pps"], record["seed"])
            except (ValueError, KeyError, TypeError):
                # The final line may be a half-written record from a
                # killed process; anything else is counted as corrupt.
                if index != len(lines) - 1:
                    self.corrupt_lines += 1
                continue
            self._records[key] = record

    # -- appending -----------------------------------------------------
    def _append(self, key: PointKey, record: dict) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._records[key] = record

    def record_success(self, protocol: str, scenario: str, rate_pps: float,
                       seed: int, config_hash: str,
                       summary: RunSummary) -> None:
        """Persist one completed point (durable before returning)."""
        key = point_key(protocol, scenario, rate_pps, seed)
        self._append(key, {
            "v": SCHEMA_VERSION,
            "protocol": key[0], "scenario": key[1],
            "rate_pps": key[2], "seed": key[3],
            "config_hash": config_hash,
            "status": "ok",
            "summary": summary.to_dict(),
        })

    def record_failure(self, protocol: str, scenario: str, rate_pps: float,
                       seed: int, config_hash: str, error: str,
                       attempts: int = 1) -> None:
        """Persist one captured failure (always re-run on resume)."""
        key = point_key(protocol, scenario, rate_pps, seed)
        self._append(key, {
            "v": SCHEMA_VERSION,
            "protocol": key[0], "scenario": key[1],
            "rate_pps": key[2], "seed": key[3],
            "config_hash": config_hash,
            "status": "failed",
            "error": error,
            "attempts": attempts,
        })

    # -- reading -------------------------------------------------------
    def get(self, protocol: str, scenario: str, rate_pps: float, seed: int,
            config_hash: str) -> Optional[RunSummary]:
        """The stored summary for a point, iff completed under this
        exact configuration hash (stale and failed records miss)."""
        record = self._records.get(point_key(protocol, scenario, rate_pps, seed))
        if (record is None or record["status"] != "ok"
                or record["config_hash"] != config_hash):
            return None
        return RunSummary.from_dict(record["summary"])

    def completed(self) -> Dict[PointKey, RunSummary]:
        """Every completed point, whatever its hash (aggregation input)."""
        return {
            key: RunSummary.from_dict(record["summary"])
            for key, record in self._records.items()
            if record["status"] == "ok"
        }

    def failures(self) -> Dict[PointKey, dict]:
        """Points whose latest record is a captured failure."""
        return {key: record for key, record in self._records.items()
                if record["status"] == "failed"}

    def records(self) -> Iterator[Tuple[PointKey, dict]]:
        """(key, latest record) pairs, unordered."""
        return iter(self._records.items())

    def __len__(self) -> int:
        return sum(1 for r in self._records.values() if r["status"] == "ok")

    def __contains__(self, key: PointKey) -> bool:
        record = self._records.get(key)
        return record is not None and record["status"] == "ok"

    # -- manifest ------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, self.MANIFEST_NAME)

    def write_manifest(self, manifest: dict) -> None:
        """Record the campaign matrix (atomic replace)."""
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.manifest_path)

    def manifest(self) -> Optional[dict]:
        """The stored campaign matrix, or None if never written."""
        if not os.path.exists(self.manifest_path):
            return None
        with open(self.manifest_path) as fh:
            return json.load(fh)
