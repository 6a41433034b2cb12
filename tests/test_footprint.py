"""A simulation process loads only what a run uses.

Importing the simulator (``repro``, ``repro.world.network``) or the
module a benchmark child reads its metric fields from
(``repro.experiments.bench``) must not load the campaign layer (farm,
store, runner, figures, report), ``multiprocessing``, ``socket``, or
OpenSSL's ``_hashlib``: each would be paid in resident memory by every
worker process. The lazy names must still resolve, and the built-in
SHA-256 must give the same seeds and hashes as ``hashlib``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import repro
import repro.experiments
from repro.experiments.store import canonical_config_json, config_hash
from repro.sim.rng import derive_seed
from repro.world.network import ScenarioConfig

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_FORBIDDEN = (
    "_hashlib",
    "multiprocessing",
    "socket",
    "repro.experiments.farm",
    "repro.experiments.store",
    "repro.experiments.runner",
    "repro.experiments.figures",
    "repro.experiments.report",
)

_PROBE = (
    "import json, sys\n"
    "import repro, repro.world.network, repro.experiments.bench\n"
    f"print(json.dumps(sorted(set(sys.modules) & set({list(_FORBIDDEN)!r}))))\n"
)


def _has_builtin_sha256() -> bool:
    return any(importlib.util.find_spec(name) is not None
               for name in ("_sha2", "_sha256"))


def test_simulation_imports_load_no_campaign_layer_or_openssl():
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    if not _has_builtin_sha256():
        loaded.discard("_hashlib")
    assert loaded == set()


def test_every_public_name_still_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    for name in repro.experiments.__all__:
        assert getattr(repro.experiments, name) is not None, name
    from repro import run_point
    from repro.experiments import CampaignFarm, run_sweep

    assert run_point is repro.experiments.run_point
    assert run_sweep.__module__ == "repro.experiments.runner"
    assert CampaignFarm.__module__ == "repro.experiments.farm"


def test_unknown_names_still_raise_attribute_error():
    with pytest.raises(AttributeError):
        repro.no_such_name
    with pytest.raises(AttributeError):
        repro.experiments.no_such_name


@pytest.mark.parametrize("master, names", [
    (0, ()),
    (1, ("placement",)),
    (42, ("mac", 7, "backoff")),
    (2**40 + 3, ("spawn", "rep", 9)),
])
def test_derive_seed_matches_hashlib(master, names):
    key = repr((master,) + tuple(str(n) for n in names)).encode()
    expected = int.from_bytes(hashlib.sha256(key).digest()[:8], "little")
    assert derive_seed(master, *names) == expected


def test_config_hash_matches_hashlib():
    config = ScenarioConfig(protocol="bmmm", n_nodes=20, seed=5)
    canonical = canonical_config_json(config).encode()
    assert config_hash(config) == hashlib.sha256(canonical).hexdigest()[:16]
