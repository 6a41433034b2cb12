"""Named deterministic random streams.

A simulation run draws randomness for several independent purposes --
node placement, mobility waypoints, traffic jitter, per-node MAC backoff.
Giving each purpose (and each node) its own stream, derived from one
master seed, means changing e.g. the traffic model does not perturb the
backoff draws of an otherwise identical run. This mirrors how serious
network simulators (ns-3, GloMoSim/Parsec) manage substreams.

The module is also the package's one home of SHA-256: :func:`sha256`
is the interpreter's built-in implementation (``_sha2`` on CPython
3.12+, ``_sha256`` before), exactly as CPython's own :mod:`random`
takes ``_sha512``, because ``hashlib`` loads OpenSSL's libcrypto
(about 3.5 MiB of resident memory per process) for one digest. The
digests are identical, so every derived seed and every store config
hash (:func:`repro.experiments.store.config_hash` imports it from
here) is the same whichever implementation a process gets.
"""

from __future__ import annotations

import random
from typing import Dict

try:
    # hashlib is heavy to load (OpenSSL); try the lean built-in first.
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def derive_seed(master_seed: int, *names: object) -> int:
    """Derive a 64-bit child seed from a master seed and a name path.

    Uses SHA-256 over a canonical encoding, so the mapping is stable across
    Python versions and platforms (unlike ``hash()``).
    """
    key = repr((int(master_seed),) + tuple(str(n) for n in names)).encode()
    digest = sha256(key).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """Factory for named :class:`random.Random` streams under one master seed.

    Streams are memoized: asking twice for the same name path returns the
    same generator object (so state advances coherently).
    """

    def __init__(self, master_seed: int):
        self._master_seed = int(master_seed)
        self._streams: Dict[tuple, random.Random] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, *names: object) -> random.Random:
        """Return the memoized stream for the given name path."""
        key = tuple(str(n) for n in names)
        rng = self._streams.get(key)
        if rng is None:
            rng = random.Random(derive_seed(self._master_seed, *key))
            self._streams[key] = rng
        return rng

    def spawn(self, *names: object) -> "RngRegistry":
        """Create a child registry whose master seed is derived from a name path.

        Used to give each experiment replication an independent seed space.
        """
        return RngRegistry(derive_seed(self._master_seed, "spawn", *names))
