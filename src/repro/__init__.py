"""repro -- a reproduction of "RMAC: A Reliable Multicast MAC Protocol for
Wireless Ad Hoc Networks" (Weisheng Si and Chengzhi Li, ICPP 2004).

The package contains everything the paper's evaluation needs, built from
scratch:

* a deterministic discrete-event engine (:mod:`repro.sim`);
* a wireless PHY with a shared data channel, per-receiver collision
  bookkeeping and the two narrow-band busy-tone channels RMAC introduces
  (:mod:`repro.phy`);
* the RMAC protocol itself (:mod:`repro.core`) plus the comparison
  protocols: IEEE 802.11 DCF, BMMM, BMW, LBP and an 802.11MX-style
  receiver-initiated variant (:mod:`repro.mac`);
* the paper's workload: a simplified BLESS tree and single-source tree
  multicast over 75 mobile nodes (:mod:`repro.net`, :mod:`repro.mobility`,
  :mod:`repro.world`);
* metrics and an experiment harness regenerating Figs. 6-13
  (:mod:`repro.metrics`, :mod:`repro.experiments`, :mod:`repro.analysis`).

Quickstart::

    from repro import ScenarioConfig, build_network

    summary = build_network(ScenarioConfig(
        protocol="rmac", n_nodes=40, rate_pps=10, n_packets=100, seed=1,
    )).run()
    print(summary.delivery_ratio)

Importing the package loads the simulator only. ``run_point`` and
``run_sweep`` resolve on first access (PEP 562), as every name of
:mod:`repro.experiments` does, so a process that builds and runs a
network never loads the campaign farm, the result store or
``multiprocessing``; and SHA-256 comes from the interpreter's built-in
module (:mod:`repro.sim.rng`), not from ``hashlib`` and OpenSSL.
"""

from repro.core import RmacConfig, RmacProtocol
from repro.mac.base import BROADCAST, MacProtocol, SendOutcome, SendRequest
from repro.metrics import MetricsCollector, RunSummary, summarize
from repro.sim import Simulator
from repro.world.network import (
    Network,
    PROTOCOLS,
    ScenarioConfig,
    build_network,
    register_protocol,
)
from repro.world.testbed import MacTestbed

__version__ = "1.0.0"

#: Names resolved from :mod:`repro.experiments` on first access.
_LAZY = ("run_point", "run_sweep")


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro import experiments

    value = getattr(experiments, name)
    globals()[name] = value
    return value


__all__ = [
    "RmacConfig",
    "RmacProtocol",
    "run_point",
    "run_sweep",
    "BROADCAST",
    "MacProtocol",
    "SendOutcome",
    "SendRequest",
    "MetricsCollector",
    "RunSummary",
    "summarize",
    "Simulator",
    "Network",
    "PROTOCOLS",
    "ScenarioConfig",
    "build_network",
    "register_protocol",
    "MacTestbed",
    "__version__",
]
