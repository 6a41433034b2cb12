"""The paper's experiment matrix (Section 4.1).

Ownership: this module owns **scenario construction** -- mapping
(protocol, scenario, rate, seed) to a full ``ScenarioConfig`` at paper
or bench scale. It never executes anything; the runner calls these
factories, and the result store hashes their output to decide whether a
stored point is still valid.

Three mobility scenarios x eight source rates x two protocols, ten random
placements each, 10 000 packets of 500 bytes per run, on 75 nodes over
500 m x 300 m with 75 m range at 2 Mb/s.

Full paper scale takes hours in pure Python, so two presets exist:

* :func:`paper_scenario` -- the exact Section 4.1 parameters;
* :func:`scaled_scenario` -- the same network and rates with fewer
  packets/seeds, used by the sweep scales of :data:`FIGURE_SCALES`.
  Shapes -- orderings, crossovers -- are preserved; absolute
  confidence intervals are wider.

:func:`scale_make_config` is the ``make_config`` of one ``--scale``
choice, and :func:`manifest_make_config` rebuilds it from a campaign
manifest, so a store's status can recompute every point's config hash.

:func:`family_scenario` is the one static workload on which every MAC of
the Section 2 survey is compared.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.phy.sinr import SinrConfig
from repro.world.network import ScenarioConfig

#: The paper's eight source rates (packets/second).
PAPER_RATES: Tuple[int, ...] = (5, 10, 20, 40, 60, 80, 100, 120)

#: The three mobility scenarios of Section 4.1.2.
SCENARIOS: Dict[str, dict] = {
    "stationary": dict(mobile=False),
    "speed1": dict(mobile=True, min_speed=0.0, max_speed=4.0, pause_s=10.0),
    "speed2": dict(mobile=True, min_speed=0.0, max_speed=8.0, pause_s=5.0),
}


#: Named SINR/interference profiles (see :mod:`repro.phy.sinr`). Each is
#: a complete :class:`SinrConfig`; :func:`sinr_preset` applies overrides.
SINR_PROFILES: Dict[str, dict] = {
    # Log-distance path loss + lognormal shadowing (the default richer
    # channel): link-specific ranges, hidden interference, SINR decode.
    "shadowing": dict(propagation="shadowing"),
    # Deterministic log-distance path loss (circular ranges) with
    # accumulated-interference reception.
    "logdistance": dict(propagation="logdistance"),
    # The paper's fixed-range geometry with SINR reception on top:
    # every in-range signal is equally strong, so this reduces to the
    # overlap-collision rule (the equivalence-oracle profile).
    "unitdisk": dict(propagation="unitdisk"),
    # Shadowing plus Rayleigh fast fading per arrival.
    "fading": dict(propagation="shadowing", fading="rayleigh"),
}


def sinr_preset(profile: str, **overrides) -> SinrConfig:
    """A :class:`SinrConfig` from a named profile plus field overrides.

    ``sinr_preset("shadowing", shadowing_sigma_db=8.0)`` etc.; profiles
    are listed in :data:`SINR_PROFILES`.
    """
    if profile not in SINR_PROFILES:
        raise ValueError(
            f"unknown SINR profile {profile!r}; have {sorted(SINR_PROFILES)}")
    fields = dict(SINR_PROFILES[profile])
    fields.update(overrides)
    return SinrConfig(**fields)


def paper_scenario(
    protocol: str,
    scenario: str,
    rate_pps: float,
    seed: int,
    n_packets: int = 10_000,
) -> ScenarioConfig:
    """One run at the paper's full parameters."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; have {sorted(SCENARIOS)}")
    return ScenarioConfig(
        protocol=protocol,
        n_nodes=75,
        width=500.0,
        height=300.0,
        radio_range=75.0,
        rate_pps=rate_pps,
        n_packets=n_packets,
        payload_bytes=500,
        seed=seed,
        **SCENARIOS[scenario],
    )


def scaled_scenario(
    protocol: str,
    scenario: str,
    rate_pps: float,
    seed: int,
    n_packets: int = 300,
    n_nodes: int = 75,
) -> ScenarioConfig:
    """The bench-scale variant: fewer packets, and (optionally) fewer
    nodes on a proportionally smaller plain so node density -- and with
    it contention and tree depth per hop -- matches the paper's."""
    config = paper_scenario(protocol, scenario, rate_pps, seed, n_packets=n_packets)
    if n_nodes != config.n_nodes:
        shrink = (n_nodes / config.n_nodes) ** 0.5
        changes = dict(n_nodes=n_nodes, width=config.width * shrink,
                       height=config.height * shrink)
        if config.mobile:
            # Scale speeds with the plain so relative mobility (meters
            # moved per radio range per second) matches the paper's.
            changes.update(min_speed=config.min_speed * shrink,
                           max_speed=config.max_speed * shrink)
        config = config.variant(**changes)
    return config


#: (n_nodes, n_packets, rates, seeds) per ``--scale`` choice. "smoke" is
#: the committed 40-node spec CI drives end to end (the farm smoke job
#: runs it twice — across 2 workers and in-process — and asserts
#: bit-identity). "bench" is the sweep the paper claims' bands are set
#: at (``repro.analysis.validation``); CI validates every claim on it.
FIGURE_SCALES = {
    "smoke": (40, 40, (20,), (1, 2)),
    "bench": (40, 100, (10, 60, 120), (1, 2)),
    "small": (25, 60, (10, 60, 120), (1, 2)),
    "medium": (40, 150, (5, 20, 60, 120), (1, 2, 3)),
    "paper": (75, 10_000, PAPER_RATES, tuple(range(1, 11))),
}

#: ``make_config(protocol, scenario, rate, seed) -> ScenarioConfig``.
MakeConfig = Callable[[str, str, float, int], ScenarioConfig]


def scale_make_config(scale: str, faults: Optional[FaultPlan] = None,
                      oracle: bool = False,
                      sinr: Optional[SinrConfig] = None) -> MakeConfig:
    """The make_config factory for one :data:`FIGURE_SCALES` choice.

    ``faults``, ``oracle`` and ``sinr`` apply to every point; all live
    on the ScenarioConfig, so they flow into each point's config_hash
    and the store resumes faulted or SINR campaigns exactly.
    """
    def make_config(protocol, scenario, rate, seed):
        if scale == "paper":
            config = paper_scenario(protocol, scenario, rate, seed)
        else:
            n_nodes, n_packets, _rates, _seeds = FIGURE_SCALES[scale]
            config = scaled_scenario(protocol, scenario, rate, seed,
                                     n_packets=n_packets, n_nodes=n_nodes)
        return config.variant(faults=faults, oracle=oracle, sinr=sinr)
    return make_config


def manifest_make_config(manifest: dict) -> Optional[MakeConfig]:
    """The make_config a ``repro campaign run`` manifest was written
    with (its ``scale``, ``faults``, ``oracle`` and ``sinr``), or None
    when the manifest names no known scale."""
    if manifest.get("scale") not in FIGURE_SCALES:
        return None
    faults, sinr = manifest.get("faults"), manifest.get("sinr")
    return scale_make_config(
        manifest["scale"],
        faults=None if faults is None else FaultPlan.from_dict(faults),
        oracle=bool(manifest.get("oracle")),
        sinr=None if sinr is None else SinrConfig.from_dict(sinr),
    )


#: The MACs compared on :func:`family_scenario`: RMAC and the Section 2
#: survey.
FAMILY_PROTOCOLS: Tuple[str, ...] = ("rmac", "bmmm", "lamm", "bmw", "lbp", "mx")


def family_scenario(
    protocol: str,
    scenario: str,
    rate_pps: float,
    seed: int,
) -> ScenarioConfig:
    """The protocol-family workload: 60 packets on one 20-node network,
    the same placement for every protocol (``repro validate`` runs it
    stationary at 10 pkt/s, seed 9)."""
    return ScenarioConfig(
        protocol=protocol,
        n_nodes=20,
        width=260.0,
        height=160.0,
        rate_pps=rate_pps,
        n_packets=60,
        warmup_s=4.0,
        drain_s=4.0,
        seed=seed,
        **SCENARIOS[scenario],
    )
