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
  packets/seeds, used by the sweep scales of ``repro.cli.FIGURE_SCALES``.
  Shapes -- orderings, crossovers -- are preserved; absolute
  confidence intervals are wider.

:func:`family_scenario` is the one static workload on which every MAC of
the Section 2 survey is compared.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
        config = config.variant(
            n_nodes=n_nodes,
            width=config.width * shrink,
            height=config.height * shrink,
            # Scale speeds with the plain so relative mobility (meters
            # moved per radio range per second) matches the paper's.
            min_speed=config.min_speed * shrink,
            max_speed=config.max_speed * shrink,
        )
    return config


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
