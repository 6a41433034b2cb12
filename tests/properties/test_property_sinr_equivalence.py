"""Property: SINR reception degenerates to the threshold path exactly.

Two degeneracy claims, both at full-network scale (placement, mobility,
MAC, routing, application -- the whole stack):

* With interference accounting *off* and no SINR threshold, the channel
  keeps the paper's overlap rule and the SINR clause never fires: the
  run must be bit-identical to a plain (``sinr=None``) run -- same
  deliveries, same delays, same retransmissions, same event count.
* With interference accounting *on* over unit-disk propagation, every
  in-range signal is equally strong (constant
  :data:`~repro.phy.propagation.IN_RANGE_POWER_DBM`), so the SINR
  decision -- ~90 dB solo, <= ~0 dB under any overlap, against a 10 dB
  threshold -- *derives* the overlap rule through the real interference
  accounting. Same bit-identity must hold.

The second form is the stronger one: it replays the accumulated power
of every decoded reception's window and still demands equality to the
last bit.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.sinr import SinrConfig
from repro.world.network import ScenarioConfig, build_network

SMALL = dict(n_nodes=12, width=200.0, height=140.0, rate_pps=20,
             n_packets=12, warmup_s=2.0, drain_s=2.0)

#: Interference accounting off, no threshold: the classic overlap rule
#: with a vacuous SINR check bolted on.
DEGENERATE = SinrConfig(propagation="unitdisk", interference=False,
                        sinr_threshold_db=None)

#: Interference accounting on, constant unit-disk powers: the overlap
#: rule re-derived from accumulated power against a 10 dB threshold.
DERIVED = SinrConfig(propagation="unitdisk", interference=True,
                     sinr_threshold_db=10.0)


def fingerprint(summary):
    payload = asdict(summary)
    # The SINR run carries its stats section; the threshold run has
    # None there. Everything else must match to the last bit.
    payload.pop("sinr")
    return tuple(sorted(payload.items()))


def run_pair(protocol, seed, mobile, sinr):
    base = ScenarioConfig(protocol=protocol, seed=seed, mobile=mobile,
                          require_connected=False, **SMALL)
    plain = build_network(base)
    summary_plain = plain.run()
    with_sinr = build_network(base.variant(sinr=sinr))
    summary_sinr = with_sinr.run()
    return plain, summary_plain, with_sinr, summary_sinr


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    protocol=st.sampled_from(["rmac", "bmmm"]),
    mobile=st.booleans(),
    sinr=st.sampled_from([DEGENERATE, DERIVED]),
)
def test_unitdisk_sinr_bit_identical_to_threshold_path(
        seed, protocol, mobile, sinr):
    plain, summary_plain, with_sinr, summary_sinr = run_pair(
        protocol, seed, mobile, sinr)
    assert fingerprint(summary_sinr) == fingerprint(summary_plain)
    assert (with_sinr.sim.events_processed == plain.sim.events_processed)
    # The SINR run did collect its stats section.
    stats = summary_sinr.sinr
    assert stats is not None
    if sinr.interference:
        assert stats["concurrent_high_water"] >= 1
    assert summary_plain.sinr is None
