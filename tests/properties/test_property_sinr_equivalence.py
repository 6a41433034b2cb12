"""Property: SINR reception degenerates to the threshold path exactly.

At full-network scale (placement, mobility, MAC, routing, application
-- the whole stack): over unit-disk propagation every in-range signal
is equally strong (constant
:data:`~repro.phy.propagation.IN_RANGE_POWER_DBM`), so the SINR
decision -- ~90 dB solo, <= ~0 dB under any overlap, against a 10 dB
threshold -- *derives* the overlap rule through the real interference
accounting. The run must be bit-identical to a plain (``sinr=None``)
run -- same deliveries, same delays, same retransmissions, same event
count. It replays the accumulated power of every decoded reception's
window and still demands equality to the last bit.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.sinr import SinrConfig
from repro.world.network import ScenarioConfig, build_network

SMALL = dict(n_nodes=12, width=200.0, height=140.0, rate_pps=20,
             n_packets=12, warmup_s=2.0, drain_s=2.0)

#: Constant unit-disk powers: the overlap rule re-derived from
#: accumulated power against a 10 dB threshold.
DERIVED = SinrConfig(propagation="unitdisk", sinr_threshold_db=10.0)


def fingerprint(summary):
    payload = asdict(summary)
    # The SINR run carries its stats section; the threshold run has
    # None there. Everything else must match to the last bit.
    payload.pop("sinr")
    return tuple(sorted(payload.items()))


def run_pair(protocol, seed, mobile):
    base = ScenarioConfig(protocol=protocol, seed=seed, mobile=mobile,
                          require_connected=False, **SMALL)
    plain = build_network(base)
    summary_plain = plain.run()
    with_sinr = build_network(base.variant(sinr=DERIVED))
    summary_sinr = with_sinr.run()
    return plain, summary_plain, with_sinr, summary_sinr


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    protocol=st.sampled_from(["rmac", "bmmm"]),
    mobile=st.booleans(),
)
def test_unitdisk_sinr_bit_identical_to_threshold_path(seed, protocol, mobile):
    plain, summary_plain, with_sinr, summary_sinr = run_pair(
        protocol, seed, mobile)
    assert fingerprint(summary_sinr) == fingerprint(summary_plain)
    assert (with_sinr.sim.events_processed == plain.sim.events_processed)
    # The SINR run did collect its stats section.
    stats = summary_sinr.sinr
    assert stats is not None
    assert stats["concurrent_high_water"] >= 1
    assert summary_plain.sinr is None
