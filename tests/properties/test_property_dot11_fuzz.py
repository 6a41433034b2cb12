"""Property fuzz for the 802.11-family multicast MACs (BMMM, BMW, LAMM,
LBP, MX).

Random small topologies and request mixes; after draining, the global
invariants must hold: every request completed once with acked + failed
partitioning its receivers, transactions released, queues empty, NAVs in
the past.
"""

from hypothesis import given, settings, strategies as st

from repro.mac.dot11 import Dot11Config
from repro.sim.units import MS

from tests.conftest import make_dot11_testbed


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=5))
    spacing = draw(st.sampled_from([30.0, 60.0]))
    coords = [(i * spacing, 0.0) for i in range(n_nodes)]
    n_requests = draw(st.integers(min_value=1, max_value=4))
    requests = []
    for _ in range(n_requests):
        sender = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        others = [i for i in range(n_nodes) if i != sender]
        k = draw(st.integers(min_value=1, max_value=len(others)))
        receivers = tuple(draw(st.permutations(others))[:k])
        start = draw(st.integers(min_value=0, max_value=15 * MS))
        requests.append((sender, receivers, start))
    protocol = draw(st.sampled_from(["bmmm", "bmw", "lamm", "lbp", "mx"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return coords, requests, protocol, seed


@settings(max_examples=20, deadline=None)
@given(scenario=scenarios())
def test_batch_protocol_global_invariants(scenario):
    coords, requests, protocol, seed = scenario
    tb = make_dot11_testbed(coords, protocol=protocol, seed=seed,
                            config=Dot11Config(retry_limit=2))
    outcomes = []
    for sender, receivers, start in requests:
        tb.sim.at(start, lambda s=sender, r=receivers: tb.macs[s]
                  .send_reliable(r, "pkt", 200, on_complete=outcomes.append))
    tb.run(4000 * MS)

    assert len(outcomes) == len(requests)
    for outcome in outcomes:
        combined = sorted(outcome.acked + outcome.failed)
        assert combined == sorted(outcome.request.receivers)
        assert outcome.dropped == bool(outcome.failed)

    for mac in tb.macs:
        assert not mac.in_txn
        assert mac._request is None
        assert len(mac.queue) == 0
        assert mac.nav_until <= tb.sim.now
        stats = mac.stats
        assert stats.packets_delivered + stats.packets_dropped == stats.packets_offered
