"""Property fuzz: random traffic through real RMAC stacks.

For arbitrary small topologies and request mixes, after the network
drains the protocol must satisfy its global invariants: every request
completed exactly once with acked + failed partitioning its receivers,
no tones left on, all nodes back in IDLE/BACKOFF, queues empty, and
reachable-receiver deliveries matching acknowledgments.
"""

from hypothesis import given, settings, strategies as st

from repro.core import RmacConfig, RmacProtocol
from repro.core.states import RmacState
from repro.phy.busytone import ToneType
from repro.sim.units import MS

from tests.conftest import make_rmac_testbed


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    # Nodes on a line with spacing that creates partial connectivity.
    spacing = draw(st.sampled_from([30.0, 60.0, 90.0]))
    coords = [(i * spacing, 0.0) for i in range(n_nodes)]
    n_requests = draw(st.integers(min_value=1, max_value=6))
    requests = []
    for _ in range(n_requests):
        sender = draw(st.integers(min_value=0, max_value=n_nodes - 1))
        others = [i for i in range(n_nodes) if i != sender]
        k = draw(st.integers(min_value=1, max_value=len(others)))
        receivers = tuple(draw(st.permutations(others))[:k])
        start = draw(st.integers(min_value=0, max_value=20 * MS))
        payload = draw(st.integers(min_value=0, max_value=600))
        requests.append((sender, receivers, start, payload))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return coords, requests, seed


@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_rmac_global_invariants(scenario):
    coords, requests, seed = scenario
    tb = make_rmac_testbed(coords, seed=seed,
                           config=RmacConfig(retry_limit=2))
    deliveries = {i: [] for i in range(len(coords))}
    for i, mac in enumerate(tb.macs):
        mac.upper_rx = lambda p, s, i=i: deliveries[i].append(p)

    outcomes = []
    for sender, receivers, start, payload in requests:
        tb.sim.at(start, lambda s=sender, r=receivers, p=payload: tb.macs[s]
                  .send_reliable(r, f"pkt-{s}-{r}", p, on_complete=outcomes.append))
    tb.run(3000 * MS)

    # Every request completed exactly once.
    assert len(outcomes) == len(requests)
    for outcome in outcomes:
        combined = sorted(outcome.acked + outcome.failed)
        assert combined == sorted(outcome.request.receivers)
        assert outcome.dropped == bool(outcome.failed)

    for i, mac in enumerate(tb.macs):
        # All nodes settled and released their tones.
        assert mac.state in (RmacState.IDLE, RmacState.BACKOFF), i
        assert not tb.radios[i].tone_emitting(ToneType.RBT)
        assert not tb.radios[i].tone_emitting(ToneType.ABT)
        assert len(mac.queue) == 0
        assert mac._request is None
        stats = mac.stats
        assert stats.packets_delivered + stats.packets_dropped == stats.packets_offered
        assert stats.mrts_aborted <= stats.mrts_transmissions
