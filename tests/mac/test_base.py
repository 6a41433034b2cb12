"""The MAC service interface: requests, queueing, completion."""

import pytest

from repro.mac.addresses import BROADCAST
from repro.mac.base import SendRequest, TransmitQueue
from repro.mac.dot11 import Dot11Config
from repro.sim.units import MS
from repro.world.network import PROTOCOLS
from repro.world.testbed import MacTestbed
from repro.core import RmacProtocol, RmacConfig
from repro.sim.trace import Tracer

from tests.conftest import make_dot11_testbed, make_rmac_testbed


class TestSendRequest:
    def test_reliable_validation(self):
        with pytest.raises(ValueError):
            SendRequest("p", 10, reliable=True, receivers=())
        with pytest.raises(ValueError):
            SendRequest("p", 10, reliable=True, receivers=(1, 1))
        with pytest.raises(ValueError):
            SendRequest("p", 10, reliable=True, receivers=(1, BROADCAST))
        with pytest.raises(ValueError):
            SendRequest("p", -1, reliable=True, receivers=(1,))

    def test_unreliable_takes_single_dst(self):
        request = SendRequest("p", 10, reliable=False, receivers=(BROADCAST,))
        assert request.receivers == (BROADCAST,)
        with pytest.raises(ValueError):
            SendRequest("p", 10, reliable=False, receivers=(1, 2))


class TestTransmitQueue:
    def test_fifo_order(self):
        queue = TransmitQueue()
        reqs = [SendRequest(i, 1, reliable=False, receivers=(1,)) for i in range(3)]
        for request in reqs:
            assert queue.push(request)
        assert queue.pop() is reqs[0]
        assert queue.peek() is reqs[1]
        assert len(queue) == 2

    def test_capacity_overflow(self):
        queue = TransmitQueue(capacity=2)
        reqs = [SendRequest(i, 1, reliable=False, receivers=(1,)) for i in range(3)]
        assert queue.push(reqs[0]) and queue.push(reqs[1])
        assert not queue.push(reqs[2])
        assert queue.overflowed == 1 and queue.enqueued == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TransmitQueue(capacity=0)


class TestServiceEntryPoints:
    def _mac(self, capacity=None):
        tb = MacTestbed(coords=[(0, 0), (50, 0)])
        cfg = RmacConfig(queue_capacity=capacity)
        tb.build_macs(lambda i, t: RmacProtocol(i, t.sim, t.radios[i], t.node_rng(i), cfg))
        return tb, tb.macs[0]

    def test_send_reliable_counts_offered(self):
        tb, mac = self._mac()
        mac.send_reliable((1,), "payload", 100)
        assert mac.stats.packets_offered == 1

    def test_queue_overflow_reports_dropped_outcome(self):
        tb, mac = self._mac(capacity=2)
        outcomes = []
        mac.send_reliable((1,), "a", 2200)
        mac.send_reliable((1,), "b", 2200)
        ok = mac.send_reliable((1,), "c", 2200, on_complete=outcomes.append)
        assert not ok
        assert mac.stats.queue_drops == 1
        assert outcomes and outcomes[0].dropped and outcomes[0].failed == (1,)

    def test_deliver_up_without_listener_is_safe(self):
        tb, mac = self._mac()
        mac.deliver_up("payload", 1)  # no upper_rx attached: no raise


class TestRequestLifecycle:
    """The shared tails: one drop per request, one retransmission per
    retry, units served in order."""

    #: Node 0 reaches node 2 only; node 1 is out of everyone's range.
    COORDS = [(0.0, 0.0), (500.0, 0.0), (0.0, 50.0)]

    @pytest.mark.parametrize("protocol", ["bmmm", "bmw", "lamm", "lbp"])
    def test_dot11_family_gives_up_on_the_unreachable_receiver(self, protocol):
        tb = make_dot11_testbed(self.COORDS, protocol=protocol, seed=1,
                                config=Dot11Config(retry_limit=1))
        outcomes = []
        tb.macs[0].send_reliable((1,), "pkt", 300, on_complete=outcomes.append)
        tb.run(400 * MS)
        (outcome,) = outcomes
        assert (outcome.acked, outcome.failed, outcome.dropped) == ((), (1,), True)
        stats = tb.macs[0].stats
        assert (stats.packets_dropped, stats.packets_delivered) == (1, 0)
        assert stats.retransmissions == 1
        assert tb.macs[0]._request is None and not tb.macs[0].in_txn

    def test_rmac_units_take_fresh_seqs_and_count_one_drop(self):
        tb = make_rmac_testbed(self.COORDS, seed=1,
                               tracer=Tracer(enabled=True),
                               config=RmacConfig(retry_limit=1, max_receivers=1))
        outcomes = []
        tb.macs[0].send_reliable((1, 2), "pkt", 300, on_complete=outcomes.append)
        tb.run(400 * MS)
        (outcome,) = outcomes
        assert (outcome.acked, outcome.failed, outcome.dropped) == ((2,), (1,), True)
        stats = tb.macs[0].stats
        assert (stats.packets_dropped, stats.packets_delivered) == (1, 0)
        assert stats.retransmissions == 1
        mrts = [(e.detail["receivers"], e.detail["seq"], e.detail["attempt"])
                for e in tb.tracer.events if e.kind == "mrts-tx" and e.node == 0]
        assert mrts == [((1,), 1, 1), ((1,), 1, 2), ((2,), 2, 1)]


#: Every registered MAC, and plain DCF (not registered: it has no
#: reliable multicast).
ALL_MACS = sorted(set(PROTOCOLS) | {"dot11"})


@pytest.mark.parametrize("protocol", ALL_MACS)
def test_mac_instances_keep_shared_key_dicts(protocol):
    """Fewer than 30 instance fields, also after an exchange has run:
    CPython then shares the dict keys across instances; past that every
    node's MAC carries a full dict (about 1.3 KB more each) and
    attribute loads slow down."""
    coords = TestRequestLifecycle.COORDS
    if protocol == "dot11":
        tb = make_dot11_testbed(coords, protocol=protocol)
    else:
        tb = MacTestbed(coords=coords, seed=1)
        tb.build_macs(lambda i, t: PROTOCOLS[protocol](i, t, t.node_rng(i), {}))
    for mac in tb.macs:
        assert len(vars(mac)) < 30
    tb.macs[0].send_reliable((2,), "pkt", 300)
    tb.run(50 * MS)
    assert tb.macs[0].stats.packets_delivered == 1
    for mac in tb.macs:
        assert len(vars(mac)) < 30
