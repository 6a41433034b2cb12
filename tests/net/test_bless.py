"""The simplified BLESS tree protocol."""

import random

import pytest

from repro.net.bless import BlessConfig, BlessProtocol, UNJOINED
from repro.net.packet import RoutingMessage
from repro.sim.engine import Simulator
from repro.sim.units import SEC


class FakeMac:
    """Records unreliable broadcasts instead of transmitting."""

    def __init__(self):
        self.broadcasts = []

    def send_unreliable(self, dst, payload, payload_bytes, on_complete=None):
        self.broadcasts.append((dst, payload))
        return True


def make_bless(node_id, root=0, **cfg):
    sim = Simulator()
    mac = FakeMac()
    config = BlessConfig(root=root, **cfg)
    bless = BlessProtocol(node_id, sim, mac, config, random.Random(1))
    return sim, mac, bless


def test_root_starts_joined_at_zero_hops():
    sim, mac, bless = make_bless(0)
    assert bless.is_root and bless.joined
    assert bless.hops == 0 and bless.parent == -1


def test_non_root_starts_unjoined():
    sim, mac, bless = make_bless(5)
    assert not bless.joined
    assert bless.hops == UNJOINED


def test_periodic_broadcast_with_jitter():
    sim, mac, bless = make_bless(0, period=1 * SEC, jitter=0.2)
    bless.start()
    sim.run(until=10 * SEC)
    count = len(mac.broadcasts)
    assert 8 <= count <= 13  # ~1/s with 20% jitter
    gaps = set()
    assert all(dst == -1 for dst, _ in mac.broadcasts)


def test_parent_selection_minimizes_hops_then_id():
    sim, mac, bless = make_bless(5)
    bless.on_routing_message(RoutingMessage(3, 2, 1), 3)
    assert (bless.parent, bless.hops) == (3, 3)
    bless.on_routing_message(RoutingMessage(7, 1, 0), 7)
    assert (bless.parent, bless.hops) == (7, 2)
    # Same hops, smaller id wins.
    bless.on_routing_message(RoutingMessage(2, 1, 0), 2)
    assert (bless.parent, bless.hops) == (2, 2)


def test_unjoined_neighbors_ignored():
    sim, mac, bless = make_bless(5)
    bless.on_routing_message(RoutingMessage(3, UNJOINED, -1), 3)
    assert not bless.joined


def test_entries_expire_and_tree_heals():
    sim, mac, bless = make_bless(5, period=1 * SEC, expiry=3 * SEC)
    bless.on_routing_message(RoutingMessage(7, 1, 0), 7)
    assert bless.parent == 7
    # Keep a worse neighbor alive while 7 goes silent.
    def refresh():
        bless.on_routing_message(RoutingMessage(3, 2, 0), 3)
    for t in range(1, 6):
        sim.at(t * SEC, refresh)
    sim.run(until=6 * SEC)
    assert bless.parent == 3
    assert bless.hops == 3


def test_all_entries_expired_leaves_tree():
    sim, mac, bless = make_bless(5, expiry=1 * SEC)
    bless.on_routing_message(RoutingMessage(7, 1, 0), 7)
    sim.run(until=2 * SEC)
    # Trigger re-selection via an unjoined message from elsewhere.
    bless.on_routing_message(RoutingMessage(9, UNJOINED, -1), 9)
    assert not bless.joined and bless.parent == -1


def test_children_are_claimants():
    sim, mac, bless = make_bless(0)
    bless.on_routing_message(RoutingMessage(4, 1, 0), 4)
    bless.on_routing_message(RoutingMessage(9, 1, 0), 9)
    bless.on_routing_message(RoutingMessage(6, 1, 3), 6)  # claims node 3
    assert bless.children() == (4, 9)


def test_children_expire():
    sim, mac, bless = make_bless(0, expiry=1 * SEC)
    bless.on_routing_message(RoutingMessage(4, 1, 0), 4)
    sim.run(until=2 * SEC)
    assert bless.children() == ()


def test_parent_changes_recorded():
    sim, mac, bless = make_bless(5)
    bless.on_routing_message(RoutingMessage(7, 1, 0), 7)
    bless.on_routing_message(RoutingMessage(2, 1, 0), 2)
    assert [p for _, p in bless.parent_changes] == [7, 2]


def test_config_validation():
    with pytest.raises(ValueError):
        BlessConfig(period=0)
    with pytest.raises(ValueError):
        BlessConfig(period=2 * SEC, expiry=1 * SEC)
    with pytest.raises(ValueError):
        BlessConfig(jitter=1.5)
