"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core import RmacConfig, RmacProtocol
from repro.mac.bmmm import BmmmProtocol
from repro.mac.bmw import BmwProtocol
from repro.mac.dot11 import Dot11Config, Dot11Dcf
from repro.mac.lamm import LammProtocol
from repro.mac.lbp import LbpProtocol
from repro.mac.mx import MxProtocol
from repro.sim.units import MS
from repro.world.testbed import MacTestbed


def make_rmac_testbed(coords, seed=1, config=None, **tb_kwargs):
    """A testbed with one RmacProtocol per node."""
    tb = MacTestbed(coords=coords, seed=seed, **tb_kwargs)
    cfg = config or RmacConfig()
    tb.build_macs(
        lambda i, t: RmacProtocol(i, t.sim, t.radios[i], t.node_rng(i), cfg, tracer=t.tracer)
    )
    return tb


_DOT11_CLASSES = {
    "dot11": Dot11Dcf,
    "bmmm": BmmmProtocol,
    "bmw": BmwProtocol,
    "lamm": LammProtocol,
    "lbp": LbpProtocol,
    "mx": MxProtocol,
}


def make_dot11_testbed(coords, protocol="dot11", seed=1, config=None, **tb_kwargs):
    """A testbed with one 802.11-family MAC per node."""
    tb = MacTestbed(coords=coords, seed=seed, **tb_kwargs)
    cfg = config or Dot11Config()
    cls = _DOT11_CLASSES[protocol]
    tb.build_macs(
        lambda i, t: cls(i, t.sim, t.radios[i], t.node_rng(i), cfg, tracer=t.tracer)
    )
    return tb


def collect_upper(mac):
    """Attach a recording upper layer; returns the list being filled."""
    received = []
    mac.upper_rx = lambda payload, src: received.append((payload, src))
    return received


#: A 3-node "Fig. 4" layout: sender 0 with receivers 1 and 2 in range.
TRIANGLE = [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0)]

#: A 4-node chain with 60 m spacing (range 75 m): classic hidden terminals
#: (0 and 2 cannot hear each other but both reach 1).
CHAIN = [(0.0, 0.0), (60.0, 0.0), (120.0, 0.0), (180.0, 0.0)]


@pytest.fixture
def triangle_rmac():
    return make_rmac_testbed(TRIANGLE, seed=11)


def run_ms(tb, ms: int) -> int:
    return tb.run(ms * MS)
