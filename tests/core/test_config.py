"""RMAC configuration and the Section 3.3.2 timer arithmetic.

The timing constants live in :class:`~repro.phy.params.PhyParams`; the
RMAC config holds only the protocol's own knobs.
"""

import pytest

from repro.core.config import RmacConfig
from repro.phy.params import DEFAULT_PHY, PhyParams
from repro.sim.units import US


def test_paper_timer_values():
    assert DEFAULT_PHY.max_propagation_delay == 1 * US   # tau
    assert DEFAULT_PHY.cca_time == 15 * US               # lambda
    assert DEFAULT_PHY.l_abt == 17 * US                  # 2 tau + lambda
    assert RmacConfig().rdata_guard == 2 * US            # |Twf_rdata| = 19 us


def test_defaults_match_paper():
    cfg = RmacConfig()
    assert cfg.max_receivers == 20
    assert cfg.retry_limit == 7
    assert cfg.queue_capacity is None


def test_custom_tau_scales_timers():
    assert PhyParams(max_propagation_delay=2 * US).l_abt == 19 * US
    assert PhyParams(cca_time=20 * US).l_abt == 22 * US


def test_validation():
    with pytest.raises(ValueError):
        PhyParams(max_propagation_delay=0)
    with pytest.raises(ValueError):
        PhyParams(cca_time=0)
    with pytest.raises(ValueError):
        RmacConfig(retry_limit=-1)
    with pytest.raises(ValueError):
        RmacConfig(max_receivers=0)
    with pytest.raises(ValueError):
        RmacConfig(max_receivers=256)
    with pytest.raises(ValueError):
        RmacConfig(rdata_guard=-1)
