"""Propagation models."""

import math

import numpy as np
import pytest

from repro.phy.neighbors import LinkPowerSpec
from repro.phy.propagation import IN_RANGE_POWER_DBM, LogDistanceModel, UnitDiskModel


class TestUnitDisk:
    def test_in_range_boundary_inclusive(self):
        model = UnitDiskModel(75.0)
        assert model.received_power_dbm(75.0) == IN_RANGE_POWER_DBM
        assert model.received_power_dbm(75.0001) == -math.inf
        assert model.received_power_dbm(0.0) == IN_RANGE_POWER_DBM
        batch = model.received_power_dbm_batch(np.array([0.0, 75.0, 75.0001]))
        assert batch.tolist() == [IN_RANGE_POWER_DBM, IN_RANGE_POWER_DBM,
                                  -math.inf]

    def test_sense_range_defaults_to_rx(self):
        # The unit-disk spec senses exactly where it decodes: one power
        # for all three thresholds, and the search ends at the range.
        spec = LinkPowerSpec.unit_disk(75.0)
        assert (spec.rx_threshold_dbm == spec.cs_threshold_dbm
                == spec.keep_threshold_dbm == IN_RANGE_POWER_DBM)
        assert spec.prune_range == 75.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UnitDiskModel(0)
        with pytest.raises(ValueError):
            LinkPowerSpec.unit_disk(0.0)


class TestLogDistance:
    def test_power_decreases_with_distance(self):
        model = LogDistanceModel()
        assert model.received_power_dbm(10) > model.received_power_dbm(100)

    def test_power_clamped_below_reference_distance(self):
        model = LogDistanceModel(reference_distance=1.0)
        assert model.received_power_dbm(0.1) == model.received_power_dbm(1.0)

    def test_rx_and_cs_ranges_ordered(self):
        model = LogDistanceModel()
        rx = model.range_for_threshold(-65.0)
        cs = model.range_for_threshold(-75.0)
        assert cs > rx > 0
        assert model.received_power_dbm(rx * 0.99) >= -65.0
        assert model.received_power_dbm(rx * 1.01) < -65.0
        assert model.received_power_dbm(rx * 1.01) >= -75.0
        assert model.received_power_dbm(cs * 1.01) < -75.0

    def test_threshold_ordering_enforced(self):
        # The thresholds live on the link spec, which orders them
        # keep <= cs <= rx.
        with pytest.raises(ValueError, match="rx_threshold_dbm"):
            LinkPowerSpec(-80.0, -70.0, -90.0, 100.0)
        with pytest.raises(ValueError, match="keep_threshold_dbm"):
            LinkPowerSpec(-65.0, -75.0, -70.0, 100.0)

    def test_positive_exponent_required(self):
        with pytest.raises(ValueError):
            LogDistanceModel(path_loss_exponent=0)
