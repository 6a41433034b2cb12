"""Propagation models."""

import pytest

from repro.phy.propagation import LogDistanceModel, UnitDiskModel


class TestUnitDisk:
    def test_in_range_boundary_inclusive(self):
        model = UnitDiskModel(75.0)
        assert model.in_range(75.0)
        assert not model.in_range(75.0001)
        assert model.in_range(0.0)

    def test_sense_range_defaults_to_rx(self):
        model = UnitDiskModel(75.0)
        assert model.carrier_sensed(75.0)
        assert not model.carrier_sensed(76.0)
        assert model.max_range() == 75.0

    def test_extended_sense_range(self):
        model = UnitDiskModel(75.0, sense_range=150.0)
        assert model.carrier_sensed(120.0)
        assert not model.in_range(120.0)
        assert model.max_range() == 150.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UnitDiskModel(0)
        with pytest.raises(ValueError):
            UnitDiskModel(75.0, sense_range=50.0)


class TestLogDistance:
    def test_power_decreases_with_distance(self):
        model = LogDistanceModel()
        assert model.received_power_dbm(10) > model.received_power_dbm(100)

    def test_power_clamped_below_reference_distance(self):
        model = LogDistanceModel(reference_distance=1.0)
        assert model.received_power_dbm(0.1) == model.received_power_dbm(1.0)

    def test_rx_and_cs_ranges_ordered(self):
        model = LogDistanceModel()
        rx = model.range_for_threshold(model.rx_threshold_dbm)
        cs = model.range_for_threshold(model.cs_threshold_dbm)
        assert cs > rx > 0
        assert model.in_range(rx * 0.99)
        assert not model.in_range(rx * 1.01)
        assert model.carrier_sensed(rx * 1.01)
        assert not model.carrier_sensed(cs * 1.01)
        assert model.max_range() == pytest.approx(cs)

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            LogDistanceModel(rx_threshold_dbm=-80, cs_threshold_dbm=-70)

    def test_positive_exponent_required(self):
        with pytest.raises(ValueError):
            LogDistanceModel(path_loss_exponent=0)
