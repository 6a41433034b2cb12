"""Mobility models: random waypoint and the provider over them."""

import math
import random

import pytest

from repro.mobility.base import MobilityModel, MobilityProvider
from repro.mobility.waypoint import RandomWaypointModel
from repro.sim.units import SEC


def make_rwp(**kw):
    defaults = dict(x=100.0, y=100.0, width=500.0, height=300.0,
                    min_speed=1.0, max_speed=4.0, pause=2.0,
                    rng=random.Random(7))
    defaults.update(kw)
    return RandomWaypointModel(**defaults)


class TestRandomWaypoint:
    def test_starts_at_initial_position(self):
        model = make_rwp(pause=2.0)
        assert model.position(0) == (100.0, 100.0)

    def test_initial_pause_is_partial(self):
        # The first pause is drawn uniformly from [0, pause] so short runs
        # are not artificially stationary; it never exceeds the pause.
        for seed in range(10):
            model = make_rwp(pause=5.0, rng=random.Random(seed))
            assert 0 <= model._legs[0].end <= 5 * SEC

    def test_positions_stay_in_bounds(self):
        model = make_rwp()
        for t in range(0, 300 * SEC, SEC):
            x, y = model.position(t)
            assert 0 <= x <= 500 and 0 <= y <= 300

    def test_speed_respects_bounds(self):
        model = make_rwp(min_speed=2.0, max_speed=4.0, pause=0.0)
        dt = SEC // 10
        for t in range(0, 60 * SEC, dt):
            x0, y0 = model.position(t)
            x1, y1 = model.position(t + dt)
            speed = math.hypot(x1 - x0, y1 - y0) / (dt / SEC)
            assert speed <= 4.0 + 1e-6  # pauses allow 0

    def test_reaches_waypoints_exactly(self):
        model = make_rwp()
        model._extend_to(100 * SEC)
        for leg in model._legs[1:3]:
            assert model.position(leg.arrive) == (leg.x1, leg.y1)
            # position halfway is on the segment
            mid = (leg.start + leg.arrive) // 2
            x, y = model.position(mid)
            cross = (x - leg.x0) * (leg.y1 - leg.y0) - (y - leg.y0) * (leg.x1 - leg.x0)
            assert abs(cross) < 1e-6 * (1 + abs(leg.x1) + abs(leg.y1))

    def test_queries_repeatable_out_of_order(self):
        model = make_rwp()
        late = model.position(200 * SEC)
        early = model.position(10 * SEC)
        assert model.position(200 * SEC) == late
        assert model.position(10 * SEC) == early

    def test_speed_floor_resamples_zero_speeds(self):
        model = make_rwp(min_speed=0.0, max_speed=4.0)
        model._extend_to(500 * SEC)
        for leg in model._legs[1:]:
            if leg.arrive > leg.start:
                dist = math.hypot(leg.x1 - leg.x0, leg.y1 - leg.y0)
                speed = dist / ((leg.arrive - leg.start) / SEC)
                assert speed >= 0.009

    def test_compact_preserves_current_position(self):
        model = make_rwp()
        pos = model.position(100 * SEC)
        model.compact(90 * SEC)
        assert model.position(100 * SEC) == pos

    def test_validation(self):
        with pytest.raises(ValueError):
            make_rwp(max_speed=0)
        with pytest.raises(ValueError):
            make_rwp(min_speed=5.0, max_speed=4.0)
        with pytest.raises(ValueError):
            make_rwp(x=1000.0)
        model = make_rwp()
        with pytest.raises(ValueError):
            model.position(-1)


class TestProvider:
    def test_positions_array_shape(self):
        provider = MobilityProvider([make_rwp(), make_rwp(x=1.0, y=2.0)])
        arr = provider.positions(0)
        assert arr.shape == (2, 2)
        assert arr.tolist() == [[100.0, 100.0], [1.0, 2.0]]

    def test_mixed_models_not_static(self):
        # A provider is never static, even when some of its models stay
        # put: a placement that never moves is a StaticPositions instead.
        class Parked(MobilityModel):
            def position(self, time_ns):
                return (0.0, 0.0)

        provider = MobilityProvider([Parked(), make_rwp()])
        assert provider.positions(10**12)[0].tolist() == [0.0, 0.0]
        assert not provider.is_static()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MobilityProvider([])
