"""The CW/BI state of Section 3.3.1."""

import random

import pytest

from repro.mac.backoff import Backoff


def test_draw_within_window():
    backoff = Backoff(random.Random(1), cw_min=31, cw_max=1023)
    for _ in range(200):
        assert 0 <= backoff.draw() <= backoff.cw


def test_consume_clamps_at_zero():
    backoff = Backoff(random.Random(1))
    backoff.bi = 5
    backoff.consume(3)
    assert backoff.bi == 2 and not backoff.expired
    backoff.consume(0)
    assert backoff.bi == 2
    backoff.consume(7)
    assert backoff.bi == 0 and backoff.expired
    backoff.consume(1)
    assert backoff.bi == 0


def test_consume_rejects_negative_slots():
    backoff = Backoff(random.Random(1))
    backoff.bi = 4
    with pytest.raises(ValueError):
        backoff.consume(-1)
    assert backoff.bi == 4


def test_cw_doubles_exponentially_and_saturates():
    backoff = Backoff(random.Random(1), cw_min=31, cw_max=1023)
    expected = [63, 127, 255, 511, 1023, 1023]
    seen = []
    for _ in expected:
        backoff.double_cw()
        seen.append(backoff.cw)
    assert seen == expected


def test_reset_cw():
    backoff = Backoff(random.Random(1), cw_min=31, cw_max=1023)
    backoff.double_cw()
    backoff.reset_cw()
    assert backoff.cw == 31


def test_draw_uses_current_cw():
    backoff = Backoff(random.Random(3), cw_min=3, cw_max=1023)
    draws_small = {backoff.draw() for _ in range(100)}
    assert max(draws_small) <= 3
    for _ in range(5):
        backoff.double_cw()
    draws_large = [backoff.draw() for _ in range(100)]
    assert max(draws_large) > 3


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        Backoff(random.Random(1), cw_min=-1)
    with pytest.raises(ValueError):
        Backoff(random.Random(1), cw_min=31, cw_max=15)


def test_draw_counter():
    backoff = Backoff(random.Random(1))
    backoff.draw()
    backoff.draw()
    assert backoff.draws == 2
