"""Property tests: backoff invariants of Section 3.3.1."""

import random

from hypothesis import given, strategies as st

from repro.mac.backoff import Backoff


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       ops=st.lists(st.one_of(st.sampled_from(["draw", "double", "reset"]),
                              st.integers(min_value=0, max_value=40)),
                    max_size=100))
def test_bi_always_within_window_and_nonnegative(seed, ops):
    backoff = Backoff(random.Random(seed), cw_min=31, cw_max=1023)
    for op in ops:
        if op == "draw":
            backoff.draw()
            assert 0 <= backoff.bi <= backoff.cw
        elif op == "double":
            backoff.double_cw()
        elif op == "reset":
            backoff.reset_cw()
        else:
            # An int op consumes that many idle slots: BI falls by at
            # most that many, never below zero, and never rises.
            before = backoff.bi
            backoff.consume(op)
            assert backoff.bi == max(0, before - op)
            assert 0 <= backoff.bi <= before
        assert 31 <= backoff.cw <= 1023


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       doublings=st.integers(min_value=0, max_value=20))
def test_cw_sequence_follows_2x_plus_1(seed, doublings):
    backoff = Backoff(random.Random(seed), cw_min=31, cw_max=1023)
    cw = 31
    for _ in range(doublings):
        backoff.double_cw()
        cw = min(1023, 2 * cw + 1)
    assert backoff.cw == cw


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_same_seed_same_draw_sequence(seed):
    a = Backoff(random.Random(seed))
    b = Backoff(random.Random(seed))
    assert [a.draw() for _ in range(20)] == [b.draw() for _ in range(20)]
