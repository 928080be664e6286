import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netnaf.delays import (CP, GRID, SC, UNIFORM, Actuator, DelayModel,
                           DelayedChannel, sample_delay)
from support import no_delay_model

DELTA = 2.0 ** -4


def typical_model(**kw):
    args = dict(delta=DELTA, sc_range=(DELTA, 3 * DELTA),
                cp_range=(DELTA, 3 * DELTA), sc_bound_steps=4,
                cp_bound_steps=4)
    args.update(kw)
    return DelayModel(**args)


# ---------------------------------------------------------------------------
# sampling


def test_degenerate_interval_always_returns_it():
    model = typical_model(sc_range=(DELTA, DELTA))
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert sample_delay(model, SC, rng) == DELTA


def test_uniform_mean_on_interval():
    model = typical_model()
    rng = np.random.default_rng(1)
    draws = np.array([sample_delay(model, SC, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 2 * DELTA) < 0.01 * 2 * DELTA


def test_samples_stay_in_range_both_channels():
    model = typical_model()
    rng = np.random.default_rng(2)
    for channel in (SC, CP):
        draws = np.array([sample_delay(model, channel, rng)
                          for _ in range(10_000)])
        assert draws.min() >= DELTA and draws.max() <= 3 * DELTA


def test_grid_mode_multiples_of_delta():
    model = typical_model(distribution=GRID)
    rng = np.random.default_rng(3)
    draws = np.array([sample_delay(model, SC, rng) for _ in range(5000)])
    steps = draws / DELTA
    assert np.allclose(steps, np.round(steps))
    assert set(np.round(steps)) == {1.0, 2.0, 3.0}


@pytest.mark.parametrize("distribution", [UNIFORM, GRID])
def test_draws_equal_the_generator_calls_bit_for_bit(distribution):
    # the ranges are the smoke config's, and two with no simple binary form
    model = typical_model(sc_range=(0.0625, 0.125), cp_range=(0.013, 0.2471),
                          distribution=distribution)
    ranges = {SC: model.sc_range, CP: model.cp_range}
    grids = {SC: np.array([1, 2]), CP: np.array([1, 2, 3])}
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for k in range(50_000):
        for channel in (SC, CP):
            got = sample_delay(model, channel, rng)
            lo, hi = ranges[channel]
            if distribution == GRID:
                steps = grids[channel]
                want = float(steps[ref.integers(steps.size)] * DELTA)
            else:
                want = float(ref.uniform(lo, hi))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), k
        # exploration noise draws from the same stream between instants
        if k % 3:
            assert rng.standard_normal((1,)) == ref.standard_normal((1,))


def test_sampling_deterministic_under_seed():
    model = typical_model()
    a = [sample_delay(model, SC, np.random.default_rng(9)) for _ in range(5)]
    b = [sample_delay(model, SC, np.random.default_rng(9)) for _ in range(5)]
    assert a == b


def test_model_validation():
    with pytest.raises(ValueError):
        typical_model(sc_range=(-0.1, DELTA))
    with pytest.raises(ValueError):
        typical_model(sc_range=(3 * DELTA, DELTA))
    with pytest.raises(ValueError):
        typical_model(sc_range=(DELTA, 5 * DELTA))  # beyond declared bound
    with pytest.raises(ValueError):
        typical_model(distribution="zipf")


def test_total_delay_steps():
    assert typical_model().total_delay_steps == 8
    assert no_delay_model(DELTA).total_delay_steps == 0


# ---------------------------------------------------------------------------
# channel send/poll


def test_clamp_enforces_order():
    ch = DelayedChannel()
    a1 = ch.send(0.0, "a", 3 * DELTA)
    a2 = ch.send(DELTA, "b", DELTA)  # raw arrival 2*DELTA, before a1
    assert a1 == 3 * DELTA
    assert a2 == 3 * DELTA
    got = ch.poll(3 * DELTA)
    assert [p for _, p in got] == ["a", "b"]


def test_zero_delay_is_identity_channel():
    ch = DelayedChannel()
    for k in range(5):
        assert ch.send(float(k), k, 0.0) == float(k)


def test_monotone_arrivals_unchanged_by_clamp():
    ch = DelayedChannel()
    arrivals = [ch.send(k * DELTA, k, DELTA * (1 + 0.1 * k)) for k in range(5)]
    raw = [k * DELTA + DELTA * (1 + 0.1 * k) for k in range(5)]
    assert arrivals == raw


def test_poll_before_arrival_empty():
    ch = DelayedChannel()
    ch.send(0.0, "x", 1.0)
    assert ch.poll(0.5) == []


def test_poll_boundary_is_closed():
    ch = DelayedChannel()
    ch.send(0.0, "x", 1.0)
    got = ch.poll(1.0)
    assert [p for _, p in got] == ["x"]


def test_two_payloads_in_one_period_kept_in_send_order():
    ch = DelayedChannel()
    ch.send(0.0, "first", 2 * DELTA)
    ch.send(DELTA, "second", 0.5 * DELTA)  # clamped onto the first
    got = ch.poll(10.0)
    assert [p for _, p in got] == ["first", "second"]
    assert got[0][0] == got[1][0] == 2 * DELTA


def test_send_time_regression_rejected():
    ch = DelayedChannel()
    ch.send(1.0, "x", 0.0)
    with pytest.raises(ValueError):
        ch.send(0.5, "y", 0.0)


def test_poll_time_regression_rejected():
    ch = DelayedChannel()
    ch.poll(2.0)
    with pytest.raises(ValueError):
        ch.poll(1.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 3 * DELTA), min_size=1, max_size=40))
def test_in_order_delivery_for_any_delays(delays):
    ch = DelayedChannel()
    for k, d in enumerate(delays):
        ch.send(k * DELTA, k, d)
    got = [p for _, p in ch.poll(1e9)]
    assert got == list(range(len(delays)))


def test_end_to_end_bound_under_clamping():
    model = typical_model()
    bound = model.total_delay_steps * DELTA
    rng = np.random.default_rng(13)
    sc, cp = DelayedChannel(), DelayedChannel()
    for k in range(5000):
        t = k * DELTA
        c = sc.send(t, k, sample_delay(model, SC, rng))
        a = cp.send(c, k, sample_delay(model, CP, rng))
        assert a - t <= bound + 1e-12


# ---------------------------------------------------------------------------
# actuator


def test_actuator_holds_zero_before_any_arrival():
    act = Actuator(1)
    assert np.array_equal(act.held, np.zeros(1))
    act.apply([])
    assert np.array_equal(act.held, np.zeros(1))


def test_actuator_single_arrival_switches():
    act = Actuator(1)
    act.apply([(0.5, np.array([2.0]))])
    assert np.array_equal(act.held, np.array([2.0]))


def test_actuator_holds_the_later_of_simultaneous_arrivals():
    act = Actuator(1)
    act.apply([(0.5, np.array([1.0])), (0.5, np.array([2.0]))])
    assert np.array_equal(act.held, np.array([2.0]))
