import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netnaf.errors import DimensionError
from netnaf.reward import (RewardWeights, change_penalty, input_steps_penalty,
                           output_steps_penalty, total_reward)

W = RewardWeights()


def steps(history):
    """Consecutive differences of a newest-first history, one row each."""
    history = np.asarray(history, dtype=float)
    return history[:-1] - history[1:]


def test_output_change_stationary_zero_effort():
    y = np.array([0.3, -0.7])
    assert change_penalty(y - y, np.zeros(1), W) == 0.0


def test_output_change_hand_value():
    r = change_penalty(np.array([1.0, 1.0]) - np.zeros(2), np.array([1.0]), W)
    assert r == -2.6


def test_output_change_nonpositive_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        d = rng.normal(size=2) - rng.normal(size=2)
        assert change_penalty(d, rng.normal(size=1), W) <= 0.0


def test_output_change_sign_invariance():
    d = np.array([0.4, -1.1])
    u = np.array([0.8])
    assert change_penalty(d, u, W) == change_penalty(-d, -u, W)


def test_output_history_constant_is_zero():
    hist = np.tile(np.array([1.0, -2.0]), (5, 1))
    assert output_steps_penalty(steps(hist), W) == 0.0


def test_output_history_hand_value():
    # two differences: (1,0) and (0,1)
    hist = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
    assert output_steps_penalty(steps(hist), W) == -1.6


def test_output_history_permutation_of_step_position():
    # same multiset of differences placed at different steps
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
    b = np.array([[0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])
    assert output_steps_penalty(steps(a), W) == output_steps_penalty(steps(b), W)


def test_input_history_constant_is_zero():
    hist = np.full((13, 1), 0.7)
    assert input_steps_penalty(steps(hist), W) == 0.0


def test_input_history_hand_value():
    hist = np.array([[2.0], [0.0], [0.0]])
    assert input_steps_penalty(steps(hist), W) == -0.6


def test_input_history_nonpositive_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        assert input_steps_penalty(steps(rng.normal(size=(13, 1))), W) <= 0.0


def test_total_zero():
    assert total_reward(0.0, 0.0, 0.0) == 0.0


def test_total_hand_value():
    assert total_reward(-2.6, -1.6, -0.6) == -4.8


def test_total_zero_only_when_stationary():
    # any output motion or nonzero input makes it strictly negative
    r1 = float(change_penalty(np.array([0.1, 0.0]), np.zeros(1), W))
    assert total_reward(r1, 0.0, 0.0) < 0.0
    r1 = float(change_penalty(np.zeros(2), np.array([0.2]), W))
    assert total_reward(r1, 0.0, 0.0) < 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(-5, 5), st.integers(2, 6))
def test_history_rewards_translation_invariant(shift, n):
    rng = np.random.default_rng(7)
    outs = rng.normal(size=(n, 2))
    ins = rng.normal(size=(n, 1))
    assert np.isclose(output_steps_penalty(steps(outs + shift), W),
                      output_steps_penalty(steps(outs), W), rtol=1e-9, atol=1e-9)
    assert np.isclose(input_steps_penalty(steps(ins + shift), W),
                      input_steps_penalty(steps(ins), W), rtol=1e-9, atol=1e-9)


def test_weights_validation():
    with pytest.raises(ValueError):
        RewardWeights(input_effort=-1.0)
    with pytest.raises(DimensionError):
        RewardWeights(output_weights=np.zeros((2, 3)))
    # positive diagonal, but d'Wd = -1.8 at d = (1, -1): the penalty would be +1.8
    with pytest.raises(ValueError):
        RewardWeights(output_weights=[[0.1, 1.0], [1.0, 0.1]])


def test_output_weights_need_a_nonnegative_symmetric_part_only():
    # W + W' is 1.6 I here, so d'Wd = 1.6 at d = (1, -1)
    skew = RewardWeights(output_weights=[[0.8, 5.0], [-5.0, 0.8]])
    d = np.array([1.0, -1.0])
    assert change_penalty(d, np.zeros(1), skew) == pytest.approx(-1.6, rel=1e-12)
    assert change_penalty(d, np.zeros(1), W) == pytest.approx(-1.6, rel=1e-12)
    # singular positive semidefinite weights pass despite eigvalsh's rounding
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.normal(size=(3, 1))
        RewardWeights(output_weights=v @ v.T * rng.uniform(0.01, 100.0))


def test_generalized_output_dimension():
    w3 = RewardWeights(output_weights=np.diag([1.0, 2.0, 3.0]))
    r = change_penalty(np.array([1.0, 1.0, 1.0]) - np.zeros(3), np.zeros(1), w3)
    assert r == -6.0
