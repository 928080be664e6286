import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netnaf.agent import transition_reward
from netnaf.reward import change_penalty, input_steps_penalty, output_steps_penalty


def steps(history):
    """Consecutive differences of a newest-first history, one row each."""
    history = np.asarray(history, dtype=float)
    return history[:-1] - history[1:]


def test_output_change_stationary_zero_effort():
    y = np.array([0.3, -0.7])
    assert change_penalty(y - y, np.zeros(1)) == 0.0


def test_output_change_hand_value():
    r = change_penalty(np.array([1.0, 1.0]) - np.zeros(2), np.array([1.0]))
    assert r == -2.6


def test_output_change_nonpositive_random():
    rng = np.random.default_rng(0)
    for _ in range(500):
        d = rng.normal(size=2) - rng.normal(size=2)
        assert change_penalty(d, rng.normal(size=1)) <= 0.0


def test_output_change_sign_invariance():
    d = np.array([0.4, -1.1])
    u = np.array([0.8])
    assert change_penalty(d, u) == change_penalty(-d, -u)


def test_output_history_constant_is_zero():
    hist = np.tile(np.array([1.0, -2.0]), (5, 1))
    assert output_steps_penalty(steps(hist)) == 0.0


def test_output_history_hand_value():
    # two differences: (1,0) and (0,1)
    hist = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
    assert output_steps_penalty(steps(hist)) == -1.6


def test_output_history_permutation_of_step_position():
    # same multiset of differences placed at different steps
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
    b = np.array([[0.0, 1.0], [0.0, 0.0], [-1.0, 0.0]])
    assert output_steps_penalty(steps(a)) == output_steps_penalty(steps(b))


def test_input_history_constant_is_zero():
    hist = np.full((13, 1), 0.7)
    assert input_steps_penalty(steps(hist)) == 0.0


def test_input_history_hand_value():
    hist = np.array([[2.0], [0.0], [0.0]])
    assert input_steps_penalty(steps(hist)) == -0.6


def test_input_history_nonpositive_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        assert input_steps_penalty(steps(rng.normal(size=(13, 1)))) <= 0.0


def window(outputs, inputs):
    """An extended state of newest-first output and input rows (p = 2, m = 1)."""
    return np.concatenate([np.ravel(outputs), np.ravel(inputs)]).astype(float)


def test_total_zero():
    w = window(np.tile([0.3, -0.7], (3, 1)), np.zeros(2))
    assert transition_reward(w, [0.0], w, 2) == 0.0


def test_total_hand_value():
    # the three hand cases above in one window: history length 2, no delay
    outputs = [[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]]
    w = window(outputs, [-1.0, -1.0])
    w_next = window([[2.0, 1.0], *outputs[:2]], [1.0, -1.0])
    assert transition_reward(w, [1.0], w_next, 2) == -4.8


def test_total_zero_only_when_stationary():
    # any output motion or nonzero input makes it strictly negative
    w = window(np.zeros((3, 2)), np.zeros(2))
    moved = window([[0.1, 0.0], [0.0, 0.0], [0.0, 0.0]], np.zeros(2))
    assert transition_reward(w, [0.0], moved, 2) < 0.0
    assert transition_reward(w, [0.2], w, 2) < 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(-5, 5), st.integers(2, 6))
def test_history_rewards_translation_invariant(shift, n):
    rng = np.random.default_rng(7)
    outs = rng.normal(size=(n, 2))
    ins = rng.normal(size=(n, 1))
    assert np.isclose(output_steps_penalty(steps(outs + shift)),
                      output_steps_penalty(steps(outs)), rtol=1e-9, atol=1e-9)
    assert np.isclose(input_steps_penalty(steps(ins + shift)),
                      input_steps_penalty(steps(ins)), rtol=1e-9, atol=1e-9)
