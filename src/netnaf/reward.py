"""Composite stepwise reward: all terms are nonpositive penalties.

Histories are passed newest-first, matching the extended-state layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


def _default_output_weights():
    return np.diag([0.8, 0.8])


@dataclass(frozen=True)
class RewardWeights:
    output_weights: np.ndarray = field(default_factory=_default_output_weights)
    input_effort: float = 1.0
    input_smoothness: float = 0.15

    def __post_init__(self):
        w = np.asarray(self.output_weights, dtype=float)
        object.__setattr__(self, "output_weights", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError("output weight matrix must be square")
        if (np.diag(w) < 0).any() or self.input_effort < 0 or self.input_smoothness < 0:
            raise ValueError("penalty weights must be nonnegative")


# The three penalty formulas. Each is defined only here: the public term
# functions below validate their inputs and call these, and the agent's
# one-pass transition reward calls them on its history blocks.


def _change_penalty(d, u, weights: RewardWeights):
    """-(d' W d) - effort * u'u for an output step d and an input u."""
    return -(d @ weights.output_weights @ d) - weights.input_effort * (u @ u)


def _output_steps_penalty(diffs, weights: RewardWeights):
    """-sum_i d_i' W d_i over the rows of consecutive output differences."""
    return -np.einsum("ij,jk,ik->", diffs, weights.output_weights, diffs)


def _input_steps_penalty(diffs, weights: RewardWeights):
    """-smoothness * sum of squares of consecutive input differences."""
    return -weights.input_smoothness * (diffs * diffs).sum()


def output_change_reward(y_next, y, u, weights: RewardWeights) -> float:
    """Penalty on the newest output step and on input effort."""
    y_next = np.asarray(y_next, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if y_next.shape != y.shape or y.shape[0] != weights.output_weights.shape[0]:
        raise DimensionError("output dimensions do not match the weight matrix")
    return float(_change_penalty(y_next - y, u, weights))


def output_history_reward(outputs, weights: RewardWeights) -> float:
    """Penalty on every consecutive step inside the carried output history.

    `outputs` holds the history block, newest first, one row per sample.
    """
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim != 2 or outputs.shape[0] < 2:
        raise DimensionError("need at least two outputs, one row each")
    if outputs.shape[1] != weights.output_weights.shape[0]:
        raise DimensionError("output dimension does not match the weight matrix")
    return float(_output_steps_penalty(outputs[:-1] - outputs[1:], weights))


def input_history_reward(inputs, weights: RewardWeights) -> float:
    """Penalty on every consecutive step inside the carried input history."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] < 2:
        raise DimensionError("need at least two inputs, one row each")
    return float(_input_steps_penalty(inputs[:-1] - inputs[1:], weights))


def total_reward(r_change: float, r_outputs: float, r_inputs: float) -> float:
    return r_change + r_outputs + r_inputs
