"""Composite stepwise reward: all terms are nonpositive penalties.

Histories are passed newest-first, matching the extended-state layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class RewardWeights:
    output_weights: np.ndarray = field(default_factory=lambda: np.diag([0.8, 0.8]))
    input_effort: float = 1.0
    input_smoothness: float = 0.15

    def __post_init__(self):
        w = np.asarray(self.output_weights, dtype=float)
        object.__setattr__(self, "output_weights", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError("output weight matrix must be square")
        # d'Wd >= 0 for every d exactly when W + W' is positive semidefinite;
        # the tolerance absorbs eigvalsh's rounding on a singular W + W'
        eigs = np.linalg.eigvalsh(w + w.T)
        if (eigs[0] < -1e-12 * np.abs(eigs).max() or self.input_effort < 0
                or self.input_smoothness < 0):
            raise ValueError("penalty weights must be nonnegative")


# The three penalty formulas, each defined only here. They take differences,
# so a caller forms d = y' - y or the rows of consecutive differences.


def change_penalty(d, u, weights: RewardWeights):
    """-(d' W d) - effort * u'u for an output step d and an input u."""
    return -(d @ weights.output_weights @ d) - weights.input_effort * (u @ u)


def output_steps_penalty(diffs, weights: RewardWeights):
    """-sum_i d_i' W d_i over the rows of consecutive output differences."""
    return -np.einsum("ij,jk,ik->", diffs, weights.output_weights, diffs)


def input_steps_penalty(diffs, weights: RewardWeights):
    """-smoothness * sum of squares of consecutive input differences."""
    return -weights.input_smoothness * (diffs * diffs).sum()


def total_reward(r_change: float, r_outputs: float, r_inputs: float) -> float:
    return r_change + r_outputs + r_inputs
