"""Composite stepwise reward: all terms are nonpositive penalties.

Histories are passed newest-first, matching the extended-state layout.
"""

from __future__ import annotations

import numpy as np

# The penalty weights, each defined only here: W on output steps, then the
# input effort and input smoothness factors.
OUTPUT_WEIGHTS = np.diag([0.8, 0.8])
INPUT_EFFORT = 1.0
INPUT_SMOOTHNESS = 0.15


# The three penalty formulas, each defined only here. They take differences,
# so a caller forms d = y' - y or the rows of consecutive differences.


def change_penalty(d, u):
    """-(d' W d) - effort * u'u for an output step d and an input u."""
    return -(d @ OUTPUT_WEIGHTS @ d) - INPUT_EFFORT * (u @ u)


def output_steps_penalty(diffs):
    """-sum_i d_i' W d_i over the rows of consecutive output differences."""
    return -np.einsum("ij,jk,ik->", diffs, OUTPUT_WEIGHTS, diffs)


def input_steps_penalty(diffs):
    """-smoothness * sum of squares of consecutive input differences."""
    return -INPUT_SMOOTHNESS * (diffs * diffs).sum()
