"""Random transmission delays between sensor, controller and plant.

Two independent links (sensor -> controller, controller -> plant) with
bounded random delays. Physical networks can deliver out of order when iid
delays overlap; here each link's arrival times are clamped to be
nondecreasing, arrival = max(send + delay, previous arrival), which realizes
in-order delivery as an explicit rule instead of an unchecked assumption.
`run_episode` applies that one clamp on both links and keeps the arrivals in
its episode log; this module draws the delays. The delay law, each link's
range and its declared bound in sampling periods, is stated once, in
`ExperimentConfig`, which also checks it; the worst-case end-to-end delay,
in sampling periods, is its `total_delay_steps`, the pair of bounds a + b.
"""

from __future__ import annotations

import numpy as np

UNIFORM = "uniform"          # continuous uniform on [min, max]
GRID = "grid"                # uniform over multiples of delta inside [min, max]

SC = "sc"
CP = "cp"


def grid_steps(lo: float, hi: float, delta: float) -> np.ndarray:
    """The whole numbers of periods delta that lie in [lo, hi]."""
    first = int(np.ceil(lo / delta - 1e-9))
    last = int(np.floor(hi / delta + 1e-9))
    return np.arange(first, last + 1)


def sample_delay(cfg, channel: str, rng: np.random.Generator) -> float:
    """Draw one delay for the given channel under an `ExperimentConfig`'s
    delay law; always inside the channel's [min, max]."""
    if channel == SC:
        lo, hi = cfg.sc_min, cfg.sc_max
    elif channel == CP:
        lo, hi = cfg.cp_min, cfg.cp_max
    else:
        raise ValueError(f"unknown channel {channel!r}")
    if cfg.delay_distribution == UNIFORM:
        # Generator.uniform(lo, hi) is lo + (hi - lo) * next_double: the same
        # draw from the same stream
        return lo + (hi - lo) * rng.random()
    steps = grid_steps(lo, hi, cfg.delta)
    return float(steps[rng.integers(steps.size)] * cfg.delta)
