"""Random transmission delays between sensor, controller and plant.

Two independent links (sensor -> controller, controller -> plant) with
bounded random delays. Physical networks can deliver out of order when iid
delays overlap; here each link's arrival times are clamped to be
nondecreasing, arrival = max(send + delay, previous arrival), which realizes
in-order delivery as an explicit rule instead of an unchecked assumption.
`run_episode` applies that one clamp on both links and keeps the arrivals in
its episode log; this module draws each instant's pair of delays. The delay
law, each link's range and its declared bound in sampling periods, is stated
once, in `ExperimentConfig`, which also checks it; the worst-case end-to-end
delay, in sampling periods, is its `total_delay_steps`, the pair of bounds
a + b.
"""

from __future__ import annotations

import math

UNIFORM = "uniform"          # continuous uniform on [min, max]
GRID = "grid"                # uniform over multiples of delta inside [min, max]


def grid_steps(lo: float, hi: float, delta: float) -> range:
    """The whole numbers of periods delta that lie in [lo, hi] widened by
    1e-9 periods at each end, the tolerance of the config's bound check."""
    return range(math.ceil(lo / delta - 1e-9), math.floor(hi / delta + 1e-9) + 1)


def sample_delay(cfg, rng) -> tuple[float, float]:
    """Draw one instant's (sensor-to-controller, controller-to-plant)
    delays, in that order, under an `ExperimentConfig`'s delay law. A
    uniform draw is lo + (hi - lo) * U with U in [0, 1). A grid draw is a
    multiple of delta in the link's [min, max] widened by 1e-9 periods at
    each end: it can exceed the max by that much (the range 0.07 to
    2 delta - 1e-12 draws 2 delta), and it still lies within the bound
    a + b."""
    if cfg.delay_distribution == UNIFORM:
        # Generator.uniform(lo, hi) is lo + (hi - lo) * next_double: the same
        # draw from the same stream
        sc = cfg.sc_min + (cfg.sc_max - cfg.sc_min) * rng.random()
        return sc, cfg.cp_min + (cfg.cp_max - cfg.cp_min) * rng.random()
    steps = grid_steps(cfg.sc_min, cfg.sc_max, cfg.delta)
    sc = steps[rng.integers(len(steps))] * cfg.delta
    steps = grid_steps(cfg.cp_min, cfg.cp_max, cfg.delta)
    return sc, steps[rng.integers(len(steps))] * cfg.delta
