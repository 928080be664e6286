"""Random transmission delays between sensor, controller and plant.

Two independent links (sensor -> controller, controller -> plant) with
bounded random delays. Physical networks can deliver out of order when iid
delays overlap; here each link's arrival times are clamped to be
nondecreasing, arrival = max(send + delay, previous arrival), which realizes
in-order delivery as an explicit rule instead of an unchecked assumption.
`run_episode` applies that one clamp on both links and keeps the arrivals in
its episode log; this module holds the delay law and its known bounds. The
worst-case end-to-end delay, in sampling periods, is the pair of bounds
a + b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIFORM = "uniform"          # continuous uniform on [min, max]
GRID = "grid"                # uniform over multiples of delta inside [min, max]

SC = "sc"
CP = "cp"


@dataclass(frozen=True)
class DelayModel:
    """Sampling law for both channels plus the known per-channel bounds.

    The bounds (sc_bound_steps * delta, cp_bound_steps * delta) may be looser
    than the actual sampling ranges; they are what the controller is allowed
    to know ahead of time.
    """

    delta: float
    sc_range: tuple
    cp_range: tuple
    sc_bound_steps: int
    cp_bound_steps: int
    distribution: str = UNIFORM

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        for name, (lo, hi) in (("sc", self.sc_range), ("cp", self.cp_range)):
            if not 0.0 <= lo <= hi:
                raise ValueError(f"{name} delay range must satisfy 0 <= min <= max")
        if self.sc_bound_steps < 0 or self.cp_bound_steps < 0:
            raise ValueError("delay bounds must be nonnegative step counts")
        tol = 1e-9 * self.delta
        if self.sc_range[1] > self.sc_bound_steps * self.delta + tol:
            raise ValueError("sc delays can exceed the declared bound")
        if self.cp_range[1] > self.cp_bound_steps * self.delta + tol:
            raise ValueError("cp delays can exceed the declared bound")
        if self.distribution not in (UNIFORM, GRID):
            raise ValueError(f"unknown delay distribution {self.distribution!r}")
        if self.distribution == GRID:
            for name, (lo, hi) in (("sc", self.sc_range), ("cp", self.cp_range)):
                if self._grid_steps(lo, hi).size == 0:
                    raise ValueError(f"no multiple of delta lies in the {name} range")

    def _grid_steps(self, lo, hi):
        first = int(np.ceil(lo / self.delta - 1e-9))
        last = int(np.floor(hi / self.delta + 1e-9))
        return np.arange(first, last + 1)

    @property
    def total_delay_steps(self) -> int:
        """Worst-case end-to-end delay in sampling periods (a + b)."""
        return self.sc_bound_steps + self.cp_bound_steps


def sample_delay(model: DelayModel, channel: str, rng: np.random.Generator) -> float:
    """Draw one delay for the given channel; always inside [min, max]."""
    if channel == SC:
        lo, hi = model.sc_range
    elif channel == CP:
        lo, hi = model.cp_range
    else:
        raise ValueError(f"unknown channel {channel!r}")
    if model.distribution == UNIFORM:
        # Generator.uniform(lo, hi) is lo + (hi - lo) * next_double: the same
        # draw from the same stream
        return lo + (hi - lo) * rng.random()
    steps = model._grid_steps(lo, hi)
    return float(steps[rng.integers(steps.size)] * model.delta)

