"""Random transmission delays between sensor, controller and actuator.

Two independent channels (sensor -> controller, controller -> plant) with
bounded random delays. Physical networks can deliver out of order when iid
delays overlap; here arrival times are clamped to be nondecreasing, which
realizes in-order delivery as an explicit mechanism instead of an unchecked
assumption. The worst-case end-to-end delay, in sampling periods, is the
pair of known bounds a + b.
"""

from __future__ import annotations

from collections import deque
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
        # draw from the same stream, without its per-call overhead
        return lo + (hi - lo) * rng.random()
    steps = model._grid_steps(lo, hi)
    return float(steps[rng.integers(steps.size)] * model.delta)


class DelayedChannel:
    """FIFO link: send stamps an arrival time, poll releases due payloads.

    Arrival clamp: arrival = max(send + delay, previous arrival), so polled
    order always equals send order. Send and poll times must each be
    nondecreasing.
    """

    def __init__(self):
        self._queue = deque()
        self.last_send = -np.inf
        self.last_arrival = -np.inf
        self._last_poll = -np.inf

    def send(self, t_send: float, payload, delay: float) -> float:
        """Enqueue a payload; returns its (clamped) arrival time."""
        if t_send < self.last_send:
            raise ValueError(
                f"send time {t_send} precedes previous send {self.last_send}")
        if delay < 0:
            raise ValueError("delay must be nonnegative")
        arrival = max(t_send + delay, self.last_arrival)
        self._queue.append((t_send, arrival, payload))
        self.last_send = t_send
        self.last_arrival = arrival
        return arrival

    def poll(self, t: float) -> list:
        """All (arrival, payload) pairs with arrival <= t, in arrival order."""
        if t < self._last_poll:
            raise ValueError(f"poll time {t} precedes previous poll {self._last_poll}")
        self._last_poll = t
        out = []
        while self._queue and self._queue[0][1] <= t:
            _, arrival, payload = self._queue.popleft()
            out.append((arrival, payload))
        return out


class Actuator:
    """Digital-to-analog side: holds the last received input (zero before
    any arrival) and turns arrivals into input switch events."""

    def __init__(self, input_dim: int):
        self.held = np.zeros(input_dim)
        self.last_arrival = -np.inf

    def apply(self, arrivals) -> list:
        """Consume (time, input) arrivals; returns the switch fragment.

        Clamping can land several arrivals on one instant; the fragment
        keeps only the last of them (later sends win ties).
        """
        fragment = []
        for when, value in arrivals:
            if when < self.last_arrival:
                raise ValueError("actuation arrivals must be nondecreasing in time")
            self.last_arrival = when
            value = np.atleast_1d(np.asarray(value, dtype=float))
            self.held = value
            if fragment and fragment[-1][0] == when:
                fragment[-1] = (when, value)
            else:
                fragment.append((when, value))
        return fragment
