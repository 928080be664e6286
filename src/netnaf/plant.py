"""Continuous-time plant integration with piecewise-constant input.

The integrator is classical fixed-step RK4 with exact event splitting:
integration segments never straddle an input switch time, so hold semantics
are preserved to the bit. The plant has three states, like the Chua circuit
(cubic nonlinearity) that is the paper's plant; states and inputs are tuples
of Python floats, far cheaper than numpy for a 3-vector, and the one RK4
step writes each stage out per component. The circuit's parameters are
known only to the simulator, never to the learner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .errors import DimensionError, DivergenceError

# Abort integration once the state leaves this box; exploration can in
# principle kick an unstable plant off to infinity.
DIVERGENCE_LIMIT = 1.0e6


class PlantModel(Protocol):
    state_dim: int
    input_dim: int

    def deriv(self, x: tuple, u: tuple) -> tuple: ...


@dataclass(frozen=True)
class ChuaCircuit:
    """Chua circuit with cubic nonlinearity (2x^3 - x)/7; input drives the
    second state equation."""

    p1: float = 10.0
    p2: float = 100.0 / 7.0
    state_dim = 3
    input_dim = 1

    def __post_init__(self):
        if self.p1 <= 0 or self.p2 <= 0:
            raise ValueError("circuit parameters must be positive")

    def deriv(self, x, u):
        x1, x2, x3 = x
        cubic = (2.0 * x1 ** 3 - x1) / 7.0
        return (self.p1 * (x2 - cubic), x1 - x2 + x3 + u[0], -self.p2 * x2)

    def equilibria(self) -> np.ndarray:
        """The three unforced rest points: origin and (+/-s, 0, -/+s), s=1/sqrt(2)."""
        s = 1.0 / np.sqrt(2.0)
        return np.array([[0.0, 0.0, 0.0], [s, 0.0, -s], [-s, 0.0, s]])


@dataclass(frozen=True)
class SensorMap:
    """Linear sampled sensor y = C x, read every `period` seconds."""

    matrix: np.ndarray
    period: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if self.matrix.ndim != 2:
            raise DimensionError("output matrix must be 2-D")
        if self.period <= 0:
            raise ValueError("sampling period must be positive")

    @property
    def output_dim(self) -> int:
        return self.matrix.shape[0]


def chua_sensor(period: float) -> SensorMap:
    """Default partial observation: first two states only."""
    return SensorMap(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), period)


def sense(x: np.ndarray, sensor: SensorMap) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (sensor.matrix.shape[1],):
        raise DimensionError(
            f"state has shape {x.shape}, sensor expects ({sensor.matrix.shape[1]},)")
    return sensor.matrix @ x


@dataclass
class InputSchedule:
    """Piecewise-constant input: `initial` until the first switch, then each
    switch value holds until the next (switch times strictly increasing)."""

    initial: np.ndarray
    switches: list = field(default_factory=list)

    def __post_init__(self):
        self.initial = np.atleast_1d(np.asarray(self.initial, dtype=float))
        times = [t for t, _ in self.switches]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("switch times must be strictly increasing")


def _rk4_step(model, x, u, h, t):
    """RK4 step of length h ending at time t, for a three-state model; per
    component, the operations of the array formula in its order, with four
    deriv calls. A float power that overflows raises OverflowError where
    numpy gave inf: either way the step diverged. abs(v) <= DIVERGENCE_LIMIT
    is False for nan and +/-inf, so one comparison per component is the
    whole divergence test."""
    x1, x2, x3 = x
    half = 0.5 * h
    deriv = model.deriv
    try:
        a1, a2, a3 = deriv(x, u)
        b1, b2, b3 = deriv((x1 + half * a1, x2 + half * a2, x3 + half * a3), u)
        c1, c2, c3 = deriv((x1 + half * b1, x2 + half * b2, x3 + half * b3), u)
        d1, d2, d3 = deriv((x1 + h * c1, x2 + h * c2, x3 + h * c3), u)
    except OverflowError:
        raise DivergenceError(t) from None
    sixth = h / 6.0
    x1 = x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
    x2 = x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
    x3 = x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
    if not (abs(x1) <= DIVERGENCE_LIMIT and abs(x2) <= DIVERGENCE_LIMIT
            and abs(x3) <= DIVERGENCE_LIMIT):
        raise DivergenceError(t)
    return (x1, x2, x3)


def _segments(schedule: InputSchedule, t0: float, t1: float):
    """Split [t0, t1] at switch times; yields (a, b, held input)."""
    current = schedule.initial
    cuts = []
    for when, value in schedule.switches:
        if when <= t0:
            current = value
        elif when <= t1:
            cuts.append((when, value))
        else:
            break
    start = t0
    for when, value in cuts:
        if when > start:
            yield start, when, current
        start = when
        current = value
    if t1 >= start:
        yield start, t1, current


def _span(model, x, u, a, b, h):
    span = b - a
    if span <= 0.0:
        return x
    u = tuple(np.atleast_1d(np.asarray(u, dtype=float)).tolist())
    n_full = math.floor(span / h + 1e-9)
    t = a
    for i in range(n_full):
        t = a + (i + 1) * h
        x = _rk4_step(model, x, u, h, t)
    rem = b - t
    if rem > h * 1e-9:
        x = _rk4_step(model, x, u, rem, b)
    return x


def integrate(model: PlantModel, x0, schedule: InputSchedule, t0: float,
              t1: float, substep: float) -> np.ndarray:
    """State at t1, starting from x0 at t0, input held per schedule.

    Fixed RK4 substeps, restarted exactly at every switch time inside the
    window; a shorter final step lands on each segment end. The model must
    have three states. Raises DivergenceError (carrying the blow-up time) if
    the state leaves the trusted region.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if substep <= 0:
        raise ValueError("substep must be positive")
    x0 = np.asarray(x0, dtype=float)
    if model.state_dim != 3 or x0.shape != (3,):
        raise DimensionError(f"integrate steps three states; the plant has "
                             f"{model.state_dim}, x0 has shape {x0.shape}")
    x = tuple(x0.tolist())
    if not all(abs(v) <= DIVERGENCE_LIMIT for v in x):
        raise DivergenceError(t0)
    for a, b, u in _segments(schedule, t0, t1):
        x = _span(model, x, u, a, b, substep)
    return np.array(x)
