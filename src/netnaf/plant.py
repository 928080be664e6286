"""Continuous-time plant integration with piecewise-constant input.

The integrator is classical fixed-step RK4 with exact event splitting:
integration segments never straddle an input switch time, so hold semantics
are preserved to the bit. States and inputs are tuples of Python floats,
far cheaper than numpy for a 3-vector. The Chua circuit (cubic
nonlinearity) is the default plant; its parameters are known only to the
simulator, never to the learner.
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
    state_dim: int = 3
    input_dim: int = 1

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


def _check_state(x, t):
    for v in x:
        if not math.isfinite(v) or abs(v) > DIVERGENCE_LIMIT:
            raise DivergenceError(t)


def _rk4_step(model, x, u, h, t):
    """RK4 step of length h ending at time t; per element, the operations of
    the array formula in its order. A float power that overflows raises
    OverflowError where numpy gave inf: either way the step diverged."""
    half = 0.5 * h
    try:
        k1 = model.deriv(x, u)
        k2 = model.deriv(tuple([a + half * k for a, k in zip(x, k1)]), u)
        k3 = model.deriv(tuple([a + half * k for a, k in zip(x, k2)]), u)
        k4 = model.deriv(tuple([a + h * k for a, k in zip(x, k3)]), u)
    except OverflowError:
        raise DivergenceError(t) from None
    sixth = h / 6.0
    x = tuple([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
               for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
    _check_state(x, t)
    return x


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


def _span(model, x, u, a, b, h, record):
    span = b - a
    if span <= 0.0:
        return x
    u = tuple(np.atleast_1d(np.asarray(u, dtype=float)).tolist())
    n_full = math.floor(span / h + 1e-9)
    t = a
    for i in range(n_full):
        t = a + (i + 1) * h
        x = _rk4_step(model, x, u, h, t)
        if record is not None:
            record(t, x)
    rem = b - t
    if rem > h * 1e-9:
        x = _rk4_step(model, x, u, rem, b)
        if record is not None:
            record(b, x)
    return x


def integrate(model: PlantModel, x0, schedule: InputSchedule, t0: float,
              t1: float, substep: float, record=None) -> np.ndarray:
    """State at t1, starting from x0 at t0, input held per schedule.

    Fixed RK4 substeps, restarted exactly at every switch time inside the
    window; a shorter final step lands on each segment end. Raises
    DivergenceError (carrying the blow-up time) if the state leaves the
    trusted region. record(t, x), if given, is called at every substep node
    after t0, with x a tuple of floats.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if substep <= 0:
        raise ValueError("substep must be positive")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.state_dim,):
        raise DimensionError(f"x0 has shape {x0.shape}, plant state is "
                             f"({model.state_dim},)")
    x = tuple(x0.tolist())
    _check_state(x, t0)
    for a, b, u in _segments(schedule, t0, t1):
        x = _span(model, x, u, a, b, substep, record)
    return np.array(x)

