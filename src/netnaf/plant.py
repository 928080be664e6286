"""Continuous-time plant integration with piecewise-constant input.

The integrator is classical fixed-step RK4 with exact event splitting:
integration segments never straddle an input switch time, so hold semantics
are preserved to the bit. The Chua circuit (cubic nonlinearity) is the
default plant; its parameters are known only to the simulator, never to the
learner.
"""

from __future__ import annotations

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

    def deriv(self, x: np.ndarray, u: np.ndarray) -> np.ndarray: ...


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
        drive = u[0] if np.ndim(u) else float(u)
        cubic = (2.0 * x1 ** 3 - x1) / 7.0
        return np.array([
            self.p1 * (x2 - cubic),
            x1 - x2 + x3 + drive,
            -self.p2 * x2,
        ])

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
    if not np.isfinite(x).all() or np.abs(x).max() > DIVERGENCE_LIMIT:
        raise DivergenceError(t)


def _rk4_step(model, x, u, h):
    k1 = model.deriv(x, u)
    k2 = model.deriv(x + 0.5 * h * k1, u)
    k3 = model.deriv(x + 0.5 * h * k2, u)
    k4 = model.deriv(x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n_full = int(np.floor(span / h + 1e-9))
    t = a
    for i in range(n_full):
        x = _rk4_step(model, x, u, h)
        t = a + (i + 1) * h
        _check_state(x, t)
        if record is not None:
            record(t, x)
    rem = b - t
    if rem > h * 1e-9:
        x = _rk4_step(model, x, u, rem)
        _check_state(x, b)
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
    after t0.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if substep <= 0:
        raise ValueError("substep must be positive")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (model.state_dim,):
        raise DimensionError(f"x0 has shape {x.shape}, plant state is "
                             f"({model.state_dim},)")
    _check_state(x, t0)
    for a, b, u in _segments(schedule, t0, t1):
        x = _span(model, x, u, a, b, substep, record)
    return x


def integrate_trajectory(model: PlantModel, x0, schedule: InputSchedule,
                         t0: float, t1: float, substep: float):
    """Like integrate, but records every substep node; returns (times, states)."""
    times = [t0]
    states = [np.array(x0, dtype=float)]

    def record(t, xt):
        times.append(t)
        states.append(xt.copy())

    integrate(model, x0, schedule, t0, t1, substep, record)
    return np.array(times), np.array(states)
