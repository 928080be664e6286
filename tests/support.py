"""Test-only helpers: a trajectory recorder over `integrate`, the generic
tuple RK4 step the plant's step is held to, and a delay model whose
channels deliver instantly."""

import math

import numpy as np

from netnaf.delays import DelayModel
from netnaf.errors import DivergenceError
from netnaf.plant import DIVERGENCE_LIMIT, InputSchedule, PlantModel, integrate


def integrate_trajectory(model: PlantModel, x0, schedule: InputSchedule,
                         t0: float, t1: float, substep: float):
    """integrate read at every substep node t0 + i*substep and at t1;
    returns (times, states). Each leg is one integrate call, which is one
    substep of the call from t0 to t1 when no switch falls inside the
    window."""
    n_full = math.floor((t1 - t0) / substep + 1e-9)
    times = [t0 + i * substep for i in range(n_full + 1)]
    if t1 - times[-1] > substep * 1e-9:
        times.append(t1)
    states = [np.array(x0, dtype=float)]
    for a, b in zip(times, times[1:]):
        states.append(integrate(model, states[-1], schedule, a, b, substep))
    return np.array(times), np.array(states)


def generic_rk4_step(model, x, u, h, t):
    """RK4 step of length h ending at time t, for any state size; per
    element, the operations of the array formula in its order. A float
    power that overflows raises OverflowError where numpy gave inf: either
    way the step diverged."""
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
    for v in x:
        if not math.isfinite(v) or abs(v) > DIVERGENCE_LIMIT:
            raise DivergenceError(t)
    return x


def no_delay_model(delta: float) -> DelayModel:
    """Degenerate model: both channels deliver instantly."""
    return DelayModel(delta, (0.0, 0.0), (0.0, 0.0), 0, 0)
