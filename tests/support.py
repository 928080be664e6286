"""Test-only helpers: a trajectory recorder over `integrate`, the generic
tuple RK4 step the plant's step is held to, a delay model whose channels
deliver instantly, and the extended state by its definition next to the
loop's gather of it."""

import math

import numpy as np

from netnaf.agent import window_index
from netnaf.delays import DelayModel
from netnaf.errors import DivergenceError
from netnaf.plant import DIVERGENCE_LIMIT, PlantModel, integrate


def integrate_trajectory(model: PlantModel, x0, u, t0: float, t1: float,
                         substep: float):
    """integrate with input u held, read at every substep node
    t0 + i*substep and at t1; returns (times, states). Each leg is one
    integrate call, which is one substep of the call from t0 to t1."""
    n_full = math.floor((t1 - t0) / substep + 1e-9)
    times = [t0 + i * substep for i in range(n_full + 1)]
    if t1 - times[-1] > substep * 1e-9:
        times.append(t1)
    states = [np.array(x0, dtype=float)]
    for a, b in zip(times, times[1:]):
        states.append(integrate(model, states[-1], u, a, b, substep))
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


def defined_extended_state(ys, us, k, delay_steps, output_history_len):
    """w_k from its definition, in plain Python: y_k back to y_{k-h}, where
    an instant before 0 reads y_0, then u_{k-1} back to u_{k-d-h}, where an
    instant before 0 reads zeros; ys and us hold one output or input a row."""
    outputs = [list(ys[max(k - j, 0)]) for j in range(output_history_len + 1)]
    inputs = [list(us[k - j]) if k - j >= 0 else [0.0] * len(us[0])
              for j in range(1, delay_steps + output_history_len + 1)]
    return np.array([float(v) for row in outputs + inputs for v in row])


def gathered_extended_states(ys, us, delay_steps, output_history_len):
    """(table, every w_k) of a scripted episode, gathered as `run_episode`
    gathers them: y_k and u_k are written once into instant k's row of a
    [y | u] table, after pad rows that read y_0 and zero input, and w_k is
    one take at `window_index`'s offsets, made before u_k is written."""
    ys, us = np.asarray(ys, dtype=float), np.asarray(us, dtype=float)
    p, m = ys.shape[1], us.shape[1]
    back, col = window_index(p, m, delay_steps, output_history_len)
    pad, width = int(back.max()), p + m
    table = np.zeros((pad + len(ys), width))
    table[:pad, :p] = ys[0]
    offsets = (pad - back) * width + col
    states = []
    for k in range(len(ys)):
        table[pad + k, :p] = ys[k]
        states.append(table.take(offsets + k * width))
        if k < len(us):
            table[pad + k, p:] = us[k]
    return table, states
