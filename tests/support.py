"""Test-only helpers: a trajectory recorder over `integrate` and a delay
model whose channels deliver instantly."""

import numpy as np

from netnaf.delays import DelayModel
from netnaf.plant import InputSchedule, PlantModel, integrate


def integrate_trajectory(model: PlantModel, x0, schedule: InputSchedule,
                         t0: float, t1: float, substep: float):
    """Like integrate, but records every substep node; returns (times, states)."""
    times = [t0]
    states = [np.array(x0, dtype=float)]

    def record(t, xt):
        times.append(t)
        states.append(xt)

    integrate(model, x0, schedule, t0, t1, substep, record)
    return np.array(times), np.array(states)


def no_delay_model(delta: float) -> DelayModel:
    """Degenerate model: both channels deliver instantly."""
    return DelayModel(delta, (0.0, 0.0), (0.0, 0.0), 0, 0)
