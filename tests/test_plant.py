import numpy as np
import pytest

from netnaf.errors import DimensionError, DivergenceError
from netnaf.plant import (DIVERGENCE_LIMIT, ChuaCircuit, InputSchedule,
                          SensorMap, _rk4_step, chua_sensor, integrate, sense)
from support import generic_rk4_step, integrate_trajectory

DELTA = 2.0 ** -4
SUBSTEP = 2.0 ** -8


class LinearDecay:
    """dx/dt = -x per component, the closed-form oracle model."""

    state_dim = 3
    input_dim = 1

    def deriv(self, x, u):
        return (-x[0], -x[1], -x[2])


class Integrator:
    """dx1/dt = u, for input-schedule checks; x2 and x3 rest."""

    state_dim = 3
    input_dim = 1

    def deriv(self, x, u):
        return (u[0], 0.0, 0.0)


class OneComponent:
    """Component `i` of a three-state plant follows dx_i/dt = f(x_i); the
    others rest at zero, so each component runs the same arithmetic."""

    state_dim = 3
    input_dim = 1

    def __init__(self, i, f):
        self.i, self.f = i, f

    def deriv(self, x, u):
        dx = [0.0, 0.0, 0.0]
        dx[self.i] = self.f(x[self.i])
        return tuple(dx)


# each component of the state, so every component's divergence test is
# exercised
COMPONENTS = pytest.mark.parametrize(
    "i", [0, 1, 2], ids=["three_state_x1", "three_state_x2", "three_state_x3"])


def _start(i, value):
    x0 = np.zeros(3)
    x0[i] = value
    return x0


# ---------------------------------------------------------------------------
# Chua derivative


def test_chua_origin_is_equilibrium():
    chua = ChuaCircuit()
    assert chua.deriv((0.0, 0.0, 0.0), (0.0,)) == (0.0, 0.0, 0.0)


def test_chua_nonzero_equilibria():
    chua = ChuaCircuit()
    s = 1.0 / np.sqrt(2.0)
    for x in ((s, 0.0, -s), (-s, 0.0, s)):
        assert np.linalg.norm(chua.deriv(x, (0.0,))) < 1e-12


def test_chua_direct_evaluation():
    chua = ChuaCircuit()
    dx = chua.deriv((1.0, 0.0, 0.0), (0.0,))
    assert type(dx) is tuple and all(type(v) is float for v in dx)
    assert np.allclose(dx, [-10.0 / 7.0, 1.0, 0.0], rtol=1e-15)


def test_chua_input_enters_second_component():
    chua = ChuaCircuit()
    base = chua.deriv((0.5, -0.5, 1.0), (0.0,))
    driven = chua.deriv((0.5, -0.5, 1.0), (2.0,))
    assert driven[1] - base[1] == 2.0
    assert driven[0] == base[0] and driven[2] == base[2]


def test_chua_rejects_bad_params():
    with pytest.raises(ValueError):
        ChuaCircuit(p1=-1.0)


# ---------------------------------------------------------------------------
# integration


def test_integrate_empty_interval():
    x = integrate(LinearDecay(), np.ones(3), InputSchedule(np.zeros(1)),
                  0.0, 0.0, 2.0 ** -8)
    assert np.array_equal(x, np.ones(3))


def test_integrate_matches_exponential():
    x = integrate(LinearDecay(), np.ones(3), InputSchedule(np.zeros(1)),
                  0.0, 1.0, 2.0 ** -8)
    assert abs(x[0] - np.exp(-1.0)) < 1e-8


def test_rk4_fourth_order_convergence():
    errs = []
    for h in (2.0 ** -5, 2.0 ** -6):
        x = integrate(LinearDecay(), np.ones(3), InputSchedule(np.zeros(1)),
                      0.0, 1.0, h)
        errs.append(abs(x[0] - np.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0  # about 2**4


def test_event_splitting_is_bitwise():
    chua = ChuaCircuit()
    x0 = np.array([-0.2, 0.1, -0.1])
    h = 2.0 ** -6
    s = 0.25
    u1 = np.array([0.7])
    sched = InputSchedule(np.zeros(1), [(s, u1)])
    combined = integrate(chua, x0, sched, 0.0, 0.5, h)
    mid = integrate(chua, x0, InputSchedule(np.zeros(1)), 0.0, s, h)
    split = integrate(chua, mid, InputSchedule(u1), s, 0.5, h)
    assert np.array_equal(combined, split)


def test_schedule_hold_semantics():
    # dx/dt = u: area under the piecewise-constant input
    sched = InputSchedule(np.array([1.0]), [(1.0, np.array([3.0]))])
    x = integrate(Integrator(), np.zeros(3), sched, 0.0, 2.0, 2.0 ** -6)
    assert abs(x[0] - (1.0 + 3.0)) < 1e-12


def test_switch_at_window_start_applies_immediately():
    sched = InputSchedule(np.array([1.0]), [(0.0, np.array([5.0]))])
    x = integrate(Integrator(), np.zeros(3), sched, 0.0, 1.0, 2.0 ** -6)
    assert abs(x[0] - 5.0) < 1e-12


def test_integrate_rejects_reversed_interval():
    with pytest.raises(ValueError):
        integrate(LinearDecay(), np.ones(3), InputSchedule(np.zeros(1)),
                  1.0, 0.0, 0.1)


def test_integrate_rejects_a_one_state_plant():
    class OneState:
        state_dim = 1
        input_dim = 1

        def deriv(self, x, u):
            return (-x[0],)

    # a three-state start, so only the plant's own shape is wrong
    with pytest.raises(DimensionError):
        integrate(OneState(), np.ones(3), InputSchedule(np.zeros(1)), 0.0,
                  1.0, 2.0 ** -8)


def test_integrate_rejects_a_two_vector_start():
    with pytest.raises(DimensionError):
        integrate(ChuaCircuit(), np.ones(2), InputSchedule(np.zeros(1)), 0.0,
                  1.0, 2.0 ** -8)


@COMPONENTS
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   2.0 * DIVERGENCE_LIMIT])
def test_start_outside_the_trusted_region_is_divergence_at_t0(i, value):
    with pytest.raises(DivergenceError) as err:
        integrate(LinearDecay(), _start(i, value), InputSchedule(np.zeros(1)),
                  0.5, 1.0, 2.0 ** -8)
    assert err.value.time == 0.5


def _divergence_time(plant, x0, t1, substep):
    with pytest.raises(DivergenceError) as err:
        integrate(plant, x0, InputSchedule(np.zeros(1)), 0.0, t1, substep)
    return err.value.time


@COMPONENTS
def test_divergence_reports_time(i):
    def square(v):
        return v * v  # finite-time blow-up from x0 > 0

    time = _divergence_time(OneComponent(i, square), _start(i, 10.0), 1.0,
                            2.0 ** -8)
    assert 0.0 < time <= 1.0
    assert time == _divergence_time(OneComponent(0, square), _start(0, 10.0),
                                    1.0, 2.0 ** -8)


@pytest.mark.parametrize("x1", [1e5, 1e6])
def test_overflowing_stage_is_divergence(x1):
    # x1 ** 3 overflows within the first substep: a float power raises
    # OverflowError where numpy gave inf, and both must end the same way.
    with pytest.raises(DivergenceError) as err:
        integrate(ChuaCircuit(), [x1, 0.0, 0.0], InputSchedule(np.zeros(1)),
                  0.0, DELTA, SUBSTEP)
    assert err.value.time == SUBSTEP


@COMPONENTS
def test_nan_derivative_is_divergence(i):
    # abs(nan) > limit is False: only a test that also rejects nan, as
    # abs(nan) <= limit does by being False, can catch this
    plant = OneComponent(i, lambda v: float("nan"))
    assert _divergence_time(plant, _start(i, 1.0), DELTA, SUBSTEP) == SUBSTEP


def _reference_deriv(chua, x, u):
    x1, x2, x3 = x
    cubic = (2.0 * x1 ** 3 - x1) / 7.0
    return np.array([chua.p1 * (x2 - cubic), x1 - x2 + x3 + u[0],
                     -chua.p2 * x2])


def _reference_integrate(chua, x, segments, h):
    """RK4 on numpy arrays, written as the array formula."""
    for a, b, u in segments:
        n_full = int(np.floor((b - a) / h + 1e-9))
        steps = [h] * n_full
        if b - (a + n_full * h) > h * 1e-9:
            steps.append(b - (a + n_full * h))
        for step in steps:
            k1 = _reference_deriv(chua, x, u)
            k2 = _reference_deriv(chua, x + 0.5 * step * k1, u)
            k3 = _reference_deriv(chua, x + 0.5 * step * k2, u)
            k4 = _reference_deriv(chua, x + step * k3, u)
            x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def test_float_rk4_bit_identical_to_array_formula():
    chua = ChuaCircuit()
    rng = np.random.default_rng(20)
    for _ in range(500):
        x0 = rng.normal(scale=2.0, size=3)
        u0, u1 = rng.normal(scale=3.0, size=(2, 1))
        switch = float(rng.uniform(0.0, DELTA))
        held = integrate(chua, x0, InputSchedule(u0), 0.0, DELTA, SUBSTEP)
        assert np.array_equal(
            held, _reference_integrate(chua, x0, [(0.0, DELTA, u0)], SUBSTEP))
        switched = integrate(chua, x0, InputSchedule(u0, [(switch, u1)]), 0.0,
                             DELTA, SUBSTEP)
        assert np.array_equal(switched, _reference_integrate(
            chua, x0, [(0.0, switch, u0), (switch, DELTA, u1)], SUBSTEP))


def _step_outcome(step, *args):
    """The state's bytes (so -0.0 differs from 0.0), or the divergence time."""
    try:
        return np.array(step(*args)).tobytes()
    except DivergenceError as err:
        return "diverged", err.time


def test_three_state_step_bit_identical_to_generic_step():
    chua = ChuaCircuit()
    rng = np.random.default_rng(21)
    diverged = 0
    for n in range(4000):
        # states from 0.1 to 1e3 in size, so about a third of the steps
        # leave the trusted region; every third step is a short remainder
        x = tuple((rng.normal(size=3) * 10.0 ** rng.uniform(-1.0, 3.0)).tolist())
        u = (float(rng.normal(scale=3.0)),)
        h = SUBSTEP * (float(rng.uniform(1e-9, 1.0)) if n % 3 == 0 else 1.0)
        t = float(rng.uniform(0.0, 12.0))
        generic = _step_outcome(generic_rk4_step, chua, x, u, h, t)
        assert _step_outcome(_rk4_step, chua, x, u, h, t) == generic
        diverged += isinstance(generic, tuple)
    assert 500 < diverged < 2000  # at least 2,000 finite steps compared


def test_one_period_calls_deriv_four_times_per_substep(monkeypatch):
    calls = []
    original = ChuaCircuit.deriv

    def counting(self, x, u):
        calls.append(None)
        return original(self, x, u)

    monkeypatch.setattr(ChuaCircuit, "deriv", counting)
    integrate(ChuaCircuit(), [0.3, -0.1, 0.2], InputSchedule(np.zeros(1)), 0.0,
              DELTA, SUBSTEP)
    assert len(calls) == 64


def test_schedule_requires_increasing_switch_times():
    with pytest.raises(ValueError):
        InputSchedule(np.zeros(1), [(0.5, np.ones(1)), (0.5, np.ones(1))])


def test_trajectory_consistent_with_integrate():
    chua = ChuaCircuit()
    x0 = np.array([2.0, -1.0, 1.0])
    sched = InputSchedule(np.zeros(1))
    end = integrate(chua, x0, sched, 0.0, 3.0, 2.0 ** -6)
    ts, xs = integrate_trajectory(chua, x0, sched, 0.0, 3.0, 2.0 ** -6)
    assert ts[0] == 0.0 and ts[-1] == 3.0
    assert np.array_equal(xs[-1], end)


# ---------------------------------------------------------------------------
# qualitative long-run behavior


def test_uncontrolled_chua_stays_bounded_and_unsettled():
    chua = ChuaCircuit()
    sched = InputSchedule(np.zeros(1))
    ts, xs = integrate_trajectory(chua, np.array([-0.2, 0.1, -0.1]), sched,
                                  0.0, 100.0, 2.0 ** -8)
    assert np.abs(xs).max() < 10.0
    tail = xs[ts >= 80.0]
    dmin = min(np.linalg.norm(tail - eq, axis=1).min()
               for eq in chua.equilibria())
    assert dmin > 0.05


def test_uncontrolled_chua_second_start_near_periodic():
    chua = ChuaCircuit()
    sched = InputSchedule(np.zeros(1))
    ts, xs = integrate_trajectory(chua, np.array([2.0, -1.0, 1.0]), sched,
                                  0.0, 100.0, 2.0 ** -8)
    assert np.abs(xs).max() < 10.0
    tail = xs[ts >= 80.0, 0]
    interior = (tail[1:-1] > tail[:-2]) & (tail[1:-1] > tail[2:])
    maxima = tail[1:-1][interior]
    assert maxima.size >= 3
    spread = maxima.max() - maxima.min()
    assert spread < 0.1 * (tail.max() - tail.min())


# ---------------------------------------------------------------------------
# sensor


def test_sense_partial_observation():
    sensor = chua_sensor(2.0 ** -4)
    y = sense(np.array([1.5, -2.0, 7.0]), sensor)
    assert np.array_equal(y, np.array([1.5, -2.0]))


def test_sense_zero():
    sensor = chua_sensor(2.0 ** -4)
    assert np.array_equal(sense(np.zeros(3), sensor), np.zeros(2))


def test_sense_identity_map():
    sensor = SensorMap(np.eye(3), 1.0)
    x = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(sense(x, sensor), x)


def test_sense_dimension_mismatch():
    sensor = chua_sensor(2.0 ** -4)
    with pytest.raises(DimensionError):
        sense(np.zeros(4), sensor)
