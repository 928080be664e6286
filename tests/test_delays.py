import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netnaf import agent, nn
from netnaf.agent import run_episode
from netnaf.config import ExperimentConfig
from netnaf.delays import GRID, UNIFORM, sample_delay
from netnaf.errors import ConfigError
from netnaf.plant import integrate
from support import no_delay_config

DELTA = 2.0 ** -4


def typical_model(**kw):
    args = dict(delta=DELTA, sc_min=DELTA, sc_max=3 * DELTA, cp_min=DELTA,
                cp_max=3 * DELTA, sc_bound_steps=4, cp_bound_steps=4)
    args.update(kw)
    return ExperimentConfig(**args)


# ---------------------------------------------------------------------------
# sampling


def test_degenerate_interval_always_returns_it():
    model = typical_model(sc_max=DELTA)
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert sample_delay(model, rng)[0] == DELTA


def test_uniform_mean_on_interval():
    model = typical_model()
    rng = np.random.default_rng(1)
    draws = np.array([sample_delay(model, rng)[0] for _ in range(100_000)])
    assert abs(draws.mean() - 2 * DELTA) < 0.01 * 2 * DELTA


def test_samples_stay_in_range_both_channels():
    model = typical_model()
    rng = np.random.default_rng(2)
    draws = np.array([sample_delay(model, rng) for _ in range(10_000)])
    for link in draws.T:
        assert link.min() >= DELTA and link.max() <= 3 * DELTA


def test_grid_mode_multiples_of_delta():
    model = typical_model(delay_distribution=GRID)
    rng = np.random.default_rng(3)
    draws = np.array([sample_delay(model, rng)[0] for _ in range(5000)])
    steps = draws / DELTA
    assert np.allclose(steps, np.round(steps))
    assert set(np.round(steps)) == {1.0, 2.0, 3.0}


@pytest.mark.parametrize("distribution, sc_min",
                         [(UNIFORM, 0.0625), (GRID, 0.0625), (GRID, 0.0)],
                         ids=["uniform", "grid", "grid_from_zero"])
def test_draws_equal_the_generator_calls_bit_for_bit(distribution, sc_min):
    # the ranges are the smoke config's, and two with no simple binary form;
    # the last input's sensor grid starts at 0
    model = typical_model(sc_min=sc_min, sc_max=0.125, cp_min=0.013,
                          cp_max=0.2471, delay_distribution=distribution)
    sc_steps = {0.0625: np.array([1, 2]), 0.0: np.array([0, 1, 2])}[sc_min]
    links = [(model.sc_min, model.sc_max, sc_steps),
             (model.cp_min, model.cp_max, np.array([1, 2, 3]))]
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for k in range(50_000):
        pair = sample_delay(model, rng)
        assert type(pair) is tuple and len(pair) == 2
        # the sensor-to-controller delay is drawn first
        for got, (lo, hi, steps) in zip(pair, links):
            if distribution == GRID:
                want = float(steps[ref.integers(steps.size)] * DELTA)
            else:
                want = float(ref.uniform(lo, hi))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), k
        # exploration noise draws from the same stream between instants
        if k % 3:
            assert rng.standard_normal((1,)) == ref.standard_normal((1,))


def test_sampling_deterministic_under_seed():
    model = typical_model()
    a = [sample_delay(model, np.random.default_rng(9))[0] for _ in range(5)]
    b = [sample_delay(model, np.random.default_rng(9))[0] for _ in range(5)]
    assert a == b


def test_model_validation():
    for change, message in [
        (dict(sc_min=-0.1), "sc delay range must satisfy 0 <= min <= max"),
        (dict(cp_min=3 * DELTA, cp_max=DELTA),
         "cp delay range must satisfy 0 <= min <= max"),
        (dict(cp_bound_steps=-1), "delay bounds must be nonnegative step counts"),
        (dict(sc_max=5 * DELTA), "sc delays can exceed the declared bound"),
        (dict(cp_max=4 * DELTA + 2e-9 * DELTA),
         "cp delays can exceed the declared bound"),
        (dict(delay_distribution="zipf"), "unknown delay distribution 'zipf'"),
        (dict(delay_distribution=GRID, sc_min=0.07, sc_max=0.12),
         "no multiple of delta lies in the sc range"),
    ]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            typical_model(**change)


def test_model_validation_accepts_its_edges():
    # a max on its bound up to 1e-9 periods over, and a grid range holding
    # one multiple
    typical_model(cp_max=4 * DELTA + 0.5e-9 * DELTA)
    typical_model(delay_distribution=GRID, sc_min=0.07, sc_max=0.125)
    # a grid max 1e-12 under 2 DELTA holds 2 DELTA within the 1e-9-period
    # tolerance, so every draw is 2 DELTA, just over the max
    model = typical_model(delay_distribution=GRID, sc_min=0.07,
                          sc_max=2 * DELTA - 1e-12)
    rng = np.random.default_rng(4)
    assert {sample_delay(model, rng)[0] for _ in range(20)} == {2 * DELTA}


def test_total_delay_steps():
    assert typical_model().total_delay_steps == 8
    assert no_delay_config(DELTA).total_delay_steps == 0


# ---------------------------------------------------------------------------
# the loop's links: one clamp each, and the plant's cursor over its arrivals


def record_switches(monkeypatch):
    """Patch the loop's `integrate` to record each call's (t0, t1, switches)."""
    calls = []

    def spy(model, x0, u, t0, t1, substep, switches=()):
        calls.append((t0, t1, list(switches)))
        return integrate(model, x0, u, t0, t1, substep, switches)

    monkeypatch.setattr(agent, "integrate", spy)
    return calls


def scripted_episode(monkeypatch, cp):
    """run_episode over len(cp) instants with its delays scripted: instant k
    draws the pair (0, cp[k]). Returns the log, the issued inputs u_0 ..
    u_{n-1}, and for each instant k >= 1 the (arrival, input) switches
    `integrate` got."""
    draws = iter([(0.0, delay) for delay in cp])
    monkeypatch.setattr(agent, "sample_delay", lambda cfg, rng: next(draws))
    calls = record_switches(monkeypatch)
    cfg = ExperimentConfig(horizon=(len(cp) - 1) * DELTA, hidden=(8, 8))
    net = nn.init_network([cfg.extended_dim, 8, 8], 1, cfg.tanh_weight, 0)
    result = run_episode(net, cfg, x0=np.array([0.3, -0.2, 0.1]),
                         rng=np.random.default_rng(0), noise_scale=1.0)
    assert len(result.samples) == len(result.inputs) == len(cp)
    return result.samples, result.inputs, [switches for _, _, switches in calls]


def delivered(switches):
    """The arrival times and the inputs of a list of switches."""
    return [when for when, _ in switches], np.array([u for _, u in switches])


def test_clamp_enforces_order(monkeypatch):
    # input 1's raw arrival, 2 periods, comes before input 0's at 3
    log, issued, windows = scripted_episode(
        monkeypatch, [3 * DELTA, DELTA, 9 * DELTA, 9 * DELTA])
    assert log["plant_arrival"][:2].tolist() == [3 * DELTA, 3 * DELTA]
    times, inputs = delivered(windows[2])  # instant 3
    assert times == [3 * DELTA, 3 * DELTA]
    assert np.array_equal(inputs, issued[:2])


def test_zero_delay_is_identity_channel(monkeypatch):
    log, issued, windows = scripted_episode(monkeypatch, [0.0] * 5)
    assert log["ctrl_arrival"].tolist() == log["t"].tolist()
    assert log["plant_arrival"].tolist() == log["t"].tolist()
    # input k arrives at t_k, after instant k's delivery, and so holds from
    # the start of the next window
    for k, switches in enumerate(windows):
        times, inputs = delivered(switches)
        assert times == [k * DELTA] and np.array_equal(inputs, issued[k:k + 1])


def test_monotone_arrivals_unchanged_by_clamp(monkeypatch):
    log, _, _ = scripted_episode(
        monkeypatch, [DELTA * (1 + 0.1 * k) for k in range(5)])
    raw = [k * DELTA + DELTA * (1 + 0.1 * k) for k in range(5)]
    assert log["plant_arrival"].tolist() == raw


def test_poll_before_arrival_empty(monkeypatch):
    log, _, windows = scripted_episode(monkeypatch, [4 * DELTA] + [9 * DELTA] * 4)
    assert windows[:3] == [[], [], []]


def test_poll_boundary_is_closed(monkeypatch):
    # input 0 lands exactly on t_4 and is taken at instant 4
    log, issued, windows = scripted_episode(monkeypatch,
                                            [4 * DELTA] + [9 * DELTA] * 4)
    assert log["plant_arrival"][0] == log["t"][4]
    times, inputs = delivered(windows[3])
    assert times == [4 * DELTA] and np.array_equal(inputs, issued[:1])


def test_two_payloads_in_one_period_kept_in_send_order(monkeypatch):
    # input 1, sent a period later with half a period's delay, clamps onto
    # input 0's arrival
    log, issued, windows = scripted_episode(
        monkeypatch, [2 * DELTA, 0.5 * DELTA, 9 * DELTA])
    times, inputs = delivered(windows[1])
    assert times == [2 * DELTA, 2 * DELTA]
    assert np.array_equal(inputs, issued[:2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 3 * DELTA), min_size=1, max_size=40))
def test_in_order_delivery_for_any_delays(delays):
    # four more instants without delay: every scripted input arrives by the
    # last one, which is 3 periods after the last scripted send or later
    with pytest.MonkeyPatch.context() as mp:
        log, issued, windows = scripted_episode(mp, delays + [0.0] * 4)
    times, inputs = delivered([s for switches in windows for s in switches])
    assert len(times) >= len(delays)
    assert times == log["plant_arrival"][:len(times)].tolist()
    assert np.array_equal(inputs, issued[:len(times)])


def test_end_to_end_bound_under_clamping():
    cfg = typical_model(horizon=249 * DELTA, hidden=(8, 8))
    bound = cfg.total_delay_steps * DELTA
    net = nn.init_network([cfg.extended_dim, 8, 8], 1, cfg.tanh_weight, 13)
    for seed in range(20):  # 5,000 sends
        log = run_episode(net, cfg, x0=np.array([0.3, -0.2, 0.1]),
                          rng=np.random.default_rng(seed)).samples
        assert len(log) == 250
        assert (log["plant_arrival"] - log["t"]).max() <= bound + 1e-12


def test_the_plant_takes_each_input_where_it_lands(monkeypatch):
    # every grid arrival lands on a sampling instant and many tie, so this
    # holds the closed delivery boundary and the tie rule; each input's
    # total delay is at least two periods, so it arrives after t_{k-1}
    cfg = ExperimentConfig(horizon=60 * DELTA, hidden=(8, 8), delay_distribution=GRID,
                           sc_min=DELTA, sc_max=4 * DELTA, cp_min=DELTA,
                           cp_max=4 * DELTA)
    net = nn.init_network([cfg.extended_dim, 8, 8], 1, cfg.tanh_weight, 6)
    calls = record_switches(monkeypatch)
    result = run_episode(net, cfg, x0=np.array([0.3, -0.2, 0.1]),
                         rng=np.random.default_rng(7), noise_scale=3.5)
    log, issued = result.samples, result.inputs
    assert len(log) == len(issued) == len(calls) + 1 == 61
    times, inputs = delivered([s for _, _, switches in calls for s in switches])
    # concatenated, the switches are the issued inputs in issue order, each
    # at its logged arrival
    assert np.array_equal(inputs, issued[:len(times)])
    assert times == log["plant_arrival"][:len(times)].tolist()
    ties = on_instant = 0
    for k, (t0, t1, switches) in enumerate(calls, start=1):
        assert (t0, t1) == (log["t"][k - 1], log["t"][k])
        assert all(t0 < when <= t1 for when, _ in switches)
        on_instant += sum(when == t1 for when, _ in switches)
        # every arrival at or before t_k of an input issued before k
        assert len(switches) == np.count_nonzero(
            (log["plant_arrival"][:k] > t0) & (log["plant_arrival"][:k] <= t1))
        if switches:  # the later of tied arrivals is the one held
            assert np.array_equal(log["u"][k], switches[-1][1])
            ties += len(switches) > 1
        else:
            assert np.array_equal(log["u"][k], log["u"][k - 1])
    # on the grid every input is taken at the instant it lands on
    assert ties > 0 and on_instant == len(times) > 40


# ---------------------------------------------------------------------------
# the held input


def test_actuator_holds_zero_before_any_arrival(monkeypatch):
    log, _, _ = scripted_episode(monkeypatch, [4 * DELTA] + [9 * DELTA] * 4)
    assert not log["u"][:4].any()


def test_actuator_single_arrival_switches(monkeypatch):
    log, issued, _ = scripted_episode(monkeypatch, [4 * DELTA] + [9 * DELTA] * 4)
    assert issued[0].any() and np.array_equal(log["u"][4], issued[0])


def test_actuator_holds_the_later_of_simultaneous_arrivals(monkeypatch):
    log, issued, _ = scripted_episode(
        monkeypatch, [2 * DELTA, 0.5 * DELTA, 9 * DELTA])
    assert not np.array_equal(issued[0], issued[1])
    assert np.array_equal(log["u"][2], issued[1])
