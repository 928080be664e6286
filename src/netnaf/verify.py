"""Acceptance generators, their pass/fail checks, and the `verify` suites.

Each generate_* function re-derives an expected answer from something
independent (finite differences, closed forms, brute enumeration), runs the
production path against it and returns a JSON-serializable artifact; the
matching check_* function turns that artifact into (ok, detail) with the
acceptance thresholds. The acceptance tests run the generators at full
size; `netnaf verify` runs them at the small sizes in ALL_SUITES. The
mutation_guard suite feeds a sign-flipped head through the criterion-1
generator to prove that its check can fail. The undelayed-loop oracle,
like `run_episode`, takes the `ExperimentConfig` alone.

Imports nothing beyond numpy and this package.
"""

from __future__ import annotations

import time

import numpy as np

from . import naf, nn
from .agent import (batch_loss_and_grad, extended_state_dim, run_episode,
                    transition_reward, window_index)
from .config import ExperimentConfig
from .delays import GRID, UNIFORM
from .plant import ChuaCircuit, integrate, sense
from .reward import change_penalty, input_steps_penalty, output_steps_penalty

DELTA = 2.0 ** -4


# ---------------------------------------------------------------------------
# Independent oracles


def fd_gradient(func, theta, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        probe = theta.copy()
        probe[i] = theta[i] + step
        up = func(probe)
        probe[i] = theta[i] - step
        down = func(probe)
        grad[i] = (up - down) / (2.0 * step)
    return grad


def rel_err(a, b):
    """Max absolute difference scaled by the larger gradient magnitude."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(a - b).max() / scale)


def classical_sampled_loop(net, cfg, x0):
    """Undelayed sampled-data reference: sense at each period, act at once,
    hold the input, integrate to the next sample. No channels anywhere. Its
    extended states are gathered as `run_episode` gathers them, from a
    [y | u] table whose pad rows read the first sensed output and zero
    input; the config's delay bounds size the window only. Returns the
    states and the inputs, one row an instant."""
    plant, delta = cfg.plant(), cfg.delta
    x = np.asarray(x0, dtype=float).copy()
    y = sense(x)
    p, m = y.size, plant.input_dim
    back, col = window_index(p, m, cfg.total_delay_steps, cfg.output_history_len)
    pad, width = int(back.max()), p + m
    table = np.zeros((pad + cfg.steps_per_episode + 1, width))
    table[:pad + 1, :p] = y
    states = []
    for k in range(cfg.steps_per_episode + 1):
        if k > 0:
            x = integrate(plant, x, table[pad + k - 1, p:], (k - 1) * delta,
                          k * delta, cfg.substep)
            table[pad + k, :p] = sense(x)
        w = table.take((pad - back + k) * width + col)
        table[pad + k, p:] = nn.forward(net, w, head="action").action[0]
        states.append(x.copy())
    return np.array(states), table[pad:, p:].copy()


# ---------------------------------------------------------------------------
# 1. advantage-head algebra


def generate_naf_algebra(pairs=1000, actions=1000, head=naf.quadratic_head):
    """Q(mu) = V, Q <= V and P positive definite over random nets and states.

    head has the signature of naf.quadratic_head; the mutation guard passes
    a corrupted one.
    """
    rng = np.random.default_rng(1001)
    worst_gap = 0.0
    worst_adv = -np.inf
    min_eig = np.inf
    for i in range(pairs):
        m = (1, 2, 3)[i % 3]
        dim = int(rng.integers(4, 10))
        net = nn.init_network([dim, 16, 16], m, 4.0, int(rng.integers(2 ** 31)))
        w = rng.normal(0.0, 2.0, size=dim)
        tr = nn.forward(net, w[None, :])
        L = naf.assemble_scale_matrix(tr.scale_entries[0], m)
        p = L @ L.T
        min_eig = min(min_eig, float(np.linalg.eigvalsh(p).min()))
        np.linalg.cholesky(p)
        us = tr.action + rng.normal(0.0, 2.0, size=(actions, m))
        us = np.vstack([tr.action, us])  # row 0 is u = mu
        n = us.shape[0]
        q, _ = head(np.repeat(tr.value, n), np.repeat(tr.action, n, axis=0),
                    np.repeat(tr.scale_entries, n, axis=0), us)
        adv = q - tr.value[0]
        worst_gap = max(worst_gap, abs(float(adv[0])))
        worst_adv = max(worst_adv, float(adv[1:].max()))
    return {"pairs": pairs, "worst_abs_q_minus_v": worst_gap,
            "worst_advantage": worst_adv, "min_p_eigenvalue": min_eig}


def check_naf_algebra(art):
    ok = (art["worst_abs_q_minus_v"] <= 1e-12 and art["worst_advantage"] <= 0.0
          and art["min_p_eigenvalue"] > 0.0)
    return ok, (f"{art['pairs']} pairs, |Q(mu)-V| <= "
                f"{art['worst_abs_q_minus_v']:.1e}, max Q-V "
                f"{art['worst_advantage']:.2e}, min eig(P) "
                f"{art['min_p_eigenvalue']:.2e}")


# ---------------------------------------------------------------------------
# 2. gradient correctness


def random_batch(rng, n, dim, m):
    """(w, u, r, w') rows drawn per transition in the order w, u, w', r."""
    rows = [(rng.normal(size=dim), rng.normal(size=m), rng.normal(size=dim),
             rng.normal()) for _ in range(n)]
    w, u, w_next, r = (np.array(col) for col in zip(*rows))
    return w, u, r, w_next


def generate_gradient_check():
    """TD-loss gradient of a small batch against central finite differences."""
    rng = np.random.default_rng(1002)
    m = 1
    dim = extended_state_dim(2, m, 2, 1)
    net = nn.init_network([dim, 8, 8], m, 4.0, 77)
    target = nn.init_network([dim, 8, 8], m, 4.0, 78)
    batch = random_batch(rng, 4, dim, m)
    _, analytic = batch_loss_and_grad(net, target, batch, 0.99)
    theta0 = net.params.copy()

    def loss_of(theta):
        net.params[:] = theta
        loss, _ = batch_loss_and_grad(net, target, batch, 0.99)
        return loss

    fd = fd_gradient(loss_of, theta0, step=1e-5)
    return {"rel_err": rel_err(analytic, fd), "params": int(theta0.size)}


def check_gradient(art):
    return art["rel_err"] < 1e-4, (f"TD-loss gradient vs finite differences: "
                                   f"rel err {art['rel_err']:.2e} over "
                                   f"{art['params']} parameters")


# ---------------------------------------------------------------------------
# 3. integrator order and rest points


def generate_rk4_order():
    """RK4 error slope on dx/dt = -x and the Chua rest-point residuals.

    integrate steps three-state plants only, like the Chua circuit, so the
    oracle is dx/dt = -x in each of three components; the first is read."""

    class Linear:
        state_dim = 3
        input_dim = 1

        def deriv(self, x, u):
            return (-x[0], -x[1], -x[2])

    steps = [2.0 ** -e for e in range(4, 9)]
    errs = [abs(integrate(Linear(), np.ones(3), np.zeros(1), 0.0, 1.0, h)[0]
                - np.exp(-1.0)) for h in steps]
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    chua = ChuaCircuit()
    residuals = [float(np.linalg.norm(chua.deriv(tuple(eq.tolist()), (0.0,))))
                 for eq in chua.equilibria()]
    return {"slope": slope, "errors": errs, "rest_point_residuals": residuals}


def check_rk4_order(art):
    ok = 3.8 <= art["slope"] <= 4.2 and max(art["rest_point_residuals"]) < 1e-12
    return ok, (f"RK4 error slope {art['slope']:.3f} on the exponential "
                f"oracle; rest-point residuals "
                f"{max(art['rest_point_residuals']):.1e}")


# ---------------------------------------------------------------------------
# 5. delay links


def generate_channel_suite(seeds=40, steps=250):
    """The loop's own log under random delays, one noisy episode of `steps`
    periods a delay seed, the seeds alternating between the uniform and the
    grid law over the same ranges and bounds: each arrival column is the running maximum
    of its raw arrivals (in-order delivery), the end-to-end delay keeps its
    bound, and the held input is the issued input of the last instant whose
    input has arrived, zero before any. Then the zero-delay loop against the
    undelayed sampled-data oracle."""
    links = dict(sc_min=DELTA, sc_max=3 * DELTA, cp_min=DELTA, cp_max=3 * DELTA,
                 sc_bound_steps=4, cp_bound_steps=4)
    laws = [ExperimentConfig(horizon=steps * DELTA, hidden=(8, 8),
                             delay_distribution=law, **links)
            for law in (UNIFORM, GRID)]
    bound = laws[0].total_delay_steps * DELTA
    instants = boundary = 0
    clamped = {"sc": 0, "cp": 0}
    worst = 0.0
    in_order = held_ok = True
    for seed in range(seeds):
        cfg = laws[seed % 2]
        rng = np.random.default_rng(1005 + seed)
        net = nn.init_network([cfg.extended_dim, 8, 8], 1, cfg.tanh_weight, seed)
        result = run_episode(net, cfg, x0=rng.uniform(-1.0, 1.0, 3), rng=rng,
                             noise_scale=1.0)
        log = result.samples
        t, ctrl, plant = log["t"], log["ctrl_arrival"], log["plant_arrival"]
        raw_sc, raw_cp = t + log["tau_sc"], ctrl + log["tau_cp"]
        in_order = (in_order and np.array_equal(ctrl, np.maximum.accumulate(raw_sc))
                    and np.array_equal(plant, np.maximum.accumulate(raw_cp)))
        clamped["sc"] += int((ctrl > raw_sc).sum())
        clamped["cp"] += int((plant > raw_cp).sum())
        worst = max(worst, float((plant - t).max()))
        # [k, j]: input j, issued before instant k, has arrived by t_k
        landed = (plant[None, :] <= t[:, None]) & np.tri(len(log), k=-1, dtype=bool)
        boundary += int((landed & (plant[None, :] == t[:, None])).sum())
        last = np.where(landed, np.arange(len(log)), -1).max(axis=1)
        want = np.vstack([np.zeros((1, 1)), result.inputs])[last + 1]
        held_ok = held_ok and np.array_equal(log["u"], want)
        instants += len(log)

    cfg = ExperimentConfig(sc_min=0.0, sc_max=0.0, cp_min=0.0, cp_max=0.0,
                           sc_bound_steps=0, cp_bound_steps=0, hidden=(8, 8),
                           horizon=2.0)
    net = nn.init_network([cfg.extended_dim, 8, 8], 1, 4.0, 55)
    x0 = np.array([1.0, -0.5, 0.3])
    result = run_episode(net, cfg, x0=x0, rng=np.random.default_rng(0))
    ref_states, _ = classical_sampled_loop(net, cfg, x0)
    mismatch = float(np.abs(result.samples["x"] - ref_states).max())
    return {"instants": instants, "in_order": in_order, "clamped": clamped,
            "boundary_arrivals": boundary, "held_ok": held_ok,
            "worst_end_to_end": worst, "bound": bound,
            "zero_delay_mismatch": mismatch}


def check_channels(art):
    # a run with no clamp or no arrival on an instant would not exercise
    # the tie rule or the closed delivery boundary
    exercised = min(*art["clamped"].values(), art["boundary_arrivals"]) > 0
    ok = (art["in_order"] and art["held_ok"] and exercised
          and art["worst_end_to_end"] <= art["bound"] + 1e-12
          and art["zero_delay_mismatch"] <= 1e-12)
    return ok, (f"{art['instants']} logged instants: both links in order "
                f"{art['in_order']} ({art['clamped']['sc']} sc and "
                f"{art['clamped']['cp']} cp arrivals clamped), held input the "
                f"last arrived {art['held_ok']} ({art['boundary_arrivals']} "
                f"arrivals on an instant), end-to-end delay "
                f"{art['worst_end_to_end']:.4f}s vs bound {art['bound']:.4f}s, "
                f"zero-delay loop matches the undelayed oracle to "
                f"{art['zero_delay_mismatch']:.1e}")


# ---------------------------------------------------------------------------
# 7. reward


def _steps(history):
    """Consecutive differences of a newest-first history, one row each."""
    return history[:-1] - history[1:]


def generate_reward_suite(change_draws=100_000, history_draws=10_000):
    """Hand-computed reward cases and the worst component over random draws.

    `total` is the loop's own reward of a window built to hold the three
    component cases: history length 2, no delay steps, u = 1 and a newest
    output (2, 1) in w'."""
    outputs = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
    inputs = np.array([[2.0], [0.0], [0.0]])
    w = np.concatenate([outputs.ravel(), [-1.0, -1.0]])
    w_next = np.concatenate([[2.0, 1.0], outputs[:2].ravel(), [1.0, -1.0]])
    hand = {
        "r_change": float(change_penalty(np.ones(2), np.ones(1))),
        "r_outputs": float(output_steps_penalty(_steps(outputs))),
        "r_inputs": float(input_steps_penalty(_steps(inputs))),
        "total": transition_reward(w, [1.0], w_next, 2),
    }
    rng = np.random.default_rng(1007)
    worst = -np.inf
    for _ in range(change_draws):
        d = rng.normal(size=2) - rng.normal(size=2)  # y' - y
        worst = max(worst, float(change_penalty(d, rng.normal(size=1))))
    for _ in range(history_draws):
        d_out = _steps(rng.normal(size=(5, 2)))
        d_in = _steps(rng.normal(size=(13, 1)))
        worst = max(worst, float(output_steps_penalty(d_out)),
                    float(input_steps_penalty(d_in)))
    return {"hand": hand, "worst_component": float(worst)}


def check_reward(art):
    hand = art["hand"]
    ok = (hand["r_change"] == -2.6 and hand["r_outputs"] == -1.6
          and hand["r_inputs"] == -0.6 and hand["total"] == -4.8
          and art["worst_component"] <= 0.0)
    return ok, (f"hand values {tuple(hand.values())}, worst random component "
                f"{art['worst_component']:.2e}")


# ---------------------------------------------------------------------------
# Suites behind `netnaf verify`


def suite_mutation_guard():
    """The criterion-1 check must fail on a head with Q' = 2V - Q."""

    def flipped_head(value, action, scale_entries, u):
        q, pullback = naf.quadratic_head(value, action, scale_entries, u)
        return 2.0 * value - q, pullback  # wrong sign on purpose

    ok, detail = check_naf_algebra(generate_naf_algebra(240, 200, flipped_head))
    if ok:
        return False, f"criterion-1 check passed a sign-flipped head: {detail}"
    return True, f"sign-flipped head caught: {detail}"


ALL_SUITES = [
    ("naf_algebra", lambda: check_naf_algebra(generate_naf_algebra(240, 200))),
    ("gradients", lambda: check_gradient(generate_gradient_check())),
    ("channels", lambda: check_channels(generate_channel_suite(16, 250))),
    ("rk4_order", lambda: check_rk4_order(generate_rk4_order())),
    ("reward_values", lambda: check_reward(generate_reward_suite(2000, 2000))),
    ("mutation_guard", suite_mutation_guard),
]


def run_suites():
    """Run every suite; returns a list of result dicts."""
    results = []
    for name, fn in ALL_SUITES:
        started = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({
            "suite": name,
            "ok": bool(ok),
            "seconds": round(time.perf_counter() - started, 3),
            "detail": detail,
        })
    return results
