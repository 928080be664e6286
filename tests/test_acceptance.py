"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion is backed by a generator function that computes a
JSON-serializable artifact; the determinism criterion re-runs the
generators with identical seeds and compares canonical bytes. The
generators and checks of criteria 1, 2, 3, 5 and 7 live in netnaf.verify,
which `netnaf verify` runs at smaller sizes.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest
from scipy import stats

from netnaf.agent import extended_state_dim, split_extended_state
from netnaf.config import ExperimentConfig
from netnaf.plant import ChuaCircuit
from netnaf.verify import (DELTA, check_channels, check_gradient,
                           check_naf_algebra, check_reward, check_rk4_order,
                           generate_channel_suite, generate_gradient_check,
                           generate_naf_algebra, generate_reward_suite,
                           generate_rk4_order)
from support import gathered_extended_states, integrate_trajectory

# artifacts of this session, keyed by criterion number; criterion 10
# regenerates and byte-compares them
ARTIFACTS = {}


def canonical(obj) -> bytes:
    def clean(x):
        if isinstance(x, dict):
            return {k: clean(v) for k, v in sorted(x.items())}
        if isinstance(x, (list, tuple)):
            return [clean(v) for v in x]
        if isinstance(x, np.ndarray):
            return [clean(v) for v in x.tolist()]
        if isinstance(x, (np.floating, float)):
            return float(x)
        if isinstance(x, (np.integer, int)):
            return int(x)
        return x
    return json.dumps(clean(obj), sort_keys=True).encode()


def record(criterion, artifact):
    ARTIFACTS[criterion] = canonical(artifact)
    return artifact


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. advantage-head algebra


def test_criterion_1_naf_algebra():
    ok, detail = check_naf_algebra(record(1, generate_naf_algebra()))
    assert ok, detail
    report(1, detail)


# ---------------------------------------------------------------------------
# 2. gradient correctness


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()
    ok, detail = check_gradient(record(2, generate_gradient_check()))
    elapsed = time.perf_counter() - started
    assert ok, detail
    assert elapsed < 10.0
    report(2, f"{detail} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. integrator order and rest points


def test_criterion_3_integrator_order():
    ok, detail = check_rk4_order(record(3, generate_rk4_order()))
    assert ok, detail
    report(3, detail)


# ---------------------------------------------------------------------------
# 4. qualitative plant behavior


def generate_chua_qualitative():
    chua = ChuaCircuit()
    out = {}
    for name, x0 in (("scroll", [-0.2, 0.1, -0.1]), ("cycle", [2.0, -1.0, 1.0])):
        ts, xs = integrate_trajectory(chua, np.array(x0), np.zeros(1), 0.0,
                                      100.0, 2.0 ** -8)
        tail = xs[ts >= 80.0]
        x1 = tail[:, 0]
        interior = (x1[1:-1] > x1[:-2]) & (x1[1:-1] > x1[2:])
        maxima = x1[1:-1][interior]
        out[name] = {
            "sup_norm": float(np.abs(xs).max()),
            "min_equilibrium_distance": float(min(
                np.linalg.norm(tail - eq, axis=1).min()
                for eq in chua.equilibria())),
            "maxima_spread": float(maxima.max() - maxima.min()),
            "amplitude": float(x1.max() - x1.min()),
            "n_maxima": int(maxima.size),
        }
    return out


def test_criterion_4_chua_qualitative():
    started = time.perf_counter()
    art = record(4, generate_chua_qualitative())
    elapsed = time.perf_counter() - started
    for name in ("scroll", "cycle"):
        assert art[name]["sup_norm"] < 10.0
        assert art[name]["min_equilibrium_distance"] > 0.05
    cyc = art["cycle"]
    assert cyc["maxima_spread"] < 0.1 * cyc["amplitude"]
    assert elapsed < 60.0
    report(4, f"both 100s rollouts bounded and unsettled; second start "
              f"near-periodic (spread {cyc['maxima_spread']:.2e} vs amplitude "
              f"{cyc['amplitude']:.2f}) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. delay links


def test_criterion_5_delay_channels():
    art = record(5, generate_channel_suite())
    ok, detail = check_channels(art)
    assert art["instants"] == 40 * 251  # 40 delay seeds, 250 periods each
    assert ok, detail
    report(5, detail)


# ---------------------------------------------------------------------------
# 6. extended state


def generate_extended_state_suite():
    # w_k is gathered from the episode's [y | u] table as the loop gathers it
    dim = extended_state_dim(2, 1, 8, 4)
    _, (w,) = gathered_extended_states([[1.0, 2.0]], [[0.5]], 8, 4)
    outputs, inputs = split_extended_state(w, 2, 1, 4)
    padding_ok = (np.array_equal(outputs, np.tile([1.0, 2.0], (5, 1)))
                  and np.array_equal(inputs, np.zeros((12, 1))))

    shift_ok = True
    rng = np.random.default_rng(1006)
    for _ in range(5):  # scripted 20-step episodes, one table each
        ys, us = rng.normal(size=(21, 2)), rng.normal(size=(21, 1))
        _, states = gathered_extended_states(ys, us, 8, 4)
        prev_outputs, prev_inputs = split_extended_state(states[0], 2, 1, 4)
        for k in range(1, 21):
            outputs, inputs = split_extended_state(states[k], 2, 1, 4)
            shift_ok = shift_ok and np.array_equal(outputs[1:], prev_outputs[:-1])
            shift_ok = shift_ok and np.array_equal(outputs[0], ys[k])
            shift_ok = shift_ok and np.array_equal(inputs[1:], prev_inputs[:-1])
            shift_ok = shift_ok and np.array_equal(inputs[0], us[k - 1])
            shift_ok = shift_ok and states[k].size == dim
            prev_outputs, prev_inputs = outputs, inputs
    return {"dim": dim, "padding_ok": padding_ok, "shift_ok": shift_ok}


def test_criterion_6_extended_state():
    art = record(6, generate_extended_state_suite())
    assert art["dim"] == 22
    assert art["padding_ok"] and art["shift_ok"]
    report(6, "dimension 22 for (p=2, m=1, max delay 8, output history 4); "
              "shift and padding hold over scripted episodes")


# ---------------------------------------------------------------------------
# 7. reward


def test_criterion_7_reward():
    ok, detail = check_reward(record(7, generate_reward_suite()))
    assert ok, detail
    report(7, detail)


# ---------------------------------------------------------------------------
# 8. desk-scale learning trend


def smoke_config(seed: int) -> ExperimentConfig:
    """Reduced learning setup; the full-scale experiment is criterion 9.

    Smaller network and horizon, tighter delays, a faster optimizer step and
    an in-run noise decay make a clear trend reachable in 300 episodes."""
    return ExperimentConfig(
        hidden=(64, 64), horizon=6.0, episodes=300,
        sc_min=DELTA, sc_max=2 * DELTA, cp_min=DELTA, cp_max=2 * DELTA,
        sc_bound_steps=2, cp_bound_steps=2,
        learning_rate=2.5e-4, noise_decay_start=150, noise_scale_final=0.3,
        seed=seed,
    )


def run_smoke_seed(seed: int):
    """(rewards, final parameters) of one smoke run."""
    trainer = smoke_config(seed).trainer()
    rewards = [row.reward_sum for row, _ in trainer.episodes()]
    return rewards, trainer.net.params


@pytest.fixture(scope="module")
def smoke_results():
    """({seed: rewards}, {seed: final parameters}, seconds for 3 seeds)."""
    started = time.perf_counter()
    runs = {seed: run_smoke_seed(seed) for seed in (0, 1, 2)}
    elapsed = time.perf_counter() - started
    return ({seed: r for seed, (r, _) in runs.items()},
            {seed: params for seed, (_, params) in runs.items()}, elapsed)


@pytest.mark.slow
def test_criterion_8_learning_trend(smoke_results):
    results, _, elapsed = smoke_results
    first = np.concatenate([np.asarray(r[:20]) for r in results.values()])
    last = np.concatenate([np.asarray(r[-20:]) for r in results.values()])
    _, p = stats.ttest_ind(last, first, equal_var=False, alternative="greater")
    record(8, {"rewards": {str(s): r for s, r in results.items()},
               "first_mean": float(first.mean()),
               "last_mean": float(last.mean()), "p_value": float(p)})
    assert p < 0.01
    assert elapsed < 1200.0
    report(8, f"mean episode reward {first.mean():.1f} (first 20) -> "
              f"{last.mean():.1f} (last 20) across 3 seeds, one-sided Welch "
              f"p = {p:.2e}, {elapsed:.0f}s for 3 seeds")


@pytest.mark.slow
def test_criterion_8_runs_are_pinned(smoke_results):
    """Criterion 8's three runs, byte for byte: the SHA-256 of each seed's
    rewards in canonical form and of its final parameters. Like the pinned
    train and eval outputs in test_config_cli.py, the hashes hold for the
    libm and BLAS they were recorded under; another may move the last bits."""
    results, params, _ = smoke_results
    digests = {seed: [hashlib.sha256(canonical(results[seed])).hexdigest(),
                      hashlib.sha256(params[seed].tobytes()).hexdigest()]
               for seed in (0, 1, 2)}
    assert digests == {
        0: ["15a0cd8f66de7de0d252df8f4bbe58ae030147b48912c683bd79ecc811a98a64",
            "961a4e3581e13b56cc7deb5ab16abde08c386fe8f269ae39a6a205324a90ae9c"],
        1: ["b71085f03bbb892a02f6610c262fe9c6fea2ec757a2be94f875313c432d611cd",
            "3ec352508ae589d839195697a8752c4ea2ce8c4c7da12e47f3cc5f64561b18a6"],
        2: ["1792daa1f5a9f03246e22ebd49da88ae26ee515ab39d55640987c7239eeefbef",
            "3f71f89b083625e6bed35f68cd9df20af34329c6c6c2cc5e7c3d049476d9c740"]}


# ---------------------------------------------------------------------------
# 9. full-scale run (optional)


def test_criterion_9_full_configuration_optional():
    if not os.environ.get("NETNAF_LONG"):
        print("\nACCEPTANCE 9: SKIPPED - full 8500-episode run; enable with "
              "NETNAF_LONG=1 (hours of CPU time)")
        pytest.skip("long run disabled; set NETNAF_LONG=1 to enable")
    cfg = ExperimentConfig()
    trainer = cfg.trainer()
    rewards = np.array([row.reward_sum for row, _ in trainer.episodes()])
    assert np.isfinite(rewards).all()
    assert np.median(rewards[-500:]) > np.median(rewards[:500])
    report(9, f"8500 episodes without numerics errors; median reward "
              f"{np.median(rewards[:500]):.1f} -> {np.median(rewards[-500:]):.1f}")


# ---------------------------------------------------------------------------
# 10. determinism


@pytest.mark.slow
def test_criterion_10_determinism(smoke_results):
    """Re-run every generator with the same seeds; artifacts must agree
    byte for byte. The learning run is re-verified on seed 0."""
    generators = {
        1: generate_naf_algebra,
        2: generate_gradient_check,
        3: generate_rk4_order,
        4: generate_chua_qualitative,
        5: generate_channel_suite,
        6: generate_extended_state_suite,
        7: generate_reward_suite,
    }
    for criterion, generator in generators.items():
        if criterion not in ARTIFACTS:  # running this test in isolation
            ARTIFACTS[criterion] = canonical(generator())
        again = canonical(generator())
        assert again == ARTIFACTS[criterion], \
            f"criterion {criterion} artifact changed between identical runs"

    reference = smoke_results[0][0]
    again, _ = run_smoke_seed(0)
    assert canonical(again) == canonical(reference), \
        "training artifact changed between identical runs"
    report(10, "criteria 1-7 artifacts byte-identical across re-runs; "
               "criterion 8 training curve byte-identical on seed 0")
