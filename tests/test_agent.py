import numpy as np
import pytest
from scipy import stats

from netnaf import nn
from netnaf.agent import (ExtendedState, HistoryBuffer, LoopSetup, METRIC_START,
                          OrnsteinUhlenbeck, OuSettings, ReplayMemory, Trainer,
                          TrainSettings, Transition, batch_loss_and_grad,
                          batch_targets, extended_state_dim, noise_scale,
                          run_episode, transition_reward)
from netnaf.delays import DelayModel, no_delay_model
from netnaf.errors import NumericsError
from netnaf.plant import ChuaCircuit, InputSchedule, chua_sensor, integrate
from netnaf.reward import RewardWeights
from netnaf.verify import classical_sampled_loop, fd_gradient, rel_err

DELTA = 2.0 ** -4


def make_settings(**kw):
    args = dict(episodes=3, steps_per_episode=16, delta=DELTA,
                max_delay_steps=4, output_history_len=4, batch_size=4,
                warmup=4, update_iters=2, update_period=4,
                learning_rate=1e-3, replay_capacity=1000)
    args.update(kw)
    return TrainSettings(**args)


def chua_setup(delays=None, substep=DELTA / 16):
    delays = delays if delays is not None else no_delay_model(DELTA)
    return LoopSetup(ChuaCircuit(), chua_sensor(DELTA), delays, substep,
                     RewardWeights())


def make_state(vec, p=2, m=1, tau=8, tau_o=4):
    return ExtendedState(np.asarray(vec, dtype=float), p, m, tau, tau_o)


# ---------------------------------------------------------------------------
# extended state


def test_extended_state_dimension():
    assert extended_state_dim(2, 1, 8, 4) == 22


def test_initial_extended_state_padding():
    hist = HistoryBuffer(2, 1, 8, 4)
    hist.reset(np.array([1.0, 2.0]))
    w = hist.extended_state()
    assert w.vec.shape == (22,)
    assert np.array_equal(w.outputs(), np.tile([1.0, 2.0], (5, 1)))
    assert np.array_equal(w.inputs(), np.zeros((12, 1)))


def test_extended_state_shift_property():
    hist = HistoryBuffer(2, 1, 8, 4)
    hist.reset(np.array([0.0, 0.0]))
    ys = [np.array([float(k), -float(k)]) for k in range(1, 21)]
    us = [np.array([10.0 + k]) for k in range(20)]
    prev = None
    for k in range(20):
        hist.push_input(us[k])
        hist.push_output(ys[k])
        w = hist.extended_state()
        if prev is not None:
            # output block drops the oldest entry and prepends the new one
            assert np.array_equal(w.outputs()[1:], prev.outputs()[:-1])
            assert np.array_equal(w.outputs()[0], ys[k])
            assert np.array_equal(w.inputs()[1:], prev.inputs()[:-1])
            assert np.array_equal(w.inputs()[0], us[k])
        prev = w


def test_history_buffer_requires_reset():
    hist = HistoryBuffer(2, 1, 8, 4)
    with pytest.raises(RuntimeError):
        hist.extended_state()


# ---------------------------------------------------------------------------
# exploration noise


def test_ou_deterministic_decay_without_volatility():
    proc = OrnsteinUhlenbeck(1, theta=0.5, sigma=0.0)
    proc.state = np.array([1.0])
    rng = np.random.default_rng(0)
    values = [proc.step(0.1, rng)[0] for _ in range(20)]
    expected = [(1.0 - 0.5 * 0.1) ** (n + 1) for n in range(20)]
    assert np.allclose(values, expected, rtol=1e-12)


def test_ou_stationary_variance():
    theta, sigma, dt = 0.15, 0.2, DELTA
    proc = OrnsteinUhlenbeck(100, theta=theta, sigma=sigma)
    rng = np.random.default_rng(3)
    burn = 2000
    keep = []
    for i in range(12_000):
        s = proc.step(dt, rng)
        if i >= burn:
            keep.append(s)
    samples = np.concatenate(keep)  # one million post-burn-in values
    assert samples.size == 10 ** 6
    target = sigma ** 2 / (2.0 * theta)
    assert abs(samples.var() - target) < 0.05 * target


def test_noise_schedule_full_then_decaying():
    s = OuSettings()
    assert noise_scale(s, 500, 8500) == 3.5
    assert noise_scale(s, 1000, 8500) == 3.5
    assert noise_scale(s, 1001, 8500) < 3.5
    assert np.isclose(noise_scale(s, 8500, 8500), 0.05)
    # runs shorter than the decay start never decay
    assert noise_scale(s, 300, 300) == 3.5


def test_ou_deterministic_under_seed():
    a = OrnsteinUhlenbeck(2)
    b = OrnsteinUhlenbeck(2)
    ra, rb = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(10):
        assert np.array_equal(a.step(DELTA, ra), b.step(DELTA, rb))


# ---------------------------------------------------------------------------
# targets and loss


def test_td_target_cases():
    dim = extended_state_dim(2, 1, 2, 1)
    target = zero_weight_net(dim)
    w = make_state(np.ones(dim), tau=2, tau_o=1)
    batch = [Transition(w, np.array([0.0]), w, 1.0)]
    target.value_head.biases[0] = 5.0  # V(w'; target) = 5
    assert batch_targets(target, batch, 0.0) == 1.0
    target.value_head.biases[0] = 1.0
    assert batch_targets(target, batch, 0.99) == 1.99


def test_targets_use_target_network_on_next_state():
    rng = np.random.default_rng(7)
    dim = extended_state_dim(2, 1, 2, 1)
    main = nn.init_network([dim, 8, 8], 1, 4.0, 1)
    target = nn.init_network([dim, 8, 8], 1, 4.0, 2)
    batch = [Transition(make_state(rng.normal(size=dim), tau=2, tau_o=1),
                        np.array([0.1]),
                        make_state(rng.normal(size=dim), tau=2, tau_o=1), 0.5)
             for _ in range(3)]
    t0 = batch_targets(target, batch, 0.99)
    # changing the main network must not move the targets
    nn.set_params(main, nn.flatten_params(main) * 2.0)
    assert np.array_equal(batch_targets(target, batch, 0.99), t0)
    # changing the target network must move them
    nn.set_params(target, nn.flatten_params(target) + 0.1)
    assert not np.array_equal(batch_targets(target, batch, 0.99), t0)
    # and they bootstrap from the next state, not the current one
    v_next = nn.forward(target, np.stack([tr.w_next.vec for tr in batch])).value
    assert np.array_equal(batch_targets(target, batch, 0.99),
                          np.array([tr.r for tr in batch]) + 0.99 * v_next)


def test_batch_loss_zero_on_perfect_fit():
    rng = np.random.default_rng(11)
    dim = extended_state_dim(2, 1, 2, 1)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 3)
    target = zero_weight_net(dim)  # V(w'; target) = 0, so r + gamma*V' = r
    ws = [make_state(rng.normal(size=dim), tau=2, tau_o=1) for _ in range(4)]
    wns = [make_state(rng.normal(size=dim), tau=2, tau_o=1) for _ in range(4)]
    # evaluate through the same batched path the loss uses
    tw = nn.forward(net, np.stack([w.vec for w in ws]))
    batch = [Transition(ws[i], tw.action[i].copy(), wns[i],
                        float(tw.value[i]))
             for i in range(4)]
    loss, grad = batch_loss_and_grad(net, target, batch, 0.99)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_batch_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    dim = extended_state_dim(2, 1, 2, 1)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 5)
    target = nn.init_network([dim, 8, 8], 1, 4.0, 6)
    batch = [Transition(make_state(rng.normal(size=dim), tau=2, tau_o=1),
                        rng.normal(size=1),
                        make_state(rng.normal(size=dim), tau=2, tau_o=1),
                        float(rng.normal()))
             for _ in range(4)]
    _, analytic = batch_loss_and_grad(net, target, batch, 0.99)
    theta0 = nn.flatten_params(net)

    def loss_of(theta):
        nn.set_params(net, theta)
        loss, _ = batch_loss_and_grad(net, target, batch, 0.99)
        return loss

    fd = fd_gradient(loss_of, theta0)
    assert rel_err(analytic, fd) < 1e-4


def test_batch_loss_invariant_to_duplication():
    rng = np.random.default_rng(17)
    dim = extended_state_dim(2, 1, 2, 1)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 7)
    target = nn.init_network([dim, 8, 8], 1, 4.0, 8)
    batch = [Transition(make_state(rng.normal(size=dim), tau=2, tau_o=1),
                        rng.normal(size=1),
                        make_state(rng.normal(size=dim), tau=2, tau_o=1),
                        float(rng.normal()))
             for _ in range(4)]
    l1, g1 = batch_loss_and_grad(net, target, batch, 0.99)
    l2, g2 = batch_loss_and_grad(net, target, batch + batch, 0.99)
    assert np.isclose(l1, l2, rtol=1e-12)
    assert np.allclose(g1, g2, rtol=1e-9, atol=1e-15)


def test_batch_loss_rejects_nonfinite():
    dim = extended_state_dim(2, 1, 2, 1)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 9)
    bad = Transition(make_state(np.zeros(dim), tau=2, tau_o=1),
                     np.array([0.0]),
                     make_state(np.zeros(dim), tau=2, tau_o=1), float("nan"))
    with pytest.raises(NumericsError):
        batch_loss_and_grad(net, net.copy(), [bad], 0.99)


# ---------------------------------------------------------------------------
# replay memory


def test_replay_evicts_oldest_first():
    mem = ReplayMemory(10)
    items = [Transition(make_state(np.full(22, i)), np.array([float(i)]),
                        make_state(np.full(22, i)), float(i))
             for i in range(14)]
    for it in items:
        mem.push(it)
    kept = {tr.r for tr in mem}
    assert kept == set(range(4, 14))
    assert len(mem) == 10


def test_replay_uniform_sampling_chi_square():
    size = 200
    mem = ReplayMemory(size)
    for i in range(size):
        mem.push(Transition(make_state(np.zeros(22)), np.array([0.0]),
                            make_state(np.zeros(22)), float(i)))
    rng = np.random.default_rng(23)
    counts = np.zeros(size)
    draws = 0
    while draws < 100_000:
        for tr in mem.sample(rng, 128):
            counts[int(tr.r)] += 1
        draws += 128
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_replay_rejects_oversized_sample():
    mem = ReplayMemory(10)
    mem.push(Transition(make_state(np.zeros(22)), np.array([0.0]),
                        make_state(np.zeros(22)), 0.0))
    with pytest.raises(ValueError):
        mem.sample(np.random.default_rng(0), 2)


# ---------------------------------------------------------------------------
# closed loop


def zero_weight_net(dim, m=1):
    net = nn.init_network([dim, 8, 8], m, 4.0, 0)
    nn.set_params(net, np.zeros(nn.flatten_params(net).size))
    return net


def test_zero_delay_zero_net_equals_uncontrolled_plant():
    settings = make_settings(steps_per_episode=32)
    setup = chua_setup()
    dim = extended_state_dim(2, 1, settings.max_delay_steps,
                             settings.output_history_len)
    net = zero_weight_net(dim)
    x0 = np.array([-0.2, 0.1, -0.1])
    result = run_episode(net, setup, settings, x0=x0,
                         rng=np.random.default_rng(0), mode="eval")
    _, free = None, integrate(setup.plant, x0, InputSchedule(np.zeros(1)),
                              0.0, 32 * DELTA, setup.substep)
    states = np.array([s.state for s in result.samples])
    # constant zero input throughout
    assert all(np.array_equal(s.applied_input, np.zeros(1))
               for s in result.samples)
    assert np.array_equal(states[-1], free)


def test_zero_delay_loop_matches_classical_oracle():
    settings = make_settings(steps_per_episode=24)
    setup = chua_setup()
    dim = extended_state_dim(2, 1, settings.max_delay_steps,
                             settings.output_history_len)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 42)  # arbitrary fixed policy
    x0 = np.array([1.0, -0.5, 0.3])
    result = run_episode(net, setup, settings, x0=x0,
                         rng=np.random.default_rng(0), mode="eval")
    ref_states, ref_inputs = classical_sampled_loop(net, setup, settings, x0)
    states = np.array([s.state for s in result.samples])
    assert np.abs(states - ref_states).max() <= 1e-12
    # eval applies exactly the policy output, nothing else
    held = np.array([s.applied_input for s in result.samples])
    assert np.abs(held[1:] - ref_inputs[:-1]).max() <= 1e-12


def test_full_horizon_step_count():
    settings = make_settings(steps_per_episode=192)
    setup = chua_setup()
    dim = extended_state_dim(2, 1, settings.max_delay_steps,
                             settings.output_history_len)
    net = zero_weight_net(dim)
    result = run_episode(net, setup, settings,
                         x0=np.array([-0.2, 0.1, -0.1]),
                         rng=np.random.default_rng(1), mode="eval")
    assert len(result.samples) == 193
    assert result.samples[-1].t == 12.0
    assert len(result.rewards) == 192


def test_max_delay_first_effect_time():
    # both channels pinned at their bounds: input k lands at (k + tau) periods
    tau_model = DelayModel(DELTA, (4 * DELTA, 4 * DELTA),
                           (4 * DELTA, 4 * DELTA), 4, 4)
    settings = make_settings(steps_per_episode=24, max_delay_steps=8)
    setup = chua_setup(delays=tau_model)
    dim = extended_state_dim(2, 1, 8, settings.output_history_len)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 4)
    result = run_episode(net, setup, settings,
                         x0=np.array([0.5, 0.5, 0.5]),
                         rng=np.random.default_rng(2), mode="eval")
    for s in result.samples:
        assert np.isclose(s.plant_arrival - s.t, 8 * DELTA, atol=1e-12)
    # before t = tau * delta the plant runs uncontrolled
    for s in result.samples:
        if s.t < 8 * DELTA:
            assert np.array_equal(s.applied_input, np.zeros(1))


def test_transition_alignment():
    settings = make_settings(steps_per_episode=20)
    setup = chua_setup(delays=DelayModel(DELTA, (DELTA, 3 * DELTA),
                                         (DELTA, 3 * DELTA), 4, 4))
    dim = extended_state_dim(2, 1, settings.max_delay_steps,
                             settings.output_history_len)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 5)
    result = run_episode(net, setup, settings,
                         x0=np.array([0.2, -0.2, 0.1]),
                         rng=np.random.default_rng(3), mode="train",
                         noise=OrnsteinUhlenbeck(1), noise_scale_value=1.0)
    assert len(result.transitions) == 20
    for tr in result.transitions:
        assert np.array_equal(tr.w_next.inputs()[0], tr.u)
        # reward recomputes exactly from (w, u, w')
        assert tr.r == transition_reward(tr.w, tr.u, tr.w_next,
                                         setup.reward_weights)


def test_episode_rewards_nonpositive():
    setup = chua_setup(delays=DelayModel(DELTA, (DELTA, 2 * DELTA),
                                         (DELTA, 2 * DELTA), 2, 2))
    settings = make_settings(steps_per_episode=30, max_delay_steps=4)
    dim = extended_state_dim(2, 1, 4, 4)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 6)
    result = run_episode(net, setup, settings,
                         x0=np.array([1.0, 1.0, -1.0]),
                         rng=np.random.default_rng(4), mode="train",
                         noise=OrnsteinUhlenbeck(1), noise_scale_value=3.5)
    assert all(r <= 0.0 for r in result.rewards)


def test_divergence_aborts_episode_with_penalty():
    class Exploder:
        state_dim = 1
        input_dim = 1

        def deriv(self, x, u):
            return x * x

    from netnaf.plant import SensorMap
    setup = LoopSetup(Exploder(), SensorMap(np.eye(1), DELTA),
                      no_delay_model(DELTA), DELTA / 16,
                      RewardWeights(output_weights=np.eye(1)))
    settings = make_settings(steps_per_episode=60, max_delay_steps=0,
                             divergence_penalty=-1234.0)
    dim = extended_state_dim(1, 1, 0, 4)
    net = zero_weight_net(dim)
    mem = ReplayMemory(100)
    result = run_episode(net, setup, settings, x0=np.array([40.0]),
                         rng=np.random.default_rng(5), mode="train",
                         replay=mem)
    assert result.diverged
    assert result.diverged_at is not None
    assert result.rewards[-1] == -1234.0
    last = result.transitions[-1]
    assert last.r == -1234.0
    assert np.array_equal(last.w.vec, last.w_next.vec)
    assert len(mem) == len(result.transitions)


# ---------------------------------------------------------------------------
# trainer


def tiny_trainer(seed=0, **kw):
    setup = chua_setup(delays=DelayModel(DELTA, (DELTA, 2 * DELTA),
                                         (DELTA, 2 * DELTA), 2, 2))
    settings = make_settings(max_delay_steps=4, **kw)
    return Trainer(setup, settings, (8, 8), 4.0, seed)


def test_update_cadence_once_warm():
    # capacity for each episode: I * floor(K / period) blocks once replay warm
    tr = tiny_trainer(episodes=3, steps_per_episode=16, warmup=4,
                      update_iters=2, update_period=4, batch_size=4)
    tr.run()
    assert tr.update_count == 3 * 2 * (16 // 4)


def test_no_updates_before_warmup():
    tr = tiny_trainer(episodes=1, steps_per_episode=16, warmup=20,
                      update_iters=2, update_period=4, batch_size=4)
    tr.run()
    assert tr.update_count == 0
    assert len(tr.replay) == 16


def test_training_curves_identical_under_seed():
    rows_a = tiny_trainer(seed=11, episodes=3).run()
    rows_b = tiny_trainer(seed=11, episodes=3).run()
    assert [r.reward_sum for r in rows_a] == [r.reward_sum for r in rows_b]
    assert [r.mean_loss for r in rows_a] == [r.mean_loss for r in rows_b]


def test_training_curves_differ_across_seeds():
    rows_a = tiny_trainer(seed=1, episodes=2, steps_per_episode=60).run()
    rows_b = tiny_trainer(seed=2, episodes=2, steps_per_episode=60).run()
    assert [r.reward_sum for r in rows_a] != [r.reward_sum for r in rows_b]


def test_metric_sums_from_fiftieth_sample():
    tr = tiny_trainer(episodes=1, steps_per_episode=60)
    rows = tr.run()
    assert rows[0].episode == 1
    # reconstruct the metric from a fresh identical run
    tr2 = tiny_trainer(episodes=1, steps_per_episode=60)
    row2, result = tr2.run_training_episode(1)
    assert row2.reward_sum == sum(result.rewards[METRIC_START:])
