import numpy as np
import pytest
from scipy import stats

from netnaf import agent, nn
from netnaf.agent import (HistoryBuffer, LoopSetup, METRIC_START,
                          OrnsteinUhlenbeck, OuSettings, ReplayMemory, Trainer,
                          TrainSettings, batch_loss_and_grad, batch_targets,
                          extended_state_dim, noise_scale, run_episode,
                          split_extended_state, transition_reward)
from netnaf.delays import DelayModel
from netnaf.errors import DimensionError, NumericsError
from netnaf.plant import ChuaCircuit, InputSchedule, chua_sensor, integrate
from netnaf.reward import (RewardWeights, input_history_reward,
                           output_change_reward, output_history_reward,
                           total_reward)
from netnaf.verify import (classical_sampled_loop, fd_gradient, random_batch,
                           rel_err)
from support import no_delay_model

DELTA = 2.0 ** -4


def make_settings(**kw):
    args = dict(episodes=3, steps_per_episode=16, max_delay_steps=4,
                output_history_len=4, batch_size=4, warmup=4, update_iters=2,
                update_period=4, learning_rate=1e-3, replay_capacity=1000)
    args.update(kw)
    return TrainSettings(**args)


def chua_setup(delays=None, substep=DELTA / 16):
    delays = delays if delays is not None else no_delay_model(DELTA)
    return LoopSetup(ChuaCircuit(), chua_sensor(DELTA), delays, substep,
                     RewardWeights())


def blocks(w, p=2, m=1, tau_o=4):
    return split_extended_state(w, p, m, tau_o)


# ---------------------------------------------------------------------------
# extended state


def test_extended_state_dimension():
    assert extended_state_dim(2, 1, 8, 4) == 22


def test_initial_extended_state_padding():
    hist = HistoryBuffer(2, 1, 8, 4)
    hist.reset(np.array([1.0, 2.0]))
    w = hist.extended_state()
    assert w.shape == (22,)
    outputs, inputs = blocks(w)
    assert np.array_equal(outputs, np.tile([1.0, 2.0], (5, 1)))
    assert np.array_equal(inputs, np.zeros((12, 1)))


def test_extended_state_shift_property():
    hist = HistoryBuffer(2, 1, 8, 4)
    hist.reset(np.array([0.0, 0.0]))
    ys = [np.array([float(k), -float(k)]) for k in range(1, 21)]
    us = [np.array([10.0 + k]) for k in range(20)]
    prev = None
    for k in range(20):
        hist.push_input(us[k])
        hist.push_output(ys[k])
        outputs, inputs = blocks(hist.extended_state())
        if prev is not None:
            # output block drops the oldest entry and prepends the new one
            assert np.array_equal(outputs[1:], prev[0][:-1])
            assert np.array_equal(outputs[0], ys[k])
            assert np.array_equal(inputs[1:], prev[1][:-1])
            assert np.array_equal(inputs[0], us[k])
        prev = outputs, inputs


def test_extended_state_is_a_copy():
    # the buffer shifts one vector in place; earlier states must not move
    hist = HistoryBuffer(2, 1, 8, 4)
    hist.reset(np.array([1.0, 2.0]))
    w = hist.extended_state()
    kept = w.copy()
    for k in range(3):
        hist.push_input(np.array([5.0 + k]))
        hist.push_output(np.array([3.0, 4.0 + k]))
    assert np.array_equal(w, kept)
    assert not np.array_equal(hist.extended_state(), kept)


def test_split_extended_state_blocks():
    w = np.arange(22.0)
    outputs, inputs = split_extended_state(w, 2, 1, 4)
    assert np.array_equal(outputs, np.arange(10.0).reshape(5, 2))
    assert np.array_equal(inputs, np.arange(10.0, 22.0).reshape(12, 1))
    # blocks are views of the vector, not copies
    assert np.shares_memory(outputs, w) and np.shares_memory(inputs, w)


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
    r, w_next = np.array([1.0]), np.ones((1, dim))
    target.value_head.biases[0] = 5.0  # V(w'; target) = 5
    assert batch_targets(target, r, w_next, 0.0) == 1.0
    target.value_head.biases[0] = 1.0
    assert batch_targets(target, r, w_next, 0.99) == 1.99


def test_targets_use_target_network_on_next_state():
    rng = np.random.default_rng(7)
    dim = extended_state_dim(2, 1, 2, 1)
    main = nn.init_network([dim, 8, 8], 1, 4.0, 1)
    target = nn.init_network([dim, 8, 8], 1, 4.0, 2)
    r, w_next = np.full(3, 0.5), rng.normal(size=(3, dim))
    t0 = batch_targets(target, r, w_next, 0.99)
    # changing the main network must not move the targets
    main.params *= 2.0
    assert np.array_equal(batch_targets(target, r, w_next, 0.99), t0)
    # changing the target network must move them
    target.params += 0.1
    assert not np.array_equal(batch_targets(target, r, w_next, 0.99), t0)
    # and they bootstrap from the next state
    v_next = nn.forward(target, w_next).value
    assert np.array_equal(batch_targets(target, r, w_next, 0.99),
                          r + 0.99 * v_next)


def test_batch_loss_zero_on_perfect_fit():
    rng = np.random.default_rng(11)
    dim = extended_state_dim(2, 1, 2, 1)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 3)
    target = zero_weight_net(dim)  # V(w'; target) = 0, so r + gamma*V' = r
    w, w_next = rng.normal(size=(4, dim)), rng.normal(size=(4, dim))
    # evaluate through the same batched path the loss uses
    tw = nn.forward(net, w)
    batch = (w, tw.action.copy(), tw.value.copy(), w_next)
    loss, grad = batch_loss_and_grad(net, target, batch, 0.99)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_batch_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    dim = extended_state_dim(2, 1, 2, 1)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 5)
    target = nn.init_network([dim, 8, 8], 1, 4.0, 6)
    batch = random_batch(rng, 4, dim, 1)
    _, analytic = batch_loss_and_grad(net, target, batch, 0.99)
    theta0 = net.params.copy()

    def loss_of(theta):
        net.params[:] = theta
        loss, _ = batch_loss_and_grad(net, target, batch, 0.99)
        return loss

    fd = fd_gradient(loss_of, theta0)
    assert rel_err(analytic, fd) < 1e-4


def test_batch_loss_invariant_to_duplication():
    rng = np.random.default_rng(17)
    dim = extended_state_dim(2, 1, 2, 1)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 7)
    target = nn.init_network([dim, 8, 8], 1, 4.0, 8)
    batch = random_batch(rng, 4, dim, 1)
    doubled = tuple(np.concatenate([a, a]) for a in batch)
    l1, g1 = batch_loss_and_grad(net, target, batch, 0.99)
    l2, g2 = batch_loss_and_grad(net, target, doubled, 0.99)
    assert np.isclose(l1, l2, rtol=1e-12)
    assert np.allclose(g1, g2, rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("m", [1, 2])
def test_batch_loss_with_buffers_is_bit_identical(m):
    rng = np.random.default_rng(19 + m)
    dim, b = extended_state_dim(2, m, 2, 1), 16
    net = nn.init_network([dim, 8, 8], m, 4.0, 10)
    target = nn.init_network([dim, 8, 8], m, 4.0, 11)
    buffers = {"trace": nn.ForwardTrace.empty(net, b),
               "target_trace": nn.ForwardTrace.empty(target, b),
               "grad": np.empty_like(net.params)}
    previous = None
    for _ in range(4):
        batch = random_batch(rng, b, dim, m)
        loss, grad = batch_loss_and_grad(net, target, batch, 0.99)
        loss_b, grad_b = batch_loss_and_grad(net, target, batch, 0.99, **buffers)
        assert grad_b is buffers["grad"]
        assert loss_b == loss and np.array_equal(grad_b, grad)
        # a second call through the same buffers is not stale from the first
        if previous is not None:
            assert not np.array_equal(grad_b, previous)
        previous = grad_b.copy()


def test_trainer_updates_write_into_its_buffers(monkeypatch):
    tr = tiny_trainer(batch_size=4, update_iters=3)
    rng = np.random.default_rng(2)
    dim = tr.net.input_dim
    for _ in range(8):
        tr.replay.push(rng.normal(size=dim), rng.normal(size=1), rng.normal(),
                       rng.normal(size=dim))
    grads = []

    def recording(*args, **kwargs):
        loss, grad = batch_loss_and_grad(*args, **kwargs)
        grads.append(grad)
        return loss, grad

    monkeypatch.setattr(agent, "batch_loss_and_grad", recording)
    tr._update_block()
    assert len(grads) == 3
    assert all(g is tr.update_buffers["grad"] for g in grads)


def test_batch_loss_rejects_nonfinite():
    dim = extended_state_dim(2, 1, 2, 1)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 9)
    bad = (np.zeros((1, dim)), np.zeros((1, 1)), np.array([np.nan]),
           np.zeros((1, dim)))
    with pytest.raises(NumericsError):
        batch_loss_and_grad(net, net.copy(), bad, 0.99)


# ---------------------------------------------------------------------------
# replay memory


def push_numbered(mem, count, start=0):
    """Push transitions whose every field holds its push number."""
    for i in range(start, start + count):
        mem.push(np.full(22, i), np.array([float(i)]), float(i), np.full(22, -i))


def test_replay_evicts_oldest_first():
    mem = ReplayMemory(10, 22, 1)
    push_numbered(mem, 14)
    assert set(mem.r[:len(mem)]) == set(range(4, 14))
    assert len(mem) == 10


def test_replay_slots_across_growth_and_wraparound():
    # slot i must hold what position i of an append-then-overwrite list
    # holds, so the same rng.choice call picks the same transitions
    capacity = 1000
    mem = ReplayMemory(capacity, 22, 1)
    reference, cursor = [], 0
    for i in range(2500):
        push_numbered(mem, 1, start=i)
        if len(reference) < capacity:
            reference.append(i)
        else:
            reference[cursor] = i
            cursor = (cursor + 1) % capacity
        if i in (0, 1, 2, 511, 512, 999, 1000, 1733, 2499):
            n = len(mem)
            assert n == len(reference)
            assert np.array_equal(mem.r[:n], reference)
            assert np.array_equal(mem.w[:n], np.repeat(reference, 22).reshape(n, 22))
            assert np.array_equal(mem.u[:n, 0], reference)
            assert np.array_equal(mem.w_next[:n, 0], -np.array(reference))
    w, u, r, w_next = mem.sample(np.random.default_rng(9), 128)
    expected = np.array(reference)[
        np.random.default_rng(9).choice(capacity, size=128, replace=False)]
    assert np.array_equal(r, expected) and np.array_equal(u[:, 0], expected)
    assert np.array_equal(w[:, 3], expected) and np.array_equal(w_next[:, 3], -expected)


def test_replay_grows_by_doubling_up_to_capacity():
    mem = ReplayMemory(1000, 22, 1)
    for n in range(1, 2501):
        push_numbered(mem, 1, start=n)
        for rows in (mem.w, mem.u, mem.r, mem.w_next):
            assert rows.shape[0] <= min(1000, 2 * len(mem))
    assert all(a.shape[0] == 1000 for a in (mem.w, mem.u, mem.r, mem.w_next))


def test_replay_samples_are_copies():
    mem = ReplayMemory(4, 22, 1)
    push_numbered(mem, 4)
    batch = mem.sample(np.random.default_rng(0), 4)
    kept = [a.copy() for a in batch]
    push_numbered(mem, 4, start=100)  # overwrites every slot
    assert all(np.array_equal(a, b) for a, b in zip(batch, kept))


def test_replay_uniform_sampling_chi_square():
    size = 200
    mem = ReplayMemory(size, 22, 1)
    push_numbered(mem, size)
    rng = np.random.default_rng(23)
    counts = np.zeros(size)
    draws = 0
    while draws < 100_000:
        _, _, r, _ = mem.sample(rng, 128)
        np.add.at(counts, r.astype(int), 1)
        draws += 128
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_replay_rejects_oversized_sample():
    mem = ReplayMemory(10, 22, 1)
    push_numbered(mem, 1)
    with pytest.raises(ValueError):
        mem.sample(np.random.default_rng(0), 2)


# ---------------------------------------------------------------------------
# closed loop


def zero_weight_net(dim, m=1):
    net = nn.init_network([dim, 8, 8], m, 4.0, 0)
    net.params[:] = 0.0
    return net


def test_zero_delay_zero_net_equals_uncontrolled_plant():
    settings = make_settings(steps_per_episode=32)
    setup = chua_setup()
    dim = extended_state_dim(2, 1, settings.max_delay_steps,
                             settings.output_history_len)
    net = zero_weight_net(dim)
    x0 = np.array([-0.2, 0.1, -0.1])
    result = run_episode(net, setup, settings, x0=x0,
                         rng=np.random.default_rng(0))
    _, free = None, integrate(setup.plant, x0, InputSchedule(np.zeros(1)),
                              0.0, 32 * DELTA, setup.substep)
    # constant zero input throughout
    assert np.array_equal(result.samples["u"], np.zeros((33, 1)))
    assert np.array_equal(result.samples["x"][-1], free)


def test_zero_delay_loop_matches_classical_oracle():
    settings = make_settings(steps_per_episode=24)
    setup = chua_setup()
    dim = extended_state_dim(2, 1, settings.max_delay_steps,
                             settings.output_history_len)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 42)  # arbitrary fixed policy
    x0 = np.array([1.0, -0.5, 0.3])
    result = run_episode(net, setup, settings, x0=x0,
                         rng=np.random.default_rng(0))
    ref_states, ref_inputs = classical_sampled_loop(net, setup, settings, x0)
    assert np.abs(result.samples["x"] - ref_states).max() <= 1e-12
    # eval applies exactly the policy output, nothing else
    held = result.samples["u"]
    assert np.abs(held[1:] - ref_inputs[:-1]).max() <= 1e-12


def test_full_horizon_step_count():
    settings = make_settings(steps_per_episode=192)
    setup = chua_setup()
    dim = extended_state_dim(2, 1, settings.max_delay_steps,
                             settings.output_history_len)
    net = zero_weight_net(dim)
    result = run_episode(net, setup, settings,
                         x0=np.array([-0.2, 0.1, -0.1]),
                         rng=np.random.default_rng(1))
    assert len(result.samples) == 193
    assert result.samples["t"][-1] == 12.0
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
                         rng=np.random.default_rng(2))
    log = result.samples
    assert np.allclose(log["plant_arrival"] - log["t"], 8 * DELTA, atol=1e-12)
    # before t = tau * delta the plant runs uncontrolled
    assert not log["u"][log["t"] < 8 * DELTA].any()


def test_transition_alignment():
    settings = make_settings(steps_per_episode=20)
    setup = chua_setup(delays=DelayModel(DELTA, (DELTA, 3 * DELTA),
                                         (DELTA, 3 * DELTA), 4, 4))
    dim = extended_state_dim(2, 1, settings.max_delay_steps,
                             settings.output_history_len)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 5)
    mem = ReplayMemory(100, dim, 1)
    result = run_episode(net, setup, settings,
                         x0=np.array([0.2, -0.2, 0.1]),
                         rng=np.random.default_rng(3),
                         noise=OrnsteinUhlenbeck(1), noise_scale_value=1.0,
                         replay=mem)
    assert len(mem) == 20
    assert np.array_equal(mem.r[:20], result.rewards)
    for i in range(20):
        w, u, r, w_next = mem.w[i], mem.u[i], mem.r[i], mem.w_next[i]
        assert np.array_equal(blocks(w_next)[1][0], u)
        # w' of one transition is w of the next
        if i < 19:
            assert np.array_equal(w_next, mem.w[i + 1])
        # reward recomputes exactly from (w, u, w')
        assert r == transition_reward(w, u, w_next, setup.reward_weights,
                                      settings.output_history_len)


def test_episode_rewards_nonpositive():
    setup = chua_setup(delays=DelayModel(DELTA, (DELTA, 2 * DELTA),
                                         (DELTA, 2 * DELTA), 2, 2))
    settings = make_settings(steps_per_episode=30, max_delay_steps=4)
    dim = extended_state_dim(2, 1, 4, 4)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 6)
    result = run_episode(net, setup, settings,
                         x0=np.array([1.0, 1.0, -1.0]),
                         rng=np.random.default_rng(4),
                         noise=OrnsteinUhlenbeck(1), noise_scale_value=3.5)
    assert all(r <= 0.0 for r in result.rewards)


def test_divergence_aborts_episode_with_penalty():
    class Exploder:
        state_dim = 3
        input_dim = 1

        def deriv(self, x, u):
            return (x[0] * x[0], 0.0, 0.0)

    from netnaf.plant import SensorMap
    setup = LoopSetup(Exploder(), SensorMap([[1.0, 0.0, 0.0]], DELTA),
                      no_delay_model(DELTA), DELTA / 16,
                      RewardWeights(output_weights=np.eye(1)))
    settings = make_settings(steps_per_episode=60, max_delay_steps=0,
                             divergence_penalty=-1234.0)
    dim = extended_state_dim(1, 1, 0, 4)
    net = zero_weight_net(dim)
    mem = ReplayMemory(100, dim, 1)
    result = run_episode(net, setup, settings, x0=np.array([40.0, 0.0, 0.0]),
                         rng=np.random.default_rng(5), replay=mem)
    assert result.diverged
    assert result.diverged_at is not None
    assert result.rewards[-1] == -1234.0
    # the log holds the completed instants only, each with its reward
    log = result.samples
    assert np.array_equal(log["k"], np.arange(len(result.rewards)))
    assert log["t"][-1] < result.diverged_at
    assert np.isfinite(log["x"]).all()
    last = len(mem) - 1
    assert mem.r[last] == -1234.0
    assert np.array_equal(mem.w[last], mem.w_next[last])
    assert len(mem) == len(result.rewards)


def composed_transition_reward(w, u, w_next, weights, output_history_len):
    """The three public term functions over the history blocks, with u
    stacked onto a copy of the input history."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = weights.output_weights.shape[0]
    outputs, inputs = split_extended_state(w, p, u.size, output_history_len)
    return total_reward(
        output_change_reward(w_next[:p], outputs[0], u, weights),
        output_history_reward(outputs, weights),
        input_history_reward(np.vstack([u[None, :], inputs]), weights))


def test_transition_reward_equals_the_term_composition_bit_for_bit():
    rng = np.random.default_rng(2024)

    def draw(*shape):
        # either sign, magnitudes spread from about 1e-3 to 1e3 entry by entry
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)

    cases = [(m, p, tau_o) for m in (1, 2) for p in (2, 3) for tau_o in (1, 4)]
    draws = 0
    for m, p, tau_o in cases:
        for _ in range(2500):
            a = draw(p, p)
            weights = RewardWeights(a @ a.T, abs(draw()[()]), abs(draw()[()]))
            delay_steps = int(rng.integers(0, 5))
            dim = extended_state_dim(p, m, delay_steps, tau_o)
            w, w_next, u = draw(dim), draw(dim), draw(m)
            r = transition_reward(w, u, w_next, weights, tau_o)
            want = composed_transition_reward(w, u, w_next, weights, tau_o)
            assert type(r) is float
            assert np.float64(r).tobytes() == np.float64(want).tobytes(), (
                m, p, tau_o, delay_steps)
            draws += 1
    assert draws >= 20_000


def test_transition_reward_rejects_a_short_next_state():
    weights = RewardWeights()
    w = np.zeros(extended_state_dim(2, 1, 4, 4))
    for w_next in (np.zeros(1), np.zeros(0)):
        with pytest.raises(DimensionError):
            transition_reward(w, [0.0], w_next, weights, 4)


def test_loop_setup_rejects_reward_weights_of_another_output_dim():
    # transition_reward takes p from the weights to split the extended state
    with pytest.raises(DimensionError):
        LoopSetup(ChuaCircuit(), chua_sensor(DELTA), no_delay_model(DELTA),
                  DELTA / 16, RewardWeights(output_weights=np.eye(1)))


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
