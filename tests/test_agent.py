import dataclasses

import numpy as np
import pytest
from scipy import stats

from netnaf import agent, nn
from netnaf.agent import (METRIC_START, OrnsteinUhlenbeck, ReplayMemory,
                          Trainer, batch_loss_and_grad, batch_targets,
                          extended_state_dim, noise_scale, run_episode,
                          split_extended_state, transition_reward, window_index)
from netnaf.config import ExperimentConfig
from netnaf.errors import DimensionError, NumericsError
from netnaf.plant import integrate
from netnaf.reward import change_penalty, input_steps_penalty, output_steps_penalty
from netnaf.verify import (classical_sampled_loop, fd_gradient, random_batch,
                           rel_err)
from support import defined_extended_state, gathered_extended_states

DELTA = 2.0 ** -4


def make_settings(steps_per_episode=16, max_delay_steps=4,
                  delay_range=(0.0, 0.0), **kw):
    """A config for the loop and trainer tests: both channels draw from
    delay_range, and the bounds split max_delay_steps between them."""
    sc_bound = max_delay_steps // 2
    lo, hi = delay_range
    args = dict(episodes=3, horizon=steps_per_episode * DELTA,
                sc_bound_steps=sc_bound,
                cp_bound_steps=max_delay_steps - sc_bound,
                sc_min=lo, sc_max=hi, cp_min=lo, cp_max=hi,
                output_history_len=4, batch_size=4, warmup=4, update_iters=2,
                update_period=4, learning_rate=1e-3, replay_capacity=1000)
    args.update(kw)
    return ExperimentConfig(**args)


def blocks(w, p=2, m=1, tau_o=4):
    return split_extended_state(w, p, m, tau_o)


# ---------------------------------------------------------------------------
# extended state


def test_extended_state_dimension():
    assert extended_state_dim(2, 1, 8, 4) == 22


@pytest.mark.parametrize("delay_steps,history", [(8, 0), (-1, 4)])
def test_every_extended_state_reader_rejects_an_empty_history_or_a_negative_delay(
        delay_steps, history):
    # each reads the one layout statement, which holds the checks
    with pytest.raises(ValueError):
        extended_state_dim(2, 1, delay_steps, history)
    with pytest.raises(ValueError):
        window_index(2, 1, delay_steps, history)
    with pytest.raises(ValueError):
        ReplayMemory(10, 2, 1, delay_steps, history)


@pytest.mark.parametrize("p, m, delay_steps, history",
                         [(2, 1, 8, 4), (3, 2, 2, 2), (2, 1, 0, 1), (1, 2, 3, 2)])
def test_the_gathered_extended_state_is_its_definition(p, m, delay_steps, history):
    # episodes shorter and longer than the window, so every w_k of the
    # first ones reaches into the pad rows
    rng = np.random.default_rng(7)
    for length in (1, 3, delay_steps + history + 6):
        ys, us = rng.normal(size=(length, p)), rng.normal(size=(length, m))
        _, states = gathered_extended_states(ys, us, delay_steps, history)
        assert len(states) == length
        for k, w in enumerate(states):
            want = defined_extended_state(ys, us, k, delay_steps, history)
            assert w.shape == (extended_state_dim(p, m, delay_steps, history),)
            assert w.tobytes() == want.tobytes()


@pytest.mark.parametrize("max_delay_steps, history", [(8, 4), (0, 1), (3, 2)])
def test_the_loops_extended_states_are_their_definition(
        monkeypatch, max_delay_steps, history):
    # the w_k the policy reads, against the logged outputs and the issued
    # inputs, under wide delays and exploration noise
    settings = make_settings(steps_per_episode=40, max_delay_steps=max_delay_steps,
                             delay_range=(0.0, max_delay_steps // 2 * DELTA),
                             output_history_len=history)
    read, forward = [], agent.forward

    def recording_forward(net, x, *args, **kw):
        read.append(x.copy())
        return forward(net, x, *args, **kw)

    monkeypatch.setattr(agent, "forward", recording_forward)
    net = nn.init_network([settings.extended_dim, 8, 8], 1, 4.0, 3)
    mem = loop_memory(settings)
    result = run_episode(net, settings, x0=np.array([0.4, -0.1, 0.2]),
                         rng=np.random.default_rng(11), noise_scale=2.0,
                         replay=mem)
    ys, issued = result.samples["y"], held(mem)[1]
    assert len(read) == len(ys) == 41 and len(issued) == 40
    for k, w in enumerate(read):
        want = defined_extended_state(ys, issued, k, max_delay_steps, history)
        assert w.tobytes() == want.tobytes()


def test_initial_extended_state_padding():
    _, (w,) = gathered_extended_states([[1.0, 2.0]], [[5.0]], 8, 4)
    assert w.shape == (22,)
    outputs, inputs = blocks(w)
    assert np.array_equal(outputs, np.tile([1.0, 2.0], (5, 1)))
    assert np.array_equal(inputs, np.zeros((12, 1)))


def test_extended_state_shift_property():
    ys = [np.array([float(k), -float(k)]) for k in range(21)]
    us = [np.array([10.0 + k]) for k in range(21)]
    _, states = gathered_extended_states(ys, us, 8, 4)
    for k in range(1, 21):
        outputs, inputs = blocks(states[k])
        prev = blocks(states[k - 1])
        # each block drops its oldest entry and puts the new one first
        assert np.array_equal(outputs[1:], prev[0][:-1])
        assert np.array_equal(outputs[0], ys[k])
        assert np.array_equal(inputs[1:], prev[1][:-1])
        assert np.array_equal(inputs[0], us[k - 1])


def test_extended_state_is_a_copy():
    # each gather is a fresh array: w_0, taken before any later row was
    # written, still reads the padding, and no state shares the table
    ys = [np.array([3.0, 4.0 + k]) for k in range(4)]
    us = [np.array([5.0 + k]) for k in range(4)]
    table, states = gathered_extended_states(ys, us, 8, 4)
    outputs, inputs = blocks(states[0])
    assert np.array_equal(outputs, np.tile(ys[0], (5, 1)))
    assert not inputs.any()
    assert not any(np.shares_memory(w, table) for w in states)
    assert not np.array_equal(states[-1], states[0])


def test_split_extended_state_blocks():
    w = np.arange(22.0)
    outputs, inputs = split_extended_state(w, 2, 1, 4)
    assert np.array_equal(outputs, np.arange(10.0).reshape(5, 2))
    assert np.array_equal(inputs, np.arange(10.0, 22.0).reshape(12, 1))
    # blocks are views of the vector, not copies
    assert np.shares_memory(outputs, w) and np.shares_memory(inputs, w)


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
    s = dataclasses.replace(ExperimentConfig(), episodes=8500)
    assert noise_scale(s, 500) == 3.5
    assert noise_scale(s, 1000) == 3.5
    assert noise_scale(s, 1001) < 3.5
    assert np.isclose(noise_scale(s, 8500), 0.05)
    # runs shorter than the decay start never decay
    assert noise_scale(dataclasses.replace(s, episodes=300), 300) == 3.5


def test_ou_deterministic_under_seed():
    a = OrnsteinUhlenbeck(2, theta=0.15, sigma=0.2)
    b = OrnsteinUhlenbeck(2, theta=0.15, sigma=0.2)
    ra, rb = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(10):
        assert np.array_equal(a.step(DELTA, ra), b.step(DELTA, rb))


# ---------------------------------------------------------------------------
# targets and loss


def test_td_target_cases():
    dim = extended_state_dim(2, 1, 2, 1)
    target = zero_weight_net(dim)
    r, w_next = np.array([1.0]), np.ones((1, dim))
    target.layers[-3][1][0] = 5.0  # V(w'; target) = 5
    assert batch_targets(target, r, w_next, 0.0) == 1.0
    target.layers[-3][1][0] = 1.0
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
    for k in range(8):
        tr.replay.push(rng.normal(size=2), rng.normal(size=1), rng.normal(),
                       rng.normal(size=2), first=k == 0)
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


def numbered_memory(capacity):
    """A replay of the default layout: 2 outputs, 1 input, a + b = 8, history 4."""
    return ReplayMemory(capacity, 2, 1, 8, 4)


def push_numbered(mem, count, start=0):
    """Push transitions of one episode whose every field holds its push
    number, negated in y'."""
    for i in range(start, start + count):
        mem.push(np.full(2, i), [float(i)], float(i), np.full(2, -i),
                 first=mem.pushes == 0)


def held(mem):
    """Every held (w, u, r, w') in FIFO position order: a sample of all of
    them, put back in the order its rng.choice call drew the positions."""
    n = len(mem)
    order = np.argsort(np.random.default_rng(0).choice(n, size=n, replace=False))
    return tuple(a[order] for a in mem.sample(np.random.default_rng(0), n))


def test_replay_evicts_oldest_first():
    mem = numbered_memory(10)
    push_numbered(mem, 14)
    _, _, r, _ = mem.sample(np.random.default_rng(1), len(mem))
    assert set(r) == set(range(4, 14))
    assert len(mem) == 10


def test_replay_slots_across_growth_and_wraparound():
    # position i must hold what position i of an append-then-overwrite list
    # holds, so the same rng.choice call picks the same transitions
    capacity = 1000
    mem = numbered_memory(capacity)
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
            w, u, r, w_next = held(mem)
            assert np.array_equal(r, reference)
            assert np.array_equal(w[:, :2], np.repeat(reference, 2).reshape(n, 2))
            assert np.array_equal(u[:, 0], reference)
            assert np.array_equal(w_next[:, 0], -np.array(reference))
    w, u, r, w_next = mem.sample(np.random.default_rng(9), 128)
    expected = np.array(reference)[
        np.random.default_rng(9).choice(capacity, size=128, replace=False)]
    assert np.array_equal(r, expected) and np.array_equal(u[:, 0], expected)
    assert np.array_equal(w[:, 1], expected) and np.array_equal(w_next[:, 1], -expected)


def test_replay_grows_by_doubling_up_to_capacity():
    # the ring is capacity plus the a + b + history = 12 slots of the window
    mem = numbered_memory(1000)
    for n in range(1, 2501):
        push_numbered(mem, 1, start=n)
        assert len(mem.rows) <= min(1012, 2 * mem.pushes)
        assert len(mem.starts) == len(mem.loops) == len(mem.rows)
    assert len(mem.rows) == 1012


def test_replay_slots_hold_y_u_r_y_next_of_their_push():
    # push n owns slot n % (capacity + a + b + history); the table doubles
    # 1, 2, 4, 8 then 12
    mem = ReplayMemory(10, 3, 2, 1, 1)
    rng = np.random.default_rng(8)
    pushed = []
    for n in range(27):
        transition = (rng.normal(size=3), rng.normal(size=2), rng.normal(),
                      rng.normal(size=3))
        first, loop = n % 5 == 0, n % 7 == 6
        mem.push(*transition, first=first, loop=loop)
        pushed.append((np.concatenate([transition[0], transition[1],
                                       [transition[2]], transition[3]]),
                       n - n % 5, loop))
        if n in (0, 1, 4, 9, 10, 11, 12, 17, 26):
            assert mem.pushes == n + 1 and len(mem) == min(n + 1, 10)
            assert len(mem.rows) == min(12, 1 << n.bit_length())
            for i in range(min(n + 1, 12)):
                row, start, loop = pushed[max(p for p in range(n + 1) if p % 12 == i)]
                assert np.array_equal(mem.rows[i], row)
                assert mem.starts[i] == start and mem.loops[i] == loop
    # the table's first push starts an episode whatever it says
    mem = ReplayMemory(10, 3, 2, 1, 1)
    mem.push(np.ones(3), np.ones(2), 0.0, np.ones(3), first=False)
    w, u, _, _ = mem.sample(rng, 1)
    assert mem.starts[0] == 0 and np.array_equal(w, [[1.0] * 6 + [0.0] * 4])


def test_replay_samples_are_copies():
    mem = numbered_memory(4)
    push_numbered(mem, 4)
    batch = mem.sample(np.random.default_rng(0), 4)
    assert not any(np.shares_memory(a, mem.rows) for a in batch)
    kept = [a.copy() for a in batch]
    push_numbered(mem, 16, start=100)  # overwrites every slot of the ring
    assert all(np.array_equal(a, b) for a, b in zip(batch, kept))


def test_replay_uniform_sampling_chi_square():
    size = 200
    mem = numbered_memory(size)
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
    mem = numbered_memory(10)
    push_numbered(mem, 1)
    with pytest.raises(ValueError):
        mem.sample(np.random.default_rng(0), 2)


# (length, diverges) of scripted episodes: long ones, a divergence at the
# first transition, episodes shorter than a + b + history
EPISODES = [(3, False), (1, True), (25, False), (2, False), (12, True),
            (30, False), (5, False), (1, False), (17, True), (4, False)]


@pytest.mark.parametrize("p, m, delay_steps, history, capacity", [
    (2, 1, 8, 4, 1000), (2, 1, 8, 4, 7), (2, 1, 8, 4, 40), (3, 2, 2, 2, 13),
    (2, 1, 0, 1, 5), (2, 1, 0, 4, 29)],
    ids=["growth", "wrap_inside_the_window", "wrap", "wider", "no_delay",
         "no_delay_wrap"])
def test_replay_returns_the_transitions_a_window_table_holds(
        p, m, delay_steps, history, capacity):
    # every (w, u, r, w') equals the row a [w | u | r | w'] table of
    # `capacity` rows, overwritten from row 0 on, holds for the same pushes,
    # w and w' built by their definition; the small capacities evict the
    # start of episodes whose later transitions are still held
    rng = np.random.default_rng(capacity)
    mem = ReplayMemory(capacity, p, m, delay_steps, history)
    dim = extended_state_dim(p, m, delay_steps, history)
    reference, starts_evicted = [], 0
    for length, diverges in EPISODES:
        ys, us = rng.normal(size=(length + 1, p)), rng.normal(size=(length, m))
        for k in range(length):
            w = defined_extended_state(ys, us, k, delay_steps, history)
            u, r = us[k], rng.normal()
            loop = diverges and k == length - 1
            w_next = w if loop else defined_extended_state(ys, us, k + 1,
                                                           delay_steps, history)
            mem.push(w[:p], u, r, w_next[:p], first=k == 0, loop=loop)
            row = np.concatenate([w, u, [r], w_next])
            if len(reference) < capacity:
                reference.append(row)
            else:
                reference[(mem.pushes - 1) % capacity] = row
            starts_evicted += k >= capacity
            table = np.array(reference)
            for got, want in zip(held(mem), (table[:, :dim],
                                             table[:, dim:dim + m],
                                             table[:, dim + m],
                                             table[:, dim + m + 1:])):
                assert np.array_equal(got, want)
    assert (starts_evicted > 0) == (capacity < 30)
    batch = mem.sample(np.random.default_rng(3), min(capacity, 32))
    rows = table[np.random.default_rng(3).choice(len(mem), size=len(batch[2]),
                                                 replace=False)]
    assert np.array_equal(np.column_stack(batch), rows)


def test_the_replay_rebuilds_the_loops_transitions_after_it_wraps():
    # training pushes what the loop's own w_k gave; the replay's windows,
    # rebuilt from the slots, must score to the stored rewards bit for bit.
    # A wide initial box makes some episodes diverge into self-loops.
    tr = tiny_trainer(episodes=12, steps_per_episode=48, replay_capacity=150,
                      init_box=20.0)
    diverged = sum(result.diverged for _, result in tr.episodes())
    mem, penalty = tr.replay, tr.settings.divergence_penalty
    assert mem.pushes > mem.capacity + mem.window and diverged > 0
    loops = 0
    for w, u, r, w_next in zip(*held(mem)):
        if r == penalty:
            assert np.array_equal(w_next, w)
            loops += 1
        else:
            want = transition_reward(w, u, w_next, tr.settings.output_history_len)
            assert np.float64(r).tobytes() == np.float64(want).tobytes()
    assert 0 < loops <= diverged


def test_replay_slot_fits_in_64_bytes_at_the_default_config():
    # 2 outputs and 1 input: a row of 6 floats, a start and a flag, 57 B,
    # where a [w | u | r | w'] row of the 22-wide state took 368 B
    mem = ExperimentConfig().trainer().replay
    push_numbered(mem, 300)
    assert mem.sample(np.random.default_rng(0), 1)[0].shape == (1, 22)
    slot_bytes = sum(a.nbytes for a in (mem.rows, mem.starts, mem.loops))
    assert slot_bytes / len(mem.rows) <= 64


# ---------------------------------------------------------------------------
# closed loop


def loop_memory(settings, capacity=100):
    """A replay of the loop tests' layout: 2 outputs, 1 input."""
    return ReplayMemory(capacity, 2, 1, settings.total_delay_steps,
                        settings.output_history_len)


def zero_weight_net(dim, m=1):
    net = nn.init_network([dim, 8, 8], m, 4.0, 0)
    net.params[:] = 0.0
    return net


def test_zero_delay_zero_net_equals_uncontrolled_plant():
    settings = make_settings(steps_per_episode=32)
    net = zero_weight_net(settings.extended_dim)
    x0 = np.array([-0.2, 0.1, -0.1])
    result = run_episode(net, settings, x0=x0, rng=np.random.default_rng(0))
    free = integrate(settings.plant(), x0, np.zeros(1), 0.0, 32 * DELTA,
                     settings.substep)
    # constant zero input throughout
    assert np.array_equal(result.samples["u"], np.zeros((33, 1)))
    assert np.array_equal(result.samples["x"][-1], free)


def test_zero_delay_loop_matches_classical_oracle():
    settings = make_settings(steps_per_episode=24)
    # arbitrary fixed policy
    net = nn.init_network([settings.extended_dim, 8, 8], 1, 4.0, 42)
    x0 = np.array([1.0, -0.5, 0.3])
    result = run_episode(net, settings, x0=x0, rng=np.random.default_rng(0))
    ref_states, ref_inputs = classical_sampled_loop(net, settings, x0)
    assert np.abs(result.samples["x"] - ref_states).max() <= 1e-12
    # eval applies exactly the policy output, nothing else
    held = result.samples["u"]
    assert np.abs(held[1:] - ref_inputs[:-1]).max() <= 1e-12


def test_full_horizon_step_count():
    settings = make_settings(steps_per_episode=192)
    net = zero_weight_net(settings.extended_dim)
    result = run_episode(net, settings, x0=np.array([-0.2, 0.1, -0.1]),
                         rng=np.random.default_rng(1))
    assert len(result.samples) == 193
    assert result.samples["t"][-1] == 12.0
    assert len(result.rewards) == 192


def test_max_delay_first_effect_time():
    # both links pinned at their bounds: input k lands at (k + tau) periods
    settings = make_settings(steps_per_episode=24, max_delay_steps=8,
                             delay_range=(4 * DELTA, 4 * DELTA))
    dim = extended_state_dim(2, 1, 8, settings.output_history_len)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 4)
    mem = loop_memory(settings)
    result = run_episode(net, settings, x0=np.array([0.5, 0.5, 0.5]),
                         rng=np.random.default_rng(2), replay=mem)
    log = result.samples
    assert np.allclose(log["plant_arrival"] - log["t"], 8 * DELTA, atol=1e-12)
    # before t = tau * delta the plant runs uncontrolled
    assert not log["u"][log["t"] < 8 * DELTA].any()
    # input 0 lands exactly on t_8 and is the input held at instant 8
    assert log["plant_arrival"][0] == log["t"][8]
    u_0 = held(mem)[1][0]
    assert u_0.any() and np.array_equal(log["u"][8], u_0)


def test_transition_alignment():
    settings = make_settings(steps_per_episode=20, max_delay_steps=8,
                             delay_range=(DELTA, 3 * DELTA))
    dim = settings.extended_dim
    net = nn.init_network([dim, 8, 8], 1, 4.0, 5)
    mem = loop_memory(settings)
    result = run_episode(net, settings, x0=np.array([0.2, -0.2, 0.1]),
                         rng=np.random.default_rng(3),
                         noise_scale=1.0, replay=mem)
    assert len(mem) == 20
    ws, us, rs, w_nexts = held(mem)
    assert np.array_equal(rs, result.rewards)
    for i in range(20):
        w, u, r, w_next = ws[i], us[i], rs[i], w_nexts[i]
        assert np.array_equal(blocks(w_next)[1][0], u)
        # w' of one transition is w of the next
        if i < 19:
            assert np.array_equal(w_next, ws[i + 1])
        # reward recomputes exactly from (w, u, w')
        assert r == transition_reward(w, u, w_next, settings.output_history_len)


def test_each_extended_state_holds_that_instants_sensed_output():
    # wide delays clamp arrivals onto each other on both links; the
    # controller still acts on each output at that output's own arrival,
    # so it is the newest in w_k
    settings = make_settings(steps_per_episode=60, max_delay_steps=8,
                             delay_range=(0.0, 4 * DELTA))
    dim = extended_state_dim(2, 1, 8, settings.output_history_len)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 6)
    mem = loop_memory(settings)
    result = run_episode(net, settings, x0=np.array([0.3, -0.2, 0.1]),
                         rng=np.random.default_rng(7), replay=mem)
    log = result.samples
    assert len(log) == 61
    assert (log["ctrl_arrival"] > log["t"] + log["tau_sc"]).any()
    assert (np.diff(log["plant_arrival"]) == 0.0).any()
    ws, _, _, w_nexts = held(mem)
    for k, w in enumerate([*ws, w_nexts[-1]]):
        assert np.array_equal(blocks(w)[0][0], log["y"][k])


def test_logged_input_is_the_last_delivered_one():
    # a noisy run under wide delays: both links clamp arrivals onto each
    # other, some instants take in several inputs and some take in none
    settings = make_settings(steps_per_episode=60, max_delay_steps=8,
                             delay_range=(0.0, 4 * DELTA))
    dim = extended_state_dim(2, 1, 8, settings.output_history_len)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 6)
    mem = loop_memory(settings)
    result = run_episode(net, settings, x0=np.array([0.3, -0.2, 0.1]),
                         rng=np.random.default_rng(7), replay=mem,
                         noise_scale=3.5)
    log = result.samples
    assert len(log) == 61
    assert (log["ctrl_arrival"] > log["t"] + log["tau_sc"]).any()
    assert (np.diff(log["plant_arrival"]) == 0.0).any()
    issued = held(mem)[1]
    # the result's inputs are the issued ones, the last instant's included
    assert np.array_equal(result.inputs[:-1], issued) and len(result.inputs) == 61
    # instant k's own input is issued after instant k's delivery
    delivered = [np.flatnonzero(log["plant_arrival"][:k] <= t)
                 for k, t in enumerate(log["t"])]
    new_per_instant = np.diff([d.size for d in delivered])
    assert new_per_instant.max() >= 2 and (new_per_instant[10:] == 0).any()
    assert delivered[0].size == 0
    for k, d in enumerate(delivered):
        expected = issued[d[-1]] if d.size else np.zeros(1)
        assert np.array_equal(log["u"][k], expected)


def test_episode_rewards_nonpositive():
    settings = make_settings(steps_per_episode=30, max_delay_steps=4,
                             delay_range=(DELTA, 2 * DELTA))
    dim = extended_state_dim(2, 1, 4, 4)
    net = nn.init_network([dim, 8, 8], 1, 4.0, 6)
    result = run_episode(net, settings, x0=np.array([1.0, 1.0, -1.0]),
                         rng=np.random.default_rng(4), noise_scale=3.5)
    assert all(r <= 0.0 for r in result.rewards)


def test_divergence_aborts_episode_with_penalty():
    class Exploder:
        state_dim = 3
        input_dim = 1

        def deriv(self, x, u):
            return (x[0] * x[0], 0.0, 0.0)

    class ExploderConfig(ExperimentConfig):
        def plant(self):
            return Exploder()

    base = make_settings(steps_per_episode=60, max_delay_steps=0,
                         divergence_penalty=-1234.0)
    settings = ExploderConfig(**{f.name: getattr(base, f.name)
                                 for f in dataclasses.fields(base)})
    dim = settings.extended_dim
    net = zero_weight_net(dim)
    mem = loop_memory(settings)
    result = run_episode(net, settings, x0=np.array([40.0, 0.0, 0.0]),
                         rng=np.random.default_rng(5), replay=mem)
    assert result.diverged
    assert result.diverged_at is not None
    assert result.rewards[-1] == -1234.0
    # the log holds the completed instants only, each with its reward
    log = result.samples
    assert np.array_equal(log["k"], np.arange(len(result.rewards)))
    assert log["t"][-1] < result.diverged_at
    assert np.isfinite(log["x"]).all()
    w, _, r, w_next = (a[-1] for a in held(mem))
    assert r == -1234.0
    assert np.array_equal(w, w_next)
    assert len(mem) == len(result.rewards)
    # the inputs are cut like the log: the self-loop's is the last one
    assert np.array_equal(result.inputs, held(mem)[1])


def test_early_divergence_scores_its_penalty():
    # the state leaves float range in the first sampling period, so the
    # penalty is the only reward and falls before METRIC_START
    settings = make_settings(steps_per_episode=60, divergence_penalty=-1234.0)
    dim = settings.extended_dim
    net = zero_weight_net(dim)
    mem = loop_memory(settings)
    result = run_episode(net, settings, x0=np.array([1e5, 0.0, 0.0]),
                         rng=np.random.default_rng(0), replay=mem)
    assert result.diverged
    assert result.rewards == [-1234.0]
    assert result.reward_sum_from() == -1234.0
    assert result.reward_sum_from(0) == -1234.0
    # the log holds the completed instants only, each with its reward
    log = result.samples
    assert np.array_equal(log["k"], np.arange(len(result.rewards)))
    assert log["t"][-1] < result.diverged_at
    assert np.isfinite(log["x"]).all()
    # the final transition is a self-loop carrying the penalty
    w, _, r, w_next = (a[-1] for a in held(mem))
    assert r == -1234.0
    assert np.array_equal(w, w_next)
    assert len(mem) == len(result.rewards)
    # the inputs are cut like the log: the self-loop's is the last one
    assert np.array_equal(result.inputs, held(mem)[1])


def composed_transition_reward(w, u, w_next, output_history_len):
    """The three penalty kernels over differences of the history blocks,
    with u stacked onto a copy of the input history, summed in that order."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    outputs, inputs = split_extended_state(w, 2, u.size, output_history_len)
    inputs = np.vstack([u[None, :], inputs])
    return (float(change_penalty(w_next[:2] - outputs[0], u))
            + float(output_steps_penalty(outputs[:-1] - outputs[1:]))
            + float(input_steps_penalty(inputs[:-1] - inputs[1:])))


def test_transition_reward_equals_the_term_composition_bit_for_bit():
    rng = np.random.default_rng(2024)

    def draw(*shape):
        # either sign, magnitudes spread from about 1e-3 to 1e3 entry by entry
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)

    cases = [(m, tau_o) for m in (1, 2) for tau_o in (1, 4)]
    draws = 0
    for m, tau_o in cases:
        for _ in range(5000):
            delay_steps = int(rng.integers(0, 5))
            dim = extended_state_dim(2, m, delay_steps, tau_o)
            w, w_next, u = draw(dim), draw(dim), draw(m)
            r = transition_reward(w, u, w_next, tau_o)
            want = composed_transition_reward(w, u, w_next, tau_o)
            assert type(r) is float
            assert np.float64(r).tobytes() == np.float64(want).tobytes(), (
                m, tau_o, delay_steps)
            draws += 1
    assert draws >= 20_000


def test_transition_reward_rejects_a_short_next_state():
    w = np.zeros(extended_state_dim(2, 1, 4, 4))
    for w_next in (np.zeros(1), np.zeros(0)):
        with pytest.raises(DimensionError):
            transition_reward(w, [0.0], w_next, 4)


# ---------------------------------------------------------------------------
# trainer


def tiny_trainer(seed=0, **kw):
    return Trainer(make_settings(hidden=(8, 8), seed=seed,
                                 delay_range=(DELTA, 2 * DELTA), **kw))


def curve(trainer):
    """The rows of a trainer's whole run."""
    return [row for row, _ in trainer.episodes()]


def test_update_cadence_once_warm():
    # capacity for each episode: I * floor(K / period) blocks once replay warm
    tr = tiny_trainer(episodes=3, steps_per_episode=16, warmup=4,
                      update_iters=2, update_period=4, batch_size=4)
    list(tr.episodes())
    assert tr.update_count == 3 * 2 * (16 // 4)
    assert tr.update_count == tr.adam.step


def test_no_updates_before_warmup():
    tr = tiny_trainer(episodes=1, steps_per_episode=16, warmup=20,
                      update_iters=2, update_period=4, batch_size=4)
    list(tr.episodes())
    assert tr.update_count == 0
    assert len(tr.replay) == 16


def test_training_curves_identical_under_seed():
    rows_a = curve(tiny_trainer(seed=11, episodes=3))
    rows_b = curve(tiny_trainer(seed=11, episodes=3))
    assert [r.reward_sum for r in rows_a] == [r.reward_sum for r in rows_b]
    assert [r.mean_loss for r in rows_a] == [r.mean_loss for r in rows_b]
    # the wall-clock column counts up from the first episode's start
    elapsed = [r.seconds_elapsed for r in rows_a]
    assert 0 < elapsed[0] <= elapsed[1] <= elapsed[2]


def test_training_curves_differ_across_seeds():
    rows_a = curve(tiny_trainer(seed=1, episodes=2, steps_per_episode=60))
    rows_b = curve(tiny_trainer(seed=2, episodes=2, steps_per_episode=60))
    assert [r.reward_sum for r in rows_a] != [r.reward_sum for r in rows_b]


def test_metric_sums_from_fiftieth_sample():
    tr = tiny_trainer(episodes=1, steps_per_episode=60)
    rows = curve(tr)
    assert rows[0].episode == 1
    # reconstruct the metric from a fresh identical run
    tr2 = tiny_trainer(episodes=1, steps_per_episode=60)
    row2, result = tr2.run_training_episode(1)
    assert row2.reward_sum == sum(result.rewards[METRIC_START:])


def test_episode_stream_follows_the_episode_index():
    # episode 3 draws its initial state and delays from the same stream
    # whether or not episodes 1 and 2 ran before it on this trainer
    straight = [result for _, result in
                tiny_trainer(seed=4, episodes=3).episodes()]
    _, alone = tiny_trainer(seed=4, episodes=3).run_training_episode(3)
    first = alone.samples[0]
    for name in ("x", "tau_sc", "tau_cp"):
        assert np.array_equal(first[name], straight[2].samples[0][name])
    assert not np.array_equal(first["x"], straight[0].samples[0]["x"])


def curve_values(rows):
    """Curve rows minus the wall clock, as an array for NaN-aware compares."""
    return np.array([(r.episode, r.reward_sum, r.mean_loss, r.noise_scale)
                     for r in rows])


@pytest.mark.parametrize("stop", [1, 3, 9],
                         ids=["before_warmup", "after_wrap", "long_after_wrap"])
def test_training_continues_from_the_state_a_snapshot_would_hold(stop):
    # a trainer that gets only the networks, Adam, the replay's filled
    # slots of rows, starts and loops with its push count, and the minibatch
    # stream of another, after `stop` episodes, continues that run exactly:
    # the OU process is built anew every episode, each episode's stream
    # comes from its index, and the update count is Adam's step
    kw = dict(seed=6, episodes=12, steps_per_episode=16, warmup=20,
              replay_capacity=40)
    straight = tiny_trainer(**kw)
    expected = curve_values(curve(straight))

    first = tiny_trainer(**kw)
    rows = [first.run_training_episode(e)[0] for e in range(1, stop + 1)]
    assert (len(first.replay) < 20) == (stop == 1)
    assert (first.replay.pushes > 40) == (stop > 1)
    second = tiny_trainer(**kw)
    second.net.params[:] = first.net.params
    second.target.params[:] = first.target.params
    for name in ("m", "v"):
        getattr(second.adam, name)[:] = getattr(first.adam, name)
    second.adam.step = first.adam.step
    tables = {name: a for name, a in vars(first.replay).items()
              if isinstance(a, np.ndarray)}
    assert set(tables) == {"rows", "starts", "loops"}
    filled = min(first.replay.pushes, len(first.replay.rows))
    for name, a in tables.items():
        setattr(second.replay, name, a[:filled].copy())
    second.replay.pushes = first.replay.pushes
    second._sample_rng.bit_generator.state = first._sample_rng.bit_generator.state
    rows += [second.run_training_episode(e)[0] for e in range(stop + 1, 13)]

    np.testing.assert_array_equal(curve_values(rows), expected)
    assert np.array_equal(second.net.params, straight.net.params)
    assert np.array_equal(second.target.params, straight.target.params)
    assert np.array_equal(second.adam.m, straight.adam.m)
    assert np.array_equal(second.adam.v, straight.adam.v)
    assert second.update_count == straight.update_count > 0


def test_every_training_and_noise_value_reaches_the_trainer(monkeypatch):
    # a non-default value for every training and noise field of the config
    cfg = make_settings(
        episodes=5, steps_per_episode=12, max_delay_steps=2,
        output_history_len=2, gamma=0.9, soft_update_rate=0.01, batch_size=3,
        update_iters=5, update_period=3, learning_rate=7e-4,
        replay_capacity=50, warmup=6, init_box=1.5, divergence_penalty=-77.0,
        ou_theta=0.3, ou_sigma=0.05, noise_scale=2.0, noise_decay_start=2,
        noise_scale_final=0.5, hidden=(5, 6), tanh_weight=2.5, seed=3)
    tr = Trainer(cfg)
    assert tr.settings is cfg
    assert tr.net.input_dim == extended_state_dim(2, 1, 2, 2)
    assert [w.shape[0] for w, _ in tr.net.layers[:-3]] == [5, 6]
    assert tr.net.tanh_weight == 2.5
    assert tr.replay.capacity == 50
    for name in ("trace", "target_trace"):
        assert tr.update_buffers[name].x.shape[0] == 3
    assert noise_scale(cfg, 2) == 2.0
    assert noise_scale(cfg, 4) == 2.0 + (0.5 - 2.0) * (2 / 3)
    assert noise_scale(cfg, 5) == 0.5

    seen = {"gamma": set(), "rate": set()}
    rates = []
    built = []

    class RecordingOrnsteinUhlenbeck(OrnsteinUhlenbeck):
        def __init__(self, dim, theta, sigma):
            built.append((dim, theta, sigma))
            super().__init__(dim, theta, sigma)

    def recording_loss(net, target, batch, gamma, **buffers):
        seen["gamma"].add(gamma)
        assert len(batch[2]) == 3
        return batch_loss_and_grad(net, target, batch, gamma, **buffers)

    def recording_adam_step(params, grads, state, lr):
        rates.append(lr)
        nn.adam_step(params, grads, state, lr)

    def recording_soft_update(target, source, rate):
        seen["rate"].add(rate)
        nn.soft_update(target, source, rate)

    monkeypatch.setattr(agent, "batch_loss_and_grad", recording_loss)
    monkeypatch.setattr(agent, "adam_step", recording_adam_step)
    monkeypatch.setattr(agent, "soft_update", recording_soft_update)
    monkeypatch.setattr(agent, "OrnsteinUhlenbeck", RecordingOrnsteinUhlenbeck)
    rows = list(tr.episodes())
    assert seen == {"gamma": {0.9}, "rate": {0.01}}
    # every Adam step runs at the config's learning rate
    assert rates == [7e-4] * tr.update_count
    # each episode's noise process is built from the config's OU values
    assert built == [(1, 0.3, 0.05)] * 5
    assert len(rows) == 5
    for episode, (row, result) in enumerate(rows, start=1):
        assert len(result.samples) == 13
        assert np.abs(result.samples["x"][0]).max() <= 1.5
        assert row.noise_scale == noise_scale(cfg, episode)
    # a block of 5 updates at every third instant once 6 transitions are
    # held: instants 6, 9 and 12 of episode 1, then 3, 6, 9 and 12
    assert tr.update_count == 5 * (3 + 4 * 4)
    before = tr.update_count
    losses = tr._update_block()
    assert len(losses) == 5 and tr.update_count - before == 5
    assert tr.update_count == tr.adam.step


def test_the_trainer_holds_only_a_snapshots_state():
    # what a snapshot of the run holds, then the config and the update scratch
    snapshot = {"net", "target", "adam", "replay", "_sample_rng"}
    assert set(vars(tiny_trainer())) == snapshot | {"settings", "update_buffers"}
