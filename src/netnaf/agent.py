"""The learning controller and its closed-loop episode simulator.

The controller never sees the plant state. It works on an extended state:
the newest outputs (one more than the configured output history length) and
the inputs it issued over the worst-case delay window plus that history.
Episodes run on the sensor's sampling grid; payload timing goes through the
two delay channels, and the plant is integrated between samples with input
switches applied exactly where the delayed actuation lands.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .delays import CP, SC, Actuator, DelayModel, DelayedChannel, sample_delay
from .errors import DimensionError, DivergenceError, NumericsError
from .naf import quadratic_head
from .nn import (AdamState, ForwardTrace, MlpNetwork, adam_step, backward,
                 forward, init_network, soft_update)
from .plant import InputSchedule, PlantModel, SensorMap, integrate, sense
from .reward import (RewardWeights, _change_penalty, _input_steps_penalty,
                     _output_steps_penalty, total_reward)

# Episode score: sum of stepwise rewards from this sampling index onward.
METRIC_START = 50


# ---------------------------------------------------------------------------
# Extended state


def extended_state_dim(output_dim: int, input_dim: int, delay_steps: int,
                       output_history_len: int) -> int:
    return output_dim * (output_history_len + 1) + input_dim * (
        delay_steps + output_history_len)


def split_extended_state(w: np.ndarray, output_dim: int, input_dim: int,
                         output_history_len: int):
    """Views of an extended state's blocks, newest first: outputs
    (output_history_len + 1, p) and inputs (delay_steps + output_history_len, m)."""
    n = output_dim * (output_history_len + 1)
    return w[:n].reshape(-1, output_dim), w[n:].reshape(-1, input_dim)


class HistoryBuffer:
    """Past outputs and inputs, held as one vector in the extended-state layout.

    Before the first sample, inputs read as zero; outputs read as the first
    observed output (so the initial extended state carries no fictitious
    jumps).
    """

    def __init__(self, output_dim: int, input_dim: int, delay_steps: int,
                 output_history_len: int):
        if output_history_len < 1:
            raise ValueError("output history length must be >= 1")
        if delay_steps < 0:
            raise ValueError("delay steps must be >= 0")
        self._vec = np.zeros(extended_state_dim(output_dim, input_dim,
                                                delay_steps, output_history_len))
        self._outputs, self._inputs = split_extended_state(
            self._vec, output_dim, input_dim, output_history_len)
        self._started = False

    @staticmethod
    def _shift_in(block, value, what):
        """Drop the oldest row of a block and put value first."""
        value = np.atleast_1d(np.asarray(value, dtype=float))
        if value.shape != block.shape[1:]:
            raise DimensionError(f"{what} has shape {value.shape}, expected "
                                 f"{block.shape[1:]}")
        block[1:] = block[:-1]
        block[0] = value

    def reset(self, y0):
        self._shift_in(self._outputs, y0, "output")
        self._outputs[1:] = self._outputs[0]
        self._inputs[:] = 0.0
        self._started = True

    def push_output(self, y):
        self._shift_in(self._outputs, y, "output")

    def push_input(self, u):
        self._shift_in(self._inputs, u, "input")

    def extended_state(self) -> np.ndarray:
        """A copy: later pushes shift the buffer in place."""
        if not self._started:
            raise RuntimeError("history not initialized; reset with the first output")
        return self._vec.copy()


# ---------------------------------------------------------------------------
# Replay memory and exploration noise


class ReplayMemory:
    """Bounded FIFO of transitions (w, u, r, w') kept as four arrays;
    uniform sampling without replacement.

    Row i is the i-th push until the memory is full; then pushes overwrite
    rows from 0 on. Rows are allocated by doubling, up to capacity.
    """

    def __init__(self, capacity: int, state_dim: int, input_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.w = np.empty((1, state_dim))
        self.u = np.empty((1, input_dim))
        self.r = np.empty(1)
        self.w_next = np.empty((1, state_dim))
        self._len = 0
        self._cursor = 0

    def __len__(self):
        return self._len

    def _grow(self):
        rows = min(2 * self.r.shape[0], self.capacity)
        for name in ("w", "u", "r", "w_next"):
            old = getattr(self, name)
            new = np.empty((rows, *old.shape[1:]))
            new[:old.shape[0]] = old
            setattr(self, name, new)

    def push(self, w, u, r: float, w_next):
        if self._len < self.capacity:
            i = self._len
            if i == self.r.shape[0]:
                self._grow()
            self._len += 1
        else:
            i = self._cursor
            self._cursor = (self._cursor + 1) % self.capacity
        self.w[i] = w
        self.u[i] = u
        self.r[i] = r
        self.w_next[i] = w_next

    def sample(self, rng: np.random.Generator, n: int):
        """(w, u, r, w') rows of n distinct transitions, as copies."""
        if n > self._len:
            raise ValueError(f"cannot sample {n} of {self._len} transitions")
        idx = rng.choice(self._len, size=n, replace=False)
        return self.w[idx], self.u[idx], self.r[idx], self.w_next[idx]


@dataclass(frozen=True)
class OuSettings:
    """Mean-reverting exploration noise and its episode scale schedule."""

    theta: float = 0.15
    sigma: float = 0.2
    scale: float = 3.5
    decay_start: int = 1000
    scale_final: float = 0.05

    def __post_init__(self):
        if self.theta < 0 or self.sigma < 0:
            raise ValueError("noise theta and sigma must be nonnegative")


class OrnsteinUhlenbeck:
    """Euler-Maruyama mean-reverting process around zero."""

    def __init__(self, dim: int, theta: float = 0.15, sigma: float = 0.2):
        self.theta = theta
        self.sigma = sigma
        self.state = np.zeros(dim)

    def reset(self):
        self.state = np.zeros_like(self.state)

    def step(self, dt: float, rng: np.random.Generator) -> np.ndarray:
        if dt <= 0:
            raise ValueError("dt must be positive")
        kick = self.sigma * math.sqrt(dt) * rng.standard_normal(self.state.shape)
        self.state = self.state - self.theta * self.state * dt + kick
        return self.state.copy()


def noise_scale(settings: OuSettings, episode: int, total_episodes: int) -> float:
    """Full scale through decay_start, then linear decay to scale_final at
    the final episode."""
    if episode <= settings.decay_start or total_episodes <= settings.decay_start:
        return float(settings.scale)
    frac = (episode - settings.decay_start) / (total_episodes - settings.decay_start)
    return settings.scale + (settings.scale_final - settings.scale) * frac


# ---------------------------------------------------------------------------
# Temporal-difference pieces


def batch_targets(target_net: MlpNetwork, r: np.ndarray, w_next: np.ndarray,
                  gamma: float, trace: ForwardTrace | None = None) -> np.ndarray:
    """Bootstrap targets r + gamma * V(w'; target), one per transition.

    Only V is read, so the target pass skips the action and scale heads;
    `trace` is an optional buffer for it (see `forward`).
    """
    return r + gamma * forward(target_net, w_next, trace, head="value").value


def batch_loss_and_grad(net: MlpNetwork, target_net: MlpNetwork, batch,
                        gamma: float, trace: ForwardTrace | None = None,
                        target_trace: ForwardTrace | None = None,
                        grad: np.ndarray | None = None):
    """Mean squared TD error over a (w, u, r, w') batch of row arrays and its
    exact parameter gradient.

    Targets come from the target network and enter as constants; the
    gradient flows only through the main network's value, action and scale
    heads. `trace`, `target_trace` and `grad` are optional buffers the
    caller owns, for the main pass, the target pass and the gradient
    (`Trainer` keeps one set); the returned gradient is then `grad`
    itself, overwritten by the next call. Results are bit-identical with
    or without them.
    """
    w, u, r, w_next = batch
    n = len(r)
    if n == 0:
        raise ValueError("batch must be nonempty")
    targets = batch_targets(target_net, r, w_next, gamma, target_trace)

    trace = forward(net, w, trace)
    q, pullback = quadratic_head(trace.value, trace.action,
                                 trace.scale_entries, u)
    resid = q - targets
    if not np.isfinite(resid).all():
        bad = int(np.flatnonzero(~np.isfinite(resid))[0])
        raise NumericsError(f"non-finite TD error at transition {bad} of the batch")
    loss = float(resid @ resid) / n

    return loss, backward(net, trace, pullback(2.0 * resid / n), grad)


# ---------------------------------------------------------------------------
# Closed-loop episode


@dataclass(frozen=True)
class TrainSettings:
    """Everything the training loop needs beyond the physical setup."""

    episodes: int
    steps_per_episode: int
    max_delay_steps: int
    output_history_len: int
    gamma: float = 0.99
    soft_update_rate: float = 0.001
    batch_size: int = 128
    update_iters: int = 10
    update_period: int = 4
    learning_rate: float = 1.25e-5
    replay_capacity: int = 1_000_000
    warmup: int = 128
    init_box: float = 4.5
    divergence_penalty: float = -1000.0
    noise: OuSettings = field(default_factory=OuSettings)

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if not 0.0 < self.soft_update_rate <= 1.0:
            raise ValueError("soft update rate must be in (0, 1]")
        if self.episodes < 1 or self.steps_per_episode < 1:
            raise ValueError("episodes and steps per episode must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.warmup < self.batch_size:
            raise ValueError("warmup must be at least one batch")
        if self.replay_capacity < self.warmup:
            raise ValueError("replay capacity must hold the warmup transitions")
        if self.update_period < 1 or self.update_iters < 0:
            raise ValueError("bad update cadence")


@dataclass(frozen=True)
class LoopSetup:
    """Physical side of the loop: plant, sensor, channels, integrator grain."""

    plant: PlantModel
    sensor: SensorMap
    delays: DelayModel
    substep: float
    reward_weights: RewardWeights = field(default_factory=RewardWeights)

    def __post_init__(self):
        if self.reward_weights.output_weights.shape[0] != self.sensor.output_dim:
            raise DimensionError("reward output weights do not match the sensor")


def transition_reward(w: np.ndarray, u, w_next: np.ndarray,
                      weights: RewardWeights, output_history_len: int) -> float:
    """Composite reward, a pure function of (w, u, w').

    The output dimension is the weight matrix's, the input dimension u's.
    The value is `total_reward` of `output_change_reward` (newest output of
    w' against that of w), `output_history_reward` (the output block of w)
    and `input_history_reward` (u put before the input block of w), formed
    in one pass over views of w through the same penalty kernels, so it is
    bit-identical to that composition.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = weights.output_weights.shape[0]
    outputs, inputs = split_extended_state(w, p, u.size, output_history_len)
    y_next = np.asarray(w_next[:p], dtype=float)
    if y_next.shape != (p,):
        raise DimensionError("output dimensions do not match the weight matrix")
    if outputs.shape[0] < 2 or inputs.shape[0] < 1:
        raise DimensionError("extended state holds too few outputs or inputs")
    # consecutive differences of (u, inputs...): row 0 is u - inputs[0]
    input_steps = np.empty(inputs.shape)
    np.subtract(u, inputs[0], out=input_steps[0])
    np.subtract(inputs[:-1], inputs[1:], out=input_steps[1:])
    return total_reward(
        float(_change_penalty(y_next - outputs[0], u, weights)),
        float(_output_steps_penalty(outputs[:-1] - outputs[1:], weights)),
        float(_input_steps_penalty(input_steps, weights)))


def episode_log_dtype(state_dim: int, output_dim: int, input_dim: int) -> np.dtype:
    """One row per sampling instant: k, t, plant state x, sensed output y, held
    input u, the two realized delays and the two clamped arrivals."""
    return np.dtype([("k", np.int64), ("t", float), ("x", float, (state_dim,)),
                     ("y", float, (output_dim,)), ("u", float, (input_dim,)),
                     ("tau_sc", float), ("tau_cp", float),
                     ("ctrl_arrival", float), ("plant_arrival", float)])


@dataclass
class EpisodeResult:
    rewards: list
    samples: np.ndarray  # the filled rows of an episode_log_dtype array
    diverged: bool = False
    diverged_at: float | None = None

    def reward_sum_from(self, start: int = METRIC_START) -> float:
        # Python's sequential sum: np.sum is pairwise, with other last bits
        return float(sum(self.rewards[start:]))


def run_episode(net: MlpNetwork, setup: LoopSetup, settings: TrainSettings, *,
                x0, rng: np.random.Generator,
                noise: OrnsteinUhlenbeck | None = None,
                noise_scale_value: float = 0.0, replay: ReplayMemory | None = None,
                on_step=None) -> EpisodeResult:
    """Simulate one episode of the delayed closed loop.

    On the k-th sampling instant the sensed output goes through the
    sensor-to-controller channel; on its (clamped) arrival the controller
    extends its histories, scores and stores the previous transition,
    evaluates the policy (plus scaled exploration noise when `noise` is
    given) and sends the input through the controller-to-plant channel. The
    actuator holds each delayed input until the next one lands. Transitions
    go to `replay` when one is given. on_step(k) fires after the k-th input
    is issued and the instant is logged as row k of `samples`.

    Plant divergence ends the episode early: the final transition is a
    self-loop carrying the divergence penalty, and the log stops at the last
    completed instant.
    """
    plant, sensor = setup.plant, setup.sensor
    delta = sensor.period
    sc_channel, cp_channel = DelayedChannel(), DelayedChannel()
    actuator = Actuator(plant.input_dim)
    hist = HistoryBuffer(sensor.output_dim, plant.input_dim,
                         settings.max_delay_steps, settings.output_history_len)
    if noise is not None:
        noise.reset()

    x = np.asarray(x0, dtype=float).copy()
    t_plant = 0.0
    log = np.empty(settings.steps_per_episode + 1,
                   dtype=episode_log_dtype(plant.state_dim, sensor.output_dim,
                                           plant.input_dim))
    result = EpisodeResult([], log[:0])
    w_prev = None
    u_prev = None

    for k in range(settings.steps_per_episode + 1):
        t_k = k * delta

        arrivals = cp_channel.poll(t_k)
        held_before = actuator.held
        fragment = actuator.apply(arrivals)
        if t_k > t_plant:
            try:
                x = integrate(plant, x, InputSchedule(held_before, fragment),
                              t_plant, t_k, setup.substep)
            except DivergenceError as err:
                result.diverged = True
                result.diverged_at = err.time
                if w_prev is not None and u_prev is not None:
                    r = settings.divergence_penalty
                    result.rewards.append(r)
                    if replay is not None:
                        replay.push(w_prev, u_prev, r, w_prev)
                break
            t_plant = t_k

        y_k = sense(x, sensor)
        sc_delay = sample_delay(setup.delays, SC, rng)
        cp_delay = sample_delay(setup.delays, CP, rng)
        ctrl_arrival = sc_channel.send(t_k, y_k, sc_delay)
        received = sc_channel.poll(ctrl_arrival)
        y_recv = received[-1][1]

        if k == 0:
            hist.reset(y_recv)
        else:
            hist.push_output(y_recv)
        w_k = hist.extended_state()

        if k >= 1:
            r = transition_reward(w_prev, u_prev, w_k, setup.reward_weights,
                                  settings.output_history_len)
            result.rewards.append(r)
            if replay is not None:
                replay.push(w_prev, u_prev, r, w_k)

        # the greedy action is the mu head alone; V and L feed only the TD loss
        mu_k = forward(net, w_k, head="action").mu
        if noise is not None:
            u_k = mu_k + noise_scale_value * noise.step(delta, rng)
        else:
            u_k = mu_k.copy()
        hist.push_input(u_k)
        plant_arrival = cp_channel.send(ctrl_arrival, u_k, cp_delay)

        log[k] = (k, t_k, x, y_k, actuator.held, sc_delay, cp_delay,
                  ctrl_arrival, plant_arrival)
        result.samples = log[:k + 1]
        w_prev, u_prev = w_k, u_k
        if on_step is not None:
            on_step(k)

    return result


# ---------------------------------------------------------------------------
# Training loop


@dataclass
class TrainRow:
    """One learning-curve entry."""

    episode: int
    reward_sum: float
    mean_loss: float
    noise_scale: float
    seconds_elapsed: float


class Trainer:
    """Owns the networks, optimizer, replay memory, all random streams and
    the update step's buffers.

    A fixed seed makes the whole run deterministic: network init, initial
    states, delays, exploration noise and minibatch choices all derive from
    it through independent child streams.
    """

    def __init__(self, setup: LoopSetup, settings: TrainSettings,
                 hidden_widths, tanh_weight: float, seed: int):
        self.setup = setup
        self.settings = settings
        self.seed = seed
        p = setup.sensor.output_dim
        m = setup.plant.input_dim
        dim = extended_state_dim(p, m, settings.max_delay_steps,
                                 settings.output_history_len)
        root = np.random.SeedSequence(seed)
        net_ss, sample_ss, self._episode_root = root.spawn(3)
        net_seed = int(net_ss.generate_state(1)[0])
        self.net = init_network([dim, *hidden_widths], m, tanh_weight, net_seed)
        self.target = self.net.copy()
        self.adam = AdamState.fresh(self.net.params.size, lr=settings.learning_rate)
        # written by every update, so one update allocates no batch trace or
        # gradient vector; a batch is always batch_size rows
        self.update_buffers = {
            "trace": ForwardTrace.empty(self.net, settings.batch_size),
            "target_trace": ForwardTrace.empty(self.target, settings.batch_size),
            "grad": np.empty_like(self.net.params),
        }
        self.replay = ReplayMemory(settings.replay_capacity, dim, m)
        self.noise = OrnsteinUhlenbeck(m, settings.noise.theta,
                                       settings.noise.sigma)
        self._sample_rng = np.random.default_rng(sample_ss)
        self.update_count = 0
        self._episode_losses: list[float] = []

    def _update_block(self):
        s = self.settings
        for _ in range(s.update_iters):
            batch = self.replay.sample(self._sample_rng, s.batch_size)
            loss, grad = batch_loss_and_grad(self.net, self.target, batch,
                                             s.gamma, **self.update_buffers)
            adam_step(self.net.params, grad, self.adam)
            soft_update(self.target.params, self.net.params, s.soft_update_rate)
            self._episode_losses.append(loss)
            self.update_count += 1

    def _on_step(self, k: int):
        s = self.settings
        if k > 0 and k % s.update_period == 0 and len(self.replay) >= s.warmup:
            self._update_block()

    def run_training_episode(self, episode: int) -> tuple[TrainRow, EpisodeResult]:
        s = self.settings
        ep_rng = np.random.default_rng(self._episode_root.spawn(1)[0])
        x0 = ep_rng.uniform(-s.init_box, s.init_box,
                            size=self.setup.plant.state_dim)
        scale = noise_scale(s.noise, episode, s.episodes)
        self._episode_losses = []
        result = run_episode(self.net, self.setup, s, x0=x0, rng=ep_rng,
                             noise=self.noise, noise_scale_value=scale,
                             replay=self.replay, on_step=self._on_step)
        losses = self._episode_losses
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        row = TrainRow(episode, result.reward_sum_from(), mean_loss, scale, 0.0)
        return row, result

    def run(self, on_episode=None) -> list[TrainRow]:
        """Train for the configured number of episodes; returns the curve."""
        started = time.perf_counter()
        rows = []
        for episode in range(1, self.settings.episodes + 1):
            row, result = self.run_training_episode(episode)
            row.seconds_elapsed = time.perf_counter() - started
            rows.append(row)
            if on_episode is not None:
                on_episode(episode, row, result)
        return rows
