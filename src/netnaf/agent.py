"""The learning controller and its closed-loop episode simulator.

The controller never sees the plant state. It works on an extended state
of its newest outputs and inputs (`extended_state_blocks`): one window of
an episode's per-instant rows, found by `window_index`, which the replay
reads the same way from its slots. Episodes run on
the sensor's sampling grid; outputs reach the controller, and inputs the
plant, at clamped arrival times, and the plant is integrated between
samples over the inputs' arrivals, each applied exactly where it lands.

The loop and the trainer take an `ExperimentConfig` as their one description
of the closed loop: they build the plant and exploration noise from it and
draw the delays from its delay law; the sensor and the reward weights are
constants of `plant` and `reward`. The config is duck-typed: this module
imports nothing from `config`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .delays import CP, SC, sample_delay
from .errors import DimensionError, DivergenceError, NumericsError
from .naf import quadratic_head
from .nn import (AdamState, ForwardTrace, MlpNetwork, adam_step, backward,
                 forward, init_network, soft_update)
from .plant import OUTPUT_DIM, integrate, sense
from .reward import change_penalty, input_steps_penalty, output_steps_penalty

# Episode score: sum of stepwise rewards from this sampling index onward.
METRIC_START = 50


# ---------------------------------------------------------------------------
# Extended state


def extended_state_blocks(delay_steps: int, output_history_len: int):
    """The extended state's layout, stated once: its output block's rows (y_k
    back to y_{k-h}), then its input block's (u_{k-1} back to u_{k-d-h}),
    each newest first, for delay_steps d and output_history_len h."""
    if output_history_len < 1:
        raise ValueError("output history length must be >= 1")
    if delay_steps < 0:
        raise ValueError("delay steps must be >= 0")
    return output_history_len + 1, delay_steps + output_history_len


def extended_state_dim(output_dim: int, input_dim: int, delay_steps: int,
                       output_history_len: int) -> int:
    n_y, n_u = extended_state_blocks(delay_steps, output_history_len)
    return output_dim * n_y + input_dim * n_u


def split_extended_state(w: np.ndarray, output_dim: int, input_dim: int,
                         output_history_len: int):
    """Views of an extended state's two blocks, one output or input a row."""
    n = output_dim * extended_state_blocks(0, output_history_len)[0]
    return w[:n].reshape(-1, output_dim), w[n:].reshape(-1, input_dim)


def window_index(output_dim: int, input_dim: int, delay_steps: int,
                 output_history_len: int) -> np.ndarray:
    """Where each entry of an extended state lies in a table of per-instant
    rows that begin [y | u]: (rows back from the newest instant, column),
    written once through split_extended_state's views. Output j is y of the
    row j back, input j is u of the row j + 1 back."""
    p, m, h = output_dim, input_dim, output_history_len
    index = np.empty((2, extended_state_dim(p, m, delay_steps, h)), np.int64)
    (back_y, back_u), (col_y, col_u) = (split_extended_state(a, p, m, h)
                                        for a in index)
    back_y[:] = np.arange(len(back_y))[:, None]
    back_u[:] = np.arange(1, len(back_u) + 1)[:, None]
    col_y[:], col_u[:] = np.arange(p), np.arange(p, p + m)
    return index


# ---------------------------------------------------------------------------
# Replay memory and exploration noise


class ReplayMemory:
    """Bounded FIFO of the last `capacity` transitions, sampled uniformly
    without replacement. Push n fills slot n % (capacity + window), window
    being w's input rows: a row of `rows` by the named columns `cols`, the
    episode's first push number in `starts` and the self-loop flag (w' = w)
    in `loops`. The spare slots keep the oldest window whole; slots grow by
    doubling. FIFO position i is the newest push = i (mod capacity)."""

    def __init__(self, capacity: int, output_dim: int, input_dim: int,
                 delay_steps: int, output_history_len: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        p, m, h = output_dim, input_dim, output_history_len
        self.capacity, self.window = capacity, extended_state_blocks(delay_steps, h)[1]
        ends = np.cumsum((p, m, 1, p)).tolist()
        self.cols = dict(zip(("y", "u", "r", "y_next"), map(slice, [0, *ends], ends)))
        self.rows = np.empty((1, ends[-1]))
        self.starts, self.loops = np.zeros(1, np.int64), np.zeros(1, bool)
        self.pushes = 0
        # w and w' as entries (slots back * slot width + column) of the window
        # of slots a transition reaches back; w' is w one slot nearer, its
        # newest output the slot's y_next
        back, col = window_index(p, m, delay_steps, h)
        entries = np.stack([back, back - 1]) * ends[-1] + col
        split_extended_state(entries[1], p, m, h)[0][0] = np.arange(*ends[2:])
        # fixed by the arguments, so no part of the state a snapshot holds
        self.layout = np.arange(self.window + 1), entries

    def __len__(self):
        return min(self.pushes, self.capacity)

    def push(self, y, u, r: float, y_next, *, first: bool, loop: bool = False):
        """Store (w, u, r, w') by the newest outputs y of w and y_next of w';
        `first` marks an episode's first transition, `loop` the self-loop."""
        n, ring = self.pushes, self.capacity + self.window
        i = n % ring
        if i == len(self.rows):
            size = min(2 * i, ring)
            for name in ("rows", "starts", "loops"):
                old = getattr(self, name)
                setattr(self, name, np.empty((size, *old.shape[1:]), old.dtype))
                getattr(self, name)[:i] = old
        row, cols = self.rows[i], self.cols
        row[cols["y"]], row[cols["u"]], row[cols["r"]], row[cols["y_next"]] = (
            y, u, r, y_next)
        self.starts[i] = n if first else self.starts[i - 1]
        self.loops[i] = loop
        self.pushes += 1

    def sample(self, rng: np.random.Generator, n: int):
        """(w, u, r, w') of n distinct transitions, rebuilt as fresh arrays."""
        if n > len(self):
            raise ValueError(f"cannot sample {n} of {len(self)} transitions")
        pos = rng.choice(len(self), size=n, replace=False)
        pushed = self.pushes - 1 - (self.pushes - 1 - pos) % self.capacity
        slots = pushed % (self.capacity + self.window)
        age = (pushed - self.starts[slots])[:, None]
        # the `window` slots back, clipped at the episode's first, whose y pads
        # the outputs (earlier inputs are zero); only a full ring wraps back
        back, entries = self.layout
        held = self.rows.take(slots[:, None] - np.minimum(back, age), axis=0)
        np.copyto(held[:, :, self.cols["u"]], 0.0, where=(back > age)[:, :, None])
        w, w_next = held.reshape(n, -1).take(entries, axis=1).transpose(1, 0, 2).copy()
        np.copyto(w_next, w, where=self.loops[slots][:, None])
        return w, held[:, 0, self.cols["u"]], held[:, 0, self.cols["r"]][:, 0], w_next


class OrnsteinUhlenbeck:
    """Euler-Maruyama mean-reverting process around zero."""

    def __init__(self, dim: int, theta: float, sigma: float):
        self.theta = theta
        self.sigma = sigma
        self.state = np.zeros(dim)

    def step(self, dt: float, rng: np.random.Generator) -> np.ndarray:
        if dt <= 0:
            raise ValueError("dt must be positive")
        kick = self.sigma * math.sqrt(dt) * rng.standard_normal(self.state.shape)
        self.state = self.state - self.theta * self.state * dt + kick
        return self.state.copy()


def noise_scale(cfg, episode: int) -> float:
    """Full cfg.noise_scale through cfg.noise_decay_start, then linear decay
    to cfg.noise_scale_final at the final episode, cfg.episodes."""
    start, scale = cfg.noise_decay_start, cfg.noise_scale
    if episode <= start or cfg.episodes <= start:
        return float(scale)
    frac = (episode - start) / (cfg.episodes - start)
    return scale + (cfg.noise_scale_final - scale) * frac


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


def transition_reward(w: np.ndarray, u, w_next: np.ndarray,
                      output_history_len: int) -> float:
    """Composite reward, a pure function of (w, u, w').

    The output dimension is the sensor's, the input dimension u's. The
    value is the sum, in this order, of `change_penalty` on the newest
    output step (w' against w), `output_steps_penalty` on the steps inside
    the output block of w and `input_steps_penalty` on the steps of u put
    before the input block of w.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = OUTPUT_DIM
    outputs, inputs = split_extended_state(w, p, u.size, output_history_len)
    y_next = np.asarray(w_next[:p], dtype=float)
    if y_next.shape != (p,):
        raise DimensionError("output dimensions do not match the sensor")
    if outputs.shape[0] < 2 or inputs.shape[0] < 1:
        raise DimensionError("extended state holds too few outputs or inputs")
    # consecutive differences of (u, inputs...): row 0 is u - inputs[0]
    input_steps = np.empty(inputs.shape)
    np.subtract(u, inputs[0], out=input_steps[0])
    np.subtract(inputs[:-1], inputs[1:], out=input_steps[1:])
    return (float(change_penalty(y_next - outputs[0], u))
            + float(output_steps_penalty(outputs[:-1] - outputs[1:]))
            + float(input_steps_penalty(input_steps)))


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
    inputs: np.ndarray  # the input issued at each of those instants, one a row
    diverged_at: float | None = None

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    def reward_sum_from(self, start: int = METRIC_START) -> float:
        # a divergence penalty (the last reward) counts even before `start`;
        # Python's sequential sum: np.sum is pairwise, with other last bits
        if self.diverged:
            start = min(start, len(self.rewards) - 1)
        return float(sum(self.rewards[start:]))


def run_episode(net: MlpNetwork, cfg, *, x0, rng: np.random.Generator,
                noise_scale: float | None = None,
                replay: ReplayMemory | None = None, on_step=None) -> EpisodeResult:
    """Simulate one episode of the delayed closed loop.

    The k-th sensed output y_k reaches the controller at its clamped arrival
    max(t_k + sensor-to-controller delay, previous arrival), which is all of
    that link: the controller always acts on y_k itself. It writes y_k into
    instant k's row of the episode's [y | u] table and reads w_k from the
    table as one gather by `window_index`; the pad rows ahead of instant 0
    read y_0 and zero input. It then scores and stores the previous
    transition, evaluates the policy (plus exploration noise times
    `noise_scale` when that is given) and writes the input into its row.
    The input reaches the plant at its own clamped arrival, max(controller
    arrival + controller-to-plant delay, previous arrival), which the log's
    nondecreasing `plant_arrival` column holds. Each instant integrates the
    plant from the previous one over the inputs that have arrived since,
    t_k included, each as (arrival, its table row) in issue order; the
    plant holds the last delivered input, read from the table, and a pad
    row's zero before any. Transitions go to `replay` when one is given.
    on_step(k) fires after the k-th input is issued and the instant is
    logged; the result's `samples` are the logged rows, 0 to k, and its
    `inputs` the table's issued inputs of the same instants.

    Plant divergence ends the episode early: the final transition is a
    self-loop carrying the divergence penalty, and the log stops at the last
    completed instant.

    `cfg` is an `ExperimentConfig`, the loop's one description: the plant
    comes from its builder, the delays are drawn from its delay law
    (`sample_delay(cfg, ...)`), the sampling period is `cfg.delta`, and the
    history window is sized from the same law's bounds,
    `cfg.total_delay_steps`. The exploration noise is an
    `OrnsteinUhlenbeck` process with `cfg.ou_theta` and `cfg.ou_sigma`,
    started from zero in every episode.
    """
    plant, delta = cfg.plant(), cfg.delta
    p, m = OUTPUT_DIM, plant.input_dim
    ctrl_arrival = plant_arrival = -math.inf
    noise = (None if noise_scale is None else
             OrnsteinUhlenbeck(m, cfg.ou_theta, cfg.ou_sigma))
    back, col = window_index(p, m, cfg.total_delay_steps, cfg.output_history_len)
    # instant k's row is pad + k; w_k's entries lie at offsets + k * width
    pad, width = int(back.max()), p + m
    table = np.zeros((pad + cfg.steps_per_episode + 1, width))
    offsets = (pad - back) * width + col

    x = np.asarray(x0, dtype=float).copy()
    log = np.empty(cfg.steps_per_episode + 1,
                   dtype=episode_log_dtype(plant.state_dim, p, m))
    arrived = log["plant_arrival"]
    delivered = 0  # inputs 0 .. delivered - 1 have reached the plant
    result = EpisodeResult([], log, table[pad:, p:])

    for k in range(cfg.steps_per_episode + 1):
        t_k = k * delta

        # the inputs that have reached the plant by t_k, t_k itself included
        due = delivered + int(arrived[delivered:k].searchsorted(t_k, side="right"))
        if k > 0:
            # instant k - 1 computed the same float as its t_k, and set
            # w_prev, u_prev and y_prev; rows[0] is the held input
            rows = table[pad + delivered - 1:pad + due, p:]
            switches = list(zip(arrived[delivered:due].tolist(), rows[1:]))
            try:
                x = integrate(plant, x, rows[0], (k - 1) * delta, t_k,
                              cfg.substep, switches)
            except DivergenceError as err:
                result.diverged_at = err.time
                r = cfg.divergence_penalty
                result.rewards.append(r)
                if replay is not None:
                    replay.push(y_prev, u_prev, r, y_prev, first=(k == 1), loop=True)
                break
        delivered = due

        y_k = sense(x)
        sc_delay = sample_delay(cfg, SC, rng)
        cp_delay = sample_delay(cfg, CP, rng)
        ctrl_arrival = max(t_k + sc_delay, ctrl_arrival)

        table[pad + k, :p] = y_k
        if k == 0:  # the pad rows read y_0 and zero input
            table[:pad, :p] = y_k
        w_k = table.take(offsets + k * width)

        if k >= 1:
            r = transition_reward(w_prev, u_prev, w_k, cfg.output_history_len)
            result.rewards.append(r)
            if replay is not None:
                replay.push(y_prev, u_prev, r, y_k, first=(k == 1))

        # the greedy action is the mu head alone; V and L feed only the TD loss
        mu_k = forward(net, w_k, head="action").mu
        if noise is not None:
            u_k = mu_k + noise_scale * noise.step(delta, rng)
        else:
            u_k = mu_k.copy()
        table[pad + k, p:] = u_k
        plant_arrival = max(ctrl_arrival + cp_delay, plant_arrival)

        log[k] = (k, t_k, x, y_k, table[pad + delivered - 1, p:], sc_delay,
                  cp_delay, ctrl_arrival, plant_arrival)
        w_prev, u_prev, y_prev = w_k, u_k, y_k
        if on_step is not None:
            on_step(k)

    # a divergence at instant k stops before k is logged
    logged = k if result.diverged else k + 1
    result.samples, result.inputs = log[:logged], result.inputs[:logged]
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
    """Holds a run's state and nothing more: the networks, optimizer,
    replay memory and minibatch stream, plus its config and the update
    step's buffers. Each episode's stream and noise process are built anew.

    `cfg` is the `ExperimentConfig` it is built from, kept as `settings`:
    the networks are sized from its extended_dim, and hidden widths, tanh
    weight, seed and every training and noise value are read from it. The
    seed makes the whole run deterministic: network init, initial states,
    delays, exploration noise and minibatch choices all derive from it
    through independent child streams.
    """

    def __init__(self, cfg):
        self.settings = cfg
        dim, m = cfg.extended_dim, cfg.plant().input_dim
        net_ss, sample_ss = np.random.SeedSequence(cfg.seed).spawn(2)
        net_seed = int(net_ss.generate_state(1)[0])
        self.net = init_network([dim, *cfg.hidden], m, cfg.tanh_weight, net_seed)
        self.net.run_config = cfg.field_texts()
        self.target = self.net.copy()
        self.adam = AdamState.fresh(self.net.params.size)
        # written by every update, so one update allocates no batch trace or
        # gradient vector; a batch is always batch_size rows
        self.update_buffers = {
            "trace": ForwardTrace.empty(self.net, cfg.batch_size),
            "target_trace": ForwardTrace.empty(self.target, cfg.batch_size),
            "grad": np.empty_like(self.net.params),
        }
        self.replay = ReplayMemory(cfg.replay_capacity, OUTPUT_DIM, m,
                                   cfg.total_delay_steps, cfg.output_history_len)
        self._sample_rng = np.random.default_rng(sample_ss)

    @property
    def update_count(self) -> int:
        """Updates made so far: each makes exactly one Adam step."""
        return self.adam.step

    def _update_block(self) -> list[float]:
        """update_iters updates; returns their losses."""
        s = self.settings
        losses = []
        for _ in range(s.update_iters):
            batch = self.replay.sample(self._sample_rng, s.batch_size)
            loss, grad = batch_loss_and_grad(self.net, self.target, batch,
                                             s.gamma, **self.update_buffers)
            adam_step(self.net.params, grad, self.adam, s.learning_rate)
            soft_update(self.target.params, self.net.params, s.soft_update_rate)
            losses.append(loss)
        return losses

    def run_training_episode(self, episode: int) -> tuple[TrainRow, EpisodeResult]:
        s = self.settings
        # the seed's third child stream, split once per episode by its index
        ep_rng = np.random.default_rng(
            np.random.SeedSequence(s.seed, spawn_key=(2, episode - 1)))
        x0 = ep_rng.uniform(-s.init_box, s.init_box, size=s.plant().state_dim)
        scale = noise_scale(s, episode)
        losses = []

        def on_step(k):
            if k > 0 and k % s.update_period == 0 and len(self.replay) >= s.warmup:
                losses.extend(self._update_block())

        result = run_episode(self.net, s, x0=x0, rng=ep_rng, noise_scale=scale,
                             replay=self.replay, on_step=on_step)
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        row = TrainRow(episode, result.reward_sum_from(), mean_loss, scale, 0.0)
        return row, result

    def episodes(self):
        """Train for the configured number of episodes, yielding each one's
        (row, result) as it finishes; `seconds_elapsed` counts from the
        first episode's start. A `NumericsError` names its episode."""
        started = time.perf_counter()
        for episode in range(1, self.settings.episodes + 1):
            try:
                row, result = self.run_training_episode(episode)
            except NumericsError as exc:
                raise NumericsError(f"episode {episode}: {exc}") from exc
            row.seconds_elapsed = time.perf_counter() - started
            yield row, result
