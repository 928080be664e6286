"""The benchmark's workloads: generated inputs, one repeat, output checks.

A repeat is a fixed amount of user-facing work that is run again and again
until the measuring window closes: one `netnaf train` call for the train
workloads, one grid of `netnaf eval` calls for eval_grid. Repeats of one
seed must produce byte-identical artifacts; an operation whose artifact
digest differs from the first repeat's counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import OP, WARMUP

# Acceptance criterion 8's smoke configuration, as a user's override file.
SMOKE_TEXT = """\
[plant]
horizon = 6.0

[delays]
sc_min = 0.0625
sc_max = 0.125
cp_min = 0.0625
cp_max = 0.125
sc_bound_steps = 2
cp_bound_steps = 2

[network]
hidden = 64,64

[training]
lr = 0.00025

[noise]
decay_start = 150
scale_final = 0.3
"""

# The paper's setup is the ExperimentConfig() default: nothing to override.
FULL_TEXT = ""

# Self-test scale: tiny network, one update per block.
QUICK_TEXT = SMOKE_TEXT.replace("hidden = 64,64", "hidden = 8,8").replace(
    "lr = 0.00025", "lr = 0.00025\niters = 1")
QUICK_EVAL_TEXT = "[plant]\nhorizon = 1.0\n"

# Set-up is timed this many times before each repeat; the median over the
# run is reported.
SETUP_PROBES = 8


class SetupReached(Exception):
    """Raised at the first episode or rollout when only set-up is timed."""


@dataclass
class OpResult:
    key: int            # same key in every repeat: episode number or grid cell
    seconds: float
    steps: int
    updates: int
    timed: bool         # False for warm-up episodes
    ok: bool
    digest: str = ""


@dataclass
class Repeat:
    ops: list = field(default_factory=list)
    error: str = ""
    replay_len: int = 0
    counts: dict = field(default_factory=dict)


def _steps(result, fallback):
    samples = getattr(result, "samples", None)
    return len(samples) if samples is not None else fallback


def _quiet_main(cli, argv):
    """Run the `netnaf` entry point with its status lines captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Hooks:
    """Op boundaries, wrapped from outside on the classes and modules that
    the entry points call through."""

    def __init__(self, netnaf, tracer):
        self.tracer = tracer
        self.probe = False
        self.keep_trainer = False
        self.trainer = None
        self.replay_len = 0
        self.episodes: list = []
        self.rollout = None
        self._patched = []
        agent, cli = netnaf.agent, netnaf.cli
        self._patch(agent.Trainer, "run_training_episode",
                    self._episode_hook(agent.Trainer.run_training_episode))
        self._patch(cli, "run_episode", self._rollout_hook(cli.run_episode))

    def _patch(self, owner, attr, fn):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def _episode_hook(self, original):
        hooks = self

        def run_training_episode(trainer, episode):
            if hooks.probe:
                raise SetupReached()
            if hooks.keep_trainer:
                hooks.trainer = trainer
            warm = len(trainer.replay) < trainer.settings.warmup
            updates = trainer.update_count
            idx = hooks.tracer.begin(WARMUP if warm else OP)
            started = perf_counter()
            try:
                row, result = original(trainer, episode)
            finally:
                seconds = perf_counter() - started
                hooks.tracer.end(idx)
            hooks.replay_len = len(trainer.replay)
            finite = math.isfinite(row.reward_sum) and math.isfinite(row.mean_loss)
            hooks.episodes.append(OpResult(
                episode, seconds,
                _steps(result, trainer.settings.steps_per_episode + 1),
                trainer.update_count - updates, not warm, warm or finite))
            return row, result

        return run_training_episode

    def _rollout_hook(self, original):
        hooks = self

        def run_episode(*args, **kwargs):
            if hooks.probe:
                raise SetupReached()
            hooks.rollout = result = original(*args, **kwargs)
            return result

        return run_episode


def file_digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()


def curve_without_wall_clock(path) -> bytes:
    """Learning curve CSV with the seconds_elapsed column dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("seconds_elapsed") if "seconds_elapsed" in rows[0] else None
    keep = [[v for i, v in enumerate(row) if i != drop] for row in rows]
    return "\n".join(",".join(row) for row in keep).encode()


class TrainWorkload:
    """`netnaf train` on a generated config; one repeat is one call."""

    def __init__(self, netnaf, hooks, text, episodes, seed, workdir):
        self.netnaf = netnaf
        self.hooks = hooks
        self.seed = seed
        self.episodes = episodes
        self.config_path = workdir / "config.ini"
        self.config_path.write_text(text)
        self.run_dir = workdir / "run"
        self.cfg = netnaf.config.load_config(self.config_path)

    def argv(self):
        return ["train", "--config", str(self.config_path), "--seed",
                str(self.seed), "--episodes", str(self.episodes),
                "--out", str(self.run_dir)]

    def probe_setup(self) -> float:
        """Seconds from the entry point to the first episode."""
        self.hooks.probe = True
        started = perf_counter()
        try:
            _quiet_main(self.netnaf.cli, self.argv())
        except SetupReached:
            return perf_counter() - started
        finally:
            self.hooks.probe = False
        raise RuntimeError("train finished without reaching an episode")

    def repeat(self) -> Repeat:
        hooks = self.hooks
        hooks.episodes = []
        rep = Repeat()
        try:
            code = _quiet_main(self.netnaf.cli, self.argv())
            if code != 0:
                rep.error = f"netnaf train exited with {code}"
        except Exception as exc:  # a failed operation is counted, not fatal
            rep.error = f"{type(exc).__name__}: {exc}"
        rep.ops = hooks.episodes
        rep.replay_len = hooks.replay_len
        digest = ""
        if not rep.error:
            rep.error = self._check_artifacts()
        if not rep.error:
            digest = file_digest(
                curve_without_wall_clock(self.run_dir / "learning_curve.csv"),
                (self.run_dir / "final.nnc").read_bytes())
        for op in rep.ops:
            op.digest = digest
            op.ok = op.ok and not rep.error
        if rep.error and not any(op.timed for op in rep.ops):
            rep.ops.append(OpResult(0, 0.0, 0, 0, True, False))
        return rep

    def _check_artifacts(self) -> str:
        with open(self.run_dir / "learning_curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != self.episodes + 1:
            return f"learning curve has {len(rows) - 1} rows, expected {self.episodes}"
        net, _ = self.netnaf.nn.load_checkpoint(self.run_dir / "final.nnc")
        if net.input_dim != self.cfg.extended_dim:
            return "final checkpoint does not match the configuration"
        return ""

    def replay_bytes_per_transition(self) -> float:
        """tracemalloc bytes freed by dropping a trainer's replay memory,
        per transition it held, after one call of warm-up episodes."""
        import gc
        import tracemalloc

        warm = math.ceil(self.cfg.warmup / self.cfg.steps_per_episode)
        argv = ["train", "--config", str(self.config_path), "--seed",
                str(self.seed), "--episodes", str(warm),
                "--out", str(self.run_dir.with_name("memory"))]
        self.hooks.keep_trainer = True
        tracemalloc.start()
        try:
            _quiet_main(self.netnaf.cli, argv)
            trainer = self.hooks.trainer
            held = len(trainer.replay)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            trainer.replay = None
            gc.collect()
            freed = before - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            self.hooks.keep_trainer = False
            self.hooks.trainer = None
        return freed / held if held else 0.0


class EvalWorkload:
    """Noise-free `netnaf eval` rollouts of an untrained, seeded checkpoint
    over a grid of initial states x delay seeds; one repeat is the grid."""

    def __init__(self, netnaf, hooks, text, grid, seed, workdir):
        self.netnaf = netnaf
        self.hooks = hooks
        cfg = netnaf.config.parse_config(text)
        cfg = netnaf.config.apply_overrides(cfg, seed=seed)
        policy = workdir / "policy"
        policy.mkdir()
        (policy / "config.txt").write_text(text)
        self.checkpoint = policy / "final.nnc"
        trainer = cfg.trainer()
        netnaf.nn.save_checkpoint(self.checkpoint, trainer.net, trainer.adam)
        self.steps = cfg.steps_per_episode + 1
        rng = np.random.default_rng(seed)
        n_init, n_delay = grid
        inits = rng.uniform(-cfg.init_box, cfg.init_box, size=(n_init, 3))
        delay_seeds = rng.integers(0, 2**31 - 1, size=n_delay)
        self.cells = [(",".join(repr(float(v)) for v in x0), int(ds))
                      for x0 in inits for ds in delay_seeds]
        self.traj_dir = workdir / "trajectories"
        self.traj_dir.mkdir()

    def argv(self, cell):
        init, delay_seed = self.cells[cell]
        return ["eval", "--checkpoint", str(self.checkpoint), f"--init={init}",
                "--delay-seed", str(delay_seed),
                "--out", str(self.traj_dir / f"cell{cell:03d}.csv")]

    def probe_setup(self) -> float:
        """Seconds from the entry point to the start of the rollout."""
        self.hooks.probe = True
        started = perf_counter()
        try:
            _quiet_main(self.netnaf.cli, self.argv(0))
        except SetupReached:
            return perf_counter() - started
        finally:
            self.hooks.probe = False
        raise RuntimeError("eval finished without starting a rollout")

    def repeat(self) -> Repeat:
        rep = Repeat()
        tracer, cli = self.hooks.tracer, self.netnaf.cli
        for cell in range(len(self.cells)):
            argv = self.argv(cell)
            self.hooks.rollout = None
            error = ""
            idx = tracer.begin(OP)
            started = perf_counter()
            try:
                code = _quiet_main(cli, argv)
            except Exception as exc:  # a failed operation is counted, not fatal
                code, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                seconds = perf_counter() - started
                tracer.end(idx)
            op = OpResult(cell, seconds, 0, 0, True, False)
            if code != 0 and not error:
                error = f"netnaf eval exited with {code}"
            if not error:
                error, op.steps, op.digest = self._check(argv[-1])
            op.ok = not error
            rep.error = rep.error or error
            rep.ops.append(op)
        return rep

    def _check(self, path):
        """(error, sampling instants, digest) of one rollout's outputs."""
        result = self.hooks.rollout
        reward = result.reward_sum_from(0)
        if not math.isfinite(reward):
            return f"non-finite reward sum {reward}", 0, ""
        data = Path(path).read_bytes()
        rows = list(csv.reader(io.StringIO(data.decode())))[1:]
        if len(rows) != self.steps:
            return f"trajectory has {len(rows)} rows, expected {self.steps}", 0, ""
        if not all(math.isfinite(float(v)) for row in rows for v in row):
            return "trajectory holds non-finite values", 0, ""
        return "", len(rows), file_digest(data)


def check_digests(repeats):
    """Mark ops whose digest differs from the first repeat's for the same
    key as failed."""
    first: dict = {}
    for rep in repeats:
        for op in rep.ops:
            if not op.ok:
                continue
            ref = first.setdefault(op.key, op.digest)
            if op.digest != ref:
                op.ok = False


def tail(values):
    """(value, percentile, n): the highest nearest-rank percentile with at
    least ten operations beyond it; with fewer than twenty operations no
    such percentile reaches the median, and the median rank is used."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return 0.0, 0.0, 0
    rank = max(n - 10, (n + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / n, n


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0
