"""Command line harness: train, eval, verify.

Every training run directory holds the resolved configuration snapshot that
produced it; feeding that snapshot back with the same seed reproduces the
learning curve (wall-clock column aside). However a `train` run stops, the
curve rows and checkpoints of its finished episodes stay; only a run that
finishes writes final.nnc.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .agent import run_episode
from .config import (ExperimentConfig, apply_overrides, format_field_texts,
                     from_field_texts, load_config)
from .errors import (CheckpointFormatError, ConfigError, DimensionError,
                     NumericsError)
from .nn import load_checkpoint, save_checkpoint
from .verify import run_suites

LEARNING_CURVE_COLUMNS = ["episode", "reward_sum_from_50th", "mean_loss",
                          "noise_scale", "seconds_elapsed"]


def _write_csv(fh, header, rows):
    """Rows of Python ints and floats, after a header if one is given, to an
    open text file; csv writes a float as its str, the shortest exact
    decimal, so the bytes are stable across runs."""
    writer = csv.writer(fh)
    if header:
        writer.writerow(header)
    writer.writerows(rows)


def write_learning_curve(fh, rows, header=True):
    """One row per episode, to an open text file, after the column header
    unless `header` is False."""
    _write_csv(fh, header and LEARNING_CURVE_COLUMNS, map(astuple, rows))


def write_trajectory(fh, samples):
    """Every field of the episode log, one row per sampling instant, to an
    open text file; a vector field spreads over numbered columns (x1, x2,
    ...)."""
    names, columns = [], []
    for name in samples.dtype.names:
        col = samples[name]
        if col.ndim == 1:
            names.append(name)
            columns.append(col.tolist())
        else:
            names += [f"{name}{i + 1}" for i in range(col.shape[1])]
            columns += col.T.tolist()
    _write_csv(fh, names, zip(*columns))


def cmd_train(args) -> int:
    if args.progress < 0:
        raise ConfigError("--progress must be >= 0")
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg = apply_overrides(cfg, seed=args.seed, episodes=args.episodes)
    # a config that cannot be built (one too large for memory, say) fails
    # before the run directory exists
    trainer = cfg.trainer()

    out_dir = Path(args.out) if args.out else (
        Path(os.environ.get("NETNAF_OUT_ROOT", "runs")) / f"train-seed{cfg.seed}")
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    # an older run's checkpoints here would pass for this run's; only the
    # names train writes are removed, nothing else in the directory
    older = ckpt_dir.glob("ep[0-9][0-9][0-9][0-9][0-9][0-9].nnc")
    for path in [out_dir / "final.nnc", *older]:
        path.unlink(missing_ok=True)
    (out_dir / "config.txt").write_text(format_field_texts(trainer.net.run_config))

    # an unwritable curve path fails before any episode runs. The file is
    # line-buffered, so the header and each row reach it as written: however
    # the run stops (an error, Ctrl-C, a kill), the finished episodes' rows
    # and due checkpoints stay. Only a finished run writes final.nnc.
    with open(out_dir / "learning_curve.csv", "w", newline="",
              buffering=1) as curve_fh:
        write_learning_curve(curve_fh, [])
        for row, _ in trainer.episodes():
            write_learning_curve(curve_fh, [row], header=False)
            episode = row.episode
            if cfg.checkpoint_every and episode % cfg.checkpoint_every == 0:
                save_checkpoint(ckpt_dir / f"ep{episode:06d}.nnc",
                                trainer.net, trainer.adam)
            if args.progress and episode % args.progress == 0:
                print(f"episode {episode}/{cfg.episodes} "
                      f"reward_sum={row.reward_sum:.2f} "
                      f"loss={row.mean_loss:.4g} noise={row.noise_scale:.3f}",
                      flush=True)
    save_checkpoint(out_dir / "final.nnc", trainer.net, trainer.adam)
    print(f"trained {cfg.episodes} episodes, artifacts in {out_dir}")
    return 0


def _check_distinct_paths(*named):
    """Reject two (flag, path) pairs that name one file, so the output is
    not written over an input. Files are keyed by device and inode, which
    follows symlinks, `..` and hard links; a path that does not exist yet
    names no input and is skipped."""
    seen = {}
    for flag, path in named:
        if not path:
            continue
        try:
            st = os.stat(path)
        except FileNotFoundError:
            continue
        key = st.st_dev, st.st_ino
        if key in seen:
            raise ConfigError(f"{flag} and {seen[key]} name the same file {path}")
        seen[key] = flag


def cmd_eval(args) -> int:
    """One noise-free rollout of a checkpoint, under the configuration it
    stores or, to change the delay law say, `--config`. That must match
    the policy's input width and the stored output history length and
    delay bound steps; a checkpoint storing none needs `--config`."""
    if args.delay_seed < 0:
        raise ConfigError("--delay-seed must be >= 0")
    ckpt_path = Path(args.checkpoint)
    out = Path(args.out) if args.out else (
        ckpt_path.parent / f"eval-seed{args.delay_seed}.csv")
    net, _ = load_checkpoint(ckpt_path)
    _check_distinct_paths(("--checkpoint", ckpt_path), ("--config", args.config),
                          ("--out", out))
    try:
        stored = None if net.run_config is None else from_field_texts(net.run_config)
    except ConfigError as exc:
        raise ConfigError(f"configuration stored in {ckpt_path}: {exc}") from exc
    if stored is None and not args.config:
        raise ConfigError(f"{ckpt_path} stores no configuration; pass --config")
    cfg = load_config(args.config) if args.config else stored
    if net.input_dim != cfg.extended_dim:
        raise DimensionError(
            f"checkpoint expects input width {net.input_dim}, configuration "
            f"implies {cfg.extended_dim}")
    # one width fits several layouts, set by the history length and delay bounds
    if stored is not None:
        trained, given = ((c.output_history_len, c.total_delay_steps)
                          for c in (stored, cfg))
        if trained != given:
            raise DimensionError(
                f"(output history length, delay bound steps) is {trained} in "
                f"the checkpoint's configuration, {given} in {args.config}")
    try:
        x0 = np.array([float(part) for part in args.init.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--init must be comma separated numbers: {exc}") from exc
    if not np.isfinite(x0).all():
        raise ConfigError(f"--init components must be finite, got {args.init}")
    plant = cfg.plant()
    if x0.shape != (plant.state_dim,):
        raise DimensionError(f"initial state needs {plant.state_dim} components")

    rng = np.random.default_rng(args.delay_seed)
    result = run_episode(net, cfg, x0=x0, rng=rng)
    # the trajectory is written whole, or no file is left behind
    fh = open(out, "w", newline="")
    try:
        with fh:
            write_trajectory(fh, result.samples)
    except BaseException:
        os.remove(out)
        raise
    status = "diverged" if result.diverged else "ok"
    print(f"eval {status}: {len(result.samples)} samples, "
          f"reward sum {result.reward_sum_from(0):.3f}, wrote {out}")
    return 0


def cmd_verify(args) -> int:
    results = run_suites()
    for res in results:
        print(json.dumps(res, sort_keys=True))
    failed = [r["suite"] for r in results if not r["ok"]]
    print(f"VERIFY {'FAIL: ' + ','.join(failed) if failed else 'PASS'}")
    return 1 if failed else 0


@functools.cache  # main() may run many times in one process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netnaf",
        description="Learn a networked controller for an unknown plant over "
                    "randomly delayed channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment")
    p_train.add_argument("--config", help="configuration file (defaults built in)")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--episodes", type=int, default=None)
    p_train.add_argument("--out", help="run directory")
    p_train.add_argument("--progress", type=int, default=0,
                         help="print a status line every N episodes")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="noise-free rollout of a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--init", required=True,
                        help="initial plant state, comma separated")
    p_eval.add_argument("--delay-seed", type=int, default=0, dest="delay_seed")
    p_eval.add_argument("--config", help="config file (default: the checkpoint's own)")
    p_eval.add_argument("--out", help="trajectory CSV path")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="run the fast invariant suites")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointFormatError, DimensionError, NumericsError,
            OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
