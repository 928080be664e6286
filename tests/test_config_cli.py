import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netnaf import cli, nn
from netnaf.agent import Trainer
from netnaf.cli import main
from netnaf.config import (ExperimentConfig, apply_overrides, format_field_texts,
                           from_field_texts, load_config, parse_config)
from netnaf.errors import ConfigError
from netnaf.plant import ChuaCircuit, integrate


SMALL_CONFIG = """
[plant]
horizon = 1.0

[network]
hidden = 8,8

[training]
episodes = 3
batch = 4
warmup = 4
iters = 1
checkpoint_every = 2
"""


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def rows_without_wall_clock(path):
    """Learning-curve rows minus the wall-time column (the only
    nondeterministic field)."""
    return [row[:-1] for row in read_csv(path)]


def config_text(cfg):
    """The text form of a config, as `config.txt` holds it."""
    return format_field_texts(cfg.field_texts())


# ---------------------------------------------------------------------------
# configuration


def test_defaults_match_reference_experiment():
    cfg = ExperimentConfig()
    assert cfg.delta == 2.0 ** -4
    assert cfg.gamma == 0.99
    assert cfg.soft_update_rate == 0.001
    assert cfg.batch_size == 128
    assert cfg.update_iters == 10
    assert cfg.update_period == 4
    assert cfg.learning_rate == 1.25e-5
    assert cfg.delay_model().total_delay_steps == 8
    assert cfg.output_history_len == 4
    assert cfg.hidden == (128, 128, 128, 128)
    assert cfg.replay_capacity == 10 ** 6
    assert cfg.horizon == 12.0
    assert cfg.steps_per_episode == 192
    assert cfg.init_box == 4.5
    assert cfg.noise_scale == 3.5
    assert cfg.noise_decay_start == 1000
    assert cfg.episodes == 8500
    assert cfg.sc_min == cfg.delta and cfg.sc_max == 3 * cfg.delta
    assert cfg.extended_dim == 22


def test_config_text_roundtrip():
    cfg = ExperimentConfig()
    again = parse_config(config_text(cfg))
    assert again == cfg
    assert config_text(again) == config_text(cfg)


def test_default_snapshot_bytes_are_pinned():
    text = config_text(ExperimentConfig()).encode()
    assert len(text) == 623
    assert hashlib.sha256(text).hexdigest() == (
        "eafc731ab5e1177c21c2c8d62782fcd8e3e964a2306e6692c2ee5af8408cbb5d")


def test_every_setting_roundtrips_under_its_own_key():
    """Each field at a valid value other than its default, so a key read
    into the wrong field cannot pass. `plant_name` has one valid value."""
    cfg = ExperimentConfig(
        p1=9.5, p2=14.0, delta=0.125, horizon=2.0, substep=2.0 ** -6,
        init_box=3.0, delay_distribution="grid", sc_min=0.125, sc_max=0.25,
        cp_min=0.0, cp_max=0.375, sc_bound_steps=3, cp_bound_steps=5,
        hidden=(16, 8, 4), tanh_weight=2.5, output_history_len=2, episodes=7,
        gamma=0.95, soft_update_rate=0.01, batch_size=16, update_iters=3,
        update_period=2, learning_rate=1e-4, replay_capacity=5000, warmup=32,
        divergence_penalty=-500.0, checkpoint_every=3, ou_theta=0.3,
        ou_sigma=0.1, noise_scale=2.0, noise_decay_start=4,
        noise_scale_final=0.1, seed=11)
    default = ExperimentConfig()
    changed = [f.name for f in dataclasses.fields(cfg)
               if getattr(cfg, f.name) != getattr(default, f.name)]
    assert len(changed) == len(dataclasses.fields(cfg)) - 1 == 33
    text = config_text(cfg)
    assert parse_config(text) == cfg
    assert from_field_texts(cfg.field_texts()) == cfg
    pairs, section = [], None
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        elif line:
            pairs.append((section, line.split(" = ")[0]))
    assert len(set(pairs)) == len(pairs) == 34
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "be52cfaa39404715a837fc9e069f208397b06d2a1f3e01dfdb87a3cd57bf4e68")


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.hidden == (64, 64)
    assert cfg.episodes == 300
    assert cfg.learning_rate == 0.00025


def test_partial_config_overrides_defaults():
    cfg = parse_config(SMALL_CONFIG)
    assert cfg.horizon == 1.0
    assert cfg.hidden == (8, 8)
    assert cfg.episodes == 3
    assert cfg.gamma == 0.99  # untouched default


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[training]\nepisodess = 10\n")


def test_unknown_section_is_hard_error():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[trainin]\nepisodes = 10\n")


def test_bad_value_is_hard_error():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("[training]\nepisodes = many\n")
    for hidden in ("64,,64", "64, ,64,"):
        with pytest.raises(ConfigError, match=r"bad value for \[network\] hidden"):
            parse_config(f"[network]\nhidden = {hidden}\n")


def test_invalid_combinations_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(horizon=1.01)  # not a whole number of periods
    for horizon, delta in ((1e308, 2.0 ** -4), (12.0, 1e-320)):
        with pytest.raises(ConfigError, match="whole number"):  # overflows
            ExperimentConfig(horizon=horizon, delta=delta)
    with pytest.raises(ConfigError):
        ExperimentConfig(sc_max=10.0)  # beyond declared bound
    with pytest.raises(ConfigError):
        ExperimentConfig(plant_name="lorenz")
    with pytest.raises(ConfigError):
        ExperimentConfig(output_history_len=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(gamma=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(episodes=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(replay_capacity=64, warmup=128)  # updates never start
    with pytest.raises(ConfigError):
        ExperimentConfig(ou_theta=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(ou_sigma=-0.2)
    with pytest.raises(ConfigError):
        ExperimentConfig(checkpoint_every=-2)  # would checkpoint every 2nd episode
    with pytest.raises(ConfigError, match="init_box"):
        ExperimentConfig(init_box=-1.0)  # numpy's uniform would refuse it
    with pytest.raises(ConfigError, match="divergence penalty"):
        ExperimentConfig(divergence_penalty=1000.0)  # diverging would pay
    # a fixed initial state and a zero penalty stay valid
    ExperimentConfig(init_box=0.0, divergence_penalty=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1)  # SeedSequence rejects it
    with pytest.raises(ConfigError, match="soft update rate"):
        ExperimentConfig(soft_update_rate=0.0)
    with pytest.raises(ConfigError, match="batch size"):
        ExperimentConfig(batch_size=0)
    with pytest.raises(ConfigError, match="warmup"):
        ExperimentConfig(batch_size=256)  # more than warmup = 128
    with pytest.raises(ConfigError, match="update cadence"):
        ExperimentConfig(update_period=0)
    with pytest.raises(ConfigError, match="update cadence"):
        ExperimentConfig(update_iters=-1)
    for lr in (-1.0, 0.0, float("nan")):  # Adam would climb the loss
        with pytest.raises(ConfigError, match="learning"):
            ExperimentConfig(learning_rate=lr)
    for name, value in (("tanh_weight", float("nan")), ("p1", float("nan")),
                        ("init_box", float("nan")),
                        ("noise_scale", float("nan")),
                        ("divergence_penalty", float("-inf"))):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            ExperimentConfig(**{name: value})


def test_config_is_frozen():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.gamma = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.hidden = (8, 8)
    assert cfg == ExperimentConfig()


def test_apply_overrides():
    cfg = ExperimentConfig()
    cfg2 = apply_overrides(cfg, seed=9, episodes=10)
    assert cfg2.seed == 9 and cfg2.episodes == 10
    assert cfg.seed == 0  # original untouched
    assert apply_overrides(cfg, seed=None).seed == 0
    with pytest.raises(ConfigError):
        apply_overrides(cfg, nonsense=1)


# ---------------------------------------------------------------------------
# train command


@pytest.fixture()
def small_run(tmp_path):
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    return out


def test_train_writes_expected_artifacts(small_run):
    assert (small_run / "config.txt").is_file()
    assert (small_run / "learning_curve.csv").is_file()
    assert (small_run / "final.nnc").is_file()
    assert (small_run / "checkpoints" / "ep000002.nnc").is_file()


def test_train_learning_curve_rows(small_run):
    rows = read_csv(small_run / "learning_curve.csv")
    assert rows[0] == ["episode", "reward_sum_from_50th", "mean_loss",
                       "noise_scale", "seconds_elapsed"]
    assert len(rows) == 1 + 3
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]


def test_train_snapshot_records_overrides(small_run):
    snap = load_config(small_run / "config.txt")
    assert snap.seed == 5
    assert snap.episodes == 3


def test_train_same_seed_reproduces_curve(small_run, tmp_path):
    out2 = tmp_path / "run2"
    # re-feed the resolved snapshot, as a fresh run
    code = main(["train", "--config", str(small_run / "config.txt"),
                 "--out", str(out2)])
    assert code == 0
    assert (rows_without_wall_clock(small_run / "learning_curve.csv")
            == rows_without_wall_clock(out2 / "learning_curve.csv"))
    assert ((small_run / "final.nnc").read_bytes()
            == (out2 / "final.nnc").read_bytes())


def test_train_identical_across_blas_threads(tmp_path):
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "netnaf.cli", "train", "--config",
             str(cfg_path), "--seed", "3", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(out)
    a, b = runs
    assert (rows_without_wall_clock(a / "learning_curve.csv")
            == rows_without_wall_clock(b / "learning_curve.csv"))
    assert (a / "final.nnc").read_bytes() == (b / "final.nnc").read_bytes()


def test_train_and_eval_outputs_are_pinned(tmp_path):
    """A refactor keeps every output byte: the curve minus its wall clock,
    the final checkpoint, and an eval's trajectory and delay trace. Like
    test_checkpoint_bytes_are_pinned, the hashes hold for IEEE doubles under
    numpy's own kernels; another libm or BLAS may move the last bits."""
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--seed", "3",
                 "--out", str(run)]) == 0
    traj, trace = tmp_path / "traj.csv", tmp_path / "trace.csv"
    assert main(["eval", "--checkpoint", str(run / "final.nnc"),
                 "--init=0.5,-0.2,0.1", "--delay-seed", "3", "--out", str(traj),
                 "--delay-trace", str(trace)]) == 0
    curve = "\n".join(",".join(row) for row in
                      rows_without_wall_clock(run / "learning_curve.csv"))
    digests = [hashlib.sha256(data).hexdigest() for data in (
        curve.encode(), (run / "final.nnc").read_bytes(), traj.read_bytes(),
        trace.read_bytes())]
    assert digests == [
        "b887ea4cde53d75778eea621cb66907189cee83ae470a738308e456cd37bd69c",
        "419a431f84290cff8dca545b03c5039423486b89102e68c9c79669b912fbd6f9",
        "c6cb85c76f0110afb383d132a357417b909fb0df2ba187426bd914bb56228681",
        "daf5ff5cbd22cca375d6e197f60a0b17c71876240f26321da328abdc1a16d4be"]


GRID_LAW_CONFIG = SMALL_CONFIG.replace("episodes = 3\n", "").replace(
    "warmup = 4\n", "").replace("checkpoint_every = 2\n", "") + """\
episodes = 30
warmup = 8
replay = 40
checkpoint_every = 10

[delays]
distribution = grid
sc_min = 0.0
sc_max = 0.125
cp_min = 0.0625
cp_max = 0.1875
sc_bound_steps = 2
cp_bound_steps = 3
"""


def test_grid_law_train_and_eval_outputs_are_pinned(tmp_path):
    """The same pin under the grid law, whose replay wraps: every arrival
    lands on a sampling instant and many clamp onto the one before, so the
    hashes hold the closed delivery boundary and the tie rule."""
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(GRID_LAW_CONFIG)
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--seed", "3",
                 "--out", str(run)]) == 0
    traj, trace = tmp_path / "traj.csv", tmp_path / "trace.csv"
    assert main(["eval", "--checkpoint", str(run / "final.nnc"),
                 "--init=0.5,-0.2,0.1", "--delay-seed", "3", "--out", str(traj),
                 "--delay-trace", str(trace)]) == 0
    curve = "\n".join(",".join(row) for row in
                      rows_without_wall_clock(run / "learning_curve.csv"))
    assert len(curve.splitlines()) == 1 + 30
    digests = [hashlib.sha256(data).hexdigest() for data in (
        curve.encode(), (run / "final.nnc").read_bytes(), traj.read_bytes(),
        trace.read_bytes())]
    assert digests == [
        "64c0756667dbeb2e241625aa585265ef56f69bac295be17239bbd6e3ed301fdf",
        "14386dc78fe85cceb4c6ee6259ef105ba5c3de1814e7d902df1c85818e45065d",
        "7e468c2fa5d3690b695da1dccd44b93720300caad418bc1a75af9c9c67b96514",
        "7848488752504366ce1c9fe0e9b8dbac5e914b731cb16c2aec336a064cfde3c7"]


def test_train_episode_override_changes_row_count(tmp_path):
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)
    out = tmp_path / "ten"
    code = main(["train", "--config", str(cfg_path), "--episodes", "2",
                 "--out", str(out)])
    assert code == 0
    assert len(read_csv(out / "learning_curve.csv")) == 1 + 2


def test_train_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text("[training]\nepisodess = 1\n")
    code = main(["train", "--config", str(cfg_path)])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line, extra, reason", [
    ("gamma = 1.5", [], "gamma"),
    ("replay = 0", [], "replay capacity"),
    ("replay = 3", [], "replay capacity"),  # below warmup = 4
    ("", ["--episodes", "0"], "episodes"),
    ("checkpoint_every = -2", [], "checkpoint_every"),
    ("[noise]\ntheta = -0.1", [], "theta and sigma"),
    ("[noise]\nsigma = -0.2", [], "theta and sigma"),
    ("", ["--seed", "-1"], "seed"),
    ("[run]\nseed = -1", [], "seed"),
    ("lr = -1.0", [], "learning rate"),
    ("[noise]\nscale = nan", [], "noise_scale must be finite"),
    ("divergence_penalty = 1000.0", [], "divergence penalty must be <= 0"),
], ids=["gamma", "replay_zero", "replay_below_warmup", "zero_episodes",
        "negative_checkpoint_every", "negative_noise_theta",
        "negative_noise_sigma", "negative_seed_flag", "negative_seed_key",
        "negative_learning_rate", "nan_noise_scale",
        "positive_divergence_penalty"])
def test_train_rejects_bad_training_settings(tmp_path, capsys, line, extra,
                                             reason):
    cfg_path = tmp_path / "exp.txt"
    # the line takes the place of the last [training] key
    cfg_path.write_text(SMALL_CONFIG.replace("checkpoint_every = 2\n",
                                             line + "\n"))
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out), *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("after, line, reason", [
    ("horizon = 1.0", "p1 = -1", "circuit parameters must be positive"),
    ("horizon = 1.0", "p1 = nan", "p1 must be finite"),
    ("horizon = 1.0", "init_box = nan", "init_box must be finite"),
    ("horizon = 1.0", "init_box = -1.0", "init_box must be >= 0"),
    ("hidden = 8,8", "tanh_weight = nan", "tanh_weight must be finite"),
], ids=["negative_p1", "nan_p1", "nan_init_box", "negative_init_box",
        "nan_tanh_weight"])
def test_train_rejects_bad_plant_and_network_settings(tmp_path, capsys, after,
                                                      line, reason):
    cfg_path = tmp_path / "exp.txt"
    # the line joins the section that already holds `after`
    cfg_path.write_text(SMALL_CONFIG.replace(after + "\n",
                                             f"{after}\n{line}\n"))
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("progress", ["-1", "-3"])
def test_train_rejects_a_negative_progress(tmp_path, capsys, progress):
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--progress", progress])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--progress" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_train_config_too_large_to_build_leaves_no_run_directory(tmp_path,
                                                                 capsys):
    # a valid delay bound whose extended state is far larger than any
    # address space: the first allocation fails at once, committing nothing
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG
                        + "\n[delays]\nsc_bound_steps = 10000000000000\n")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not out.exists()


def test_train_unwritable_curve_fails_before_training(tmp_path, capsys):
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)
    out = tmp_path / "run"
    (out / "learning_curve.csv").mkdir(parents=True)
    code = main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--progress", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "episode" not in captured.out
    assert not any((out / "checkpoints").iterdir())
    assert not (out / "final.nnc").exists()


def test_train_failed_curve_write_keeps_the_written_rows(tmp_path, monkeypatch,
                                                         capsys):
    write = cli.write_learning_curve

    def full_disk_at_episode_2(fh, rows, header=True):
        if any(row.episode == 2 for row in rows):
            raise OSError("No space left on device")
        write(fh, rows, header)

    monkeypatch.setattr(cli, "write_learning_curve", full_disk_at_episode_2)
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    rows = read_csv(out / "learning_curve.csv")
    assert rows[0] == cli.LEARNING_CURVE_COLUMNS
    assert [row[0] for row in rows[1:]] == ["1"]
    # episode 2's checkpoint is due only once its row is written
    assert not any((out / "checkpoints").iterdir())
    assert not (out / "final.nnc").exists()


def test_train_interrupt_keeps_the_completed_episodes(tmp_path, monkeypatch):
    run_training_episode = Trainer.run_training_episode

    def interrupted_at_episode_3(trainer, episode):
        if episode == 3:
            raise KeyboardInterrupt
        return run_training_episode(trainer, episode)

    monkeypatch.setattr(Trainer, "run_training_episode",
                        interrupted_at_episode_3)
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)  # a checkpoint every 2 episodes
    out = tmp_path / "run"
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert (out / "config.txt").is_file()
    rows = read_csv(out / "learning_curve.csv")
    assert rows[0] == cli.LEARNING_CURVE_COLUMNS
    assert [row[0] for row in rows[1:]] == ["1", "2"]
    assert [p.name for p in (out / "checkpoints").iterdir()] == ["ep000002.nnc"]
    assert not (out / "final.nnc").exists()


def test_train_removes_an_older_runs_checkpoints(tmp_path, monkeypatch):
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG.replace("checkpoint_every = 2",
                                             "checkpoint_every = 1"))
    out = tmp_path / "run"
    argv = ["train", "--config", str(cfg_path), "--out", str(out)]
    assert main([*argv, "--seed", "0"]) == 0
    assert (out / "final.nnc").is_file()
    keep = [out / "notes.txt", out / "checkpoints" / "ep1.nnc",
            out / "checkpoints" / "final.nnc"]
    for path in keep:
        path.write_text("not written by train")

    run_training_episode = Trainer.run_training_episode

    def interrupted_at_episode_2(trainer, episode):
        if episode == 2:
            raise KeyboardInterrupt
        return run_training_episode(trainer, episode)

    monkeypatch.setattr(Trainer, "run_training_episode",
                        interrupted_at_episode_2)
    with pytest.raises(KeyboardInterrupt):
        main([*argv, "--seed", "9"])
    assert "seed = 9" in (out / "config.txt").read_text()
    assert [row[0] for row in read_csv(out / "learning_curve.csv")[1:]] == ["1"]
    assert not (out / "final.nnc").exists()
    assert sorted(p.name for p in (out / "checkpoints").glob("ep??????.nnc")) \
        == ["ep000001.nnc"]
    # only the names train writes are removed
    assert all(path.read_text() == "not written by train" for path in keep)


def test_train_curve_holds_each_row_once_its_episode_ends(tmp_path,
                                                          monkeypatch):
    out = tmp_path / "run"
    run_training_episode = Trainer.run_training_episode
    on_disk = []

    def reading_the_curve(trainer, episode):
        on_disk.append(read_csv(out / "learning_curve.csv"))
        return run_training_episode(trainer, episode)

    monkeypatch.setattr(Trainer, "run_training_episode", reading_the_curve)
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    final = read_csv(out / "learning_curve.csv")
    assert final[0] == cli.LEARNING_CURVE_COLUMNS
    # while episode N runs, the file holds the header and N - 1 rows
    assert on_disk == [final[:1], final[:2], final[:3]]


def test_train_progress_prints_every_nth_episode(tmp_path, capsys):
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)
    code = main(["train", "--config", str(cfg_path), "--out",
                 str(tmp_path / "run"), "--progress", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    status = [line for line in lines if line.startswith("episode ")]
    assert len(status) == 1 and status[0].startswith("episode 2/3 ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_nonfinite_numerics_report_error(tmp_path, capsys):
    cfg_path = tmp_path / "exp.txt"
    # a step this large sends the weights past float range in a few updates
    cfg_path.write_text(SMALL_CONFIG + "lr = 1e100\n")
    code = main(["train", "--config", str(cfg_path), "--out",
                 str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numerics_failure_keeps_the_completed_curve(tmp_path, capsys):
    cfg_path = tmp_path / "exp.txt"
    # updates start in episode 2 (a 1 s episode holds 16 transitions), and
    # a step this large makes its gradients non-finite
    cfg_path.write_text(SMALL_CONFIG.replace("warmup = 4", "warmup = 20")
                        + "lr = 1e100\n")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: episode 2: ") and "non-finite" in err
    rows = read_csv(out / "learning_curve.csv")
    assert rows[0] == cli.LEARNING_CURVE_COLUMNS
    assert [row[0] for row in rows[1:]] == ["1"]
    assert not (out / "final.nnc").exists()


# ---------------------------------------------------------------------------
# eval command


def test_eval_logs_requested_initial_state(small_run, tmp_path):
    out_csv = tmp_path / "traj.csv"
    trace_csv = tmp_path / "delays.csv"
    code = main(["eval", "--checkpoint", str(small_run / "final.nnc"),
                 "--init=-0.2,0.1,-0.1", "--delay-seed", "3",
                 "--out", str(out_csv), "--delay-trace", str(trace_csv)])
    assert code == 0
    rows = read_csv(out_csv)
    assert rows[0][:5] == ["k", "t", "x1", "x2", "x3"]
    assert [float(v) for v in rows[1][2:5]] == [-0.2, 0.1, -0.1]
    assert len(rows) == 1 + 17  # horizon 1.0 at delta 2^-4
    trace = read_csv(trace_csv)
    assert trace[0] == ["k", "t_sent", "tau_sc", "tau_cp", "ctrl_arrival",
                        "plant_arrival"]
    assert len(trace) == 1 + 17
    # the delay trace is the trajectory's k, t and delay columns, verbatim
    cols = [rows[0].index(name) for name in
            ("k", "t", "tau_sc", "tau_cp", "ctrl_arrival", "plant_arrival")]
    assert trace[1:] == [[row[i] for i in cols] for row in rows[1:]]


def test_eval_diverged_rollout_logs_completed_instants_only(small_run, tmp_path,
                                                           capsys):
    out_csv = tmp_path / "traj.csv"
    trace_csv = tmp_path / "delays.csv"
    code = main(["eval", "--checkpoint", str(small_run / "final.nnc"),
                 "--init=1e5,0,0", "--out", str(out_csv),
                 "--delay-trace", str(trace_csv)])
    assert code == 0
    assert "eval diverged: 1 samples" in capsys.readouterr().out
    for path in (out_csv, trace_csv):
        rows = read_csv(path)
        assert len(rows) == 1 + 1  # header and instant 0; t = delta diverged
        assert all(np.isfinite(float(v)) for v in rows[1])


def test_eval_second_initial_state(small_run, tmp_path):
    out_csv = tmp_path / "traj2.csv"
    code = main(["eval", "--checkpoint", str(small_run / "final.nnc"),
                 "--init", "2.0,-1.0,1.0", "--out", str(out_csv)])
    assert code == 0
    rows = read_csv(out_csv)
    assert [float(v) for v in rows[1][2:5]] == [2.0, -1.0, 1.0]


def test_eval_config_under_another_delay_law(small_run, tmp_path):
    # the grid law keeps the run's delay bounds, so its checkpoint still fits
    grid_cfg = tmp_path / "grid.txt"
    grid_cfg.write_text(config_text(apply_overrides(
        load_config(small_run / "config.txt"), delay_distribution="grid")))
    rollouts = {}
    for law, extra in (("uniform", []), ("grid", ["--config", str(grid_cfg)])):
        out_csv, trace_csv = tmp_path / f"{law}.csv", tmp_path / f"{law}-d.csv"
        code = main(["eval", "--checkpoint", str(small_run / "final.nnc"),
                     "--init", "0.5,-0.2,0.1", "--delay-seed", "3",
                     "--out", str(out_csv), "--delay-trace", str(trace_csv),
                     *extra])
        assert code == 0
        rollouts[law] = read_csv(out_csv), read_csv(trace_csv)
    rows, trace = rollouts["grid"]
    delta = load_config(grid_cfg).delta
    taus = [float(v) / delta for row in trace[1:]
            for v in row[trace[0].index("tau_sc"):trace[0].index("tau_cp") + 1]]
    assert len(taus) == 2 * 17 and taus == [round(v) for v in taus]
    assert rows[0] == rollouts["uniform"][0][0]
    assert rows[1:] != rollouts["uniform"][0][1:]


def test_eval_zero_weight_checkpoint_matches_uncontrolled(tmp_path):
    # zero delays, so the loop splits integration windows exactly like the
    # free-running reference
    cfg = parse_config(SMALL_CONFIG + "\n[delays]\nsc_min = 0.0\nsc_max = 0.0\n"
                       "cp_min = 0.0\ncp_max = 0.0\n"
                       "sc_bound_steps = 0\ncp_bound_steps = 0\n")
    dim = cfg.extended_dim
    net = nn.init_network([dim, *cfg.hidden], 1, cfg.tanh_weight, 0)
    net.params[:] = 0.0
    net.run_config = cfg.field_texts()
    run = tmp_path / "zero"
    run.mkdir()
    nn.save_checkpoint(run / "zero.nnc", net,
                       nn.AdamState.fresh(net.params.size))
    out_csv = tmp_path / "traj.csv"
    code = main(["eval", "--checkpoint", str(run / "zero.nnc"),
                 "--init", "2.0,-1.0,1.0", "--out", str(out_csv)])
    assert code == 0
    rows = read_csv(out_csv)
    states = np.array([[float(v) for v in r[2:5]] for r in rows[1:]])
    free = integrate(ChuaCircuit(), np.array([2.0, -1.0, 1.0]),
                     np.zeros(1), 0.0, 1.0, cfg.substep)
    assert np.abs(states[-1] - free).max() <= 1e-12


def test_eval_dimension_mismatch_fails(small_run, tmp_path, capsys):
    other = ExperimentConfig(output_history_len=6)
    bad_cfg = tmp_path / "bad.txt"
    bad_cfg.write_text(config_text(other))
    code = main(["eval", "--checkpoint", str(small_run / "final.nnc"),
                 "--init", "0,0,0", "--config", str(bad_cfg)])
    assert code == 1
    assert "input width" in capsys.readouterr().err


def test_eval_rejects_a_config_of_another_layout(small_run, tmp_path, capsys):
    # as wide as the run's 22, but 6 outputs and 10 inputs where the run
    # has 5 and 12: a rollout would read outputs as inputs
    other = apply_overrides(load_config(small_run / "config.txt"),
                            output_history_len=5, sc_bound_steps=3,
                            cp_bound_steps=2, cp_max=0.125)
    assert other.extended_dim == 22
    other_cfg = tmp_path / "other.txt"
    other_cfg.write_text(config_text(other))
    out_csv, trace_csv = tmp_path / "traj.csv", tmp_path / "trace.csv"
    args = ["--init", "0.5,-0.2,0.1", "--config", str(other_cfg),
            "--out", str(out_csv), "--delay-trace", str(trace_csv)]
    # the checkpoint's stored configuration is checked, wherever it lies
    lonely = tmp_path / "lonely.nnc"
    lonely.write_bytes((small_run / "final.nnc").read_bytes())
    for ckpt in (small_run / "final.nnc", lonely):
        code = main(["eval", "--checkpoint", str(ckpt), *args])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(4, 8)" in err and "(5, 5)" in err
        assert not out_csv.exists() and not trace_csv.exists()


def test_eval_works_on_a_checkpoint_copied_away_from_its_run(small_run,
                                                             tmp_path):
    away = tmp_path / "away"
    away.mkdir()
    (away / "final.nnc").write_bytes((small_run / "final.nnc").read_bytes())
    outputs = []
    for ckpt in (small_run / "final.nnc", away / "final.nnc"):
        out_csv, trace_csv = ckpt.with_suffix(".csv"), ckpt.with_suffix(".d.csv")
        code = main(["eval", "--checkpoint", str(ckpt), "--init", "0.5,-0.2,0.1",
                     "--delay-seed", "3", "--out", str(out_csv),
                     "--delay-trace", str(trace_csv)])
        assert code == 0
        outputs.append((out_csv.read_bytes(), trace_csv.read_bytes()))
    assert outputs[0] == outputs[1]
    assert sorted(p.name for p in away.iterdir()) == [
        "final.csv", "final.d.csv", "final.nnc"]


def test_eval_reads_a_policy_saved_the_way_the_benchmark_saves_it(tmp_path):
    # perfbench's eval_grid saves cfg.trainer()'s net and Adam and runs eval
    # with no --config; the rollout must last the stored horizon
    cfg = parse_config("[plant]\nhorizon = 1.0\n")
    trainer = cfg.trainer()
    path = tmp_path / "policy" / "final.nnc"
    path.parent.mkdir()
    nn.save_checkpoint(path, trainer.net, trainer.adam)
    net, _ = nn.load_checkpoint(path)
    assert net.run_config == cfg.field_texts()
    out_csv = tmp_path / "traj.csv"
    code = main(["eval", "--checkpoint", str(path), "--init", "0.5,-0.2,0.1",
                 "--out", str(out_csv)])
    assert code == 0
    assert len(read_csv(out_csv)) == 1 + 17


@pytest.mark.parametrize("stored, message", [
    ([{"plant": {"horizon": "1.0"}}], "run_config"),
    ({"plant": "horizon = 1.0"}, "not a mapping"),
    ({"plant": {"horizon": "1.0", "colour": "red"}}, "unknown key 'colour'"),
    ({"plant": {"horizon": 1.0}}, "must be text"),
    ({"network": {"hidden": "8,eight"}}, "bad value for [network] hidden"),
], ids=["list", "section_not_a_mapping", "unknown_key", "non_string_value",
        "unparseable_value"])
def test_eval_rejects_a_malformed_stored_config(tmp_path, capsys, stored,
                                                message):
    net = nn.init_network([ExperimentConfig().extended_dim, 8, 8], 1, 4.0, 0)
    net.run_config = stored
    path = tmp_path / "bad.nnc"
    nn.save_checkpoint(path, net, nn.AdamState.fresh(net.params.size))
    out_csv = tmp_path / "traj.csv"
    code = main(["eval", "--checkpoint", str(path), "--init", "0,0,0",
                 "--out", str(out_csv)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.nnc"]


def test_eval_config_naming_the_runs_own_gives_the_same_rollout(small_run,
                                                                 tmp_path):
    link = tmp_path / "link.txt"
    link.symlink_to(small_run / "config.txt")
    rollouts = []
    for extra in ([], ["--config", str(link)]):
        out_csv = tmp_path / f"traj{len(extra)}.csv"
        code = main(["eval", "--checkpoint", str(small_run / "final.nnc"),
                     "--init", "0.5,-0.2,0.1", "--out", str(out_csv), *extra])
        assert code == 0
        rollouts.append(out_csv.read_bytes())
    assert rollouts[0] == rollouts[1]


def test_eval_missing_config_reports_error(small_run, tmp_path, capsys):
    # a network built without a config stores none; eval then needs --config
    cfg = load_config(small_run / "config.txt")
    net = nn.init_network([cfg.extended_dim, *cfg.hidden], 1, cfg.tanh_weight, 0)
    bare = tmp_path / "bare.nnc"
    nn.save_checkpoint(bare, net, nn.AdamState.fresh(net.params.size))
    code = main(["eval", "--checkpoint", str(bare), "--init", "0,0,0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--config" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "eval-seed0.csv").exists()
    code = main(["eval", "--checkpoint", str(bare), "--init", "0,0,0",
                 "--config", str(small_run / "config.txt")])
    assert code == 0
    assert (tmp_path / "eval-seed0.csv").is_file()


@pytest.mark.parametrize("init, extra", [
    ("a,b,c", []), ("1,2", []), ("", []),
    ("0,0,0", ["--delay-seed", "-1"]),
    ("nan,0,0", []), ("0,inf,0", []),
], ids=["a,b,c", "1,2", "", "negative_delay_seed", "nan,0,0", "0,inf,0"])
def test_eval_rejects_malformed_initial_state(small_run, capsys, init, extra):
    code = main(["eval", "--checkpoint", str(small_run / "final.nnc"),
                 f"--init={init}", *extra])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("case", ["eval_out_is_directory",
                                  "eval_checkpoint_is_directory",
                                  "train_out_under_file"])
def test_unusable_paths_report_errors(small_run, tmp_path, capsys, case):
    ckpt = str(small_run / "final.nnc")
    argv = {
        "eval_out_is_directory": ["eval", "--checkpoint", ckpt,
                                  "--init", "0,0,0", "--out", str(tmp_path)],
        "eval_checkpoint_is_directory": ["eval", "--checkpoint", str(small_run),
                                         "--init", "0,0,0"],
        "train_out_under_file": ["train", "--episodes", "1", "--out",
                                 str(small_run / "config.txt" / "run")],
    }[case]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("trace_at", ["directory", "under_a_file"])
def test_eval_failed_delay_trace_leaves_no_trajectory(small_run, tmp_path,
                                                      capsys, trace_at):
    out_csv = tmp_path / "traj.csv"
    trace = {"directory": tmp_path,
             "under_a_file": small_run / "config.txt" / "delays.csv"}[trace_at]
    code = main(["eval", "--checkpoint", str(small_run / "final.nnc"),
                 "--init", "0.5,-0.2,0.1", "--out", str(out_csv),
                 "--delay-trace", str(trace)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out_csv.exists()


@pytest.mark.parametrize("case", ["trace_is_out",
                                  "trace_is_out_by_another_name",
                                  "out_is_checkpoint", "trace_is_checkpoint",
                                  "default_out_is_trace"])
def test_eval_rejects_outputs_that_name_one_file(small_run, tmp_path, capsys,
                                                 case):
    ckpt = small_run / "final.nnc"
    before = ckpt.read_bytes()
    out_csv = tmp_path / "t.csv"
    (tmp_path / "sub").mkdir()
    paths = {
        "trace_is_out": (out_csv, out_csv),
        "trace_is_out_by_another_name": (out_csv,
                                         tmp_path / "sub" / ".." / "t.csv"),
        "out_is_checkpoint": (ckpt, None),
        "trace_is_checkpoint": (out_csv, ckpt),
        "default_out_is_trace": (None, small_run / "eval-seed0.csv"),
    }[case]
    argv = ["eval", "--checkpoint", str(ckpt), "--init", "0.5,-0.2,0.1"]
    for flag, path in zip(("--out", "--delay-trace"), paths):
        if path is not None:
            argv += [flag, str(path)]
    code = main(argv)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert ckpt.read_bytes() == before
    assert not out_csv.exists()
    assert not (small_run / "eval-seed0.csv").exists()


@pytest.mark.parametrize("case", ["out_is_explicit_config",
                                  "trace_is_explicit_config"])
def test_eval_rejects_outputs_that_name_its_config(small_run, tmp_path, capsys,
                                                   case):
    config = tmp_path / "cfg.txt"
    config.write_bytes((small_run / "config.txt").read_bytes())
    before = config.read_bytes()
    out_csv = tmp_path / "t.csv"
    argv = ["eval", "--checkpoint", str(small_run / "final.nnc"),
            "--init", "0.5,-0.2,0.1", "--config", str(config)]
    if case.startswith("out"):
        argv += ["--out", str(config)]
    else:
        argv += ["--out", str(out_csv), "--delay-trace", str(config)]
    code = main(argv)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--config" in captured.err
    assert captured.out == ""
    assert config.read_bytes() == before
    assert not out_csv.exists()
    assert not (small_run / "eval-seed0.csv").exists()


def test_eval_rejects_nonfinite_checkpoint(small_run, capsys):
    raw = bytearray((small_run / "final.nnc").read_bytes())
    _, adam = nn.load_checkpoint(small_run / "final.nnc")
    first_param = len(raw) - 3 * adam.m.size * 8
    raw[first_param:first_param + 8] = np.array(np.nan, dtype="<f8").tobytes()
    (small_run / "final.nnc").write_bytes(bytes(raw))
    code = main(["eval", "--checkpoint", str(small_run / "final.nnc"),
                 "--init", "0,0,0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err


# ---------------------------------------------------------------------------
# verify command


def test_verify_passes_and_reports_timing(capsys):
    code = main(["verify"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[-1] == "VERIFY PASS"
    suites = [json.loads(line) for line in out[:-1]]
    assert [s["suite"] for s in suites] == [
        "naf_algebra", "gradients", "channels", "rk4_order", "reward_values",
        "mutation_guard"]
    assert all(s["ok"] for s in suites)
    assert all("seconds" in s for s in suites)
