import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netnaf import cli, nn
from netnaf.cli import main
from netnaf.config import (ExperimentConfig, apply_overrides, load_config,
                           parse_config)
from netnaf.errors import ConfigError
from netnaf.plant import ChuaCircuit, InputSchedule, integrate


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
    assert cfg.max_delay_steps == 8
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
    again = parse_config(cfg.to_text())
    assert again == cfg
    assert again.to_text() == cfg.to_text()


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


def test_invalid_combinations_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(horizon=1.01)  # not a whole number of periods
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
    with pytest.raises(ConfigError):
        ExperimentConfig(seed=-1)  # SeedSequence rejects it


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
], ids=["gamma", "replay_zero", "replay_below_warmup", "zero_episodes",
        "negative_checkpoint_every", "negative_noise_theta",
        "negative_noise_sigma", "negative_seed_flag", "negative_seed_key"])
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


def test_train_failed_curve_write_keeps_final_weights(tmp_path, monkeypatch,
                                                      capsys):
    def full_disk(fh, rows):
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "write_learning_curve", full_disk)
    cfg_path = tmp_path / "exp.txt"
    cfg_path.write_text(SMALL_CONFIG)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    assert (out / "final.nnc").is_file()
    assert not (out / "learning_curve.csv").exists()


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


def test_eval_zero_weight_checkpoint_matches_uncontrolled(tmp_path):
    # zero delays, so the loop splits integration windows exactly like the
    # free-running reference
    cfg = parse_config(SMALL_CONFIG + "\n[delays]\nsc_min = 0.0\nsc_max = 0.0\n"
                       "cp_min = 0.0\ncp_max = 0.0\n"
                       "sc_bound_steps = 0\ncp_bound_steps = 0\n")
    dim = cfg.extended_dim
    net = nn.init_network([dim, *cfg.hidden], 1, cfg.tanh_weight, 0)
    net.params[:] = 0.0
    run = tmp_path / "zero"
    run.mkdir()
    cfg.save(run / "config.txt")
    nn.save_checkpoint(run / "zero.nnc", net,
                       nn.AdamState.fresh(net.params.size))
    out_csv = tmp_path / "traj.csv"
    code = main(["eval", "--checkpoint", str(run / "zero.nnc"),
                 "--init", "2.0,-1.0,1.0", "--out", str(out_csv)])
    assert code == 0
    rows = read_csv(out_csv)
    states = np.array([[float(v) for v in r[2:5]] for r in rows[1:]])
    free = integrate(ChuaCircuit(), np.array([2.0, -1.0, 1.0]),
                     InputSchedule(np.zeros(1)), 0.0, 1.0, cfg.substep)
    assert np.abs(states[-1] - free).max() <= 1e-12


def test_eval_dimension_mismatch_fails(small_run, tmp_path, capsys):
    other = ExperimentConfig(output_history_len=6)
    bad_cfg = tmp_path / "bad.txt"
    bad_cfg.write_text(other.to_text())
    code = main(["eval", "--checkpoint", str(small_run / "final.nnc"),
                 "--init", "0,0,0", "--config", str(bad_cfg)])
    assert code == 1
    assert "input width" in capsys.readouterr().err


def test_eval_missing_config_reports_error(small_run, tmp_path, capsys):
    lonely = tmp_path / "lonely.nnc"
    lonely.write_bytes((small_run / "final.nnc").read_bytes())
    code = main(["eval", "--checkpoint", str(lonely), "--init", "0,0,0"])
    assert code == 1
    assert "config" in capsys.readouterr().err


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


@pytest.mark.parametrize("case", ["out_is_sibling_config",
                                  "trace_is_sibling_config",
                                  "out_is_explicit_config",
                                  "trace_is_explicit_config"])
def test_eval_rejects_outputs_that_name_its_config(small_run, tmp_path, capsys,
                                                   case):
    explicit = tmp_path / "cfg.txt"
    explicit.write_bytes((small_run / "config.txt").read_bytes())
    config = explicit if case.endswith("explicit_config") else (
        small_run / "config.txt")
    before = config.read_bytes()
    out_csv = tmp_path / "t.csv"
    argv = ["eval", "--checkpoint", str(small_run / "final.nnc"),
            "--init", "0.5,-0.2,0.1"]
    if config == explicit:
        argv += ["--config", str(explicit)]
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
