"""Benchmark for netnaf: seconds per training episode and per eval rollout.

    python3 perfbench/run.py --workload train_smoke --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload eval_grid --seed 1 --seconds 60 --trace 1
    python3 perfbench/run.py --self-test

Runs one workload through the `netnaf train` / `netnaf eval` entry points in
this process, with OpenBLAS pinned to one thread, and prints the metrics by
name and unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; ``--trace 1`` makes a separate traced run
and reports per-layer ones. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread, as recorded below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# train_full is not in BENCHMARK.json (see README.md); it runs by hand.
WORKLOADS = {
    # kind, config text name, timed-run repeat size, traced-run repeat size
    "train_smoke": ("train", "SMOKE_TEXT", 10, 6),
    "train_full": ("train", "FULL_TEXT", 6, 4),
    "eval_grid": ("eval", "FULL_TEXT", (5, 4), (5, 4)),
}
QUICK = {"train": ("QUICK_TEXT", 3), "eval": ("QUICK_EVAL_TEXT", (2, 1))}

# Name -> unit. End-to-end metrics come from untraced runs.
END_TO_END = {
    "episode_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics from the traced run: (span, statistic) or a derived name.
LAYER_TIMES = {
    "nn.forward.batch_us": ("nn.forward.batch", "median_us"),
    "nn.forward.single_us": ("nn.forward.single", "median_us"),
    "nn.backward_us": ("nn.backward", "median_us"),
    "nn.adam_step_us": ("nn.adam_step", "median_us"),
    "nn.soft_update_us": ("nn.soft_update", "median_us"),
    "nn.load_checkpoint_s": ("nn.load_checkpoint", "median_s"),
    "config.trainer_s": ("config.trainer", "median_s"),
    "naf.assemble_scale_matrix_us": ("naf.assemble_scale_matrix", "median_us"),
    "naf.head_gradients_us": ("naf.head_gradients", "median_us"),
    "agent.batch_loss_and_grad.self_us": ("agent.batch_loss_and_grad",
                                          "median_self_us"),
    "agent.replay.sample_us": ("agent.replay.sample", "median_us"),
    "agent.replay.push_us": ("agent.replay.push", "median_us"),
    "agent.history.extended_state_us": ("agent.history.extended_state", "median_us"),
    "reward.transition_us": ("reward.transition", "median_us"),
    "plant.integrate_us": ("plant.integrate", "median_us"),
    "delays.sample_delay_us": ("delays.sample_delay", "median_us"),
    "delays.channel_us": ("delays.channel", "median_us"),
    "delays.actuator_apply_us": ("delays.actuator_apply", "median_us"),
    "cli.write_trajectory_s": ("cli.write_trajectory", "median_s"),
}
COUNTS = ("agent.steps", "agent.updates", "plant.deriv.calls",
          "delays.clamped_arrivals")
PER_LAYER = {
    **{name: ("s" if name.endswith("_s") else "us") for name in LAYER_TIMES},
    "agent.run_episode.self_us_per_step": "us",
    "agent.replay.len": "count",
    "agent.replay.bytes_per_transition": "B",
    "agent.update_share": "share",
    "updates_per_s": "1/s",
    "steps_per_s": "1/s",
    **{name: "count" for name in COUNTS},
    "trace.overhead": "share",
    "trace.remainder_share": "share",
    "trace.missing_layers": "count",
    **{f"share.{group}": "share" for group in spans.GROUPS},
}


class BenchError(Exception):
    """The program cannot be benchmarked here (for instance, no source)."""


def import_netnaf():
    """netnaf from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "netnaf" / "__init__.py").is_file():
        raise BenchError(f"no netnaf source under {src}")
    sys.path.insert(0, str(src))
    netnaf = importlib.import_module("netnaf")
    if Path(netnaf.__file__).resolve().parent != (src / "netnaf").resolve():
        raise BenchError(f"imported netnaf from {netnaf.__file__}, not {src}")
    for sub in ("agent", "cli", "config", "nn", "plant"):
        importlib.import_module(f"netnaf.{sub}")
    return netnaf


def environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_until(step, seconds, min_runs):
    """Call step until the window would close before the next call ends."""
    out, start, last = [], perf_counter(), 0.0
    while len(out) < min_runs or perf_counter() - start + last <= seconds:
        began = perf_counter()
        out.append(step())
        last = perf_counter() - began
    return out


def make_workload(netnaf, hooks, name, seed, workdir, trace, quick):
    kind, text_name, timed_size, traced_size = WORKLOADS[name]
    size = traced_size if trace else timed_size
    if quick:
        text_name, size = QUICK[kind]
    text = getattr(workloads, text_name)
    cls = workloads.TrainWorkload if kind == "train" else workloads.EvalWorkload
    return cls(netnaf, hooks, text, size, seed, workdir)


def timed_ops(repeats):
    return [op for rep in repeats for op in rep.ops if op.timed and op.steps]


def steps_per_s(ops):
    return workloads.ratio(sum(op.steps for op in ops),
                           sum(op.seconds for op in ops))


def end_to_end(repeats, setups):
    ops = timed_ops(repeats)
    seconds = [op.seconds for op in ops]
    tail, pct, n = workloads.tail(seconds)
    metrics = {
        "episode_s_p90": workloads.percentile(seconds, 90),
        "setup_s": workloads.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Reported, not gated: they move with the share of the run that the
    # host's other tenants left the core alone (see README.md).
    detail = {"episode_s_median": workloads.median(seconds),
              "episode_s_p5": workloads.percentile(seconds, 5),
              "episode_s_tail": tail, "steps_per_s": steps_per_s(ops),
              "ops_timed": n, "tail_percentile": pct, "repeats": len(repeats),
              "op_seconds": seconds, "setup_samples_s": setups}
    return metrics, detail


def per_layer(tracer, untraced, traced, bytes_per_transition):
    summary = tracer.summarise()
    layers = summary["layers"]
    op_total = summary["op_total_s"]
    metrics = {}
    for metric, (span, stat) in LAYER_TIMES.items():
        entry = layers.get(span)
        if entry is None:
            metrics[metric] = 0.0
        elif stat == "median_s":
            metrics[metric] = entry["median_us"] / 1e6
        else:
            metrics[metric] = entry[stat]
    traced_steps = sum(op.steps for op in timed_ops(traced))
    run_episode = layers.get("agent.run_episode", {"self_s": 0.0})
    metrics["agent.run_episode.self_us_per_step"] = workloads.ratio(
        run_episode["self_s"] * 1e6, traced_steps)
    metrics["agent.replay.len"] = traced[0].replay_len
    metrics["agent.replay.bytes_per_transition"] = bytes_per_transition
    update = layers.get("agent.update_block", {"dur_s": 0.0})
    metrics["agent.update_share"] = workloads.ratio(update["dur_s"], op_total)
    base = timed_ops(untraced)
    metrics["updates_per_s"] = workloads.ratio(sum(op.updates for op in base),
                                               sum(op.seconds for op in base))
    metrics["steps_per_s"] = steps_per_s(base)

    per_repeat = [rep.counts for rep in traced]
    metrics.update(per_repeat[0])
    traced_median = workloads.median([op.seconds for op in timed_ops(traced)])
    base_median = workloads.median([op.seconds for op in base])
    metrics["trace.overhead"] = workloads.ratio(traced_median, base_median) - 1.0
    remainder = layers.get(workloads.OP, {"self_s": 0.0})["self_s"]
    metrics["trace.remainder_share"] = workloads.ratio(remainder, op_total)
    metrics["trace.missing_layers"] = len(tracer.missing)
    for group, own in summary["group_self_s"].items():
        metrics[f"share.{group}"] = workloads.ratio(own, op_total)
    checks = {
        "counts_repeat": all(c == per_repeat[0] for c in per_repeat),
        "accounted": abs(summary["accounted_s"] - op_total) <= 1e-6 * op_total,
    }
    detail = {"layers": layers, "op_total_s": op_total,
              "accounted_s": summary["accounted_s"], "missing": tracer.missing,
              "counts_per_repeat": per_repeat, "checks": checks}
    return metrics, detail, all(checks.values())


def run_workload(netnaf, name, seed, seconds, trace, quick=False):
    """One benchmark run; returns (result line dict, detail dict)."""
    workdir = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = spans.Tracer()
    hooks = workloads.Hooks(netnaf, tracer)
    try:
        workload = make_workload(netnaf, hooks, name, seed, workdir, trace, quick)
        if not trace:
            # Set-up probes are spread over the window, between repeats, so
            # that setup_s does not hang on the host's load at one instant.
            setups = []

            def probed_repeat():
                setups.extend(workload.probe_setup()
                              for _ in range(workloads.SETUP_PROBES))
                return workload.repeat()

            repeats = run_until(probed_repeat, seconds, min_runs=2)
            workloads.check_digests(repeats)
            metrics, detail = end_to_end(repeats, setups)
            checks_ok = True
        else:
            bytes_per_transition = (workload.replay_bytes_per_transition()
                                    if isinstance(workload, workloads.TrainWorkload)
                                    else 0.0)
            untraced, traced = [], []

            def pair():
                untraced.append(workload.repeat())
                tracer.install()
                tracer.active = True
                try:
                    rep = workload.repeat()
                finally:
                    tracer.active = False
                    tracer.uninstall()
                rep.counts = count_work(tracer, rep)
                traced.append(rep)

            run_until(pair, seconds, min_runs=1)
            repeats = untraced + traced
            workloads.check_digests(repeats)
            metrics, detail, checks_ok = per_layer(tracer, untraced, traced,
                                                   bytes_per_transition)
            tracer.write_spans(workdir / "spans.csv")
    finally:
        tracer.uninstall()
        hooks.uninstall()

    ops = [op for rep in repeats for op in rep.ops if op.timed]
    failed = sum(not op.ok for op in ops)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0 and checks_ok and all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values()),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    artifacts = {}
    for rep in repeats:
        for op in rep.ops:
            if op.digest:
                artifacts.setdefault(op.key, op.digest)
    detail.update({
        "errors": sorted({rep.error for rep in repeats if rep.error}),
        "artifacts": artifacts,
        "digest": workloads.file_digest(
            *(f"{k}:{d}".encode() for k, d in sorted(artifacts.items())))[:16],
    })
    return result, detail


def count_work(tracer, rep):
    """Exact work counts of one traced repeat, in COUNTS order."""
    return {"agent.steps": sum(op.steps for op in rep.ops),
            "agent.updates": sum(op.updates for op in rep.ops),
            **{key: tracer.counts.get(key, 0) for key in COUNTS[2:]}}


def report(env, result, detail):
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    if "tail_percentile" in detail:
        print(f"{detail['ops_timed']} timed operations; setup_s is the median "
              f"of {len(detail['setup_samples_s'])} probes")
        print(f"not gated: episode_s median {detail['episode_s_median']:.6g} s, "
              f"p5 {detail['episode_s_p5']:.6g} s, tail "
              f"(p{detail['tail_percentile']:.1f}) {detail['episode_s_tail']:.6g} s; "
              f"{detail['steps_per_s']:.6g} steps/s")
    if "layers" in detail:
        print("self time by span (traced operations):")
        layers = sorted(detail["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, entry in layers:
            print(f"  {name:32s} calls {entry['calls']:8d}  self "
                  f"{entry['self_s']:9.4f} s  "
                  f"{100 * workloads.ratio(entry['self_s'], detail['op_total_s']):6.2f}%  "
                  f"median {entry['median_us']:10.1f} us")
        for name in detail["missing"]:
            print(f"  missing: {name}")
    print(f"artifact digest {detail['digest']} over "
          f"{len(set(detail['artifacts'].values()))} artifacts")
    for error in detail["errors"]:
        print(f"error: {error}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")


def self_test(netnaf) -> int:
    """Every workload at a tiny scale, untraced and traced; checks the
    result schema and metric names against BENCHMARK.json, never speed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names workloads run.py lacks: {unknown}")
    for name in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_workload(netnaf, name, 1, 0.0, trace, quick=True)
            line = json.loads(json.dumps(result))
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            where = f"{name} trace {trace}"
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(line)}")
            if got != want[trace]:
                problems.append(f"{where}: metrics {got} != {want[trace]}")
            if not all(set(v) == {"value", "unit"} and isinstance(v["value"], (int, float))
                       for v in line["metrics"].values()):
                problems.append(f"{where}: metric entries malformed")
            if line["attempted"] < 1 or line["failed"] or not line["correct"]:
                problems.append(f"{where}: attempted {line['attempted']} "
                                f"failed {line['failed']} correct {line['correct']}")
            print(f"self-test {where}: {len(got)} metrics", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("SELF-TEST " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", dest="self_test",
                        help="tiny run of every workload; checks the schema only")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        netnaf = import_netnaf()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(netnaf)
    env = environment(args)
    result, detail = run_workload(netnaf, args.workload, args.seed, args.seconds,
                                  args.trace)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (workdir / "result.json").write_text(json.dumps(
        {"environment": env, "result": result, "detail": detail}, indent=1))
    report(env, result, detail)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
