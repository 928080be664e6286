"""The benchmark's self-test and span coverage, run as part of the suite.

perfbench/run.py patches `netnaf.cli.run_episode` and
`Trainer.run_training_episode` and reads `EpisodeResult.samples` and
`reward_sum_from`; perfbench/spans.py wraps the layer functions by name.
A change that breaks any of those should fail here. The self-test writes
only under the git-ignored perfbench/out/.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Spans the benchmark still lists under names that are gone: the per-layer
# head functions from before naf.quadratic_head; the history buffer's
# copy, whose place is the gather `run_episode` makes through
# agent.window_index; and the controller-to-plant channel and actuator,
# whose place is the `delivered` cursor `run_episode` keeps over its log's
# plant_arrival column (the channel's send also fed the clamp counter).
# The set is exact, so a span that resolves again has to leave it.
STALE_SPANS = {"netnaf.agent.assemble_scale_matrix",
               "netnaf.agent.head_gradients",
               "netnaf.agent.HistoryBuffer.extended_state",
               "netnaf.agent.DelayedChannel.send",
               "netnaf.agent.DelayedChannel.poll",
               "netnaf.agent.Actuator.apply"}


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "SELF-TEST PASS" in proc.stdout.splitlines()


def test_benchmark_spans_find_their_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert set(tracer.missing) == STALE_SPANS
    finally:
        tracer.uninstall()
