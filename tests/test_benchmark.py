"""The benchmark's self-test, run as part of the suite.

perfbench/run.py patches `netnaf.cli.run_episode` and
`Trainer.run_training_episode` and reads `EpisodeResult.samples` and
`reward_sum_from`; a change that breaks any of those should fail here.
The self-test writes only under the git-ignored perfbench/out/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "SELF-TEST PASS" in proc.stdout.splitlines()
