"""The benchmark's own self-check, so that a wrong or non-deterministic
output in any workload fails the suite and not only a benchmark run."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_smoke_run_is_correct():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
