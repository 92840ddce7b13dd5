"""The benchmark harness's self-test as part of the suite.  Its tracer wraps
every public `decoherence` and `fit` function by name, so deleting or renaming
one that the harness calls fails here and not only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_reports_no_failure():
    run = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "0 failed", run.stdout
