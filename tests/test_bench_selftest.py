"""The benchmark harness's self-test and one traced sweep as part of the suite.
Its tracer wraps every public `decoherence` and `fit` function by name, and
the traced sweep runs the convergence study and `--workers 2`, so deleting or
renaming a name that the harness calls fails here and not only when the
benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_reports_no_failure():
    run = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "0 failed", run.stdout


def test_traced_sweep_reports_no_failure():
    run = subprocess.run([sys.executable, "bench/bench.py", "--workload", "sweep", "--seed", "0",
                          "--seconds", "1", "--trace", "1"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["failed"] == 0, run.stdout
