"""Self-test of the benchmark harness.

usage: python3 bench/selftest.py      (from the root of a checkout, ~1 min)

Checks that
1. the tracer wraps the bindings it should and restores every original;
2. the exact counts repeat across two traced runs of the same inputs;
3. a deliberately wrong reference value fails operations (failed_frac > 0)
   while the true one fails none;
4. BENCHMARK.json lists exactly the metrics bench.py reports.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT, Tracer, layer_metrics  # noqa: E402
from workloads import Analysis, Context, Convergence, PassResult  # noqa: E402

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("PASS " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def bindings() -> dict:
    from csfq3d.numeric import HamiltonianOperator

    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "csfq3d" or name.startswith("csfq3d.")):
            snapshot.update({(name, attr): value for attr, value in vars(module).items()})
    snapshot.update({("HamiltonianOperator", attr): value
                     for attr, value in vars(HamiltonianOperator).items()})
    return snapshot


def test_restore() -> None:
    import csfq3d.cli  # noqa: F401  -- every layer loaded before the snapshot

    before = bindings()
    with Tracer().installed():
        during = bindings()
    after = bindings()
    replaced = {key for key, value in before.items() if during.get(key) is not value}
    expected = {("csfq3d.cli", "lowest_eigenpairs"), ("csfq3d.cli", "main"),
                ("csfq3d.fit", "decay_envelope"), ("csfq3d", "fit_envelope"),
                ("csfq3d.numeric", "lowest_eigenpairs"), ("HamiltonianOperator", "matvec")}
    check(expected <= replaced, f"tracer wraps imported bindings ({len(replaced)} replaced)")
    check(after.keys() == before.keys()
          and all(after[key] is value for key, value in before.items()),
          "every original binding restored")


def traced_counts(ctx: Context, make) -> dict:
    workload = make()
    result, exported, _ = workload.run_traced_pass(ctx)
    metrics = layer_metrics(exported)
    return {name: metrics[name] for name in EXACT}, result.failed_ops


def test_exact_counts(ctx: Context) -> None:
    cases = {
        "convergence (n = 64, 1D)": lambda: Convergence(plan=[(64, 0.5), (64, 0.49), (80, None)]),
        "analysis": Analysis,
    }
    for label, make in cases.items():
        first, failed_first = traced_counts(ctx, make)
        second, failed_second = traced_counts(ctx, make)
        check(first == second and failed_first == failed_second == 0,
              f"exact counts repeat on {label}: "
              + ", ".join(f"{k}={v}" for k, v in first.items() if v))


def failed_frac(result: PassResult) -> float:
    return result.failed_ops / len(result.op_s)


def test_wrong_reference(ctx: Context) -> None:
    convergence = Convergence(plan=[(80, 0.5)])
    check(failed_frac(convergence.run_pass(ctx)) == 0.0, "frozen omega01 passes")
    saved = workloads.REFERENCE["omega01_ghz"]
    workloads.REFERENCE["omega01_ghz"] = 2.48  # the K = 16 collapse value
    try:
        check(failed_frac(convergence.run_pass(ctx)) > 0.0,
              "wrong frozen omega01 gives failed_frac > 0")
    finally:
        workloads.REFERENCE["omega01_ghz"] = saved

    truth = workloads.FIXTURE_TRUTH["envelope"]
    saved = truth["gamma_phi_per_s"]
    truth["gamma_phi_per_s"] = saved * 1.01
    try:
        result = PassResult()
        Analysis().run_command(ctx, "fit_envelope", result)
        check(failed_frac(result) == 1.0, "wrong fixture truth fails the CLI fit")
    finally:
        truth["gamma_phi_per_s"] = saved


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == bench.END_TO_END, "BENCHMARK.json end_to_end matches bench.py")
    check(per_layer == bench.PER_LAYER, "BENCHMARK.json per_layer matches bench.py")
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads match bench.py")


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        ctx = Context(root=ROOT, work=work)
        test_benchmark_json()
        test_restore()
        test_wrong_reference(ctx)
        test_exact_counts(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
