"""csfq3d benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

usage: python3 bench/bench.py --workload {sweep,analysis}
                              --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the benchmark imports csfq3d from the
checkout's src/ and exits 2 if it is not there.  One client runs passes of the
workload in a closed loop until the next pass would end after --seconds (at
least one pass), with at most one subprocess at a time.  Every output is
checked against reference values; failed checks count as failed operations.
The last line of standard output is the JSON result; the lines before it
print every metric by name with its unit, and the machine facts.

With --trace 1 the untraced passes run as usual, then one pass runs with
every layer's public functions wrapped (see tracer.py), and the result holds
the per-layer metrics, including the tracing overhead: the traced pass's wall
time minus the untraced median.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import DECOHERENCE_TIMED, FLUX_POINTS, GRID_SIZES
from workloads import COMMANDS, WORKLOADS, Context, PassResult, run_process

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "numeric.solves": "count",
    "numeric.unique_solve_ratio": "ratio",
    "numeric.lanczos_vectors": "count",
    "numeric.matvec_calls": "count",
    "numeric.solve_s": "s",
    "numeric.solve_self_s": "s",
    "numeric.matvec_s": "s",
    **{f"numeric.matvec_us.n{n}": "us" for n in GRID_SIZES},
    "numeric.build_s": "s",
    **{f"numeric.solve_s.n{n}": "s" for n in GRID_SIZES},
    **{f"numeric.lanczos_vectors.n{n}_f{f:g}": "count" for n in GRID_SIZES for f in FLUX_POINTS},
    "numeric.basis_mb": "MB",
    "numeric.max_residual_rel": "E_J",
    "numeric.import_s": "s",
    "core.import_s": "s",
    "cli.import_s": "s",
    **{f"cli.process_s.{c}": "s" for c in COMMANDS},
    **{f"cli.inproc_s.{c}": "s" for c in COMMANDS},
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.workers2_s": "s",
    "fit.fits": "count",
    "fit.lm_iterations": "count",
    "fit.model_evals": "count",
    "fit.converged_ratio": "ratio",
    "fit.s": "s",
    "fit.self_s": "s",
    "decoherence.calls": "count",
    "decoherence.s": "s",
    **{f"decoherence.s.{name}": "s" for name in DECOHERENCE_TIMED},
    "analytic.calls": "count",
    "analytic.s": "s",
    "filters.calls": "count",
    "filters.points": "count",
    "filters.s": "s",
    "cqed.calls": "count",
    "cqed.s": "s",
    "trace.spans": "count",
    "trace.span_us": "us",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "env": {name: os.environ.get(name) for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_times(ctx: Context, samples: int) -> list[float]:
    """Fresh interpreter to `csfq3d.cli` imported, from spawn to exit.  One
    untimed run first, so bytecode caches are written as on an installed
    package."""
    argv = [sys.executable, "-c", "import csfq3d.cli"]
    times = []
    for i in range(samples + 1):
        proc = run_process(ctx, argv, "setup")
        if proc.returncode != 0:
            raise RuntimeError(f"import csfq3d.cli failed: {proc.log.read_text()[-400:]}")
        if i:
            times.append(proc.seconds)
    return times


def import_times(ctx: Context) -> dict[str, float]:
    """Cumulative import times from -X importtime, medians of fresh runs.
    cli.import_s is everything `import csfq3d.cli` loads, the package
    included."""
    samples = {"numeric.import_s": [], "core.import_s": [], "cli.import_s": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import csfq3d.cli"],
                              env=ctx.env, cwd=ctx.root, capture_output=True, text=True,
                              check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [part.strip() for part in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e6
        samples["numeric.import_s"].append(cumulative["csfq3d.numeric"])
        samples["core.import_s"].append(cumulative["csfq3d.core"])
        samples["cli.import_s"].append(cumulative["csfq3d.cli"])
    return {name: statistics.median(values) for name, values in samples.items()}


def measure(workload, ctx: Context, seconds: float) -> list[PassResult]:
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(workload.run_pass(ctx))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return passes


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def end_to_end(passes, setup) -> dict[str, float]:
    ops = [t for p in passes for t in p.op_s]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(ops),
        "op_p90_s": p90(ops),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }


def per_layer(ctx, workload, passes) -> tuple[dict[str, float], list[PassResult]]:
    from tracer import layer_metrics, span_cost_us

    traced, exported, inproc = workload.run_traced_pass(ctx)
    extra_result = PassResult()
    metrics = layer_metrics(exported)
    metrics.update(import_times(ctx))
    metrics.update(dict.fromkeys((f"cli.{kind}_s.{c}" for kind in ("process", "inproc")
                                  for c in COMMANDS), 0.0))
    for command in COMMANDS:
        runs = [p.process_s[command] for p in passes if command in p.process_s]
        if runs:
            metrics[f"cli.process_s.{command}"] = statistics.median(runs)
    metrics.update({f"cli.inproc_s.{c}": s for c, s in inproc.items()})
    metrics["cli.output_bytes"] = passes[-1].output_bytes
    metrics["cli.workers2_s"] = 0.0
    metrics.update(workload.extra_layers(ctx, extra_result))
    metrics["trace.span_us"] = span_cost_us()
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - statistics.median(p.wall_s for p in passes)
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics differ from the list: "
                           f"{sorted(set(metrics) ^ set(PER_LAYER))}")
    metrics = {name: int(value) if PER_LAYER[name] in ("count", "bytes") else float(value)
               for name, value in metrics.items()}
    return metrics, [traced, extra_result]


def run(args) -> int:
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "csfq3d" / "__init__.py").is_file():
        print(f"error: no csfq3d package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import csfq3d

    if Path(csfq3d.__file__).resolve().parent != (src / "csfq3d").resolve():
        print(f"error: csfq3d imported from {csfq3d.__file__}, not {src}", file=sys.stderr)
        return 2

    print("# machine " + json.dumps(machine_facts(), sort_keys=True))
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=root))
    try:
        ctx = Context(root=root, work=work)
        workload = WORKLOADS[args.workload]()
        setup = setup_times(ctx, 0 if args.trace else SETUP_SAMPLES)
        passes = measure(workload, ctx, args.seconds)
        checked = list(passes)
        if args.trace:
            metrics, extra = per_layer(ctx, workload, passes)
            units = PER_LAYER
            checked += extra
        else:
            metrics = end_to_end(passes, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.op_s) for p in checked)
    failed = sum(p.failed_ops for p in checked)
    for message in (m for p in checked for m in p.failures):
        print(f"check failed: {message}", file=sys.stderr)
    print(f"# {args.workload}: {len(passes)} passes, pass wall_s "
          + " ".join(f"{p.wall_s:.4f}" for p in passes))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    ops = sum(len(p.op_s) for p in passes)
    print(f"{args.workload} op samples = {ops} (op_p90_s over {ops} operations)")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    # the inputs are the bundled configs and fixtures; the seed selects nothing
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
