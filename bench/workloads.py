"""The benchmark workloads and the reference checks on their outputs.

A workload runs passes.  Each pass returns its wall time, the latency of each
operation, and the checks that failed; a failed check fails its operation and
never gets a softer tolerance.  Checks run outside the timed regions.

- sweep: ``csfq3d spectrum`` on the bundled config, as a subprocess.
- convergence: in-process 2D eigensolves at n = 64/80/128 and f = 0.5/0.49,
  plus the 1D solve at n = 80; run inside the sweep traced run, not gated.
- analysis: the light commands as subprocesses on the bundled configs and
  fixtures.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from tracer import PER_GRID_SIZE, Tracer, layer_metrics, merge, residual_rel

# Frozen regression values of the reference device at n = 80, f = 0.5.
REFERENCE = {
    "omega01_ghz": 4.716058562,
    "omega01_rel": 1e-7,
    "anharmonicity_ghz": 0.831166289,
    "anharmonicity_rel": 1e-6,
    # 1D optimal-point solve at n = 80, frozen from the same code
    "omega01_1d_ghz": 5.754954884,
    "omega01_1d_rel": 1e-7,
    "shift_80_128_rel": 1e-3,
    "residual_rel": 1e-8,
}

# Generator values in the headers of the bundled fixtures, with the noiseless
# round-trip tolerance of the acceptance suite (0.5 %).
FIXTURE_TRUTH = {
    "spectrum": {"alpha": 0.41, "C_S_fF": 78.0, "E_J_GHz": 85.0},
    "t1": {"x_qp": 6.12244897959e-08},
    "envelope": {"gamma_phi_per_s": 1.25e4},
    "fluxnoise": {"A_Phi_Phi0sq": (1.8e-6) ** 2},
}
FIXTURE_REL = 0.005

# CLI commands as (config, arguments); fixtures in the README's pairing.
COMMANDS = {
    "spectrum": ("example_config.ini", ["spectrum"]),
    "coherence": ("example_config.ini", ["coherence"]),
    "filter": ("example_config.ini", ["filter"]),
    "fit_spectrum": ("example_config.ini", ["fit", "spectrum", "spectrum_synthetic.csv"]),
    "fit_t1": ("example_config_perturbative.ini", ["fit", "t1", "t1_synthetic.csv"]),
    "fit_envelope": ("example_config.ini", ["fit", "envelope", "envelope_synthetic.csv"]),
    "fit_fluxnoise": ("example_config_perturbative.ini",
                      ["fit", "fluxnoise", "fluxnoise_synthetic.csv"]),
}
LIGHT_COMMANDS = ("coherence", "filter", "fit_spectrum", "fit_t1", "fit_envelope",
                  "fit_fluxnoise")


@dataclass
class Context:
    root: Path
    work: Path

    @property
    def data(self) -> Path:
        return self.root / "src" / "csfq3d" / "data"

    @property
    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


@dataclass
class PassResult:
    wall_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0
    peak_rss_mb: float = 0.0
    process_s: dict[str, float] = field(default_factory=dict)
    output_bytes: int = 0

    def record(self, seconds: float, failures: list[str], label: str) -> None:
        self.op_s.append(seconds)
        if failures:
            self.failed_ops += 1
            self.failures.extend(f"{label}: {message}" for message in failures)


@dataclass
class Process:
    seconds: float
    returncode: int
    maxrss_mb: float
    log: Path


def run_process(ctx: Context, argv: list[str], tag: str) -> Process:
    """Run argv to completion; time it from spawn to exit and take its own
    peak RSS from wait4.  Output goes to a log file in the work directory."""
    log = ctx.work / f"{tag}.log"
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=sink, stderr=subprocess.STDOUT, env=ctx.env,
                                cwd=ctx.root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(seconds, proc.returncode, usage.ru_maxrss / 1024.0, log)


def cli_argv(ctx: Context, command: str, outdir: Path, extra=()) -> list[str]:
    config, arguments = COMMANDS[command]
    arguments = [str(ctx.data / a) if a.endswith(".csv") else a for a in arguments]
    return ["--config", str(ctx.data / config), "--out", str(outdir), *extra, *arguments]


def _rel_error(value, truth) -> float:
    return abs(value - truth) / abs(truth)


def _check_rel(failures, label, value, truth, rel) -> None:
    if value is None or not math.isfinite(value) or _rel_error(value, truth) > rel:
        failures.append(f"{label} = {value!r}, reference {truth!r} (rel {rel:g})")


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# -- output checks of each CLI command -----------------------------------------


def check_spectrum(outdir: Path) -> list[str]:
    failures = []
    rows = _read_rows(outdir / "spectrum.csv")
    bad = [row["flux_phi0"] for row in rows if row["status"] != "ok"]
    if len(rows) != 21 or bad:
        failures.append(f"{len(rows)} sweep rows, not ok at {bad}")
    summary = json.loads((outdir / "spectrum_summary.json").read_text())
    _check_rel(failures, "omega01", summary.get("omega01_numeric_GHz"),
               REFERENCE["omega01_ghz"], REFERENCE["omega01_rel"])
    _check_rel(failures, "anharmonicity", summary.get("anharmonicity_numeric_GHz"),
               REFERENCE["anharmonicity_ghz"], REFERENCE["anharmonicity_rel"])
    return failures


def check_coherence(outdir: Path) -> list[str]:
    failures = []
    t1_rows = _read_rows(outdir / "t1_vs_temperature.csv")
    if len(t1_rows) != 16 or any(row["status"] != "ok" for row in t1_rows):
        failures.append("T1 sweep rows missing or failed")
    if len(_read_rows(outdir / "dephasing_vs_flux.csv")) != 21:
        failures.append("dephasing sweep rows missing")
    budget = json.loads((outdir / "decoherence_budget.json").read_text())
    for key in ("t1_qp_s", "t1_purcell_s", "t_phi_thermal_s"):
        value = budget.get(key)
        if not isinstance(value, float) or not value > 0.0:
            failures.append(f"budget {key} = {value!r}")
    return failures


def check_filter(outdir: Path) -> list[str]:
    failures = []
    for n_pulses in (1, 20):
        rows = _read_rows(outdir / f"filter_N{n_pulses}.csv")
        values = [float(row["filter_value"]) for row in rows]
        if len(values) != 400 or not all(math.isfinite(v) and v >= 0.0 for v in values):
            failures.append(f"filter_N{n_pulses}: {len(values)} rows or invalid values")
    return failures


def check_fit(outdir: Path, target: str) -> list[str]:
    failures = []
    payload = json.loads((outdir / f"fit_{target}.json").read_text())
    if payload.get("converged") is not True:
        failures.append("fit did not converge")
    for key, truth in FIXTURE_TRUTH[target].items():
        _check_rel(failures, key, payload["parameters"].get(key), truth, FIXTURE_REL)
    return failures


CHECKS = {
    "spectrum": check_spectrum,
    "coherence": check_coherence,
    "filter": check_filter,
    "fit_spectrum": lambda outdir: check_fit(outdir, "spectrum"),
    "fit_t1": lambda outdir: check_fit(outdir, "t1"),
    "fit_envelope": lambda outdir: check_fit(outdir, "envelope"),
    "fit_fluxnoise": lambda outdir: check_fit(outdir, "fluxnoise"),
}


def _output_bytes(outdir: Path) -> int:
    return sum(path.stat().st_size for path in outdir.rglob("*") if path.is_file())


# -- workloads -------------------------------------------------------------------


class CliWorkload:
    """CLI commands, each as a subprocess from process start to exit."""

    def __init__(self, commands):
        self.commands = tuple(commands)

    def run_command(self, ctx: Context, command: str, result: PassResult, *, extra=(),
                    traced_stats: Path | None = None, label: str | None = None) -> Process:
        label = label or command
        outdir = ctx.work / "out" / label
        if traced_stats is None:
            argv = [sys.executable, "-m", "csfq3d.cli"]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                    str(traced_stats)]
        proc = run_process(ctx, argv + cli_argv(ctx, command, outdir, extra), label)
        failures = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
        if not failures:
            try:
                failures = CHECKS[command](outdir)
            except (OSError, ValueError, KeyError) as err:
                failures = [f"unreadable output: {err!r}"]
        if failures:
            failures.append(proc.log.read_text(errors="replace")[-400:])
        result.record(proc.seconds, failures, label)
        result.wall_s += proc.seconds
        result.peak_rss_mb = max(result.peak_rss_mb, proc.maxrss_mb)
        result.output_bytes += _output_bytes(outdir)
        return proc

    def run_pass(self, ctx: Context) -> PassResult:
        result = PassResult()
        for command in self.commands:
            proc = self.run_command(ctx, command, result)
            result.process_s[command] = proc.seconds
        return result

    def run_traced_pass(self, ctx: Context) -> tuple[PassResult, dict, dict[str, float]]:
        """Each command once under the tracer in its own process."""
        result = PassResult()
        exports, inproc = [], {}
        for command in self.commands:
            stats = ctx.work / f"trace-{command}.json"
            self.run_command(ctx, command, result, traced_stats=stats,
                             label=f"traced-{command}")
            if stats.is_file():
                exported = json.loads(stats.read_text())
                exports.append(exported)
                inproc[command] = exported["counters"].get("fn.cli.main.s", 0.0)
        return result, merge(exports), inproc

    def extra_layers(self, ctx: Context, result: PassResult) -> dict[str, float]:
        return {}


class Sweep(CliWorkload):
    def __init__(self):
        super().__init__(["spectrum"])

    def extra_layers(self, ctx: Context, result: PassResult) -> dict[str, float]:
        # --workers 2 beside the workers = 1 run, with the same output checks
        proc = self.run_command(ctx, "spectrum", result, extra=("--workers", "2"),
                                label="spectrum-workers2")
        # the basis-convergence study, traced in this process, gives the
        # per-grid-size numeric metrics
        study = Convergence()
        study_result, exported, _ = study.run_traced_pass(ctx)
        result.op_s += study_result.op_s
        result.failed_ops += study_result.failed_ops
        result.failures += study_result.failures
        per_n = {name: value for name, value in layer_metrics(exported).items()
                 if name in PER_GRID_SIZE}
        return {"cli.workers2_s": proc.seconds, **per_n}


class Analysis(CliWorkload):
    def __init__(self):
        super().__init__(LIGHT_COMMANDS)


# reference device of the full two-phase model
FULL_2D = dict(alpha=0.437, E_J=136.75, E_C=3.2, C_S=60.0)


class Convergence:
    """Basis-convergence study: 2D solves over n x f plus the 1D solve.

    Not a gated workload: at n = 128 the solve streams a 68 MB Lanczos basis
    through memory twice per step, and on a shared 2-core host its pass time
    spread by 27 % (quartile distance over median) across ten runs, more than
    any bound allows.  The sweep traced run runs it once for the per-grid-size
    numeric metrics and its reference checks.  Wall time sums the timed
    segments of a pass, so the checks between them are not counted."""

    def __init__(self, plan=None):
        from csfq3d import core

        self.plan = plan or [(n, f) for n in (64, 80, 128) for f in (0.5, 0.49)] + [(80, None)]
        self.q = core.QubitParams(**FULL_2D)

    def run_pass(self, ctx: Context, tracer: Tracer | None = None) -> PassResult:
        from csfq3d import numeric

        result = PassResult()
        solved, failures = {}, {}
        for n, f in self.plan:
            start = time.perf_counter()
            grid = numeric.GridSpec(n)
            if f is None:
                op = numeric.build_hamiltonian_1d(self.q, grid)
            else:
                op = numeric.build_hamiltonian_2d(self.q, f, grid)
            built = time.perf_counter()
            eig = numeric.lowest_eigenpairs(op, k=4)
            done = time.perf_counter()
            result.wall_s += done - start
            result.op_s.append(done - built)
            with tracer.suspended() if tracer else nullcontext():
                residual = residual_rel(op, eig)
            solved[(n, f)] = eig
            failures[(n, f)] = []
            if not residual <= REFERENCE["residual_rel"]:
                failures[(n, f)].append(f"residual {residual:.3e} E_J")
        self._check(solved, failures)
        for (n, f), messages in failures.items():
            if messages:
                result.failed_ops += 1
                result.failures.extend(f"n={n} f={f}: {m}" for m in messages)
        return result

    def run_traced_pass(self, ctx: Context):
        tracer = Tracer()
        with tracer.installed():
            result = self.run_pass(ctx, tracer)
        return result, merge([tracer.export()]), {}

    @staticmethod
    def _check(solved, failures) -> None:
        if (80, 0.5) in solved:
            eig = solved[(80, 0.5)]
            _check_rel(failures[(80, 0.5)], "omega01", eig.omega01,
                       REFERENCE["omega01_ghz"], REFERENCE["omega01_rel"])
            _check_rel(failures[(80, 0.5)], "anharmonicity", eig.anharmonicity,
                       REFERENCE["anharmonicity_ghz"], REFERENCE["anharmonicity_rel"])
        if (80, None) in solved:
            _check_rel(failures[(80, None)], "omega01 1D", solved[(80, None)].omega01,
                       REFERENCE["omega01_1d_ghz"], REFERENCE["omega01_1d_rel"])
        for f in (0.5, 0.49):
            if (80, f) in solved and (128, f) in solved:
                coarse, fine = solved[(80, f)].omega01, solved[(128, f)].omega01
                if not _rel_error(coarse, fine) < REFERENCE["shift_80_128_rel"]:
                    failures[(128, f)].append(f"n=80 vs n=128 shift {_rel_error(coarse, fine):.2e}")


WORKLOADS = {
    "sweep": Sweep,
    "analysis": Analysis,
}
