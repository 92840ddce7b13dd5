"""Command-line frontend: config-driven forward models and fits with CSV/JSON
output.

Subcommands: spectrum, coherence, filter, fit {spectrum|t1|envelope|fluxnoise}.
The configuration is an INI file with one section per module (see
data/example_config.ini for the full schema); command-line flags override
file values.  Every run writes a manifest.json carrying the config hash,
package versions and unit conventions, and reruns with an identical config
are bit-identical.

Exit codes: 0 success, 1 config/parse error, 2 fit non-convergence,
3 partial sweep failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, analytic
from .core import CavityParams, QubitParams
from .cqed import extract_couplings, purcell_t1, total_pull
from .decoherence import (
    DEFAULT_OMEGA_IR,
    AttenuationChain,
    FluxNoise,
    QuasiparticleEnv,
    effective_temperature,
    flux_dephasing_rates,
    qp_relaxation_rate,
    thermal_dephasing_rate,
    thermal_photon_population,
)
from .filters import FilterSpec, filter_curve
from .fit import (
    DataSeries,
    FitError,
    FitResult,
    fit_envelope,
    fit_flux_noise,
    fit_spectrum,
    fit_xqp,
)
from .numeric import ConvergenceError, GridSpec, build_hamiltonian_2d, lowest_eigenpairs

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_PARTIAL_FAILURE = 3

WORKERS_ENV_VAR = "CSFQ3D_WORKERS"

UNIT_CONVENTIONS = {
    "frequencies": "cyclic GHz (E/h)",
    "loss_rates_couplings_shifts": "cyclic MHz",
    "purcell_and_thermal_photon_rates": "cyclic convention: MHz * 1e6 as s^-1",
    "flux_noise_dephasing": "angular convention: |domega01/df| * 2pi * 1e9 rad/s",
    "decay_rates": "s^-1",
    "temperatures": "K",
}


class ConfigError(Exception):
    """Missing or invalid configuration value."""


class DataFileError(Exception):
    """Malformed input data file."""


class RunConfig:
    """Typed access to the INI sections, validated through the module types."""

    def __init__(self, parser: configparser.ConfigParser, text: str):
        self._parser = parser
        self.text = text

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text(encoding="utf-8")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(text)
        except configparser.Error as err:
            raise ConfigError(f"cannot parse config: {err}") from err
        return cls(parser, text)

    def _get(self, section, key, cast, default=None, required=True):
        if not self._parser.has_option(section, key):
            if required and default is None:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        raw = self._parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as err:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from err

    def qubit(self) -> QubitParams:
        try:
            return QubitParams(
                alpha=self._get("qubit", "alpha", float),
                E_J=self._get("qubit", "e_j_ghz", float),
                E_C=self._get("qubit", "e_c_ghz", float),
                C_S=self._get("qubit", "c_s_ff", float),
            )
        except ValueError as err:
            raise ConfigError(f"invalid [qubit] section: {err}") from err

    def cavity(self) -> CavityParams:
        try:
            return CavityParams(
                omega_c0=self._get("cavity", "omega_c0_ghz", float),
                kappa_c=self._get("cavity", "kappa_c_mhz", float),
                kappa_i=self._get("cavity", "kappa_i_mhz", float),
            )
        except ValueError as err:
            raise ConfigError(f"invalid [cavity] section: {err}") from err

    def dressed_cavity_ghz(self) -> float:
        return self._get("cavity", "omega_c_ghz", float)

    def grid(self) -> GridSpec:
        try:
            return GridSpec(n=self._get("grid", "n", int, default=80, required=False))
        except ValueError as err:
            raise ConfigError(f"invalid [grid] section: {err}") from err

    def eigenstate_count(self) -> int:
        return self._get("grid", "states", int, default=4, required=False)

    def cqed_inputs(self) -> dict:
        return {
            "omega01_ghz": self._get("cqed", "omega01_ghz", float),
            "omega12_ghz": self._get("cqed", "omega12_ghz", float),
            "chi_mhz": self._get("cqed", "chi_mhz", float),
        }

    def quasiparticle_env(self) -> QuasiparticleEnv:
        try:
            return QuasiparticleEnv(
                x_qp=self._get("noise", "x_qp", float),
                Delta0=self._get("noise", "delta0_uev", float, default=200.0, required=False),
                n_cp=self._get("noise", "n_cp_per_um3", float, default=4.9e6, required=False),
            )
        except ValueError as err:
            raise ConfigError(f"invalid [noise] section: {err}") from err

    def flux_noise(self) -> FluxNoise:
        try:
            return FluxNoise(
                A_Phi=self._get("noise", "a_phi_phi0sq", float),
                omega_ir=self._get("noise", "omega_ir_rad_s", float,
                                   default=DEFAULT_OMEGA_IR, required=False),
            )
        except ValueError as err:
            raise ConfigError(f"invalid [noise] section: {err}") from err

    def ramsey_time_s(self) -> float:
        return self._get("noise", "ramsey_time_s", float, default=1e-6, required=False)

    def base_temperature_k(self) -> float:
        return self._get("noise", "base_temperature_k", float, default=0.010, required=False)

    def attenuation_chain(self) -> AttenuationChain:
        raw = self._get("attenuation", "stages", str)
        stages = []
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                temperature, weight = item.split(":")
                stages.append((float(temperature), float(weight)))
            except ValueError as err:
                raise ConfigError(
                    f"bad [attenuation] stage {item!r}; expected T_K:weight"
                ) from err
        try:
            return AttenuationChain(stages=tuple(stages))
        except ValueError as err:
            raise ConfigError(f"invalid [attenuation] section: {err}") from err

    def sweep(self, section: str, start_key: str, stop_key: str) -> np.ndarray:
        start = self._get(section, start_key, float)
        stop = self._get(section, stop_key, float)
        steps = self._get(section, "steps", int)
        if steps < 2:
            raise ConfigError(f"[{section}] steps must be >= 2, got {steps}")
        return np.linspace(start, stop, steps)

    def filter_settings(self) -> dict:
        raw = self._get("filter", "pulse_counts", str, default="1, 20", required=False)
        try:
            counts = tuple(int(part) for part in raw.split(",") if part.strip())
        except ValueError as err:
            raise ConfigError(f"bad [filter] pulse_counts: {raw!r}") from err
        return {
            "pulse_counts": counts,
            "tau_s": self._get("filter", "tau_s", float, default=100e-6, required=False),
            "tau_pi_s": self._get("filter", "tau_pi_s", float, default=0.0, required=False),
            "omega_min_rad_s": self._get("filter", "omega_min_rad_s", float,
                                         default=1e2, required=False),
            "omega_max_rad_s": self._get("filter", "omega_max_rad_s", float,
                                         default=1e7, required=False),
            "omega_points": self._get("filter", "omega_points", int,
                                      default=400, required=False),
        }

    def envelope_settings(self) -> dict:
        return {
            "t1_s": self._get("envelope", "t1_s", float),
            "shape": self._get("envelope", "shape", str, default="gaussian", required=False),
        }

    def fit_settings(self) -> dict:
        return {
            "anharmonicity_ghz": self._get("fit", "anharmonicity_ghz", float,
                                           default=None, required=False),
            "exclude_halfwidth": self._get("fit", "exclude_halfwidth", float,
                                           default=0.002, required=False),
        }

    def output_settings(self) -> dict:
        return {
            "directory": self._get("output", "directory", str, default="out", required=False),
            "format": self._get("output", "format", str, default="csv", required=False),
            "workers": self._get("output", "workers", int, default=None, required=False),
        }


# ---------------------------------------------------------------------------
# Deterministic writers


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_safe(value):
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(item) for item in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def _write_table(path_base: Path, header: list[str], rows: list[list], fmt: str) -> Path:
    """Write rows as CSV (comma, LF, '.' decimals) or as a JSON record list."""
    if fmt == "json":
        path = path_base.with_suffix(".json")
        records = [dict(zip(header, row)) for row in rows]
        _write_json(path, records)
        return path
    path = path_base.with_suffix(".csv")
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _write_manifest(outdir: Path, command: str, config: RunConfig, outputs: list[Path],
                    extra: dict | None = None) -> None:
    payload = {
        "command": command,
        "config_sha256": hashlib.sha256(config.text.encode("utf-8")).hexdigest(),
        "tool": {"name": "csfq3d", "version": __version__},
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "unit_conventions": UNIT_CONVENTIONS,
        "outputs": sorted(p.name for p in outputs),
    }
    if extra:
        payload.update(extra)
    _write_json(outdir / "manifest.json", payload)


def _resolve_workers(args, config: RunConfig) -> int:
    if args.workers is not None:
        return max(1, args.workers)
    configured = config.output_settings()["workers"]
    if configured is not None:
        return max(1, configured)
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"bad {WORKERS_ENV_VAR} value: {env!r}")
    return 1


def _map_indexed(fn, items, workers: int):
    """Apply fn to each item, preserving input order; exceptions are captured
    per item as (index, None, error)."""
    results = [None] * len(items)
    if workers <= 1:
        for idx, item in enumerate(items):
            try:
                results[idx] = (item, fn(item), None)
            except Exception as err:  # noqa: BLE001 - reported per sweep point
                results[idx] = (item, None, err)
        return results
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, item): idx for idx, item in enumerate(items)}
        for future, idx in futures.items():
            try:
                results[idx] = (items[idx], future.result(), None)
            except Exception as err:  # noqa: BLE001
                results[idx] = (items[idx], None, err)
    return results


# ---------------------------------------------------------------------------
# Input data files


DATA_SCHEMAS = {
    "spectrum": ("flux_phi0", "freq_GHz"),
    "t1": ("temp_K", "t1_s"),
    "envelope": ("time_s", "signal"),
    "fluxnoise": ("flux_phi0", "gamma_e_per_s"),
}


def read_data_csv(path: str | Path, columns: tuple[str, str]) -> DataSeries:
    """Parse a two-column CSV with the documented header; '#' lines are
    comments.  Errors name the offending line and column."""
    path = Path(path)
    if not path.is_file():
        raise DataFileError(f"data file not found: {path}")
    x, y = [], []
    header_seen = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        cells = [cell.strip() for cell in stripped.split(",")]
        if not header_seen:
            if tuple(cells) != columns:
                raise DataFileError(
                    f"{path.name} line {lineno}: expected header "
                    f"{','.join(columns)!r}, got {stripped!r}"
                )
            header_seen = True
            continue
        if len(cells) != len(columns):
            raise DataFileError(
                f"{path.name} line {lineno}: expected {len(columns)} columns, "
                f"got {len(cells)}"
            )
        values = []
        for col, cell in enumerate(cells, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataFileError(
                    f"{path.name} line {lineno}, column {col}: "
                    f"cannot parse {cell!r} as a number"
                ) from None
        x.append(values[0])
        y.append(values[1])
    if not header_seen:
        raise DataFileError(f"{path.name}: empty data file")
    try:
        return DataSeries(np.array(x), np.array(y), x_label=columns[0], y_label=columns[1])
    except FitError as err:
        raise DataFileError(f"{path.name}: {err}") from err


# ---------------------------------------------------------------------------
# Commands


def cmd_spectrum(config: RunConfig, args) -> int:
    q = config.qubit()
    grid = config.grid()
    k = max(3, config.eigenstate_count())
    flux = config.sweep("flux_sweep", "start", "stop")
    workers = _resolve_workers(args, config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fmt = args.format or config.output_settings()["format"]

    def solve(f: float):
        return lowest_eigenpairs(build_hamiltonian_2d(q, f, grid), k=k)

    rows = []
    failures = 0
    optimal = None
    for f, result, err in _map_indexed(solve, list(flux), workers):
        w_analytic = analytic.omega01(q, f)
        if err is None:
            rows.append([f, w_analytic, result.omega01, result.transition(1, 2), "ok"])
            if f == 0.5:
                optimal = result
        else:
            failures += 1
            rows.append([f, w_analytic, "", "", f"error:{err.__class__.__name__}"])
    table = _write_table(outdir / "spectrum",
                         ["flux_phi0", "omega01_analytic_GHz", "omega01_numeric_GHz",
                          "omega12_numeric_GHz", "status"], rows, fmt)

    if optimal is None:  # the optimal point is not a (successful) sweep point
        optimal = solve(0.5)
    spectrum = analytic.perturbative_spectrum(q)
    summary = {
        "omega01_numeric_GHz": optimal.omega01,
        "omega12_numeric_GHz": optimal.transition(1, 2),
        "anharmonicity_numeric_GHz": optimal.anharmonicity,
        "omega01_analytic_GHz": spectrum.Delta,
        "anharmonicity_analytic_GHz": spectrum.A,
        "epsilon_slope_GHz_per_flux": spectrum.dEps_df,
        "perturbative_validity_ratio": spectrum.validity_ratio,
        "flags": list(spectrum.flags),
        "grid_n": grid.n,
        "failed_points": failures,
    }
    summary_path = outdir / "spectrum_summary.json"
    _write_json(summary_path, summary)
    _write_manifest(outdir, "spectrum", config, [table, summary_path],
                    {"workers": workers})
    return EXIT_PARTIAL_FAILURE if failures else EXIT_OK


def cmd_coherence(config: RunConfig, args) -> int:
    q = config.qubit()
    cavity = config.cavity()
    env = config.quasiparticle_env()
    noise = config.flux_noise()
    cqed_in = config.cqed_inputs()
    workers = _resolve_workers(args, config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fmt = args.format or config.output_settings()["format"]
    matrix_elements = analytic.junction_matrix_elements(q)

    temperatures = config.sweep("temperature_sweep", "start_k", "stop_k")

    def t1_point(temperature: float) -> float:
        return 1.0 / qp_relaxation_rate(q, cqed_in["omega01_ghz"], env, temperature,
                                        matrix_elements)

    t1_rows = [[t, value, "ok"] if err is None else [t, "", f"error:{err.__class__.__name__}"]
               for t, value, err in _map_indexed(t1_point, list(temperatures), workers)]
    failures = sum(row[2] != "ok" for row in t1_rows)
    t1_table = _write_table(outdir / "t1_vs_temperature",
                            ["temp_K", "t1_qp_s", "status"], t1_rows, fmt)

    flux = config.sweep("flux_sweep", "start", "stop")
    ramsey_time = config.ramsey_time_s()
    flux_rows = []
    for f in flux:
        derivative = analytic.domega01_df(q, f)
        gamma_e, gamma_r = flux_dephasing_rates(noise, derivative, ramsey_time)
        ratio = gamma_r / gamma_e if gamma_e > 0.0 else ""
        flux_rows.append([f, gamma_e, gamma_r, ratio])
    flux_table = _write_table(outdir / "dephasing_vs_flux",
                              ["flux_phi0", "gamma_phi_echo_per_s",
                               "gamma_phi_ramsey_per_s", "ramsey_echo_ratio"],
                              flux_rows, fmt)

    chain = config.attenuation_chain()
    t_eff = effective_temperature(chain, cavity.omega_c0)
    nbar = thermal_photon_population(config.dressed_cavity_ghz(), t_eff)
    g01, g12 = extract_couplings(cqed_in["omega01_ghz"], cqed_in["omega12_ghz"],
                                 cavity.omega_c0, config.dressed_cavity_ghz(),
                                 cqed_in["chi_mhz"])
    chi01 = (cavity.omega_c0 - config.dressed_cavity_ghz()) * 1e3
    chi12 = 2.0 * (chi01 - cqed_in["chi_mhz"])
    thermal_rate = thermal_dephasing_rate(cavity.kappa, cqed_in["chi_mhz"], nbar)
    budget = {
        "t1_qp_s": t1_point(config.base_temperature_k()),
        "t1_purcell_s": purcell_t1(cavity.kappa, g01, cqed_in["omega01_ghz"],
                                   config.dressed_cavity_ghz()),
        "t_phi_thermal_s": 1.0 / thermal_rate if thermal_rate > 0.0 else None,
        "t_eff_K": t_eff,
        "nbar": nbar,
        "g01_MHz": g01,
        "g12_MHz": g12,
        "chi01_MHz": chi01,
        "chi12_MHz": chi12,
        "chi_MHz": total_pull(chi01, chi12),
        "base_temperature_K": config.base_temperature_k(),
        "rate_convention": UNIT_CONVENTIONS["purcell_and_thermal_photon_rates"],
    }
    budget_path = outdir / "decoherence_budget.json"
    _write_json(budget_path, budget)
    _write_manifest(outdir, "coherence", config, [t1_table, flux_table, budget_path],
                    {"workers": workers})
    return EXIT_PARTIAL_FAILURE if failures else EXIT_OK


def cmd_filter(config: RunConfig, args) -> int:
    settings = config.filter_settings()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fmt = args.format or config.output_settings()["format"]
    omega = np.logspace(math.log10(settings["omega_min_rad_s"]),
                        math.log10(settings["omega_max_rad_s"]),
                        settings["omega_points"])
    outputs = []
    for n_pulses in settings["pulse_counts"]:
        if n_pulses == 0:
            spec = FilterSpec.ramsey(settings["tau_s"])
        else:
            spec = FilterSpec.cpmg(n_pulses, settings["tau_s"], settings["tau_pi_s"])
        curve = filter_curve(spec, omega)
        rows = [[w, g] for w, g in curve]
        outputs.append(_write_table(outdir / f"filter_N{n_pulses}",
                                    ["omega_rad_s", "filter_value"], rows, fmt))
    _write_manifest(outdir, "filter", config, outputs,
                    {"tau_s": settings["tau_s"], "tau_pi_s": settings["tau_pi_s"]})
    return EXIT_OK


def _result_payload(result: FitResult, extra: dict | None = None) -> dict:
    payload = {
        "parameters": result.parameters,
        "uncertainties": result.uncertainties,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "flags": list(result.flags),
    }
    if extra:
        payload.update(extra)
    return payload


def cmd_fit(config: RunConfig, args) -> int:
    data = read_data_csv(args.data, DATA_SCHEMAS[args.target])
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    settings = config.fit_settings()

    if args.target == "spectrum":
        result = fit_spectrum(data, config.qubit(),
                              anharmonicity_ghz=settings["anharmonicity_ghz"])
        extra = {"model": "perturbative omega01(f)",
                 "anharmonicity_constraint_GHz": settings["anharmonicity_ghz"]}
    elif args.target == "t1":
        q = config.qubit()
        env = config.quasiparticle_env()
        omega01 = config.cqed_inputs()["omega01_ghz"]
        matrix_elements = analytic.junction_matrix_elements(q)
        result = fit_xqp(data, q, omega01, env.Delta0, matrix_elements, n_cp=env.n_cp)
        extra = {"model": "quasiparticle T1(T)",
                 "matrix_elements": list(matrix_elements)}
    elif args.target == "envelope":
        envelope = config.envelope_settings()
        shape = args.shape or envelope["shape"]
        result = fit_envelope(data, envelope["t1_s"], shape)
        extra = {"model": f"{shape} decay envelope", "t1_s": envelope["t1_s"]}
    elif args.target == "fluxnoise":
        window = args.window if args.window is not None else settings["exclude_halfwidth"]
        result = fit_flux_noise(data, config.qubit(), exclude_halfwidth=window)
        extra = {"model": "linear Gamma_E vs |domega01/df|",
                 "exclude_halfwidth": window,
                 "sqrt_A_Phi_uPhi0": math.sqrt(result.parameters["A_Phi_Phi0sq"]) * 1e6}
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown fit target {args.target}")

    out_path = outdir / f"fit_{args.target}.json"
    _write_json(out_path, _result_payload(result, extra))
    data_hash = hashlib.sha256(Path(args.data).read_bytes()).hexdigest()
    _write_manifest(outdir, f"fit {args.target}", config, [out_path],
                    {"data_sha256": data_hash})
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csfq3d",
        description="Forward models and fits for a capacitively shunted flux "
                    "qubit in a 3D cavity.",
    )
    parser.add_argument("--config", required=True, help="INI configuration file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--workers", type=int, default=None,
                        help=f"sweep worker count (default: config, then ${WORKERS_ENV_VAR}, then 1)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="tabular output format (default from config, csv)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spectrum", help="flux sweep of analytic and numeric omega01/omega12")
    sub.add_parser("coherence", help="T1(T), flux-noise dephasing and the decoherence budget")
    sub.add_parser("filter", help="pulse-sequence filter functions")

    fit_parser = sub.add_parser("fit", help="parameter extraction from a data CSV")
    fit_parser.add_argument("target", choices=sorted(DATA_SCHEMAS))
    fit_parser.add_argument("data", help="input CSV (see README for schemas)")
    fit_parser.add_argument("--shape", choices=("gaussian", "exponential"), default=None,
                            help="envelope shape override")
    fit_parser.add_argument("--window", type=float, default=None,
                            help="fluxnoise exclusion half-width override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        if args.command == "spectrum":
            return cmd_spectrum(config, args)
        if args.command == "coherence":
            return cmd_coherence(config, args)
        if args.command == "filter":
            return cmd_filter(config, args)
        return cmd_fit(config, args)
    except (ConfigError, DataFileError, FitError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    raise SystemExit(main())
