"""Command-line frontend: config-driven forward models and fits; tables are
CSV, summaries and fit results JSON.

Subcommands: spectrum, coherence, filter, fit {spectrum|t1|envelope|fluxnoise}.
The configuration is an INI file with one section per module (see
data/example_config.ini for the full schema) and the only source of every
setting that changes an output; each command reads only the keys it uses.
The flags name the config and the output directory (--workers is accepted
and ignored).  Every run writes a manifest.json carrying the config hash,
package versions and unit conventions, and reruns with an identical config
are bit-identical.

Exit codes: 0 success, 1 config/parse or usage error, 2 fit or eigensolve
non-convergence, 3 partial sweep failure; every non-zero exit prints one
`error:` line.

A command process (main() with no argv) prints each warning as one stderr
line naming its category and message, and freezes its heap with gc.freeze()
before it exits, because tearing down numpy's modules through the cyclic
garbage collector otherwise costs more than most commands.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import json
import math
import sys
import warnings
from pathlib import Path

# The interpreter's built-in SHA-256 first: hashlib loads OpenSSL (_hashlib),
# which costs every command process ~3.5 MB of peak RSS.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256  # interpreters built without the built-in hashes

import numpy as np

from . import __version__, analytic
from .core import CavityParams, QubitParams
from .cqed import dispersive_set, purcell_t1
from .decoherence import (
    AttenuationChain,
    FluxNoise,
    QuasiparticleEnv,
    effective_temperature,
    flux_dephasing_rates,
    qp_relaxation_rate,
    thermal_dephasing_rate,
    thermal_photon_population,
)
from .filters import FilterSpec, filter_function
from .fit import (
    DataSeries,
    FitError,
    fit_envelope,
    fit_flux_noise,
    fit_spectrum,
    fit_xqp,
)
from .numeric import GridSpec, build_hamiltonian_2d, lowest_eigenpairs

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_PARTIAL_FAILURE = 3

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


#: default of a key that must be set; None is a valid default (an optional key)
_REQUIRED = object()


def _checked(label: str, factory, *args, **values):
    """factory(*args, **values), with its ValueError reported as invalid `label`."""
    try:
        return factory(*args, **values)
    except ValueError as err:
        raise ConfigError(f"invalid {label}: {err}") from err


def _read_text(path: Path, kind: str, error: type[Exception]) -> str:
    """The UTF-8 text, less any byte-order mark, of a `kind` input file; a missing
    path, a directory or bytes that are not UTF-8 raise `error` naming the path."""
    if not path.is_file():
        problem = "path is not a file" if path.exists() else "file not found"
        raise error(f"{kind} {problem}: {path}")
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise error(f"{kind} file is not UTF-8: {path}: byte {err.start}: {err.reason}") from err


class RunConfig:
    """Typed access to the INI sections, validated through the module types."""

    def __init__(self, parser: configparser.ConfigParser, text: str):
        self._parser = parser
        self.text = text

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        text = _read_text(Path(path), "config", ConfigError)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
        try:
            parser.read_string(text, source=Path(path).name)
        except configparser.Error as err:  # some messages span lines; each names its line
            raise ConfigError(f"cannot parse config: {' '.join(str(err).split())}") from err
        config = cls(parser, text)
        # tables are CSV only; a config that asks for another format is refused
        config._choice("output", "format", ("csv",), default="csv")
        return config

    def _get(self, section, key, cast, default=_REQUIRED):
        if not self._parser.has_option(section, key):
            if default is _REQUIRED:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        raw = self._parser.get(section, key)
        try:
            value = cast(raw)
        except ValueError as err:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from err
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite, got {value!r}")
        return value

    def _positive(self, section, key, default=_REQUIRED) -> float:
        value = self._get(section, key, float, default=default)
        if not value > 0.0:
            raise ConfigError(f"[{section}] {key} must be positive, got {value!r}")
        return value

    def _choice(self, section, key, choices, default) -> str:
        value = self._get(section, key, str, default=default)
        if value not in choices:
            raise ConfigError(f"[{section}] {key} must be one of {', '.join(choices)}, "
                              f"got {value!r}")
        return value

    def qubit(self) -> QubitParams:
        return _checked("[qubit] section", QubitParams,
                        alpha=self._get("qubit", "alpha", float),
                        E_J=self._get("qubit", "e_j_ghz", float),
                        E_C=self._get("qubit", "e_c_ghz", float),
                        C_S=self._get("qubit", "c_s_ff", float))

    def cavity(self) -> CavityParams:
        return _checked("[cavity] section", CavityParams,
                        omega_c0=self._get("cavity", "omega_c0_ghz", float),
                        kappa_c=self._get("cavity", "kappa_c_mhz", float),
                        kappa_i=self._get("cavity", "kappa_i_mhz", float))

    def grid(self) -> GridSpec:
        return _checked("[grid] section", GridSpec, n=self._get("grid", "n", int, default=GridSpec.n))

    def quasiparticle_env(self, x_qp: float | None = None) -> QuasiparticleEnv:
        """The [noise] quasiparticle environment; a caller that fits x_qp passes
        a stand-in and [noise] x_qp is not read."""
        if x_qp is None:
            x_qp = self._get("noise", "x_qp", float)
        return _checked("[noise] section", QuasiparticleEnv, x_qp=x_qp,
                        Delta0=self._get("noise", "delta0_uev", float, default=QuasiparticleEnv.Delta0),
                        n_cp=self._get("noise", "n_cp_per_um3", float, default=QuasiparticleEnv.n_cp))

    def flux_noise(self) -> FluxNoise:
        return _checked("[noise] section", FluxNoise,
                        A_Phi=self._get("noise", "a_phi_phi0sq", float),
                        omega_ir=self._get("noise", "omega_ir_rad_s", float,
                                         default=FluxNoise.omega_ir))

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
        return _checked("[attenuation] section", AttenuationChain, stages=tuple(stages))

    def sweep(self, section: str, start_key: str, stop_key: str) -> np.ndarray:
        start = self._get(section, start_key, float)
        stop = self._get(section, stop_key, float)
        steps = self._get(section, "steps", int)
        if steps < 2:
            raise ConfigError(f"[{section}] steps must be >= 2, got {steps}")
        try:
            return np.linspace(start, stop, steps)
        except MemoryError as err:
            raise ConfigError(f"[{section}] steps = {steps}: {err}") from err

    def pulse_counts(self) -> tuple[int, ...]:
        raw = self._get("filter", "pulse_counts", str, default="1, 20")
        try:
            counts = tuple(int(part) for part in raw.split(",") if part.strip())
        except ValueError as err:
            raise ConfigError(f"bad [filter] pulse_counts: {raw!r}") from err
        if not counts:
            raise ConfigError(f"[filter] pulse_counts names no sequence: {raw!r}")
        if len(set(counts)) != len(counts):
            raise ConfigError(f"[filter] pulse_counts repeats a count: {raw!r}")
        return counts


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
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")


def _write_table(path: Path, header: list[str], rows: list[list]) -> Path:
    """Write rows as CSV: comma, LF, '.' decimals."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _write_manifest(outdir: Path, command: str, config: RunConfig, outputs: list[Path],
                    extra: dict | None = None) -> None:
    payload = {
        "command": command,
        "config_sha256": sha256(config.text.encode("utf-8")).hexdigest(),
        "tool": {"name": "csfq3d", "version": __version__},
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "unit_conventions": UNIT_CONVENTIONS,
        "outputs": sorted(p.name for p in outputs),
    }
    if extra:
        payload.update(extra)
    _write_json(outdir / "manifest.json", payload)


def _attempt(fn, point):
    """(fn(point), None), or (None, error) when fn raised."""
    try:
        return fn(point), None
    except Exception as err:  # noqa: BLE001 - reported per sweep point
        return None, err


def _status(err) -> str:
    return "ok" if err is None else f"error:{err.__class__.__name__}"


def _non_finite(table: Path, header: list[str], rows: list[list]) -> list[str]:
    """One message per non-finite float cell of `table`, at its row's first cell."""
    return [f"{table.stem} {name} = {value} at {header[0]} = {row[0]}"
            for row in rows for name, value in zip(header, row)
            if isinstance(value, float) and not math.isfinite(value)]


def _sweep_exit(table: Path, column: str, results, invalid=()) -> int:
    """EXIT_OK, or EXIT_PARTIAL_FAILURE after one error line: the count of failed rows
    among the (point, (value, error)) `results` of `table` and the first failed
    (point, error), else the first invalid value."""
    failed = [(point, err) for point, (_, err) in results if err is not None]
    problems = [f"{table.name}: {len(failed)} of {len(results)} rows failed; first at "
                f"{column} = {_fmt(point)}: {' '.join(str(err).split())}"
                for point, err in failed[:1]]
    problems += invalid
    if problems:
        print(f"error: {problems[0]}", file=sys.stderr)
    return EXIT_PARTIAL_FAILURE if problems else EXIT_OK


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
    text = _read_text(path, "data", DataFileError)
    x, y = [], []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
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
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):  # a word, or a nan or inf cell
                raise DataFileError(f"{path.name} line {lineno}, column {col}: "
                                    f"cannot parse {cell!r} as a finite number")
            values.append(value)
        x.append(values[0])
        y.append(values[1])
    if not header_seen:
        raise DataFileError(f"{path.name}: empty data file")
    try:
        return DataSeries(np.array(x), np.array(y))
    except FitError as err:
        raise DataFileError(f"{path.name}: {err}") from err


# ---------------------------------------------------------------------------
# Commands


def cmd_spectrum(config: RunConfig, args) -> int:
    q = config.qubit()
    grid = config.grid()
    flux = config.sweep("flux_sweep", "start", "stop")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    def solve(f: float):  # (omega01, omega12) of the three lowest levels
        result = lowest_eigenpairs(build_hamiltonian_2d(q, f, grid), k=3)
        return result.omega01, result.transition(1, 2)

    # H(1 - f) is H(f) with phi_m -> -phi_m, so each mirror pair is solved once; a key
    # within 2 ulp(1) of the next smaller one (1 - f rounded) shares its solve, unrounded
    solved, previous = {}, -math.inf
    for key in sorted({min(f, 1.0 - f) for f in flux} | {0.5}):
        close = key - previous <= 2.0 * np.spacing(1.0)
        solved[key] = solved[previous] if close else _attempt(solve, key)
        previous = key
    results = [(f, solved[min(f, 1.0 - f)]) for f in flux]
    header = ["flux_phi0", "omega01_analytic_GHz", "omega01_numeric_GHz",
              "omega12_numeric_GHz", "status"]
    rows = [[f, analytic.omega01(q, f), *(omegas or ("", "")), _status(err)]
            for f, (omegas, err) in results]
    table = _write_table(outdir / "spectrum.csv", header, rows)

    optimal, optimal_error = solved[0.5]
    omega01, omega12 = optimal or (None, None)
    ratio = analytic.validity_ratio(q)
    summary = {  # a failed optimal-point solve leaves its numeric fields null
        "omega01_numeric_GHz": omega01,
        "omega12_numeric_GHz": omega12,
        "anharmonicity_numeric_GHz": optimal and omega12 - omega01,
        "omega01_analytic_GHz": analytic.gap(q),
        "anharmonicity_analytic_GHz": analytic.anharmonicity(q),
        "epsilon_slope_GHz_per_flux": analytic.epsilon_slope(q),
        "perturbative_validity_ratio": ratio,
        "flags": ["perturbative_ratio_low"] if ratio < analytic.VALIDITY_RATIO_FLOOR else [],
        "grid_n": grid.n,
        "failed_points": sum(err is not None for _, (_, err) in results),
    }
    summary_path = outdir / "spectrum_summary.json"
    _write_json(summary_path, summary)
    _write_manifest(outdir, "spectrum", config, [table, summary_path])
    if optimal_error is not None:
        print(f"error: optimal point f = 0.5: {optimal_error}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return _sweep_exit(table, "flux_phi0", results, _non_finite(table, header, rows))


def cmd_coherence(config: RunConfig, args) -> int:
    q = config.qubit()
    cavity = config.cavity()
    env = config.quasiparticle_env()
    noise = config.flux_noise()
    omega01 = config._positive("cqed", "omega01_ghz")
    omega12 = config._positive("cqed", "omega12_ghz")
    chi = config._get("cqed", "chi_mhz", float)
    base_temperature = config._positive("noise", "base_temperature_k", default=0.010)
    chain = config.attenuation_chain()
    temperatures = config.sweep("temperature_sweep", "start_k", "stop_k")
    flux = config.sweep("flux_sweep", "start", "stop")
    ramsey_time = config._get("noise", "ramsey_time_s", float, default=1e-6)
    omega_c = config._get("cavity", "omega_c_ghz", float)
    dispersive = _checked("[cqed]/[cavity] values", dispersive_set, omega01, omega12,
                          cavity.omega_c0, omega_c, chi)
    matrix_elements = analytic.junction_matrix_elements(q)

    def t1_point(temperature: float) -> float:
        rate = qp_relaxation_rate(q, omega01, env, temperature, matrix_elements)
        return 1.0 / rate if rate > 0.0 else math.inf

    def flux_row(f: float) -> list:
        gamma_e, gamma_r = flux_dephasing_rates(noise, analytic.domega01_df(q, f), ramsey_time)
        return [f, gamma_e, gamma_r, gamma_r / gamma_e if gamma_e > 0.0 else ""]

    # the budget point, the chain and the Ramsey window are not sweep points: a value
    # they reject is a config error, reported before the first table is written
    t1_base = _checked("[cqed]/[noise] values", t1_point, base_temperature)
    t_eff = _checked("[attenuation] section", effective_temperature, chain, cavity.omega_c0)
    flux_rows = [_checked("[noise] ramsey_time_s", flux_row, f) for f in flux]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t1_results = [(t, _attempt(t1_point, t)) for t in temperatures]
    t1_table = _write_table(outdir / "t1_vs_temperature.csv", ["temp_K", "t1_qp_s", "status"],
                            [[t, value if err is None else "", _status(err)]
                             for t, (value, err) in t1_results])
    flux_header = ["flux_phi0", "gamma_phi_echo_per_s", "gamma_phi_ramsey_per_s",
                   "ramsey_echo_ratio"]
    flux_table = _write_table(outdir / "dephasing_vs_flux.csv", flux_header, flux_rows)

    nbar = thermal_photon_population(omega_c, t_eff)
    thermal_rate = thermal_dephasing_rate(cavity.kappa, chi, nbar)
    budget = {
        "t1_qp_s": t1_base,
        "t1_purcell_s": purcell_t1(cavity.kappa, dispersive.g01, omega01, omega_c),
        "t_phi_thermal_s": None if thermal_rate == 0.0 else 1.0 / thermal_rate,
        "t_eff_K": t_eff,
        "nbar": nbar,
        "g01_MHz": dispersive.g01,
        "g12_MHz": dispersive.g12,
        "chi01_MHz": dispersive.chi01,
        "chi12_MHz": dispersive.chi12,
        "chi_MHz": dispersive.chi,
        "base_temperature_K": base_temperature,
        "rate_convention": UNIT_CONVENTIONS["purcell_and_thermal_photon_rates"],
    }
    budget_path = outdir / "decoherence_budget.json"
    _write_json(budget_path, budget)
    _write_manifest(outdir, "coherence", config, [t1_table, flux_table, budget_path])
    # an overflowing input leaves a non-finite rate or a NaN time; an
    # infinite budget time (no quasiparticle rate) is a legitimate value
    invalid = _non_finite(flux_table, flux_header, flux_rows)
    invalid += [f"decoherence_budget {key} = nan" for key, value in budget.items()
                if isinstance(value, float) and math.isnan(value)]
    return _sweep_exit(t1_table, "temp_K", t1_results, invalid)


def cmd_filter(config: RunConfig, args) -> int:
    counts = config.pulse_counts()
    tau = config._get("filter", "tau_s", float, default=100e-6)
    tau_pi = config._get("filter", "tau_pi_s", float, default=FilterSpec.tau_pi)
    omega_min = config._positive("filter", "omega_min_rad_s", default=1e2)
    omega_max = config._positive("filter", "omega_max_rad_s", default=1e7)
    points = config._get("filter", "omega_points", int, default=400)
    if points < 1:
        raise ConfigError(f"[filter] omega_points must be >= 1, got {points}")
    if not math.isfinite(max(omega_min, omega_max) * tau):
        raise ConfigError(f"[filter] tau_s = {tau!r} overflows omega * tau_s on the grid")
    try:  # every table is computed before the first is written
        omega = np.logspace(math.log10(omega_min), math.log10(omega_max), points)
        tables = [(n, filter_function(FilterSpec(n, tau, tau_pi), omega)) for n in counts]
    except ValueError as err:
        raise ConfigError(f"invalid [filter] section: {err}") from err
    except MemoryError as err:
        raise ConfigError(f"[filter] omega_points or pulse_counts too large: {err}") from err
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = [_write_table(outdir / f"filter_N{n}.csv", ["omega_rad_s", "filter_value"],
                            [[w, g] for w, g in zip(omega, values)])
               for n, values in tables]
    _write_manifest(outdir, "filter", config, outputs, {"tau_s": tau, "tau_pi_s": tau_pi})
    return EXIT_OK


def cmd_fit(config: RunConfig, args) -> int:
    data = read_data_csv(args.data, DATA_SCHEMAS[args.target])
    if args.target == "spectrum":
        anharmonicity = config._positive("fit", "anharmonicity_ghz")
        result = fit_spectrum(data, anharmonicity)
        extra = {"model": "perturbative omega01(f)",
                 "anharmonicity_constraint_GHz": anharmonicity}
    elif args.target == "t1":
        q = config.qubit()
        omega01 = config._positive("cqed", "omega01_ghz")
        env = config.quasiparticle_env(x_qp=1.0)  # x_qp is the fitted value
        matrix_elements = analytic.junction_matrix_elements(q)
        result = _checked("[cqed]/[noise] values", fit_xqp, data, q, omega01, env.Delta0,
                          matrix_elements, n_cp=env.n_cp)
        extra = {"model": "quasiparticle T1(T)",
                 "matrix_elements": list(matrix_elements)}
    elif args.target == "envelope":
        t1 = config._positive("envelope", "t1_s")
        shape = config._choice("envelope", "shape", ("gaussian", "exponential"),
                               default="gaussian")
        result = fit_envelope(data, t1, shape)
        extra = {"model": f"{shape} decay envelope", "t1_s": t1}
    else:  # fluxnoise; argparse restricts the targets
        window = config._get("fit", "exclude_halfwidth", float, default=0.002)
        if not window >= 0.0:
            raise ConfigError(f"[fit] exclude_halfwidth must be >= 0, got {window!r}")
        result = fit_flux_noise(data, config.qubit(), exclude_halfwidth=window)
        extra = {"model": "linear Gamma_E vs |domega01/df|",
                 "exclude_halfwidth": window,
                 "sqrt_A_Phi_uPhi0": math.sqrt(result.parameters["A_Phi_Phi0sq"]) * 1e6}

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    out_path = outdir / f"fit_{args.target}.json"
    _write_json(out_path, {"parameters": result.parameters,
                           "uncertainties": result.uncertainties,
                           "residual_norm": result.residual_norm,
                           "iterations": result.iterations,
                           "converged": result.converged,
                           "flags": list(result.flags), **extra})
    data_hash = sha256(Path(args.data).read_bytes()).hexdigest()
    _write_manifest(outdir, f"fit {args.target}", config, [out_path],
                    {"data_sha256": data_hash})
    if not result.converged:
        values = ", ".join(f"{name} = {value:.6g}" for name, value in
                           [*result.parameters.items(), ("residual_norm", result.residual_norm)])
        print(f"error: fit {args.target} did not converge ({values})", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error ends like a config error: exit 1 with one error line.
    Subcommand parsers are built from the same class."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="csfq3d",
        description="Forward models and fits for a capacitively shunted flux "
                    "qubit in a 3D cavity.",
    )
    parser.add_argument("--config", required=True, help="INI configuration file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--workers", type=int,
                        help="accepted and ignored: sweep points run in order")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spectrum", help="flux sweep of analytic and numeric omega01/omega12")
    sub.add_parser("coherence", help="T1(T), flux-noise dephasing and the decoherence budget")
    sub.add_parser("filter", help="pulse-sequence filter functions")

    fit_parser = sub.add_parser("fit", help="parameter extraction from a data CSV")
    fit_parser.add_argument("target", choices=sorted(DATA_SCHEMAS))
    fit_parser.add_argument("data", help="input CSV (see README for schemas)")
    return parser


def main(argv=None) -> int:
    if argv is None:
        # Process entry: a model warning is one stderr line, its category and message.
        warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    try:
        args = _build_parser().parse_args(argv)
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
    finally:
        if argv is None:
            # Process entry (`-m`, the console script): interpreter exit would otherwise
            # tear numpy's modules down through the cyclic GC, which costs more than most
            # commands.  Refcounting still frees frozen objects and the streams are still
            # flushed; every output file is already written and closed when a command returns.
            gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
