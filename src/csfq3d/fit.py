"""Inverse problems: extraction of qubit and noise parameters from data.

The perturbative spectrum omega01(f) is a straight line in (f - 1/2)^2, so
its fit is a weighted line fit plus a closed-form inversion of (gap,
curvature, measured anharmonicity), with no start and no iteration.  The
coherence envelope and the T1 trace are y = a phi(t; theta) + c with one
nonlinear theta (Gamma_phi >= 0, or T1), so both are fitted by variable
projection: (a, c) in closed form at each theta, theta by a grid scan and a
golden-section search, with no start.  The quasiparticle density x_qp and
the flux-noise amplitude A_Phi enter their models linearly, so each is one
closed-form through-origin regression.  These four scale-free fits share
:func:`_weights`; the spectrum fit keeps caller-scale weights, as its
anharmonicity row has an absolute 0.01 GHz sigma.  A fit whose model lives in
:mod:`csfq3d.analytic` or :mod:`csfq3d.decoherence` calls it there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import analytic
from .core import CONSTANTS, QubitParams, capacitance_from_charging_energy
from .decoherence import (
    QuasiparticleEnv,
    QuasiparticleValidityWarning,
    decay_envelope,
    qp_relaxation_rate,
)


class FitError(Exception):
    """Invalid or insufficient data for the requested fit."""


class RankDeficientDataError(FitError):
    """The data cannot constrain the requested parameters (degenerate abscissae)."""


@dataclass(frozen=True)
class DataSeries:
    """Measured (x, y) series, sorted by x on construction.

    y_err, when given, supplies per-point standard deviations used as
    least-squares weights.
    """

    x: np.ndarray
    y: np.ndarray
    y_err: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
            raise FitError("x and y must be 1D arrays of equal length")
        if len(x) < 2:
            raise FitError(f"need at least 2 points, got {len(x)}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise FitError("data contains non-finite values")
        order = np.argsort(x, kind="stable")
        object.__setattr__(self, "x", x[order])
        object.__setattr__(self, "y", y[order])
        if self.y_err is not None:
            err = np.asarray(self.y_err, dtype=float)
            if err.shape != x.shape:
                raise FitError("y_err must match the data length")
            if not np.all(np.isfinite(err) & (err > 0.0)):
                raise FitError("y_err must be finite and positive")
            object.__setattr__(self, "y_err", err[order])

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: physical parameter values, their linearized covariance (one
    row and column per parameter, in order, else a ValueError), the one record of the
    ``uncertainties`` sqrt(diag(covariance)), the residual norm in the weights 1/y_err and
    the best cost after each cost evaluation (``cost_history``, non-increasing, in the
    weights of :func:`_weights`), whose count is ``iterations`` (1 for a closed form).
    A non-finite parameter or residual norm means not converged."""

    parameters: dict[str, float]
    covariance: np.ndarray
    residual_norm: float
    converged: bool
    cost_history: tuple[float, ...]
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if np.shape(self.covariance) != (n := len(self.parameters),) * 2:
            raise ValueError(f"covariance of shape {np.shape(self.covariance)} for {n} parameters")
        finite = all(math.isfinite(v) for v in (*self.parameters.values(), self.residual_norm))
        object.__setattr__(self, "converged", self.converged and finite)

    @property
    def iterations(self) -> int:
        return len(self.cost_history)

    @property
    def uncertainties(self) -> dict[str, float]:
        return dict(zip(self.parameters, np.sqrt(np.diag(self.covariance)).tolist()))


# ---------------------------------------------------------------------------
# Variable projection core


def _weights(sigma: np.ndarray | None, like: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights 1/sigma over their largest, in (0, 1] and so safe to square at any
    scale of sigma, and the smallest sigma, which divides a residual norm in
    these weights into one in the caller's 1/sigma (ones and 1 without sigma)."""
    if sigma is None:
        return np.ones_like(like), 1.0
    return sigma.min() / sigma, float(sigma.min())


_GRID_POINTS = 25      # log-spaced over centre * 10^[-3, 3]
_SEARCH_STEPS = 58     # golden-section steps: the bracket shrinks by 0.618^58 = 7.6e-13
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_COND = 1e14       # largest condition number of the unit-diagonal J^T J that is well posed


def _covariance(jac: np.ndarray, scale: float) -> tuple[np.ndarray, bool]:
    """scale (J^T J)^-1, and whether J^T J is well posed, from one eigendecomposition of
    D J^T J D, D = diag(1/|J_i|), whose unit-length columns keep the data's units from
    deciding (van der Sluis, Numer. Math. 14, 14 (1969)).  Well posed: every eigenvalue
    above 1/_MAX_COND of the largest.  The inverse runs over the resolved eigenvectors,
    mapped back with D; a parameter with a component above sqrt(eps) in an unresolved
    one (a zero column is one) gets an infinite variance, nan covariances; a non-finite J, nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        length = np.hypot.reduce(jac, axis=0)  # column norms that do not overflow
    if not np.isfinite(length).all():
        return np.full((jac.shape[1],) * 2, np.nan), False
    length[length == 0.0] = 1.0  # a zero column stays zero, and unresolved
    lam, vec = np.linalg.eigh((jac / length).T @ (jac / length))
    resolved = lam > lam[-1] / _MAX_COND
    free = np.abs(vec[:, ~resolved]).max(axis=1, initial=0.0) > math.sqrt(np.finfo(float).eps)
    factor = math.sqrt(scale) / length
    cov = (vec[:, resolved] / lam[resolved]) @ vec[:, resolved].T * factor * factor[:, None]
    cov[free, :] = cov[:, free] = np.nan
    cov[free, free] = np.inf
    return cov, bool(resolved.all())


def _separable_fit(basis, data: DataSeries, centre: float, name: str,
                   bounded_below: bool = False) -> FitResult:
    """Fit y = amplitude * basis(theta) + offset by variable projection
    (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)).

    For each theta the weighted two-column least squares gives (amplitude,
    offset) in closed form, so the cost is a function of theta alone.  It is
    scanned on a grid log-spaced over centre * 10^[-3, 3], with theta = 0
    prepended when bounded_below (theta >= 0 is physical), and then
    golden-section searched between the best grid point's neighbours.  The
    fit has converged when that grid point is inside the grid (theta = 0
    counts as inside) and the grid costs are not all equal (a flat scan
    constrains nothing).  ``cost_history`` is the best cost after each
    projected-cost evaluation, so it never increases; the costs are in the
    weights of :func:`_weights`, and ``residual_norm`` is in the caller's 1/y_err.

    The covariance is the linearized s^2 (J^T J)^-1 of the columns
    [amplitude d basis/d theta, basis, 1] at the optimum.  d basis/d theta is a
    central difference at a step of 1e-6 max(theta, smallest positive grid point),
    forward where it would cross theta = 0, and 0 where the difference is rounding
    noise.  :func:`_covariance` scales each column to unit length first, so a change
    of units (y -> s y) changes neither the flags nor theta's uncertainty; a fit whose
    scaled J^T J is singular or ill-conditioned is flagged ``degenerate_jacobian``,
    and a parameter left unresolved gets an infinite variance.
    """
    y = data.y
    weight, smallest_err = _weights(data.y_err, y)
    w2 = weight * weight
    total = float(w2.sum())
    y_mean = float(w2 @ y) / total

    evaluated = []  # (cost, theta, amplitude, offset, basis) of every projection

    def project(theta):
        phi = basis(theta)
        phi_mean = float(w2 @ phi) / total
        spread = float(w2 @ (phi - phi_mean) ** 2)
        amplitude = float(w2 @ ((phi - phi_mean) * (y - y_mean))) / spread if spread else 0.0
        offset = y_mean - amplitude * phi_mean
        residual = (amplitude * phi + offset - y) * weight
        evaluated.append((float(residual @ residual), theta, amplitude, offset, phi))
        return evaluated[-1][0]

    grid = centre * np.logspace(-3.0, 3.0, _GRID_POINTS)
    if bounded_below:
        grid = np.concatenate([[0.0], grid])
    costs = [project(float(theta)) for theta in grid]
    k = costs.index(min(costs))
    lo, hi = float(grid[max(k - 1, 0)]), float(grid[min(k + 1, len(grid) - 1)])
    left, right = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    left_cost, right_cost = project(left), project(right)
    for _ in range(_SEARCH_STEPS):
        if left_cost <= right_cost:
            hi, right, right_cost = right, left, left_cost
            left = hi - _GOLDEN * (hi - lo)
            left_cost = project(left)
        else:
            lo, left, left_cost = left, right, right_cost
            right = lo + _GOLDEN * (hi - lo)
            right_cost = project(right)
    cost, theta, amplitude, offset, phi = min(evaluated, key=lambda e: e[0])

    step = 1e-6 * max(theta, 1e-3 * centre)
    if bounded_below and theta < step:  # a central difference would probe theta < 0
        diff, width = basis(theta + step) - phi, step
    else:
        diff, width = basis(theta + step) - basis(theta - step), 2.0 * step
    # a difference within 16 ulps of max|basis| is the rounding of basis: a zero, unresolved slope
    slope = diff / width * (np.abs(diff).max() > 16 * np.finfo(float).eps * np.abs(phi).max())
    jac = np.column_stack([amplitude * slope, phi, np.ones_like(phi)]) * weight[:, None]
    cov, well_posed = _covariance(jac, cost / max(len(y) - 3, 1))
    inside = 0 < k < len(grid) - 1 or (bounded_below and k == 0)
    return FitResult(
        parameters={name: theta, "amplitude": amplitude, "offset": offset},
        covariance=cov,
        residual_norm=math.sqrt(cost) / smallest_err,
        converged=inside and min(costs) < max(costs),
        cost_history=tuple(np.minimum.accumulate([e[0] for e in evaluated]).tolist()),
        flags=() if well_posed else ("degenerate_jacobian",),
    )


def _regression(regressor: np.ndarray, target: np.ndarray, sigma: np.ndarray | None,
                name: str, nonnegative: bool = False) -> tuple[float, float, float, float]:
    """(slope, its standard error, cost, residual norm) of the least-squares
    target = slope * regressor in the weights of :func:`_weights` on sigma, the
    slope clipped at zero if nonnegative; the cost is in those weights and the
    residual norm in the caller's 1/sigma."""
    weight, smallest_err = _weights(sigma, target)
    regressor, target = weight * regressor, weight * target
    denom = float(regressor @ regressor)
    if denom == 0.0:
        raise RankDeficientDataError(f"{name} vanishes at every point")
    slope = float(regressor @ target) / denom
    if nonnegative:
        slope = max(slope, 0.0)
    residual = target - slope * regressor
    cost = float(residual @ residual)
    error = math.sqrt(cost / max(len(target) - 1, 1) / denom)
    return slope, error, cost, math.sqrt(cost) / smallest_err


def _check_scale(values: np.ndarray, quantity: str) -> None:
    """Refuse data whose sum of squares, the scale of a fit's cost, overflows."""
    with np.errstate(over="ignore"):
        if not math.isfinite(float(values @ values)):
            raise FitError(f"{quantity} overflow: their sum of squares is inf")


def _spectrum_parameters(point) -> np.ndarray:
    """(alpha, C_S fF, E_J GHz) from point = (Delta, c, A): the gap, the
    curvature 2 s^2/Delta of omega01 in (f - 1/2)^2 and the anharmonicity.
    With Delta - A = sqrt(4 E_CS E_J (1 - 2 alpha)) and A = (8 alpha - 1) E_CS/(4 (1 - 2 alpha)),
    alpha is the one root in (1/8, 1/2), bisected, of the rising cubic
    alpha^2 (8 alpha - 1) - R (1 - 2 alpha)^3, R = 2 A Delta c/(pi^2 (Delta - A)^3),
    and C_S = e^2/2 E_CS is C(4 GHz) (8 alpha - 1)/(A (1 - 2 alpha)), C(E) the
    capacitance of charging energy E.  Python floats never warn; a point no
    parameter set reproduces is a FitError naming the quantity."""
    delta, curvature, anharmonicity = (float(value) for value in point)
    if not (anharmonicity < delta and curvature > 0.0):
        raise FitError(f"anharmonicity A = {anharmonicity:.6g} GHz, fitted gap {delta:.6g} GHz "
                       f"and curvature {curvature:.6g} GHz: need A < gap and curvature > 0")
    omega = delta - anharmonicity
    ratio = 2.0 / math.pi**2 * (anharmonicity / omega) * (delta / omega) * (curvature / omega)
    lo, hi = 0.125, 0.5
    while lo < (alpha := 0.5 * (lo + hi)) < hi:
        below = alpha * alpha * (8.0 * alpha - 1.0) < ratio * (1.0 - 2.0 * alpha) ** 3
        lo, hi = (alpha, hi) if below else (lo, alpha)
    if lo == 0.125 or hi == 0.5:  # alpha is lo or hi, and neither may be a bound
        raise FitError(f"anharmonicity A = {anharmonicity:.6g} GHz leaves alpha unresolved "
                       f"at {alpha:.17g}, not inside (1/8, 1/2)")
    quartic, stiffness = 8.0 * alpha - 1.0, 1.0 - 2.0 * alpha
    e_cs = 4.0 * anharmonicity * stiffness / quartic
    c_s = capacitance_from_charging_energy(4.0) * quartic / anharmonicity / stiffness
    e_j = omega / stiffness * (omega / anharmonicity) * quartic / stiffness / 16.0
    if not all(math.isfinite(value) and value > 0.0 for value in (e_cs, c_s, e_j)):
        raise FitError(f"anharmonicity A = {anharmonicity:.6g} GHz gives E_CS = {e_cs:.6g} GHz, "
                       f"C_S = {c_s:.6g} fF, E_J = {e_j:.6g} GHz: not all finite and positive")
    return np.array([alpha, c_s, e_j])


# ---------------------------------------------------------------------------
# Fits


def fit_spectrum(data: DataSeries, anharmonicity_ghz: float) -> FitResult:
    """Extract (alpha, C_S, E_J) in closed form from an omega01(f) spectrum,
    GHz vs Phi/Phi_0, and the separately measured (two-tone) anharmonicity A.

    :func:`csfq3d.analytic.omega01` is the line Delta + c (f - 1/2)^2 and A
    fixes the third parameter, so the weighted line fit minimizes the cost
    with the row (A_model - A)/0.01 GHz at zero (variable projection).  Its
    covariance s^2 (J^T J)^-1 is the Jacobian of :func:`_spectrum_parameters`
    applied to cov(Delta, c) and sigma_A = 0.01 GHz, scaled by s^2 = RSS/(m - 2).
    """
    f, y = data.x, data.y
    if len(data) < 4:
        raise FitError(f"need at least 4 spectrum points, got {len(data)}")
    if np.ptp(np.abs(f - 0.5)) == 0.0:
        raise RankDeficientDataError("all points share one |f - 0.5|: the gap and the "
                                     "curvature are not separable")
    if f.min() >= 0.5 or f.max() <= 0.5:
        raise FitError("spectrum data must span both sides of f = 0.5")

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            x = (f - 0.5) ** 2
            w2 = 1.0 / data.y_err**2 if data.y_err is not None else np.ones_like(y)
            total = w2.sum()
            x_mean, y_mean = w2 @ x / total, w2 @ y / total
            spread = w2 @ (x - x_mean) ** 2
            curvature = w2 @ ((x - x_mean) * (y - y_mean)) / spread
            delta = y_mean - curvature * x_mean
            rss = float(w2 @ (delta + curvature * x - y) ** 2)
            point = np.array([delta, curvature, anharmonicity_ghz])
            step = 1e-6 * np.abs(point)
            jac = np.column_stack([_spectrum_parameters(point + h) - _spectrum_parameters(point - h)
                                   for h in np.diag(step)]) / (2.0 * step)
            block = np.array([[1.0 / total + x_mean * x_mean / spread, -x_mean / spread, 0.0],
                              [-x_mean / spread, 1.0 / spread, 0.0], [0.0, 0.0, 0.01**2]])
            cov = rss / (len(data) - 2) * jac @ block @ jac.T
    except FloatingPointError as err:
        raise FitError(f"the spectrum fit overflows: {err}") from err
    parameters = dict(zip(("alpha", "C_S_fF", "E_J_GHz"), _spectrum_parameters(point).tolist()))
    return FitResult(parameters=parameters, covariance=cov, residual_norm=math.sqrt(rss),
                     converged=True, cost_history=(rss,))


def fit_xqp(data: DataSeries, q: QubitParams, omega01_ghz: float, delta0_uev: float,
            matrix_elements: tuple[float, float], n_cp: float = QuasiparticleEnv.n_cp) -> FitResult:
    """Extract the quasiparticle density x_qp from T1 vs temperature data.

    data holds (temperature K, T1 s); the fit runs on rates Gamma = 1/T1.  The
    model :func:`csfq3d.decoherence.qp_relaxation_rate` is linear in x_qp,
    Gamma(T) = Gamma_eq(T) + x_qp s(T), so the rate itself gives both
    regressors, Gamma_eq(T) = Gamma(T; x_qp = 0) and s(T) = Gamma(T; 1) - Gamma(T; 0),
    and x_qp = max(0, sum w^2 s (Gamma - Gamma_eq) / sum w^2 s^2).
    """
    temperatures, t1 = data.x, data.y
    if np.any(t1 <= 0.0):
        raise FitError("T1 values must be positive")
    cold = temperatures[~(CONSTANTS.k_B * temperatures > 0.0)]  # the rates divide by k_B T
    if cold.size:
        raise FitError("data temperatures must be positive with k_B T > 0, "
                       f"got {float(cold[0])!r} K")
    with np.errstate(over="ignore"):
        rates = 1.0 / t1
    _check_scale(rates, "the relaxation rates 1/T1")
    # T1 uncertainties propagate to rate space as sigma_Gamma = sigma_T1/T1^2, formed
    # over max(y_err) and max(T1), and scaled back in steps, so that nothing overflows
    err_max, t1_max = (1.0, 1.0) if data.y_err is None else (data.y_err.max(), t1.max())
    sigma = None if data.y_err is None else data.y_err / err_max / (t1 / t1_max) ** 2

    unit = QuasiparticleEnv(x_qp=1.0, Delta0=delta0_uev, n_cp=n_cp)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuasiparticleValidityWarning)
        thermal, unit_rate = (np.array([qp_relaxation_rate(q, omega01_ghz, env, t, matrix_elements)
                                        for t in temperatures])
                              for env in (replace(unit, x_qp=0.0), unit))
    x_qp, error, cost, residual_norm = _regression(
        unit_rate - thermal, rates - thermal, sigma, "non-equilibrium rate per unit x_qp",
        nonnegative=True)
    # data dominated by the thermal term (e.g. only high temperatures)
    # leaves x_qp with a wide relative uncertainty
    weak = error != 0.0 and (not np.isfinite(error) or error > 0.5 * x_qp)
    # x_qp = 0 is the bound x_qp >= 0, where the clip, not the data, set the value
    flags = ("x_qp_weakly_constrained",) * weak + ("x_qp_at_bound",) * (x_qp == 0.0)

    gradient = np.array([1.0, unit.n_qp])  # d(x_qp, n_qp)/d x_qp
    return FitResult(parameters={"x_qp": x_qp, "n_qp_per_um3": x_qp * unit.n_qp},
                     covariance=error**2 * np.outer(gradient, gradient),
                     residual_norm=residual_norm / err_max * t1_max * t1_max, converged=True,
                     cost_history=(cost,), flags=flags)


def fit_envelope(data: DataSeries, t1_s: float, shape: str = "gaussian") -> FitResult:
    """Extract the pure dephasing rate from a coherence decay trace.

    Fits y = a * envelope(t; T1, Gamma_phi, shape) + c with T1 held fixed
    (supplied by a separate inversion-recovery fit) and Gamma_phi >= 0.
    Fitting both shapes and comparing residual norms is the caller's model
    discrimination; this routine fits one shape at a time.
    """
    if len(data) < 6:
        raise FitError(f"need at least 6 envelope points, got {len(data)}")
    t, y = data.x, data.y
    if np.any(t < 0.0):
        raise FitError("times must be non-negative")
    _check_scale(y, "the envelope signals")

    span = max(t.max(), 1e-12)
    result = _separable_fit(lambda gamma: decay_envelope(t, t1_s, gamma, shape),
                            data, 1.0 / span, "gamma_phi_per_s", bounded_below=True)
    if result.parameters["amplitude"] < 0.0:
        return replace(result, flags=result.flags + ("negative_amplitude",))
    return result


def fit_t1_exponential(data: DataSeries) -> FitResult:
    """Extract T1 from an inversion-recovery trace, y = a exp(-t/T1) + c."""
    if len(data) < 4:
        raise FitError(f"need at least 4 trace points, got {len(data)}")
    _check_scale(data.y, "the trace signals")
    t = data.x
    result = _separable_fit(lambda t1: np.exp(-t / t1), data,
                            max(t.max() - t.min(), 1e-12), "T1_s")
    if abs(result.parameters["amplitude"]) < 1e-6 * (float(np.max(np.abs(data.y))) + 1e-300):
        return replace(result, converged=False, flags=result.flags + ("non_decaying",))
    return result


def fit_flux_noise(data: DataSeries, q: QubitParams,
                   exclude_halfwidth: float = 0.002) -> FitResult:
    """Extract the 1/omega flux-noise amplitude from Gamma_phi_E vs flux.

    Away from the optimal point Gamma_E = sqrt(A_Phi ln 2) |d omega01/d f|
    (angular), so a through-origin regression of the measured rates against
    the analytic angular derivative gives slope s and A_Phi = s^2/ln 2.
    Points with |f - 0.5| <= exclude_halfwidth are dropped: there the linear
    flux-noise model no longer dominates dephasing.
    """
    mask = np.abs(data.x - 0.5) > exclude_halfwidth
    if int(mask.sum()) < 3:
        raise FitError(
            f"need at least 3 points outside |f - 0.5| <= {exclude_halfwidth}, "
            f"got {int(mask.sum())}"
        )
    f = data.x[mask]
    rates = data.y[mask]
    _check_scale(rates, "the echo dephasing rates")
    derivative = np.abs(analytic.domega01_df(q, f)) * 2.0 * math.pi * 1e9
    slope, error, cost, residual_norm = _regression(
        derivative, rates, None if data.y_err is None else data.y_err[mask], "flux derivative")
    gradient = np.array([2.0 * slope / math.log(2.0), 1.0])  # d(A_Phi, slope)/d slope
    return FitResult(parameters={"A_Phi_Phi0sq": slope * slope / math.log(2.0), "slope": slope},
                     covariance=error**2 * np.outer(gradient, gradient),
                     residual_norm=residual_norm, converged=True, cost_history=(cost,))
