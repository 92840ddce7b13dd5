"""Inverse problems: extraction of qubit and noise parameters from data.

The nonlinear fits (spectrum, coherence envelope, T1 trace) run through one
Levenberg-Marquardt core with numeric central-difference Jacobians and build
their results through one helper.  Parameters with a restricted physical
domain are fitted through transforms (alpha by a logit onto (0, 0.5),
energies and capacitances by a log) or by clipping (rates at zero), so the
optimizer never leaves the physical region.  The quasiparticle density x_qp
and the flux-noise amplitude A_Phi enter their models linearly, so each is a
closed-form through-origin regression, no iteration needed.  A fit whose
model lives in :mod:`csfq3d.analytic` or :mod:`csfq3d.decoherence` calls it
there rather than restating it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .core import NegativeAnharmonicityWarning, QubitParams
from .decoherence import (
    DEFAULT_N_CP,
    QuasiparticleEnv,
    QuasiparticleValidityWarning,
    decay_envelope,
    qp_rate_components,
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
            if np.any(err <= 0.0):
                raise FitError("y_err must be positive")
            object.__setattr__(self, "y_err", err[order])

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: physical parameter values, their linearized
    uncertainties and covariance, the residual norm, and the accepted-step
    cost history (non-increasing by construction)."""

    parameters: dict[str, float]
    uncertainties: dict[str, float]
    covariance: np.ndarray | None
    residual_norm: float
    iterations: int
    converged: bool
    cost_history: tuple[float, ...]
    flags: tuple[str, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt core


def _central_jacobian(residual_fn, x, floor, rel_step=1e-6):
    """Central-difference Jacobian, step rel_step * max(|x_i|, floor_i)."""
    x = np.asarray(x, dtype=float)
    m = len(residual_fn(x))
    jac = np.empty((m, len(x)))
    for i in range(len(x)):
        h = rel_step * max(abs(x[i]), floor[i])
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        jac[:, i] = (residual_fn(up) - residual_fn(dn)) / (2.0 * h)
    return jac


@dataclass
class _LMOutcome:
    x: np.ndarray
    residual: np.ndarray
    jacobian: np.ndarray
    cost_history: tuple[float, ...]
    iterations: int
    converged: bool


_LM_MAX_ITER = 200
_LM_STEP_TOL = 1e-10
_LM_GRAD_TOL = 1e-12


def _levenberg_marquardt(residual_fn, x0, *, clip=None) -> _LMOutcome:
    """Minimize ||residual_fn(x)||^2 with Marquardt-scaled damping.

    Steps solve (J^T J + lam diag(J^T J)) delta = -J^T r and are accepted
    only when the cost does not increase, so the recorded cost history is
    monotone.  Convergence within _LM_MAX_ITER steps: relative step below
    _LM_STEP_TOL, or max |gradient| below _LM_GRAD_TOL, or no acceptable step
    at maximum damping.  A non-finite gradient (an overflowing model) ends
    the fit unconverged.  Jacobians take _central_jacobian's default step.
    """
    x = np.asarray(x0, dtype=float).copy()
    if clip is not None:
        x = clip(x)
    # differencing scale per parameter: the start magnitude, or unity for
    # parameters that start at exactly zero
    floor = np.abs(x)
    floor[floor == 0.0] = 1.0

    r = residual_fn(x)
    cost = float(r @ r)
    history = [cost]
    lam = 1e-3
    converged = False
    iterations = 0

    jac = _central_jacobian(residual_fn, x, floor)
    for iterations in range(1, _LM_MAX_ITER + 1):
        grad = jac.T @ r
        if not np.all(np.isfinite(grad)):
            break
        if np.max(np.abs(grad)) < _LM_GRAD_TOL:
            converged = True
            break
        normal = jac.T @ jac
        diag = np.diag(normal).copy()
        diag[diag <= 0.0] = max(diag.max(), 1e-300)

        accepted = False
        while lam < 1e15:
            try:
                delta = np.linalg.solve(normal + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = x + delta
            if clip is not None:
                trial = clip(trial)
            r_trial = residual_fn(trial)
            cost_trial = float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial <= cost:
                step = np.linalg.norm(trial - x)
                rel = step / max(np.linalg.norm(x), _LM_STEP_TOL)
                x, r, cost = trial, r_trial, cost_trial
                history.append(cost)
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                if rel < _LM_STEP_TOL:
                    converged = True
                break
            lam *= 10.0

        if not accepted:
            # no direction improves the cost at maximum damping: stationary
            converged = True
            break
        jac = _central_jacobian(residual_fn, x, floor)
        if converged:
            break

    return _LMOutcome(x=x, residual=r, jacobian=jac, cost_history=tuple(history),
                      iterations=iterations, converged=converged)


def _lm_result(outcome: _LMOutcome, parameters: dict[str, float], scale,
               flags: tuple[str, ...] = (), converged: bool = True) -> FitResult:
    """FitResult of an LM fit in physical parameters.

    The covariance is the linearized s^2 (J^T J)^-1 at the optimum (the
    pseudo-inverse, flagged ``degenerate_jacobian``, when J^T J is singular
    or ill-conditioned), mapped through the diagonal scale = d(physical)/d(fitted).
    A parameter with an all-zero Jacobian column, one no difference step
    moves (alpha at a subnormal start), was not fitted: not converged.
    """
    m, n_params = outcome.jacobian.shape
    s2 = float(outcome.residual @ outcome.residual) / max(m - n_params, 1)
    normal = outcome.jacobian.T @ outcome.jacobian
    try:
        cond = np.linalg.cond(normal)
    except np.linalg.LinAlgError:
        cond = None
    well_posed = cond is not None and cond <= 1e14  # False for nan and inf
    inverse = np.linalg.inv if well_posed else np.linalg.pinv
    cov_u = s2 * inverse(normal) if cond is not None else None
    scale = np.asarray(scale)
    cov = scale[:, None] * cov_u * scale if cov_u is not None else None
    sigma = np.sqrt(np.diag(cov)) if cov is not None else np.full(n_params, np.nan)
    residual_norm = float(np.linalg.norm(outcome.residual))
    return FitResult(
        parameters=parameters,
        uncertainties=dict(zip(parameters, sigma)),
        covariance=cov,
        residual_norm=residual_norm,
        iterations=outcome.iterations,
        converged=(outcome.converged and converged and _finite(parameters, residual_norm)
                   and bool(np.all(np.any(outcome.jacobian != 0.0, axis=0)))),
        cost_history=outcome.cost_history,
        flags=(() if well_posed else ("degenerate_jacobian",)) + flags,
    )


def _through_origin(regressor: np.ndarray, target: np.ndarray, name: str,
                    nonnegative: bool = False):
    """Least-squares slope of target = slope * regressor (weights already
    applied to both), clipped at zero if nonnegative, with its standard error
    and the residual at that slope."""
    denom = float(regressor @ regressor)
    if denom == 0.0:
        raise RankDeficientDataError(f"{name} vanishes at every point")
    slope = float(regressor @ target) / denom
    if nonnegative:
        slope = max(slope, 0.0)
    residual = target - slope * regressor
    dof = max(len(target) - 1, 1)
    return slope, math.sqrt(float(residual @ residual) / dof / denom), residual


def _regression_result(parameters, uncertainties, sigma_slope, residual, flags=()):
    """FitResult of a through-origin regression: one step, slope covariance."""
    residual_norm = float(np.linalg.norm(residual))
    return FitResult(parameters=parameters, uncertainties=uncertainties,
                     covariance=np.array([[sigma_slope**2]]),
                     residual_norm=residual_norm, iterations=1,
                     converged=_finite(parameters, residual_norm),
                     cost_history=(float(residual @ residual),), flags=flags)


def _finite(parameters: dict[str, float], residual_norm: float) -> bool:
    """Whether every parameter and the residual norm are finite: a fit that
    overflowed to inf or nan has not converged, whatever its iteration did."""
    return all(math.isfinite(value) for value in (*parameters.values(), residual_norm))


def _logit_half(alpha: float) -> float:
    # maps (0, 0.5) onto the real line
    s = 2.0 * alpha
    return math.log(s / (1.0 - s))


def _expit_half(u: float) -> float:
    try:
        return 0.5 / (1.0 + math.exp(-u))
    except OverflowError:  # u below about -709, where 0.5 e^u is the same to double precision
        return 0.5 * math.exp(u)


def _trial_params(alpha: float, c_s: float, e_j: float, e_c: float) -> QubitParams:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeAnharmonicityWarning)
        return QubitParams(alpha=alpha, E_J=e_j, E_C=e_c, C_S=c_s)


# ---------------------------------------------------------------------------
# Fits


def fit_spectrum(data: DataSeries, init: QubitParams,
                 anharmonicity_ghz: float | None = None) -> FitResult:
    """Extract (alpha, C_S, E_J) from an omega01(f) spectrum, GHz vs Phi/Phi0.

    Uses the perturbative forward model :func:`csfq3d.analytic.omega01`,
    Delta + 2 eps^2/Delta; needs at least four points with flux biases on
    both sides of the optimal point.

    The omega01(f) curve alone is a parabola and pins only two combinations
    of the three parameters (the gap and the curvature), so the fit has an
    exactly flat direction.  Passing the separately measured anharmonicity
    (the two-tone omega12 - omega01 value, weighted as a standard deviation
    of 0.01 GHz) adds the constraint that removes it; without it the fit
    still converges to a valid point on the degenerate curve and reports the flat direction
    through the ``degenerate_jacobian`` flag (the pseudo-inverse covariance
    then spans only the constrained directions).
    """
    f = data.x
    y = data.y
    if len(data) < 4:
        raise FitError(f"need at least 4 spectrum points, got {len(data)}")
    if len(np.unique(f)) == 1:
        raise RankDeficientDataError(
            "all points share one flux bias; alpha, C_S and E_J are not separable"
        )
    if f.min() >= 0.5 or f.max() <= 0.5:
        raise FitError("spectrum data must span both sides of f = 0.5")

    weight = 1.0 / data.y_err if data.y_err is not None else np.ones_like(y)
    constraint_weight = 1.0 / 0.01  # the anharmonicity's standard deviation, GHz

    def unpack(u):
        return _expit_half(u[0]), math.exp(u[1]), math.exp(u[2])

    def residual(u):
        try:
            q = _trial_params(*unpack(u), init.E_C)
        except (ValueError, OverflowError):  # a trial step out of range, e.g. alpha rounding to 0.5
            return np.full(len(f) + (anharmonicity_ghz is not None), np.inf)
        out = (analytic.omega01(q, f) - y) * weight
        if anharmonicity_ghz is not None:
            extra = (analytic.anharmonicity(q) - anharmonicity_ghz) * constraint_weight
            out = np.append(out, extra)
        return out

    u0 = np.array([_logit_half(init.alpha), math.log(init.C_S), math.log(init.E_J)])
    outcome = _levenberg_marquardt(residual, u0)
    alpha, c_s, e_j = unpack(outcome.x)

    # chain rule through the transforms: d alpha/du = alpha (1 - 2 alpha),
    # d C_S/du = C_S, d E_J/du = E_J
    return _lm_result(outcome, {"alpha": alpha, "C_S_fF": c_s, "E_J_GHz": e_j},
                      [alpha * (1.0 - 2.0 * alpha), c_s, e_j])


def fit_xqp(data: DataSeries, q: QubitParams, omega01_ghz: float, delta0_uev: float,
            matrix_elements: tuple[float, float], n_cp: float = DEFAULT_N_CP) -> FitResult:
    """Extract the quasiparticle density x_qp from T1 vs temperature data.

    data holds (temperature K, T1 s); the fit runs on rates Gamma = 1/T1.  The
    model Gamma(T) = x_qp s + Gamma_eq(T), with s the temperature-independent
    non-equilibrium rate per unit x_qp and Gamma_eq the equilibrium rate, is
    linear in x_qp, so x_qp is the weighted through-origin regression
    x_qp = max(0, sum w^2 s (Gamma - Gamma_eq) / sum w^2 s^2).
    """
    temperatures = data.x
    t1 = data.y
    if np.any(t1 <= 0.0):
        raise FitError("T1 values must be positive")
    if np.any(temperatures <= 0.0):
        raise FitError("temperatures must be positive")
    rates = 1.0 / t1
    # T1 uncertainties propagate to rate space as sigma_Gamma = sigma_T1/T1^2
    weight = t1**2 / data.y_err if data.y_err is not None else np.ones_like(rates)

    unit = QuasiparticleEnv(x_qp=1.0, Delta0=delta0_uev, n_cp=n_cp)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuasiparticleValidityWarning)
        parts = [qp_rate_components(q, omega01_ghz, unit, t, matrix_elements)
                 for t in temperatures]
    per_unit = np.array([p.nonequilibrium for p in parts])
    thermal = np.array([p.equilibrium_down + p.equilibrium_up for p in parts])
    x_qp, sigma, residual = _through_origin(
        weight * per_unit, weight * (rates - thermal),
        "non-equilibrium rate per unit x_qp", nonnegative=True)

    # data dominated by the thermal term (e.g. only high temperatures)
    # leaves x_qp with a wide relative uncertainty
    weak = sigma != 0.0 and (not np.isfinite(sigma) or sigma > 0.5 * x_qp)

    return _regression_result({"x_qp": x_qp, "n_qp_per_um3": x_qp * unit.n_qp},
                              {"x_qp": sigma, "n_qp_per_um3": sigma * unit.n_qp},
                              sigma, residual, ("x_qp_weakly_constrained",) if weak else ())


def fit_envelope(data: DataSeries, t1_s: float, shape: str = "gaussian") -> FitResult:
    """Extract the pure dephasing rate from a coherence decay trace.

    Fits y = a * envelope(t; T1, Gamma_phi, shape) + c with T1 held fixed
    (supplied by a separate inversion-recovery fit) and Gamma_phi >= 0.
    Fitting both shapes and comparing residual norms is the caller's model
    discrimination; this routine fits one shape at a time.
    """
    if len(data) < 6:
        raise FitError(f"need at least 6 envelope points, got {len(data)}")
    t = data.x
    y = data.y
    if np.any(t < 0.0):
        raise FitError("times must be non-negative")

    span = max(t.max() - t.min(), t.max(), 1e-12)
    weight = 1.0 / data.y_err if data.y_err is not None else np.ones_like(y)

    def residual(u):
        gamma, amplitude, offset = u
        # clipped parameterization: differencing at the boundary may probe
        # formally negative rates, which map onto the boundary
        model = amplitude * decay_envelope(t, t1_s, max(gamma, 0.0), shape) + offset
        return (model - y) * weight

    def clip(u):
        out = u.copy()
        out[0] = max(out[0], 0.0)
        return out

    offset0 = float(y[-1])
    amplitude0 = float(y[0] - offset0)
    if amplitude0 == 0.0:
        amplitude0 = max(abs(y).max(), 1.0) * 1e-3
    u0 = np.array([1.0 / span, amplitude0, offset0])
    outcome = _levenberg_marquardt(residual, u0, clip=clip)
    gamma, amplitude, offset = (float(v) for v in outcome.x)
    return _lm_result(outcome,
                      {"gamma_phi_per_s": gamma, "amplitude": amplitude, "offset": offset},
                      [1.0, 1.0, 1.0],
                      flags=("negative_amplitude",) if amplitude < 0.0 else ())


def fit_t1_exponential(data: DataSeries) -> FitResult:
    """Extract T1 from an inversion-recovery trace, y = a exp(-t/T1) + c."""
    if len(data) < 4:
        raise FitError(f"need at least 4 trace points, got {len(data)}")
    t = data.x
    y = data.y

    span = max(t.max() - t.min(), 1e-12)
    offset0 = float(y[-1])
    amplitude0 = float(y[0] - offset0)
    scale = float(np.max(np.abs(y))) + 1e-300
    if abs(amplitude0) < 1e-12 * scale:
        amplitude0 = scale * 1e-3

    weight = 1.0 / data.y_err if data.y_err is not None else np.ones_like(y)

    def residual(u):
        log_t1, amplitude, offset = u
        return (amplitude * np.exp(-t / math.exp(log_t1)) + offset - y) * weight

    u0 = np.array([math.log(span / 3.0), amplitude0, offset0])
    outcome = _levenberg_marquardt(residual, u0)
    t1 = math.exp(outcome.x[0])
    amplitude, offset = float(outcome.x[1]), float(outcome.x[2])
    non_decaying = abs(amplitude) < 1e-6 * scale
    return _lm_result(outcome, {"T1_s": t1, "amplitude": amplitude, "offset": offset},
                      [t1, 1.0, 1.0], flags=("non_decaying",) if non_decaying else (),
                      converged=not non_decaying)


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
    derivative = np.abs(analytic.domega01_df(q, f)) * 2.0 * math.pi * 1e9
    slope, sigma_slope, residual = _through_origin(derivative, rates, "flux derivative")
    a_phi = slope * slope / math.log(2.0)
    sigma_a = 2.0 * abs(slope) * sigma_slope / math.log(2.0)
    return _regression_result({"A_Phi_Phi0sq": a_phi, "slope": slope},
                              {"A_Phi_Phi0sq": sigma_a, "slope": sigma_slope},
                              sigma_slope, residual)
