import math
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from csfq3d import analytic, cli
from csfq3d import fit as fit_module
from csfq3d.core import QubitParams, capacitance_from_charging_energy
from csfq3d.decoherence import QuasiparticleEnv, decay_envelope, qp_relaxation_rate
from csfq3d.fit import (
    DataSeries,
    FitError,
    FitResult,
    RankDeficientDataError,
    _covariance,
    _spectrum_parameters,
    fit_envelope,
    fit_flux_noise,
    fit_spectrum,
    fit_t1_exponential,
    fit_xqp,
)

TRUTH = QubitParams(alpha=0.41, E_J=85.0, E_C=3.2, C_S=78.0)
INIT = QubitParams(alpha=0.35, E_J=70.0, E_C=3.2, C_S=90.0)


def synthetic_spectrum(noise=0.0, seed=42, n=31):
    f = np.linspace(0.47, 0.53, n)
    y = np.array([analytic.omega01(TRUTH, fi) for fi in f])
    if noise:
        y = y + np.random.default_rng(seed).normal(0.0, noise, size=n)
    return DataSeries(f, y)


class TestDataSeries:
    def test_sorted_on_construction(self):
        series = DataSeries([3.0, 1.0, 2.0], [30.0, 10.0, 20.0])
        np.testing.assert_array_equal(series.x, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(series.y, [10.0, 20.0, 30.0])

    def test_validation(self):
        with pytest.raises(FitError):
            DataSeries([1.0], [2.0])
        with pytest.raises(FitError):
            DataSeries([1.0, 2.0], [1.0])
        with pytest.raises(FitError):
            DataSeries([1.0, float("nan")], [1.0, 2.0])
        with pytest.raises(FitError):
            DataSeries([1.0, 2.0], [1.0, 2.0], y_err=[0.1, -0.1])
        with pytest.raises(FitError, match="y_err must match the data length"):
            DataSeries([1.0, 2.0], [1.0, 2.0], y_err=[0.1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_y_err_rejected(self, bad):
        # nan passed an `err <= 0` test and left an envelope fit with a nan residual
        with pytest.raises(FitError, match="y_err must be finite and positive"):
            DataSeries([1.0, 2.0], [1.0, 2.0], y_err=[0.1, bad])
        with pytest.raises(FitError, match="y_err must be finite and positive"):
            DataSeries([1.0, 2.0], [1.0, 2.0], y_err=[bad, bad])


class TestFitResult:
    @pytest.mark.parametrize("value, residual_norm", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_value_is_not_converged(self, value, residual_norm):
        # the rule lives in the type, so a dataclasses.replace applies it too
        finite = FitResult(parameters={"a": 1.0}, covariance=np.zeros((1, 1)),
                           residual_norm=1.0, converged=True, cost_history=(1.0,))
        assert finite.converged
        assert not replace(finite, parameters={"a": value}, residual_norm=residual_norm).converged

    @pytest.mark.parametrize("fit", ["spectrum", "envelope", "t1", "xqp", "fluxnoise"])
    def test_covariance_matches_the_parameters(self, fit):
        # one row and column per parameter, in order, whose diagonal is the variances
        if fit == "spectrum":
            result = fit_spectrum(spectrum_fixture("noisy"), ANHARMONICITY)
        else:
            x, y, run = TestWeightScale().cases()[fit]
            result = run(DataSeries(x, y))
        assert list(result.uncertainties) == list(result.parameters)
        assert result.covariance.shape == (len(result.parameters),) * 2
        assert result.uncertainties == dict(zip(result.parameters,
                                                np.sqrt(np.diag(result.covariance)).tolist()))
        # the type holds the shape rule: a covariance for another parameter count is refused
        for shape in [(len(result.parameters) + 1,) * 2, (len(result.parameters),)]:
            with pytest.raises(ValueError, match="covariance of shape"):
                replace(result, covariance=np.zeros(shape))


ANHARMONICITY = analytic.anharmonicity(TRUTH)


def spectrum_fixture(case):
    """The noiseless, 1 MHz noisy or y_err-weighted spectrum fixture."""
    if case == "noiseless":
        return synthetic_spectrum()
    if case == "noisy":
        return synthetic_spectrum(noise=1e-3, seed=42)
    clean = synthetic_spectrum()
    err = 1e-3 * (1.0 + np.random.default_rng(3).random(len(clean)))
    noisy = clean.y + np.random.default_rng(5).normal(0.0, 1.0, len(clean)) * err
    return DataSeries(clean.x, noisy, y_err=err)


class TestFitSpectrum:
    def test_noiseless_round_trip(self):
        result = fit_spectrum(synthetic_spectrum(), ANHARMONICITY)
        assert result.converged
        assert result.iterations == 1
        assert result.parameters["alpha"] == pytest.approx(0.41, rel=1e-3)
        assert result.parameters["C_S_fF"] == pytest.approx(78.0, rel=1e-3)
        assert result.parameters["E_J_GHz"] == pytest.approx(85.0, rel=1e-3)

    def test_noisy_round_trip_fixed_seed(self):
        # 1 MHz Gaussian noise on GHz-scale frequencies
        data = synthetic_spectrum(noise=1e-3, seed=42)
        result = fit_spectrum(data, ANHARMONICITY)
        assert result.converged
        assert result.parameters["alpha"] == pytest.approx(0.41, rel=0.02)
        assert result.parameters["C_S_fF"] == pytest.approx(78.0, rel=0.02)
        assert result.parameters["E_J_GHz"] == pytest.approx(85.0, rel=0.02)

    @pytest.mark.parametrize("case", ["noiseless", "noisy", "weighted"])
    def test_closed_form_matches_least_squares_oracle(self, case):
        # scipy is an oracle here only: the iterative minimum of the weighted
        # data residual plus the anharmonicity row (A_model - A)/0.01 GHz
        from scipy.optimize import least_squares

        data = spectrum_fixture(case)
        weight = 1.0 / data.y_err if data.y_err is not None else np.ones(len(data))

        def residual(p):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                q = QubitParams(alpha=p[0], E_J=p[2], E_C=3.2, C_S=p[1])
            return np.append((analytic.omega01(q, data.x) - data.y) * weight,
                             (analytic.anharmonicity(q) - ANHARMONICITY) / 0.01)

        oracle = least_squares(residual, [INIT.alpha, INIT.C_S, INIT.E_J], jac="3-point",
                               bounds=([0.13, 1.0, 1.0], [0.49, 1e3, 1e3]),
                               x_scale="jac", ftol=1e-15, xtol=1e-15, gtol=1e-15)
        result = fit_spectrum(data, ANHARMONICITY)
        np.testing.assert_allclose(list(result.parameters.values()), oracle.x, rtol=1e-8)
        # a noiseless residual is rounding, so s^2 is the fit's own RSS/(m - 2)
        s2 = result.residual_norm**2 / (len(data) - 2)
        expected = s2 * np.linalg.inv(oracle.jac.T @ oracle.jac)
        np.testing.assert_allclose(result.covariance, expected, rtol=1e-4)

    @pytest.mark.parametrize("anharmonicity", [5e-324, 1e-300, 1e300])
    def test_unresolvable_anharmonicity_is_refused_without_warning(self, anharmonicity):
        # a subnormal or tiny A pins alpha at 1/8 to double precision, and an
        # A above the gap has no alpha at all: each is a FitError, not a
        # divide-by-zero warning and C_S = E_J = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="anharmonicity A = "):
                fit_spectrum(synthetic_spectrum(), anharmonicity)

    def test_capacitance_past_the_double_range_is_refused(self):
        # (Delta, c, A) times k gives the same alpha, E_CS and E_J times k and
        # C_S over k: at k = 1e-307, C_S = 7.8e308 fF overflows
        point = np.array([analytic.gap(TRUTH), 0.0, ANHARMONICITY])
        point[1] = 2.0 * analytic.epsilon_slope(TRUTH) ** 2 / point[0]
        np.testing.assert_allclose(_spectrum_parameters(point), [0.41, 78.0, 85.0], rtol=1e-12)
        np.testing.assert_allclose(_spectrum_parameters(point * 1e-300),
                                   [0.41, 78e300, 85e-300], rtol=1e-12)
        with pytest.raises(FitError, match=r"C_S = inf fF"):
            _spectrum_parameters(point * 1e-307)

    def test_overflowing_line_fit_is_refused(self):
        f = np.array([0.4, 0.45, 0.55, 0.6, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="overflow"):
                fit_spectrum(DataSeries(f, [5.0, 4.8, 4.8, 5.0, 6.0]), ANHARMONICITY)

    def test_downward_curvature_is_refused(self):
        data = synthetic_spectrum()
        with pytest.raises(FitError, match="curvature"):
            fit_spectrum(DataSeries(data.x, -data.y + 20.0), ANHARMONICITY)

    def test_cost_history_monotone(self):
        result = fit_spectrum(synthetic_spectrum(noise=1e-3), ANHARMONICITY)
        assert np.all(np.diff(result.cost_history) <= 0.0)

    def test_degenerate_flux_rejected(self):
        f = np.full(5, 0.5)
        y = np.full(5, analytic.omega01(TRUTH, 0.5))
        with pytest.raises(RankDeficientDataError):
            fit_spectrum(DataSeries(f, y), ANHARMONICITY)

    def test_one_sided_data_rejected(self):
        f = np.linspace(0.505, 0.53, 6)
        y = np.array([analytic.omega01(TRUTH, fi) for fi in f])
        with pytest.raises(FitError, match="both sides"):
            fit_spectrum(DataSeries(f, y), ANHARMONICITY)

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError, match="4"):
            fit_spectrum(DataSeries([0.49, 0.5, 0.51], [4.8, 4.7, 4.8]), ANHARMONICITY)


class TestFitXqp:
    q = QubitParams(alpha=0.41, E_J=85.0, E_C=3.2, C_S=capacitance_from_charging_energy(0.25))
    m = analytic.junction_matrix_elements(q)
    temps = np.array([0.010, 0.050, 0.100, 0.150, 0.200])

    def t1_data(self, x_qp):
        return np.array([
            1.0 / qp_relaxation_rate(self.q, 4.68, QuasiparticleEnv(x_qp=x_qp), t, self.m)
            for t in self.temps
        ])

    def test_noiseless_round_trip(self):
        result = fit_xqp(DataSeries(self.temps, self.t1_data(6e-8)), self.q, 4.68, 200.0, self.m)
        assert result.converged
        assert result.parameters["x_qp"] == pytest.approx(6e-8, rel=0.05)
        assert result.parameters["x_qp"] == pytest.approx(6e-8, rel=1e-6)

    def test_noisy_weighted_round_trip(self):
        t1 = self.t1_data(6e-8)
        rng = np.random.default_rng(7)
        noisy = t1 * (1.0 + rng.normal(0.0, 0.03, len(t1)))
        result = fit_xqp(DataSeries(self.temps, noisy, y_err=0.03 * t1),
                         self.q, 4.68, 200.0, self.m)
        assert result.parameters["x_qp"] == pytest.approx(6e-8, rel=0.05)

    def test_reference_density_bound(self):
        # T1 = 83 us at 10 mK and 26 us at 150 mK corresponds to n_qp <= 0.6 um^-3
        result = fit_xqp(DataSeries(self.temps, self.t1_data(6e-8)), self.q, 4.68, 200.0, self.m)
        assert result.parameters["n_qp_per_um3"] <= 0.6
        assert result.parameters["n_qp_per_um3"] == pytest.approx(0.588, rel=1e-3)

    def test_zero_density_recovered(self):
        hot = np.array([0.12, 0.15, 0.20])
        t1 = np.array([
            1.0 / qp_relaxation_rate(self.q, 4.68, QuasiparticleEnv(x_qp=0.0), t, self.m)
            for t in hot
        ])
        result = fit_xqp(DataSeries(hot, t1), self.q, 4.68, 200.0, self.m)
        assert result.parameters["x_qp"] == pytest.approx(0.0, abs=1e-12)

    def test_density_held_at_its_bound_is_flagged(self):
        # rates below the thermal ones want x_qp < 0: the clip holds it at 0, and says so
        hot = np.array([0.12, 0.15, 0.20])
        t1 = np.array([
            2.0 / qp_relaxation_rate(self.q, 4.68, QuasiparticleEnv(x_qp=0.0), t, self.m)
            for t in hot
        ])
        result = fit_xqp(DataSeries(hot, t1), self.q, 4.68, 200.0, self.m)
        assert result.parameters["x_qp"] == 0.0
        assert result.converged
        assert "x_qp_at_bound" in result.flags
        assert "x_qp_at_bound" not in fit_xqp(DataSeries(self.temps, self.t1_data(6e-8)),
                                              self.q, 4.68, 200.0, self.m).flags

    def test_insensitive_data_flagged(self):
        hot = np.array([0.20, 0.25, 0.30])
        t1 = np.array([
            1.0 / qp_relaxation_rate(self.q, 4.68, QuasiparticleEnv(x_qp=6e-8), t, self.m)
            for t in hot
        ])
        noisy = t1 * (1.0 + np.random.default_rng(2).normal(0.0, 0.05, len(hot)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit_xqp(DataSeries(hot, noisy), self.q, 4.68, 200.0, self.m)
        assert "x_qp_weakly_constrained" in result.flags

    def test_invalid_data_rejected(self):
        with pytest.raises(FitError):
            fit_xqp(DataSeries([0.01, 0.05], [1e-4, -1e-4]), self.q, 4.68, 200.0, self.m)

    @pytest.mark.parametrize("cold", [0.0, -0.01, 5e-324])
    def test_temperature_without_thermal_energy_rejected(self, cold):
        # 5e-324 K is positive, but k_B T underflows to 0, which the rates divide
        data = DataSeries(np.concatenate([[cold], self.temps]),
                          np.concatenate([[1e-4], self.t1_data(6e-8)]))
        with pytest.raises(FitError, match=f"data temperatures .* got {cold!r} K"):
            fit_xqp(data, self.q, 4.68, 200.0, self.m)

    def test_vanishing_matrix_elements_rejected(self):
        data = DataSeries(self.temps, self.t1_data(6e-8))
        with pytest.raises(RankDeficientDataError):
            fit_xqp(data, self.q, 4.68, 200.0, (0.0, 0.0))

    def oracle_case(self, case):
        """(data, qubit, matrix elements) of one oracle case."""
        if case == "bundled":
            # the fixture's generator set (example_config_perturbative.ini)
            q = QubitParams(alpha=0.41, E_J=85.0, E_C=3.2, C_S=78.0)
            path = resources.files("csfq3d") / "data" / "t1_synthetic.csv"
            data = cli.read_data_csv(path, ("temp_K", "t1_s"))
            return data, q, analytic.junction_matrix_elements(q)
        if case == "noisy-weighted":
            t1 = self.t1_data(6e-8)
            noisy = t1 * (1.0 + np.random.default_rng(7).normal(0.0, 0.03, len(t1)))
            return DataSeries(self.temps, noisy, y_err=0.03 * t1), self.q, self.m
        # hot data living longer than the thermal rate alone allows: the
        # unconstrained optimum is negative, so the fit clips at zero
        hot = np.array([0.12, 0.15, 0.20])
        t1 = np.array([
            1.2 / qp_relaxation_rate(self.q, 4.68, QuasiparticleEnv(x_qp=0.0), t, self.m)
            for t in hot
        ])
        return DataSeries(hot, t1), self.q, self.m

    @pytest.mark.parametrize("case", ["bundled", "noisy-weighted", "hot-clipped"])
    def test_closed_form_matches_bounded_minimizer(self, case):
        # scipy is an oracle here only: the fits themselves import no scipy.optimize
        from scipy.optimize import minimize_scalar

        data, q, m = self.oracle_case(case)
        rates = 1.0 / data.y
        weight = data.y**2 / data.y_err if data.y_err is not None else np.ones_like(rates)

        def cost(u):  # the weighted rate cost of the forward model, x_qp = u * 1e-7
            env = QuasiparticleEnv(x_qp=u * 1e-7, Delta0=200.0)
            model = np.array([qp_relaxation_rate(q, 4.68, env, t, m) for t in data.x])
            return float(np.sum((weight * (model - rates)) ** 2))

        best = minimize_scalar(cost, bounds=(0.0, 10.0), method="bounded",
                               options={"xatol": 1e-10}).x * 1e-7
        x_qp = fit_xqp(data, q, 4.68, 200.0, m).parameters["x_qp"]
        if case == "hot-clipped":
            assert x_qp == 0.0
            assert best == pytest.approx(0.0, abs=1e-15)
        else:
            assert x_qp == pytest.approx(best, rel=1e-6)


class TestFitEnvelope:
    t = np.linspace(0.0, 300e-6, 40)

    def trace(self, gamma, shape="gaussian", amplitude=0.8, offset=0.1):
        return amplitude * decay_envelope(self.t, 90e-6, gamma, shape) + offset

    def test_noiseless_round_trip(self):
        data = DataSeries(self.t, self.trace(1.25e4))
        result = fit_envelope(data, 90e-6, "gaussian")
        assert result.converged
        assert result.parameters["gamma_phi_per_s"] == pytest.approx(1.25e4, rel=0.005)
        assert result.parameters["amplitude"] == pytest.approx(0.8, rel=1e-6)
        assert result.parameters["offset"] == pytest.approx(0.1, abs=1e-6)

    def test_zero_dephasing_agrees_across_shapes(self):
        data = DataSeries(self.t, self.trace(0.0))
        rates = [fit_envelope(data, 90e-6, shape).parameters["gamma_phi_per_s"]
                 for shape in ("gaussian", "exponential")]
        # both shapes reduce to the same pure-T1 curve at zero rate
        assert all(r < 50.0 for r in rates)

    def test_wrong_shape_has_larger_residual(self):
        data = DataSeries(self.t, self.trace(1.25e4, "gaussian"))
        gaussian = fit_envelope(data, 90e-6, "gaussian")
        exponential = fit_envelope(data, 90e-6, "exponential")
        assert exponential.residual_norm > 100.0 * gaussian.residual_norm

    def test_negative_amplitude_flagged(self):
        data = DataSeries(self.t, -self.trace(1.25e4) + 1.0)
        result = fit_envelope(data, 90e-6, "gaussian")
        assert "negative_amplitude" in result.flags

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_envelope(DataSeries(self.t[:5], self.trace(1e4)[:5]), 90e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(FitError, match="times must be non-negative"):
            fit_envelope(DataSeries(self.t - 1e-6, self.trace(1e4)), 90e-6)

    def test_offset_starting_exactly_at_zero(self):
        y = self.trace(1.25e4)
        y = y - y[-1]  # the last point, and nearly the offset, is exactly 0.0
        result = fit_envelope(DataSeries(self.t, y), 90e-6, "gaussian")
        assert result.converged
        assert result.parameters["gamma_phi_per_s"] == pytest.approx(1.25e4, rel=0.005)

    def projected_costs(self, y, gammas):
        """Least-squares cost of y ~ a phi + c at each rate, phi the gaussian
        envelope at T1 = 90 us, with (a, c) solved for each rate."""
        phi = np.exp(-self.t / 180e-6) * np.exp(-np.square(np.outer(gammas, self.t)))
        phi = phi - phi.mean(axis=1, keepdims=True)
        centred = y - y.mean()
        slope = (phi @ centred) / np.einsum("ij,ij->i", phi, phi)
        return np.square(slope[:, None] * phi - centred).sum(axis=1)

    def test_noisy_trace_reaches_the_least_cost(self):
        # a second, shallower minimum near 2.3e3 s^-1 passed for converged
        y = self.trace(0.0) + 0.005 * np.random.default_rng(0).standard_normal((3, 40))[2]
        result = fit_envelope(DataSeries(self.t, y), 90e-6, "gaussian")
        dense = self.projected_costs(y, np.concatenate([np.linspace(0.0, 1e4, 50001),
                                                        np.logspace(4.0, 7.0, 301)]))
        assert result.converged
        assert result.residual_norm**2 == pytest.approx(dense.min(), rel=1e-9)
        assert result.iterations == len(result.cost_history)
        assert np.all(np.diff(result.cost_history) <= 0.0)

    @pytest.mark.parametrize("shape, seed", [("gaussian", 0), ("exponential", 2)])
    def test_noisy_zero_dephasing_converges_on_the_bound(self, shape, seed):
        y = self.trace(0.0, shape) + np.random.default_rng(seed).normal(0.0, 0.005, 40)
        result = fit_envelope(DataSeries(self.t, y), 90e-6, shape)
        assert result.converged
        assert result.parameters["gamma_phi_per_s"] == 0.0
        # d/dGamma of exp(-Gamma^2 t^2) is 0 at Gamma = 0, which leaves the rate
        # unbounded; that of exp(-Gamma t) is -t
        sigma = result.uncertainties
        assert result.flags == (("degenerate_jacobian",) if shape == "gaussian" else ())
        assert math.isinf(sigma["gamma_phi_per_s"]) == (shape == "gaussian")
        assert 0.0 < sigma["amplitude"] < 0.05 and 0.0 < sigma["offset"] < 0.05
        if shape == "exponential":
            # s^2 (J^T J)^-1 with the exact one-sided column -a t e^(-t/2T1); a central
            # difference clamped at the bound halved it and doubled the rate uncertainty
            relax = np.exp(-self.t / 180e-6)
            jac = np.column_stack([-result.parameters["amplitude"] * self.t * relax, relax,
                                   np.ones_like(self.t)])
            cov = result.residual_norm**2 / (len(self.t) - 3) * np.linalg.inv(jac.T @ jac)
            assert sigma["gamma_phi_per_s"] == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-5)

    def test_slope_of_rounding_noise_is_unresolved(self):
        # at 3e-3 s^-1 the gaussian moves by a few ulps of 1 over the Jacobian step:
        # that column is rounding noise, so the rate is unresolved in any units
        result = fit_envelope(DataSeries(self.t, self.trace(3e-3)), 90e-6, "gaussian")
        gamma = result.parameters["gamma_phi_per_s"]
        step = 1e-6 * max(gamma, 1e-3 / self.t[-1])
        diff = (decay_envelope(self.t, 90e-6, gamma + step)
                - decay_envelope(self.t, 90e-6, gamma - step))
        assert 0.0 < gamma and 0.0 < np.abs(diff).max() <= 16 * np.finfo(float).eps
        assert result.flags == ("degenerate_jacobian",)
        assert math.isinf(result.uncertainties["gamma_phi_per_s"])
        assert 0.0 < result.uncertainties["amplitude"] < 1e-6

    def test_decay_calls_stay_bounded(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fit_module, "decay_envelope",
                            lambda *args: calls.append(args) or decay_envelope(*args))
        result = fit_envelope(DataSeries(self.t, self.trace(1.25e4)), 90e-6, "gaussian")
        # one call per projected cost, two for the Jacobian column
        assert len(calls) == result.iterations + 2 <= 100


class TestFitT1:
    t = np.linspace(0.0, 400e-6, 50)

    def test_noiseless_round_trip(self):
        data = DataSeries(self.t, 1.2 * np.exp(-self.t / 90e-6) + 0.05)
        result = fit_t1_exponential(data)
        assert result.converged
        assert result.parameters["T1_s"] == pytest.approx(90e-6, rel=0.01)
        assert result.parameters["T1_s"] == pytest.approx(90e-6, rel=1e-9)

    def test_noisy_round_trip_fixed_seed(self):
        y = 1.2 * np.exp(-self.t / 90e-6) + 0.05
        y = y + np.random.default_rng(11).normal(0.0, 0.01, len(self.t))
        result = fit_t1_exponential(DataSeries(self.t, y))
        assert result.parameters["T1_s"] == pytest.approx(90e-6, rel=0.01)

    def test_too_few_points(self):
        with pytest.raises(FitError, match="need at least 4 trace points, got 3"):
            fit_t1_exponential(DataSeries(self.t[:3], np.exp(-self.t[:3] / 90e-6)))

    def test_constant_trace_flagged(self):
        result = fit_t1_exponential(DataSeries(self.t, np.full_like(self.t, 0.3)))
        assert not result.converged
        assert result.flags == ("degenerate_jacobian", "non_decaying")
        # a zero amplitude leaves T1 unconstrained
        assert math.isinf(result.uncertainties["T1_s"])

    def test_fast_noisy_decay_returns_a_result(self):
        # a 5 us decay sampled every 8.2 us under 0.1 noise: one point stands off the baseline
        y = 1.2 * np.exp(-self.t / 5e-6) + 0.05 + np.random.default_rng(8).normal(0.0, 0.1, 50)
        result = fit_t1_exponential(DataSeries(self.t, y))
        assert result.converged
        assert 1e-6 < result.parameters["T1_s"] < 1e-5

    def test_time_constant_beyond_the_grid_is_not_converged(self):
        # T1 = 10^4 x the span: the trace is a straight line, best fitted at the grid's end
        y = 1.2 * np.exp(-self.t / 4.0) + 0.05
        result = fit_t1_exponential(DataSeries(self.t, y))
        assert not result.converged
        assert result.parameters["T1_s"] == pytest.approx(400e-6 * 1e3, rel=1e-12)

    def test_offset_shift_leaves_t1_unchanged(self):
        y = 1.2 * np.exp(-self.t / 90e-6) + 0.05
        base = fit_t1_exponential(DataSeries(self.t, y))
        shifted = fit_t1_exponential(DataSeries(self.t, y + 0.7))
        assert shifted.parameters["T1_s"] == pytest.approx(base.parameters["T1_s"], rel=1e-9)


class TestWeightScale:
    """A constant y_err c only scales the weights: the parameters, their
    uncertainties and convergence are those of c = 1, and the residual norm,
    in the caller's weights 1/c, is that of c = 1 over c."""

    def cases(self):
        envelope, xqp, flux = TestFitEnvelope(), TestFitXqp(), TestFitFluxNoise()
        t = envelope.t
        noisy_t1 = xqp.t1_data(6e-8) * (1.0 + np.random.default_rng(7).normal(0.0, 0.03, 5))
        echo = flux.synthetic((1.8e-6) ** 2)
        return {
            "envelope": (t, envelope.trace(1.25e4)
                         + np.random.default_rng(0).normal(0.0, 0.005, 40),
                         lambda data: fit_envelope(data, 90e-6)),
            "t1": (t, 1.2 * np.exp(-t / 90e-6) + 0.05
                   + np.random.default_rng(1).normal(0.0, 0.01, 40), fit_t1_exponential),
            "xqp": (xqp.temps, noisy_t1,
                    lambda data: fit_xqp(data, xqp.q, 4.68, 200.0, xqp.m)),
            "fluxnoise": (echo.x, echo.y * (1.0 + np.random.default_rng(3).normal(0.0, 0.03, 16)),
                          lambda data: fit_flux_noise(data, flux.q)),
        }

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200, 1e300, 1e301])
    @pytest.mark.parametrize("fit", ["envelope", "t1", "xqp", "fluxnoise"])
    def test_constant_y_err_scale_changes_nothing(self, fit, scale):
        x, y, run = self.cases()[fit]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = run(DataSeries(x, y, y_err=np.ones_like(y)))
            scaled = run(DataSeries(x, y, y_err=np.full_like(y, scale)))
        assert scaled.converged == base.converged
        for name, value in base.parameters.items():
            assert scaled.parameters[name] == pytest.approx(value, rel=1e-12, abs=0.0)
            assert scaled.uncertainties[name] == pytest.approx(base.uncertainties[name],
                                                               rel=1e-9, abs=0.0)
        assert scaled.residual_norm * scale == pytest.approx(base.residual_norm, rel=1e-9)


class TestSignalScale:
    """A change of the signal's units, y -> s y, leaves both variable-projection
    fits' rate, its uncertainty and the flags as they are, and scales the
    amplitude, the offset and their uncertainties by s."""

    def cases(self):
        t_env, t_t1 = np.linspace(0.0, 200e-6, 40), np.linspace(0.0, 400e-6, 50)
        return {
            "envelope": (t_env, 0.8 * decay_envelope(t_env, 90e-6, 1.25e4, "gaussian") + 0.1
                         + np.random.default_rng(3).normal(0.0, 0.003, 40),
                         lambda data: fit_envelope(data, 90e-6), "gamma_phi_per_s"),
            "t1": (t_t1, 0.7 * np.exp(-t_t1 / 80e-6) + 0.2
                   + np.random.default_rng(5).normal(0.0, 0.003, 50), fit_t1_exponential, "T1_s"),
        }

    @pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1e4, 1e8, 1e100, 1e150])
    @pytest.mark.parametrize("fit", ["envelope", "t1"])
    def test_signal_units_change_nothing(self, fit, scale):
        # the unscaled J^T J, whose condition number grows with s^2, flagged the
        # envelope at s <= 1e-3 and the T1 trace at s >= 1e4 with infinite uncertainties
        t, y, run, rate = self.cases()[fit]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base, scaled = run(DataSeries(t, y)), run(DataSeries(t, scale * y))
        assert base.converged and scaled.converged
        assert base.flags == scaled.flags == ()
        if fit == "envelope":
            assert base.uncertainties[rate] == pytest.approx(52.10, abs=0.005)
        assert scaled.parameters[rate] == pytest.approx(base.parameters[rate], rel=1e-8)
        assert scaled.uncertainties[rate] == pytest.approx(base.uncertainties[rate], rel=1e-8)
        for name in ("amplitude", "offset"):
            assert scaled.parameters[name] == pytest.approx(scale * base.parameters[name],
                                                            rel=1e-8)
            assert scaled.uncertainties[name] == pytest.approx(scale * base.uncertainties[name],
                                                               rel=1e-8)


class TestFitFluxNoise:
    q = QubitParams(alpha=0.41, E_J=85.0, E_C=3.2, C_S=capacitance_from_charging_energy(0.25))

    def synthetic(self, a_phi, flux=None):
        if flux is None:
            flux = np.concatenate([np.linspace(0.485, 0.497, 8), np.linspace(0.503, 0.515, 8)])
        rates = np.array([
            math.sqrt(a_phi * math.log(2.0)) * abs(analytic.domega01_df(self.q, f)) * 2e9 * math.pi
            for f in flux
        ])
        return DataSeries(flux, rates)

    def test_round_trip(self):
        a_true = (1.8e-6) ** 2
        result = fit_flux_noise(self.synthetic(a_true), self.q)
        assert result.parameters["A_Phi_Phi0sq"] == pytest.approx(a_true, rel=0.01, abs=0.0)
        assert math.sqrt(result.parameters["A_Phi_Phi0sq"]) * 1e6 == pytest.approx(1.8, rel=0.005)

    def test_all_zero_rates(self):
        flux = np.linspace(0.48, 0.52, 9)
        result = fit_flux_noise(DataSeries(flux, np.zeros_like(flux)), self.q)
        assert result.parameters["A_Phi_Phi0sq"] == 0.0

    def test_slope_invariant_under_points_on_the_line(self):
        a_true = (1.8e-6) ** 2
        base = fit_flux_noise(self.synthetic(a_true), self.q)
        extended = self.synthetic(a_true, flux=np.concatenate([
            np.linspace(0.485, 0.497, 8), np.linspace(0.503, 0.515, 8),
            np.array([0.52, 0.525]),
        ]))
        again = fit_flux_noise(extended, self.q)
        assert again.parameters["slope"] == pytest.approx(base.parameters["slope"], rel=1e-12)

    def test_weighted_by_y_err(self):
        # one outlier known to 1e-9 against 1 elsewhere pulls the slope to the
        # weighted solve sum w^2 x y / sum w^2 x^2, w = 1/y_err
        flux = np.concatenate([np.linspace(0.485, 0.497, 4), np.linspace(0.503, 0.515, 4)])
        data = self.synthetic((1.8e-6) ** 2, flux)
        rates = data.y * np.where(np.arange(8) == 0, 1.1, 1.0)
        y_err = np.concatenate([[1e-9], np.ones(7)])
        x = np.abs(analytic.domega01_df(self.q, flux)) * 2e9 * math.pi
        w2 = 1.0 / y_err**2
        slope = fit_flux_noise(DataSeries(flux, rates, y_err), self.q).parameters["slope"]
        assert slope == pytest.approx(float(w2 @ (x * rates) / (w2 @ (x * x))), rel=1e-12)

    def test_exclusion_window_enforced(self):
        flux = np.linspace(0.4985, 0.5015, 9)  # everything inside the default window
        rates = np.ones_like(flux)
        with pytest.raises(FitError, match="outside"):
            fit_flux_noise(DataSeries(flux, rates), self.q)

    def test_window_is_configurable(self):
        data = self.synthetic((1.8e-6) ** 2)
        wide = fit_flux_noise(data, self.q, exclude_halfwidth=0.004)
        assert wide.converged


def central_difference(fn, x, rel_step):
    """Central-difference Jacobian of fn at x, steps rel_step |x_i|."""
    x = np.asarray(x, dtype=float)
    step = rel_step * np.abs(x)
    return np.column_stack([fn(x + h) - fn(x - h) for h in np.diag(step)]) / (2.0 * step)


class TestJacobian:
    def test_matches_independent_step_at_optimum(self):
        # the inversion (Delta, c, A) -> (alpha, C_S, E_J) differenced at
        # fit_spectrum's step vs a coarser independent step, and against the
        # forward map: the two Jacobians are inverse matrices
        result = fit_spectrum(synthetic_spectrum(noise=1e-3, seed=42), ANHARMONICITY)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            q = QubitParams(alpha=result.parameters["alpha"], E_J=result.parameters["E_J_GHz"],
                            E_C=3.2, C_S=result.parameters["C_S_fF"])

        def forward(p):
            fitted = QubitParams(alpha=p[0], E_J=p[2], E_C=3.2, C_S=p[1])
            delta = analytic.gap(fitted)
            return np.array([delta, 2.0 * analytic.epsilon_slope(fitted) ** 2 / delta,
                             analytic.anharmonicity(fitted)])

        point = forward([q.alpha, q.C_S, q.E_J])
        fine = central_difference(_spectrum_parameters, point, 1e-6)
        coarse = central_difference(_spectrum_parameters, point, 1e-5)
        np.testing.assert_allclose(fine, coarse, rtol=1e-6)
        params = np.array([q.alpha, q.C_S, q.E_J])
        product = fine @ central_difference(forward, params, 1e-6)
        # in relative units, d ln p_i/d ln p_j
        np.testing.assert_allclose(product * params / params[:, None], np.eye(3), atol=1e-8)

    def test_covariance_is_the_inversion_jacobian_applied_to_the_line_fit(self):
        # s^2 J block J^T, the line fit's unscaled covariance of (Delta, c) from
        # np.polyfit and sigma_A = 0.01 GHz, with J at the coarser independent step
        data = synthetic_spectrum(noise=1e-3, seed=42)
        result = fit_spectrum(data, ANHARMONICITY)
        x = (data.x - 0.5) ** 2
        (curvature, delta), unscaled = np.polyfit(x, data.y, 1, cov="unscaled")
        rss = float(np.sum((delta + curvature * x - data.y) ** 2))
        block = np.zeros((3, 3))
        block[:2, :2] = unscaled[::-1, ::-1]  # polyfit orders (c, Delta)
        block[2, 2] = 0.01**2
        jac = central_difference(_spectrum_parameters, [delta, curvature, ANHARMONICITY], 1e-5)
        expected = rss / (len(data) - 2) * jac @ block @ jac.T
        np.testing.assert_allclose(result.covariance, expected, rtol=1e-5)


class TestUnbounded:
    x = np.linspace(0.0, 1.0, 11)

    def test_collinear_parameters_get_infinite_variance(self):
        # columns x and 2x are collinear: their parameters are unbounded, the
        # offset, orthogonal to the null direction (2, -1, 0), keeps its variance
        jac = np.column_stack([self.x, 2.0 * self.x, np.ones_like(self.x)])
        cov, well_posed = _covariance(jac, 1.0)
        assert not well_posed
        np.testing.assert_array_equal(np.diag(cov)[:2], [np.inf, np.inf])
        assert np.isnan(cov[:2, 2]).all() and np.isnan(cov[2, :2]).all()
        # the least-squares offset of a line through 11 points: variance 7/22 per unit s^2
        assert cov[2, 2] == pytest.approx(7.0 / 22.0, rel=1e-12)

    def test_zero_column_is_unresolved(self):
        jac = np.column_stack([np.zeros_like(self.x), self.x, np.ones_like(self.x)])
        cov, well_posed = _covariance(jac, 4.0)
        assert not well_posed
        assert math.isinf(cov[0, 0]) and np.isnan(cov[0, 1:]).all()
        # the slope and offset of the line fit, in units of s^2 = 4
        np.testing.assert_allclose(cov[1:, 1:], 4.0 / 12.1 * np.array([[11.0, -5.5], [-5.5, 3.85]]),
                                   rtol=1e-12)

    @pytest.mark.parametrize("unit", [1e-150, 1e-12, 1.0, 1e12, 1e150])
    def test_column_units_do_not_decide(self, unit):
        # the slope column in units 1e150 apart: J^T J's own condition number
        # ranges over 1e-300 to 1e300, but the line fit is well posed in every unit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov, well_posed = _covariance(np.column_stack([unit * self.x, np.ones_like(self.x)]),
                                          1.0)
        assert well_posed
        assert cov[0, 0] * unit * unit == pytest.approx(10.0 / 11.0, rel=1e-12)
        assert cov[0, 1] * unit == pytest.approx(-5.0 / 11.0, rel=1e-12)
        assert cov[1, 1] == pytest.approx(7.0 / 22.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_jacobian_gives_nan(self, bad):
        # no traceback and no zero variance: every entry is unknown
        jac = np.column_stack([self.x, np.ones_like(self.x), self.x * self.x])
        jac[4, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cov, well_posed = _covariance(jac, 1.0)
        assert not well_posed
        assert cov.shape == (3, 3) and np.isnan(cov).all()
