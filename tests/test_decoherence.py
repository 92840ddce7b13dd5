import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from csfq3d.core import CONSTANTS, QubitParams, capacitance_from_charging_energy
from csfq3d.decoherence import (
    DEFAULT_OMEGA_IR,
    AttenuationChain,
    FluxNoise,
    QuasiparticleEnv,
    QuasiparticleValidityWarning,
    bessel_k0,
    decay_envelope,
    effective_temperature,
    flux_dephasing_rates,
    _bessel_k0e,
    qp_rate_components,
    qp_relaxation_rate,
    thermal_dephasing_rate,
    thermal_photon_population,
    thermal_voltage_psd,
)

REFERENCE_MATRIX_ELEMENTS = (0.1264, 0.0320)

# illustrative dilution-refrigerator chain that lands at T_eff ~ 50 mK:
# room temperature behind 70 dB total, 4 K stage behind 50 dB, 100 mK stage
# behind 20 dB, mixing chamber unattenuated
EXAMPLE_CHAIN = AttenuationChain(stages=(
    (300.0, 1e-7),
    (4.0, 9.9e-6),
    (0.1, 9.99e-3),
    (0.01, 0.99),
))


def reference_qubit():
    return QubitParams(alpha=0.41, E_J=85.0, E_C=3.2,
                       C_S=capacitance_from_charging_energy(0.25))


def k0_quadrature(x):
    """Independent K0 oracle: scaled integral representation of the Bessel
    function, K0(x) = exp(-x) * integral of exp(-x (cosh t - 1)) dt."""
    value, _ = integrate.quad(lambda t: math.exp(-x * (math.cosh(t) - 1.0)),
                              0.0, 40.0, limit=500, epsabs=0.0, epsrel=1e-11)
    return math.exp(-x) * value


class TestBesselK0:
    def test_reference_values(self):
        assert bessel_k0(0.75) == pytest.approx(0.610582422116464, rel=1e-9)
        assert bessel_k0(1.0) == pytest.approx(0.4210244382407084, rel=1e-9)

    def test_against_quadrature_oracle(self):
        for x in np.logspace(-3, math.log10(50.0), 60):
            assert bessel_k0(float(x)) == pytest.approx(k0_quadrature(x), rel=1e-7)

    def test_large_argument_asymptote(self):
        target = math.sqrt(math.pi / 2.0)
        scaled = [bessel_k0(x) * math.exp(x) * math.sqrt(x) for x in (20.0, 50.0, 300.0)]
        deviations = [abs(s - target) for s in scaled]
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 1e-3

    def test_scaled_against_scipy_k0e(self):
        # exp(x) K0(x) stays finite past x = 709, where exp(x) alone overflows
        for x in np.concatenate([np.logspace(-300, 300, 601), [709.0, 710.0]]):
            assert _bessel_k0e(float(x)) == pytest.approx(special.k0e(x), rel=1e-14)

    @pytest.mark.parametrize("x", [5e-324, 1.7976931348623157e308])
    def test_scaled_finite_at_double_range_ends(self, x):
        # the smallest subnormal and the largest double: no overflow, no warning
        value = _bessel_k0e(x)
        assert math.isfinite(value) and value > 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bessel_k0(0.0)
        with pytest.raises(ValueError):
            bessel_k0(-1.0)


class TestQuasiparticleEnv:
    def test_nqp_reference(self):
        env = QuasiparticleEnv(x_qp=6.1e-8)
        assert env.n_qp == pytest.approx(0.6, rel=0.01)
        assert env.n_qp == env.x_qp * 2.0 * env.n_cp

    def test_nqp_linear(self):
        base = QuasiparticleEnv(x_qp=3e-8).n_qp
        assert QuasiparticleEnv(x_qp=6e-8).n_qp == pytest.approx(2.0 * base, rel=1e-12)
        assert QuasiparticleEnv(x_qp=0.0).n_qp == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QuasiparticleEnv(x_qp=-1e-9)
        with pytest.raises(ValueError):
            QuasiparticleEnv(x_qp=1e-8, Delta0=0.0)


class TestQpRelaxation:
    def oracle_rate(self, x_qp, temperature, omega01=4.68, delta0_uev=200.0,
                    m=REFERENCE_MATRIX_ELEMENTS, alpha=0.41, e_j=85.0):
        """Same physics written independently, with scipy's K0."""
        gap_j = delta0_uev * 1e-6 * CONSTANTS.e
        hw = CONSTANTS.hbar * 2.0 * math.pi * omega01 * 1e9
        kt = CONSTANTS.k_B * temperature
        a_sum = (2.0 * m[0] ** 2 * e_j + m[1] ** 2 * alpha * e_j) * 2.0 * math.pi * 1e9
        neq = (8.0 / math.pi) * x_qp * math.sqrt(2.0 * gap_j / hw)
        x = hw / (2.0 * kt)
        eq = (16.0 / math.pi) * math.exp(-gap_j / kt) * math.exp(x) * special.k0(x) \
            * (1.0 + math.exp(-2.0 * x))
        return a_sum * (neq + eq)

    def test_base_temperature_rate(self):
        env = QuasiparticleEnv(x_qp=6e-8)
        rate = qp_relaxation_rate(reference_qubit(), 4.68, env, 0.010, REFERENCE_MATRIX_ELEMENTS)
        assert rate == pytest.approx(self.oracle_rate(6e-8, 0.010), rel=1e-9)
        assert rate == pytest.approx(1.2e4, rel=0.05)
        assert 60e-6 < 1.0 / rate < 110e-6

    def test_elevated_temperature_rate(self):
        env = QuasiparticleEnv(x_qp=6e-8)
        rate = qp_relaxation_rate(reference_qubit(), 4.68, env, 0.150, REFERENCE_MATRIX_ELEMENTS)
        assert rate == pytest.approx(self.oracle_rate(6e-8, 0.150), rel=1e-9)
        assert 1.0 / rate == pytest.approx(26e-6, rel=0.05)
        assert 15e-6 < 1.0 / rate < 30e-6

    def test_vanishes_without_quasiparticles(self):
        env = QuasiparticleEnv(x_qp=0.0)
        rate = qp_relaxation_rate(reference_qubit(), 4.68, env, 0.001, REFERENCE_MATRIX_ELEMENTS)
        assert rate < 1e-30

    def test_detailed_balance_structure(self):
        env = QuasiparticleEnv(x_qp=6e-8)
        parts = qp_rate_components(reference_qubit(), 4.68, env, 0.150, REFERENCE_MATRIX_ELEMENTS)
        boltzmann = math.exp(-CONSTANTS.h * 4.68e9 / (CONSTANTS.k_B * 0.150))
        assert parts.equilibrium_up / parts.equilibrium_down == pytest.approx(boltzmann, rel=1e-12)
        total = parts.nonequilibrium + parts.equilibrium_down * (1.0 + boltzmann)
        assert parts.total == pytest.approx(total, rel=1e-12)

    def test_monotone_in_temperature_and_density(self):
        q = reference_qubit()
        rates_t = [
            qp_relaxation_rate(q, 4.68, QuasiparticleEnv(x_qp=6e-8), t, REFERENCE_MATRIX_ELEMENTS)
            for t in np.linspace(0.01, 0.3, 8)
        ]
        assert np.all(np.diff(rates_t) > 0.0)
        rates_x = [
            qp_relaxation_rate(q, 4.68, QuasiparticleEnv(x_qp=x), 0.05, REFERENCE_MATRIX_ELEMENTS)
            for x in np.linspace(0.0, 1e-6, 8)
        ]
        assert np.all(np.diff(rates_x) > 0.0)

    def test_validity_warning_outside_regime(self):
        env = QuasiparticleEnv(x_qp=6e-8)
        with pytest.warns(QuasiparticleValidityWarning):
            qp_relaxation_rate(reference_qubit(), 4.68, env, 1.0, REFERENCE_MATRIX_ELEMENTS)

    def test_finite_far_below_exp_overflow_temperature(self):
        # at 0.1 mK, hbar omega / 2 k_B T ~ 1100: the equilibrium part is zero and
        # the temperature-independent non-equilibrium part is all that is left
        env = QuasiparticleEnv(x_qp=6e-8)
        parts = qp_rate_components(reference_qubit(), 4.68, env, 1e-4, REFERENCE_MATRIX_ELEMENTS)
        assert parts.equilibrium_down == 0.0 and parts.equilibrium_up == 0.0
        assert parts.total == parts.nonequilibrium > 0.0

    def test_rejects_nonpositive_temperature(self):
        env = QuasiparticleEnv(x_qp=6e-8)
        with pytest.raises(ValueError):
            qp_relaxation_rate(reference_qubit(), 4.68, env, 0.0, REFERENCE_MATRIX_ELEMENTS)

    @pytest.mark.parametrize("omega01, temperature, message", [
        (4.68, 5e-324, "temperature 5e-324 K underflows k_B T"),
        (1e-300, 0.01, "omega01 = 1e-300 GHz underflows hbar omega01"),
    ])
    def test_rejects_underflowing_energy(self, omega01, temperature, message):
        env = QuasiparticleEnv(x_qp=6e-8)
        with pytest.raises(ValueError, match=message):
            qp_relaxation_rate(reference_qubit(), omega01, env, temperature,
                               REFERENCE_MATRIX_ELEMENTS)


class TestEffectiveTemperature:
    def test_single_stage_identity(self):
        for weight in (1.0, 0.37):
            chain = AttenuationChain(stages=((0.137, weight),))
            assert effective_temperature(chain, 8.2175) == pytest.approx(0.137, rel=1e-14, abs=0.0)

    def test_example_chain_lands_near_50_mk(self):
        t_eff = effective_temperature(EXAMPLE_CHAIN, 8.2175)
        assert t_eff == pytest.approx(0.049888134, rel=1e-6)
        assert t_eff == pytest.approx(0.050, rel=0.05)

    @pytest.mark.parametrize("omega", [4.0, 8.2175, 20.0])
    def test_residual_of_defining_equation(self, omega):
        t_eff = effective_temperature(EXAMPLE_CHAIN, omega)
        total = sum(w for _, w in EXAMPLE_CHAIN.stages)
        target = sum(w * thermal_voltage_psd(omega, t) for t, w in EXAMPLE_CHAIN.stages) / total
        assert thermal_voltage_psd(omega, t_eff) == pytest.approx(target, rel=1e-13, abs=0.0)

    def test_ratio_only_dependence(self):
        scaled = AttenuationChain(stages=tuple((t, 137.0 * w) for t, w in EXAMPLE_CHAIN.stages))
        assert effective_temperature(scaled, 8.2175) == pytest.approx(
            effective_temperature(EXAMPLE_CHAIN, 8.2175), rel=1e-9)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            AttenuationChain(stages=((4.0, 0.0), (0.01, 0.0)))

    # at 0.5 mK nbar underflows to zero; at 0.9 mK it is positive but T_eff < 1 mK
    @pytest.mark.parametrize("temperature", [5e-4, 9e-4])
    def test_below_floor_returns_floor_with_warning(self, temperature):
        chain = AttenuationChain(stages=((temperature, 1.0),))
        with pytest.warns(UserWarning, match="1 mK"):
            assert effective_temperature(chain, 8.2175) == 1e-3

    def test_psd_strictly_increasing_in_temperature(self):
        values = [thermal_voltage_psd(8.2175, t) for t in np.logspace(-3, 2.5, 30)]
        assert np.all(np.diff(values) > 0.0)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            AttenuationChain(stages=())
        with pytest.raises(ValueError):
            AttenuationChain(stages=((0.0, 1.0),))
        with pytest.raises(ValueError):
            AttenuationChain(stages=((4.0, -0.1),))


class TestThermalPhotons:
    def test_population_reference(self):
        assert thermal_photon_population(8.219, 0.050) == pytest.approx(3.749863817796907e-4, rel=1e-9)
        assert thermal_photon_population(8.219, 0.050) == pytest.approx(3.75e-4, rel=0.02)

    def test_population_vanishes_at_low_temperature(self):
        assert thermal_photon_population(8.219, 1e-4) == 0.0
        assert thermal_photon_population(8.219, 0.0) == 0.0

    def test_rayleigh_jeans_limit(self):
        classical = CONSTANTS.k_B * 10.0 / (CONSTANTS.h * 8.219e9)
        assert thermal_photon_population(8.219, 10.0) == pytest.approx(classical, rel=0.05)

    def test_dephasing_rate_reference(self):
        nbar = thermal_photon_population(8.219, 0.050)
        rate = thermal_dephasing_rate(1.3, 0.892, nbar)
        assert rate == pytest.approx(318.4071387876, rel=1e-9)
        assert 1.0 / rate == pytest.approx(3e-3, rel=0.15)

    def test_dephasing_zero_photons(self):
        assert thermal_dephasing_rate(1.3, 0.892, 0.0) == 0.0

    def test_overdamped_limit(self):
        # kappa >> chi: the Lorentzian prefactor approaches one
        nbar = 1e-3
        full = thermal_dephasing_rate(100.0, 1.0, nbar)
        approximate = 4.0 * 1.0**2 / 100.0 * 1e6 * nbar
        assert full == pytest.approx(approximate, rel=0.01)

    def test_dephasing_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            thermal_dephasing_rate(0.0, 0.892, 1e-4)


class TestFluxDephasing:
    def test_echo_rate_reference(self):
        noise = FluxNoise(A_Phi=(1.8e-6) ** 2)
        gamma_e, _ = flux_dephasing_rates(noise, 104.25268004067254, 1e-6)
        oracle = math.sqrt(math.log(2.0)) * 1.8e-6 * 2.0 * math.pi * 104.25268004067254e9
        assert gamma_e == pytest.approx(oracle, rel=1e-12)
        assert gamma_e == pytest.approx(9.8164e5, rel=1e-4)

    def test_ramsey_echo_ratio(self):
        noise = FluxNoise(A_Phi=(1.8e-6) ** 2)
        gamma_e, gamma_r = flux_dephasing_rates(noise, 104.25, 1e-6)
        assert gamma_r / gamma_e == pytest.approx(4.309623439359836, rel=1e-9)

    @pytest.mark.parametrize("a_phi", [1e-14, (1.8e-6) ** 2, 1e-9])
    def test_ratio_independent_of_amplitude(self, a_phi):
        gamma_e, gamma_r = flux_dephasing_rates(FluxNoise(A_Phi=a_phi), 50.0, 1e-6)
        expected = math.sqrt(math.log(1.0 / (DEFAULT_OMEGA_IR * 1e-6)) / math.log(2.0))
        assert gamma_r / gamma_e == pytest.approx(expected, rel=1e-12)

    def test_optimal_point_rates_vanish(self):
        noise = FluxNoise(A_Phi=(1.8e-6) ** 2)
        assert flux_dephasing_rates(noise, 0.0, 1e-6) == (0.0, 0.0)

    def test_infrared_cutoff_violation(self):
        noise = FluxNoise(A_Phi=1e-12, omega_ir=2.0 * math.pi)
        with pytest.raises(ValueError):
            flux_dephasing_rates(noise, 104.0, 1.0)

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            FluxNoise(A_Phi=-1e-12)
        with pytest.raises(ValueError):
            FluxNoise(A_Phi=1e-12, omega_ir=0.0)


class TestDecayEnvelope:
    def test_starts_at_one(self):
        assert decay_envelope(0.0, 90e-6, 1e4) == 1.0

    def test_pure_relaxation(self):
        t1 = 90e-6
        assert decay_envelope(2.0 * t1, t1, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_monotone_and_bounded(self):
        t = np.linspace(0.0, 500e-6, 200)
        for shape in ("gaussian", "exponential"):
            values = decay_envelope(t, 90e-6, 1.25e4, shape)
            assert np.all(values <= 1.0) and np.all(values >= 0.0)
            assert np.all(np.diff(values) < 0.0)

    def test_gaussian_one_over_e_point(self):
        # combined 1/e point for T1 = 90 us and Gamma_phi = 1/(160 us)
        t1, gamma = 90e-6, 1.0 / 160e-6
        root = optimize.brentq(
            lambda t: decay_envelope(t, t1, gamma, "gaussian") - math.exp(-1.0), 1e-9, 1e-2)
        assert root == pytest.approx(103.98e-6, rel=1e-3)

    def test_exponential_one_over_e_matches_measured_echo_time(self):
        # exponential envelopes (the shape used for the quoted echo times)
        # put the 1/e point within a few percent of the measured 80 us
        t1, gamma = 90e-6, 1.0 / 160e-6
        root = optimize.brentq(
            lambda t: decay_envelope(t, t1, gamma, "exponential") - math.exp(-1.0), 1e-9, 1e-2)
        assert root == pytest.approx(84.7059e-6, rel=1e-4)
        assert root == pytest.approx(80e-6, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            decay_envelope(1e-6, 0.0, 1e4)
        with pytest.raises(ValueError):
            decay_envelope(1e-6, 90e-6, -1.0)
        with pytest.raises(ValueError):
            decay_envelope(-1e-6, 90e-6, 1e4)
        with pytest.raises(ValueError):
            decay_envelope(1e-6, 90e-6, 1e4, shape="lorentzian")
