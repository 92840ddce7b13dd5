import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from csfq3d.filters import FilterSpec, cpmg_positions, filter_function


def hahn_closed_form(wt):
    return 16.0 * np.sin(wt / 4.0) ** 4 / wt**2


def ramsey_closed_form(wt):
    return 4.0 * np.sin(wt / 2.0) ** 2 / wt**2


def cpmg_product_form(n_pulses, wt):
    # ideal-pulse g_N, N >= 1: 16 sin^4(x/4N) {sin^2 (N even) | cos^2 (N odd)}(x/2)
    # / (x cos(x/2N))^2, which agrees with the pulse sum to 1e-53 in 60-digit arithmetic
    half = np.sin(wt / 2.0) if n_pulses % 2 == 0 else np.cos(wt / 2.0)
    pole = wt * np.cos(wt / (2.0 * n_pulses))
    return 16.0 * np.sin(wt / (4.0 * n_pulses)) ** 4 * half**2 / pole**2


class TestCpmgPositions:
    def test_hahn_is_midpoint(self):
        np.testing.assert_allclose(cpmg_positions(1), [0.5])

    def test_two_pulses(self):
        np.testing.assert_allclose(cpmg_positions(2), [0.25, 0.75])

    def test_twenty_pulses_symmetric_and_uniform(self):
        delta = cpmg_positions(20)
        assert len(delta) == 20
        np.testing.assert_allclose(np.diff(delta), 1.0 / 20.0)
        np.testing.assert_allclose(delta + delta[::-1], 1.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cpmg_positions(0)


class TestFilterSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            FilterSpec(N=-1, tau=1.0)
        with pytest.raises(ValueError, match="positive"):
            FilterSpec(N=1, tau=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            FilterSpec(N=1, tau=1.0, tau_pi=-0.1)
        with pytest.raises(ValueError, match="do not fit"):
            FilterSpec(N=10, tau=1.0, tau_pi=0.2)


class TestFilterFunction:
    def test_hahn_reference_point(self):
        # 16 sin^4(pi/2)/(2 pi)^2
        spec = FilterSpec(1, 1.0)
        assert filter_function(spec, 2.0 * math.pi) == pytest.approx(0.4052847345693511, rel=1e-12)

    def test_hahn_closed_form_everywhere(self):
        spec = FilterSpec(1, 1.0)
        wt = np.linspace(0.1, 100.0, 4001)
        np.testing.assert_allclose(filter_function(spec, wt), hahn_closed_form(wt), atol=1e-10)

    def test_ramsey_closed_form(self):
        spec = FilterSpec(0, 1.0)
        assert filter_function(spec, math.pi) == pytest.approx(4.0 / math.pi**2, rel=1e-12)
        wt = np.linspace(0.05, 60.0, 2001)
        np.testing.assert_allclose(filter_function(spec, wt), ramsey_closed_form(wt), atol=1e-12)

    def test_dc_limits(self):
        assert filter_function(FilterSpec(0, 1.0), 0.0) == 1.0
        assert filter_function(FilterSpec(1, 1.0), 0.0) == 0.0
        assert filter_function(FilterSpec(20, 1.0), 0.0) == 0.0

    def test_dc_limit_continuous(self):
        # the assigned omega=0 values are the omega->0 limits of the formula
        assert filter_function(FilterSpec(0, 1.0), 1e-6) == pytest.approx(1.0, abs=1e-9)
        assert filter_function(FilterSpec(2, 1.0), 1e-4) < 1e-6

    @pytest.mark.parametrize("n_pulses", [0, 1, 20])
    def test_overflowing_omega_tau_takes_the_far_limit(self, n_pulses):
        # omega tau = inf (1e3 x 1e308) and (omega tau)^2 = inf (1e-3 x 1e308): g_N -> 0,
        # with no numpy warning (the suite turns RuntimeWarning into an error)
        values = filter_function(FilterSpec(n_pulses, 1e308), [1e-3, 1e3, 1e4])
        np.testing.assert_array_equal(values, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("n_pulses", [0, 1, 20])
    def test_limits_and_ordinary_points_in_one_array(self, n_pulses):
        # (omega tau)^2 is 0 at 0 and 1e-170, inf at 1e170 and inf; the limits are exact,
        # the ordinary points those of scalar calls up to the rounding of the pulse sum
        spec = FilterSpec(n_pulses, 1.0)
        ordinary = math.pi * max(n_pulses, 1) * np.array([1.0, 1.25, 3.0])
        values = filter_function(spec, np.concatenate([[0.0, 1e-170], ordinary, [1e170, np.inf]]))
        limit = 1.0 if n_pulses == 0 else 0.0
        np.testing.assert_array_equal(values[[0, 1, -2, -1]], [limit, limit, 0.0, 0.0])
        np.testing.assert_allclose(values[2:-2], [filter_function(spec, w) for w in ordinary],
                                   rtol=1e-12, atol=0.0)
        assert type(filter_function(spec, np.float64(ordinary[0]))) is float
        assert type(filter_function(spec, np.array(1e170))) is float

    @pytest.mark.parametrize("n_pulses", [1, 2, 20])
    def test_relative_accuracy_against_product_form(self, n_pulses):
        # worst 2.2e-7, at N = 20 and omega tau = 0.01; points next to a pole of the
        # product form, |cos(x/2N)| <= 1e-3, are left out
        wt = np.logspace(-2, 3, 2001)
        wt = wt[np.abs(np.cos(wt / (2.0 * n_pulses))) > 1e-3]
        np.testing.assert_allclose(filter_function(FilterSpec(n_pulses, 1.0), wt),
                                   cpmg_product_form(n_pulses, wt), rtol=1e-6, atol=0.0)

    @given(
        st.integers(min_value=0, max_value=25),
        st.floats(min_value=1e-2, max_value=1e3),
        st.floats(min_value=0.0, max_value=1e-3),
    )
    def test_nonnegative_everywhere(self, n_pulses, omega, tau_pi):
        spec = FilterSpec(n_pulses, 1.0, tau_pi)
        assert filter_function(spec, omega) >= 0.0

    def test_cpmg20_passband_location(self):
        spec = FilterSpec(20, 1.0)
        omega = np.linspace(0.5 * math.pi * 20, 1.5 * math.pi * 20, 20001)
        values = filter_function(spec, omega)
        peak = omega[np.argmax(values)]
        assert peak == pytest.approx(math.pi * 20, rel=0.05)

    def test_cpmg20_golden_values(self):
        spec = FilterSpec(20, 1.0)
        golden = {
            1.0: 8.983148673310043e-08,
            10.0: 3.786459825319766e-05,
            62.83185307179586: 0.4052847345693511,
            100.0: 0.0001391811254750925,
        }
        for omega, expected in golden.items():
            assert filter_function(spec, omega) == pytest.approx(expected, rel=1e-9)

    def test_finite_pulse_duration_lowers_peak(self):
        omega = np.linspace(0.5 * math.pi * 20, 1.5 * math.pi * 20, 5001)
        sharp = filter_function(FilterSpec(20, 1.0, tau_pi=0.0), omega)
        fat = filter_function(FilterSpec(20, 1.0, tau_pi=0.002), omega)
        assert fat.max() < sharp.max()

    def test_cpmg_rejects_less_low_frequency_noise_than_hahn(self):
        # weight against S(omega) = A/omega over a fixed grid
        omega = np.logspace(-1, 3, 2001)
        hahn = filter_function(FilterSpec(1, 1.0), omega)
        cpmg = filter_function(FilterSpec(20, 1.0), omega)
        hahn_weight = np.trapezoid(hahn / omega, omega)
        cpmg_weight = np.trapezoid(cpmg / omega, omega)
        assert cpmg_weight < 0.2 * hahn_weight
