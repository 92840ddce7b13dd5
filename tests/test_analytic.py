import warnings

import numpy as np
import pytest

from csfq3d import analytic
from csfq3d.core import NegativeAnharmonicityWarning, QubitParams, capacitance_from_charging_energy


def reference_qubit(e_cs=0.25):
    """The perturbative parameter set alpha=0.41, E_CS=0.25 GHz, E_J=85 GHz."""
    return QubitParams(alpha=0.41, E_J=85.0, E_C=3.2,
                       C_S=capacitance_from_charging_energy(e_cs))


class TestGap:
    def test_reference_value(self):
        # harmonic term alone is sqrt(4*0.25*85*0.18) = 3.9115, quartic shift brings 4.703
        q = reference_qubit()
        assert analytic.gap(q) == pytest.approx(4.703188109788256, rel=1e-12)

    def test_harmonic_term_alone(self):
        q = reference_qubit()
        harmonic = analytic.gap(q) - analytic.anharmonicity(q)
        assert harmonic == pytest.approx(3.9115214431215897, rel=1e-12)

    def test_vanishes_with_shunt_charging_energy(self):
        # gap ~ sqrt(E_CS) for small E_CS, so it falls by ~10x per 100x step
        gaps = [analytic.gap(reference_qubit(e_cs=e)) for e in (1e-2, 1e-4, 1e-6)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-2
        assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.05)


class TestAnharmonicity:
    def test_reference_value(self):
        assert analytic.anharmonicity(reference_qubit()) == pytest.approx(0.79166666666666, rel=1e-12)

    def test_zero_at_alpha_eighth(self):
        with pytest.warns(NegativeAnharmonicityWarning):
            q = QubitParams(alpha=0.125, E_J=85.0, E_C=3.2, C_S=78.0)
        assert analytic.anharmonicity(q) == 0.0

    def test_full_2d_parameter_set_is_out_of_perturbative_reach(self):
        # documented non-example: at alpha=0.437/C_S=60 fF the perturbative
        # anharmonicity (~1.6 GHz) does not reproduce the measured 0.78 GHz
        q = QubitParams(alpha=0.437, E_J=136.75, E_C=3.2, C_S=60.0)
        assert abs(analytic.anharmonicity(q) - 0.78) > 0.5


class TestEpsilon:
    def test_zero_at_optimal_point(self):
        assert analytic.epsilon(reference_qubit(), 0.5) == 0.0

    def test_slope_value(self):
        assert analytic.epsilon_slope(reference_qubit()) == pytest.approx(110.71584859233687, rel=1e-12)

    def test_linear_in_flux(self):
        q = reference_qubit()
        assert analytic.epsilon(q, 0.51) == pytest.approx(1.1071584859233687, rel=1e-12)
        assert analytic.epsilon(q, 0.49) == pytest.approx(-1.1071584859233687, rel=1e-12)


class TestOmega01:
    def test_equals_gap_at_optimal_point(self):
        q = reference_qubit()
        assert analytic.omega01(q, 0.5) == analytic.gap(q)

    def test_reference_value_off_optimal(self):
        assert analytic.omega01(reference_qubit(), 0.51) == pytest.approx(5.224451509991619, rel=1e-12)

    @pytest.mark.parametrize("f", [0.47, 0.492, 0.5001, 0.53])
    def test_flux_symmetry(self, f):
        q = reference_qubit()
        assert analytic.omega01(q, f) == pytest.approx(analytic.omega01(q, 1.0 - f), rel=1e-14)

    def test_minimum_at_optimal_point(self):
        q = reference_qubit()
        delta = analytic.gap(q)
        for f in np.linspace(0.45, 0.55, 21):
            assert analytic.omega01(q, f) >= delta
        assert analytic.omega01(q, 0.5) == delta


class TestFluxDerivative:
    def test_zero_at_optimal_point(self):
        assert analytic.domega01_df(reference_qubit(), 0.5) == 0.0

    def test_reference_value(self):
        assert analytic.domega01_df(reference_qubit(), 0.51) == pytest.approx(104.25268004067254, rel=1e-12)

    @pytest.mark.parametrize("f", [0.48, 0.503, 0.51, 0.55])
    def test_matches_finite_difference(self, f):
        q = reference_qubit()
        step = 1e-6
        numeric = (analytic.omega01(q, f + step) - analytic.omega01(q, f - step)) / (2.0 * step)
        assert analytic.domega01_df(q, f) == pytest.approx(numeric, rel=1e-6)


class TestMatrixElements:
    def test_reference_values(self):
        m_large, m_small = analytic.junction_matrix_elements(reference_qubit())
        assert m_large == pytest.approx(0.1264058434869747, rel=1e-12)
        assert m_small == pytest.approx(0.031956874535307093, rel=1e-12)

    @pytest.mark.parametrize("alpha,e_j", [(0.41, 85.0), (0.3, 40.0), (0.45, 200.0)])
    def test_small_equals_twice_large_squared(self, alpha, e_j):
        q = QubitParams(alpha=alpha, E_J=e_j, E_C=3.2, C_S=78.0)
        m_large, m_small = analytic.junction_matrix_elements(q)
        assert m_small == pytest.approx(2.0 * m_large**2, rel=1e-12)

    def test_vanish_in_heavy_limit(self):
        q = QubitParams(alpha=0.41, E_J=85000.0, E_C=3.2, C_S=78000.0)
        m_large, m_small = analytic.junction_matrix_elements(q)
        assert m_large < 0.01
        assert m_small < 0.001


class TestLadderConsistency:
    def test_anharmonicity_from_levels(self):
        q = reference_qubit()
        levels = [analytic.perturbative_level(q, m) for m in range(3)]
        ladder_anharmonicity = (levels[2] - levels[1]) - (levels[1] - levels[0])
        assert ladder_anharmonicity == pytest.approx(analytic.anharmonicity(q), rel=1e-12)

    def test_gap_from_levels(self):
        q = reference_qubit()
        assert analytic.perturbative_level(q, 1) - analytic.perturbative_level(q, 0) == \
            pytest.approx(analytic.gap(q), rel=1e-12)

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError):
            analytic.perturbative_level(reference_qubit(), -1)


class TestPerturbativeSpectrum:
    def test_reference_set_is_clean(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectrum = analytic.perturbative_spectrum(reference_qubit())
        assert spectrum.flags == ()
        assert spectrum.validity_ratio == pytest.approx(85.0 * 0.18 / 0.25, rel=1e-12)
        assert spectrum.Delta == analytic.gap(reference_qubit())
        assert spectrum.A == analytic.anharmonicity(reference_qubit())
        assert spectrum.dEps_df == analytic.epsilon_slope(reference_qubit())

    def test_low_ratio_is_flagged(self):
        q = QubitParams(alpha=0.48, E_J=20.0, E_C=3.2,
                        C_S=capacitance_from_charging_energy(0.5))
        with pytest.warns(analytic.PerturbativeValidityWarning):
            spectrum = analytic.perturbative_spectrum(q)
        assert "perturbative_ratio_low" in spectrum.flags
