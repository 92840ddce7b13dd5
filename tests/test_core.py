import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from csfq3d.core import (
    CONSTANTS,
    CavityParams,
    NegativeAnharmonicityWarning,
    QubitParams,
    capacitance_from_charging_energy,
    charging_energy_from_capacitance,
    normalized_flux,
)


def test_constants_identities():
    assert CONSTANTS.hbar == CONSTANTS.h / (2.0 * math.pi)


def test_charging_energy_reference_values():
    # 78 fF shunt: the quoted 0.25 GHz; 6 fF junction: the quoted 3.2 GHz
    assert charging_energy_from_capacitance(78.0) == pytest.approx(0.24833627339306563, rel=1e-12)
    assert charging_energy_from_capacitance(6.0) == pytest.approx(3.228371554109853, rel=1e-12)


def test_charging_energy_vanishes_for_large_capacitance():
    assert charging_energy_from_capacitance(1e12) < 1e-10


def test_charging_energy_rejects_nonpositive():
    with pytest.raises(ValueError):
        charging_energy_from_capacitance(0.0)
    with pytest.raises(ValueError):
        charging_energy_from_capacitance(-5.0)


def test_capacitance_of_a_tiny_energy_is_finite():
    # e^2/2E with E = 1e-301 GHz: no intermediate product underflows to 0
    assert capacitance_from_charging_energy(1e-301) == pytest.approx(1.9370229324659e302,
                                                                      rel=1e-12)


@pytest.mark.parametrize("energy", [0.0, -0.25])
def test_capacitance_rejects_nonpositive_energy(energy):
    with pytest.raises(ValueError, match="charging energy must be positive"):
        capacitance_from_charging_energy(energy)


def test_capacitance_overflow_rejected():
    with pytest.raises(ValueError, match="overflows"):
        capacitance_from_charging_energy(1e-310)


@given(st.floats(min_value=1e-3, max_value=1e6), st.floats(min_value=1.5, max_value=100.0))
def test_charging_energy_scales_inversely(c, factor):
    base = charging_energy_from_capacitance(c)
    scaled = charging_energy_from_capacitance(c * factor)
    assert scaled < base
    assert scaled * factor == pytest.approx(base, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_capacitance_charging_energy_round_trip(c):
    assert capacitance_from_charging_energy(charging_energy_from_capacitance(c)) == pytest.approx(c, rel=1e-12)


class TestQubitParams:
    def test_reference_parameters_validate(self):
        q = QubitParams(alpha=0.41, E_J=85.0, E_C=3.2, C_S=78.0)
        assert q.E_CS == pytest.approx(0.24833627339306563, rel=1e-12)
        assert q.beta == pytest.approx(q.C_S / capacitance_from_charging_energy(q.E_C), rel=1e-12)

    def test_double_well_alpha_rejected(self):
        with pytest.raises(ValueError, match="double-well"):
            QubitParams(alpha=0.5, E_J=85.0, E_C=3.2, C_S=78.0)

    def test_small_alpha_warns(self):
        with pytest.warns(NegativeAnharmonicityWarning):
            q = QubitParams(alpha=0.125, E_J=85.0, E_C=3.2, C_S=78.0)
        assert q.alpha == 0.125

    @pytest.mark.parametrize("bad", [
        dict(alpha=-0.1), dict(alpha=0.0), dict(alpha=0.7),
        dict(E_J=0.0), dict(E_J=-1.0), dict(E_C=0.0), dict(C_S=-78.0),
        dict(E_J=5e-324), dict(C_S=5e-324),  # positive, but a divisor underflows to 0
        dict(E_J=1.7e308),  # finite, but the potential depth (4 + 2 alpha) E_J overflows
        dict(C_S=1.7e308),  # finite, but e^2/2C_S underflows to 0
    ])
    def test_invalid_fields_rejected(self, bad):
        fields = dict(alpha=0.41, E_J=85.0, E_C=3.2, C_S=78.0)
        fields.update(bad)
        with pytest.raises(ValueError):
            QubitParams(**fields)


class TestCavityParams:
    def test_reference_cavity(self):
        cav = CavityParams(omega_c0=8.2175, kappa_c=0.6, kappa_i=0.7)
        assert cav.kappa == 0.6 + 0.7
        assert cav.kappa == pytest.approx(1.3, rel=1e-12)

    def test_kappa_is_exact_sum(self):
        cav = CavityParams(omega_c0=8.0, kappa_c=0.125, kappa_i=0.375)
        assert cav.kappa == 0.125 + 0.375

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            CavityParams(omega_c0=8.0, kappa_c=-0.1, kappa_i=0.5)
        with pytest.raises(ValueError):
            CavityParams(omega_c0=8.0, kappa_c=0.0, kappa_i=0.0)


class TestFluxBias:
    def test_rejects_non_finite(self):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError):
                normalized_flux(float(value))

    def test_normalized_flux_accepts_both(self):
        # a plain float and the numpy scalar a linspace sweep yields
        assert normalized_flux(0.51) == 0.51
        assert type(normalized_flux(np.float64(0.51))) is float

    def test_array_in_array_out(self):
        flux = np.array([0.49, 0.5, 0.51])
        out = normalized_flux(flux)
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert np.array_equal(out, flux)
        with pytest.raises(ValueError, match="finite"):
            normalized_flux(np.array([0.49, np.nan]))
