import math
import warnings

import pytest
from hypothesis import given, strategies as st

from csfq3d import cqed

# device working point: qubit below the cavity, deep dispersive regime
OMEGA01, OMEGA12 = 4.68, 5.46
OMEGA_C0, OMEGA_C = 8.2175, 8.219
CHI = 0.892


class TestChiPartial:
    def test_g01_shift(self):
        assert cqed.chi_partial(73.0, OMEGA01, OMEGA_C0) == pytest.approx(-1.5064310954063607, rel=1e-12)

    def test_g12_shift(self):
        assert cqed.chi_partial(115.0, OMEGA12, OMEGA_C0) == pytest.approx(-4.796010879419765, rel=1e-12)

    def test_zero_coupling(self):
        assert cqed.chi_partial(0.0, OMEGA01, OMEGA_C0) == 0.0

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            cqed.chi_partial(73.0, 8.2175, 8.2175)

    def test_outside_dispersive_regime_warns(self):
        with pytest.warns(cqed.DispersiveLimitWarning):
            cqed.chi_partial(300.0, 8.0, 8.5)

    def test_sign_convention(self):
        # qubit below the cavity: negative shift, dressed cavity above bare
        chi01 = cqed.chi_partial(73.0, OMEGA01, OMEGA_C0)
        assert chi01 < 0.0
        dressed = OMEGA_C0 - chi01 * 1e-3
        assert dressed > OMEGA_C0


class TestTotalPull:
    def test_reference_value(self):
        chi = cqed.total_pull(-1.5064310954063607, -4.796010879419765)
        assert chi == pytest.approx(0.891574344303522, rel=1e-12)
        assert 2.0 * chi == pytest.approx(1.8, rel=0.02)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_cancellation(self, x):
        assert cqed.total_pull(x, 2.0 * x) == pytest.approx(0.0, abs=1e-12)

    def test_single_transition(self):
        assert cqed.total_pull(-1.5, 0.0) == -1.5


class TestExtractCouplings:
    def test_reference_values(self):
        couplings = cqed.dispersive_set(OMEGA01, OMEGA12, OMEGA_C0, OMEGA_C, CHI)
        g01, g12 = couplings.g01, couplings.g12
        assert g01 == pytest.approx(72.8440114216687, rel=1e-12)
        assert g12 == pytest.approx(114.85590973041096, rel=1e-12)

    def test_chi12_zero_gives_zero_g12(self):
        chi01 = (OMEGA_C0 - OMEGA_C) * 1e3
        g12 = cqed.dispersive_set(OMEGA01, OMEGA12, OMEGA_C0, OMEGA_C, chi01).g12
        assert g12 == 0.0

    def test_near_resonant_qubit_warns(self):
        # 17.5 MHz below the bare cavity, the inferred g01 = 5.12 MHz is 0.29 of
        # the detuning; g12 stays deep in the dispersive regime
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            couplings = cqed.dispersive_set(8.2, OMEGA12, OMEGA_C0, OMEGA_C, CHI)
        assert couplings.g01 == pytest.approx(math.sqrt(1.5 * 17.5), rel=1e-9)
        assert [str(w.message).split(" = ")[0] for w in caught] == ["g01/|detuning|"]
        assert all(w.category is cqed.DispersiveLimitWarning for w in caught)
        assert caught[0].filename == __file__  # attributed to the caller

    def test_inconsistent_inputs_rejected(self):
        # dressed cavity below bare for a qubit below the cavity: negative radicand
        with pytest.raises(ValueError, match="inconsistent"):
            cqed.dispersive_set(OMEGA01, OMEGA12, OMEGA_C0, 8.216, CHI)

    @given(
        st.floats(min_value=20.0, max_value=150.0),
        st.floats(min_value=20.0, max_value=200.0),
        st.floats(min_value=3.5, max_value=6.0),
        st.floats(min_value=0.3, max_value=1.5),
    )
    def test_round_trip_against_chi_partial(self, g01, g12, omega01, anharmonicity):
        omega12 = omega01 + anharmonicity
        omega_c0 = 8.2175
        # some draws leave the dispersive regime: each chi_partial warns
        # exactly when its g/|detuning| exceeds the ceiling, and never otherwise
        ratios = [g / abs((omega - omega_c0) * 1e3)
                  for g, omega in ((g01, omega01), (g12, omega12))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chi01 = cqed.chi_partial(g01, omega01, omega_c0)
            chi12 = cqed.chi_partial(g12, omega12, omega_c0)
        assert [w.category for w in caught] == [cqed.DispersiveLimitWarning] * sum(
            ratio > cqed.DISPERSIVE_RATIO_CEILING for ratio in ratios)
        chi = cqed.total_pull(chi01, chi12)
        omega_c = omega_c0 - chi01 * 1e-3
        with warnings.catch_warnings(record=True) as caught_back:
            warnings.simplefilter("always")
            back = cqed.dispersive_set(omega01, omega12, omega_c0, omega_c, chi)
        # the inversion flags the same couplings
        assert [w.category for w in caught_back] == [w.category for w in caught]
        assert back.g01 == pytest.approx(g01, rel=1e-9)
        assert back.g12 == pytest.approx(g12, rel=1e-9)

    def test_forward_recomputation_consistency(self):
        couplings = cqed.dispersive_set(OMEGA01, OMEGA12, OMEGA_C0, OMEGA_C, CHI)
        g01, g12 = couplings.g01, couplings.g12
        chi01 = cqed.chi_partial(g01, OMEGA01, OMEGA_C0)
        chi12 = cqed.chi_partial(g12, OMEGA12, OMEGA_C0)
        assert cqed.total_pull(chi01, chi12) == pytest.approx(CHI, rel=1e-9)


class TestDispersiveSet:
    def test_consistency(self):
        ds = cqed.dispersive_set(OMEGA01, OMEGA12, OMEGA_C0, OMEGA_C, CHI)
        assert ds.chi == pytest.approx(ds.chi01 - ds.chi12 / 2.0, rel=1e-12)
        assert ds.chi01 == pytest.approx((OMEGA_C0 - OMEGA_C) * 1e3, rel=1e-9)
        assert ds.g01 == pytest.approx(72.844, rel=1e-4)


class TestPurcell:
    def test_reference_value(self):
        t1p = cqed.purcell_t1(1.3, 73.0, 4.68, 8.219)
        assert t1p == pytest.approx(0.0018078902088716306, rel=1e-12)

    def test_zero_coupling_unbounded(self):
        assert cqed.purcell_t1(1.3, 0.0, 4.68, 8.219) == math.inf

    def test_doubling_detuning_quadruples(self):
        base = cqed.purcell_t1(1.3, 73.0, 8.219 - 1.0, 8.219)
        doubled = cqed.purcell_t1(1.3, 73.0, 8.219 - 2.0, 8.219)
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=1.0, max_value=200.0),
        st.floats(min_value=0.5, max_value=5.0),
    )
    def test_exact_scaling_law(self, kappa, g01, detuning_ghz):
        omega_c = 8.219
        t1p = cqed.purcell_t1(kappa, g01, omega_c - detuning_ghz, omega_c)
        expected = (detuning_ghz * 1e3) ** 2 / (kappa * 1e6 * g01**2)
        assert t1p == pytest.approx(expected, rel=1e-12)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            cqed.purcell_t1(1.3, 73.0, 8.219, 8.219)

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(ValueError):
            cqed.purcell_t1(0.0, 73.0, 4.68, 8.219)
