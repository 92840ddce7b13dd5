import math

import numpy as np
import pytest

from csfq3d import analytic, numeric
from csfq3d.core import NegativeAnharmonicityWarning, QubitParams, capacitance_from_charging_energy
from csfq3d.numeric import (
    ConvergenceError,
    GridSpec,
    HamiltonianOperator,
    build_hamiltonian_1d,
    build_hamiltonian_2d,
    kinetic_coefficients,
    lowest_eigenpairs,
    numeric_matrix_element,
    small_junction_coupling_estimate,
)

FULL_2D = dict(alpha=0.437, E_J=136.75, E_C=3.2, C_S=60.0)


def reference_qubit_2d():
    return QubitParams(**FULL_2D)


def reference_qubit_1d(e_cs=0.25):
    return QubitParams(alpha=0.41, E_J=85.0, E_C=3.2,
                       C_S=capacitance_from_charging_energy(e_cs))


def charge_basis_levels(alpha, e_j, e_cs, n_charge=80, count=4):
    """Independent oracle: optimal-point Hamiltonian in the charge basis."""
    m = np.arange(-n_charge, n_charge + 1)
    dim = len(m)
    h = np.diag(e_cs * m.astype(float) ** 2 + (2.0 + alpha) * e_j)
    idx = np.arange(dim - 1)
    h[idx, idx + 1] += -e_j
    h[idx + 1, idx] += -e_j
    idx = np.arange(dim - 2)
    h[idx, idx + 2] += alpha * e_j * 0.5
    h[idx + 2, idx] += alpha * e_j * 0.5
    return np.linalg.eigvalsh(h)[:count]


class TestGridSpec:
    def test_defaults(self):
        grid = GridSpec()
        assert grid.n == 80
        assert grid.spacing == pytest.approx(2.0 * math.pi / 80, rel=1e-15)
        phi = grid.phi()
        assert phi[0] == -math.pi
        assert phi[-1] == pytest.approx(math.pi - grid.spacing, rel=1e-12)

    @pytest.mark.parametrize("n", [15, 14, 8, 0, 81])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            GridSpec(n=n)


class TestKineticCoefficients:
    def test_reference_value(self):
        # E_C=3.2, alpha=0.437, beta=10 gives E_m = 6.4/21.874
        q = QubitParams(alpha=0.437, E_J=136.75, E_C=3.2,
                        C_S=10.0 * capacitance_from_charging_energy(3.2))
        assert q.beta == pytest.approx(10.0, rel=1e-12)
        e_p, e_m = kinetic_coefficients(q)
        assert e_p == pytest.approx(6.4, rel=1e-12)
        assert e_m == pytest.approx(0.2925848038767487, rel=1e-9)

    def test_heavy_shunt_limit_recovers_shunt_charging_energy(self):
        # beta -> infinity must reduce E_m to E_CS
        q = QubitParams(alpha=0.437, E_J=136.75, E_C=3.2e6, C_S=60.0)
        _, e_m = kinetic_coefficients(q)
        assert e_m == pytest.approx(q.E_CS, rel=1e-5)


class TestOperators:
    def test_2d_potential_minimum_at_origin(self):
        q = reference_qubit_2d()
        op = build_hamiltonian_2d(q, 0.5, GridSpec(16))
        center = 8  # phi = 0 index
        assert op.potential[center, center] == pytest.approx(2.0 * q.alpha * q.E_J, rel=1e-12)
        assert op.potential.min() >= 0.0

    def test_1d_potential_minimum_at_origin(self):
        q = reference_qubit_1d()
        op = build_hamiltonian_1d(q, GridSpec(16))
        assert op.potential[8] == pytest.approx(2.0 * q.alpha * q.E_J, rel=1e-12)

    def test_matvec_symmetry_on_random_vectors(self):
        op = build_hamiltonian_2d(reference_qubit_2d(), 0.5, GridSpec(24))
        rng = np.random.default_rng(5)
        for _ in range(4):
            x = rng.standard_normal(op.dim)
            y = rng.standard_normal(op.dim)
            lhs = x @ op.matvec(y)
            rhs = op.matvec(x) @ y
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("mode", [0, 1, 3, 7])
    def test_spectral_kinetic_exact_on_fourier_modes(self, mode):
        grid = GridSpec(32)
        e_kin = 0.7
        op = HamiltonianOperator((e_kin,), np.zeros(grid.n), grid)
        phi = grid.phi()
        for wave in (np.cos(mode * phi), np.sin(mode * phi)):
            if np.allclose(wave, 0.0):
                continue
            expected = e_kin * mode**2 * wave
            np.testing.assert_allclose(op.matvec(wave), expected, atol=1e-10 * max(1, mode**2))

    def test_projector_preserved_by_matvec(self):
        # H commutes with the half-cell translation, so the even sector is invariant
        op = build_hamiltonian_2d(reference_qubit_2d(), 0.5, GridSpec(24))
        rng = np.random.default_rng(11)
        v = op.project(rng.standard_normal(op.dim))
        hv = op.matvec(v)
        np.testing.assert_allclose(op.project(hv), hv, atol=1e-9 * np.linalg.norm(hv))

    def test_shape_validation(self):
        grid = GridSpec(16)
        with pytest.raises(ValueError):
            HamiltonianOperator((1.0,), np.zeros(17), grid)
        with pytest.raises(ValueError):
            HamiltonianOperator((1.0,), np.zeros((16, 16)), grid)

    def test_sector_projector_only_on_2d(self):
        with pytest.raises(ValueError, match="2D"):
            HamiltonianOperator((1.0,), np.zeros(16), GridSpec(16),
                                sector_projector=lambda psi: psi)

    def test_matvec_matches_dense_operator(self):
        # against a dense H built column by column from an FFT reference, not
        # from the solver's kinetic matrices: the integer wavenumbers m of
        # np.fft.fftfreq scale each plane wave by E m^2
        rng = np.random.default_rng(7)
        for op in (build_hamiltonian_1d(reference_qubit_1d(), GridSpec(80)),
                   build_hamiltonian_2d(reference_qubit_2d(), 0.49, GridSpec(24))):
            m2 = np.fft.fftfreq(op.grid.n, d=1.0 / op.grid.n) ** 2
            if op.ndim == 1:
                symbol, fft, ifft = op.kinetic[0] * m2, np.fft.fft, np.fft.ifft
            else:
                symbol = op.kinetic[0] * m2[:, None] + op.kinetic[1] * m2[None, :]
                fft, ifft = np.fft.fft2, np.fft.ifft2
            dense = np.column_stack([
                (ifft(symbol * fft(unit.reshape(op.potential.shape))).real
                 + op.potential * unit.reshape(op.potential.shape)).ravel()
                for unit in np.eye(op.dim)])
            for _ in range(3):
                v = rng.standard_normal(op.dim)
                expected = dense @ v
                assert np.linalg.norm(op.matvec(v) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_block_matvec_and_project_match_columns(self):
        rng = np.random.default_rng(13)
        for op in (build_hamiltonian_1d(reference_qubit_1d(), GridSpec(32)),
                   build_hamiltonian_2d(reference_qubit_2d(), 0.49, GridSpec(24))):
            block = rng.standard_normal((op.dim, 3))
            for apply in (op.matvec, op.project):
                expected = np.column_stack([apply(col) for col in block.T])
                result = apply(block)
                assert result.shape == (op.dim, 3)
                assert np.linalg.norm(result - expected) <= 1e-12 * np.linalg.norm(expected)


class TestSolverStructure:
    """The cached kinetic factors and the work and residuals of a 2D solve."""

    def test_operators_share_read_only_kinetic_factors(self):
        q = reference_qubit_2d()
        first = build_hamiltonian_2d(q, 0.5, GridSpec(32))
        second = build_hamiltonian_2d(q, 0.49, GridSpec(32))
        assert first._factors[0] is not first._factors[1]  # E_p != E_m
        for mine, theirs in zip(first._factors, second._factors):
            assert mine is theirs
            for array in mine:
                assert not array.flags.writeable
        with pytest.raises(ValueError):
            first._factors[0].matrix[0, 0] = 0.0

    def test_cold_and_warm_factor_cache_give_identical_solves(self):
        q = reference_qubit_2d()
        numeric._kinetic_factors.cache_clear()
        cold = lowest_eigenpairs(build_hamiltonian_2d(q, 0.49, GridSpec(32)), k=3)
        assert numeric._kinetic_factors.cache_info().currsize == 2
        warm = lowest_eigenpairs(build_hamiltonian_2d(q, 0.49, GridSpec(32)), k=3)
        assert numeric._kinetic_factors.cache_info().hits >= 2
        for field in ("eigenvalues", "eigenvectors", "residual_norms"):
            assert np.array_equal(getattr(cold, field), getattr(warm, field))

    def test_returned_norms_are_true_residuals(self, monkeypatch):
        # the refinement estimates residuals from the H-image of its basis;
        # every norm it hands out must be a recomputed ||H v - E v||
        op = build_hamiltonian_2d(reference_qubit_2d(), 0.49, GridSpec(80))

        def true_norms(evals, vectors):
            return np.linalg.norm(op.matvec(vectors) - vectors * evals, axis=0)

        result = lowest_eigenpairs(op, k=3)
        np.testing.assert_allclose(result.residual_norms,
                                   true_norms(result.eigenvalues, result.eigenvectors),
                                   rtol=1e-12)
        returned = []
        original = numeric._refine

        def capturing(*args):
            returned.append(original(*args))
            return returned[-1]

        monkeypatch.setattr(numeric, "_refine", capturing)
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, k=3, max_iter=1)
        evals, vectors, norms, steps = returned[0]
        assert steps == 1 and np.any(norms > 1e-8 * op.energy_scale)
        np.testing.assert_allclose(err.value.residual_norms, true_norms(evals, vectors),
                                   rtol=1e-12)

    def test_one_block_application_per_step_on_the_bundled_sweep(self, monkeypatch):
        # the sweep of example_config.ini: n = 80, k = 3, 21 fluxes; H is applied
        # to the start, to each step's new rows and once to confirm the exit
        applied = []
        original = HamiltonianOperator.matvec

        def counting(self, v):
            applied.append(np.shape(v))
            return original(self, v)

        monkeypatch.setattr(HamiltonianOperator, "matvec", counting)
        q = reference_qubit_2d()
        for f in np.linspace(0.49, 0.51, 21):
            applied.clear()
            result = lowest_eigenpairs(build_hamiltonian_2d(q, f, GridSpec(80)), k=3)
            assert len(applied) == result.iterations + 2, f
            assert result.iterations <= 5, f


def even_sector_levels(op, count=4):
    """Independent oracle: dense P H P restricted to the range of P."""
    identity = np.eye(op.dim)
    dense = np.column_stack([op.matvec(col) for col in identity])
    projector = np.column_stack([op.project(col) for col in identity])
    weights, vectors = np.linalg.eigh(projector)
    basis = vectors[:, weights > 0.5]
    return np.linalg.eigvalsh(basis.T @ dense @ basis)[:count]


class TestLanczos:
    """Contract of lowest_eigenpairs: dense 1D solve, product-basis start
    plus block-Davidson refinement in 2D (the class keeps its name so test
    ids stay stable across solver changes)."""

    def test_harmonic_oscillator_spacing(self):
        # quartic term zeroed: pure oscillator, spacing sqrt(4 E_m E_J (1-2 alpha))
        e_m, stiffness = 0.25, 85.0 * 0.18
        grid = GridSpec(128)
        op = HamiltonianOperator((e_m,), stiffness * grid.phi() ** 2, grid, energy_scale=85.0)
        result = lowest_eigenpairs(op, k=4)
        expected = math.sqrt(4.0 * e_m * stiffness)
        spacings = np.diff(result.eigenvalues)
        np.testing.assert_allclose(spacings, expected, rtol=1e-3)

    def test_matches_dense_diagonalization_1d(self):
        q = reference_qubit_1d()
        op = build_hamiltonian_1d(q, GridSpec(80))
        dense = np.column_stack([op.matvec(row) for row in np.eye(op.dim)])
        evals_dense = np.linalg.eigvalsh(dense)[:4]
        result = lowest_eigenpairs(op, k=4)
        np.testing.assert_allclose(result.eigenvalues, evals_dense, rtol=1e-10)

    def test_matches_dense_diagonalization_2d_generic(self):
        # generic (asymmetric) potential: no symmetry, no projector
        grid = GridSpec(16)
        rng = np.random.default_rng(3)
        phi = grid.phi()
        bumps = (np.cos(phi)[:, None] * np.sin(2 * phi)[None, :]
                 + 0.3 * np.cos(2 * phi)[:, None] * np.cos(phi)[None, :])
        potential = 5.0 * (bumps - bumps.min())
        op = HamiltonianOperator((1.3, 0.7), potential, grid, energy_scale=5.0)
        dense = np.column_stack([op.matvec(row) for row in np.eye(op.dim)])
        evals_dense = np.linalg.eigvalsh(dense)[:4]
        result = lowest_eigenpairs(op, k=4)
        np.testing.assert_allclose(result.eigenvalues, evals_dense, rtol=1e-9)

    def test_residuals_and_orthonormality(self):
        q = reference_qubit_2d()
        op = build_hamiltonian_2d(q, 0.5, GridSpec(48))
        result = lowest_eigenpairs(op, k=4)
        assert np.all(result.residual_norms < 1e-8 * q.E_J)
        gram = result.eigenvectors.T @ result.eigenvectors
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)
        assert np.all(np.diff(result.eigenvalues) >= 0.0)

    def test_deterministic(self):
        op = build_hamiltonian_2d(reference_qubit_2d(), 0.5, GridSpec(32))
        first = lowest_eigenpairs(op, k=3)
        second = lowest_eigenpairs(op, k=3)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_nonconvergence_carries_residuals(self):
        op = build_hamiltonian_2d(reference_qubit_2d(), 0.5, GridSpec(48))
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, k=4, max_iter=1)
        assert err.value.residual_norms.size > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("energy", ["E_J", "E_C"])
    def test_overflowing_operator_stops_at_first_non_finite_residual(self, energy):
        # at 1e300 GHz the matvec overflows; the refinement must not spin to max_iter
        q = QubitParams(**{**FULL_2D, energy: 1e300})
        op = build_hamiltonian_2d(q, 0.5, GridSpec(20))
        with pytest.raises(ConvergenceError, match=r"within [01] refinement steps") as err:
            lowest_eigenpairs(op, k=3)
        assert not np.all(np.isfinite(err.value.residual_norms))

    @pytest.mark.parametrize("n", [16, 24])
    def test_matches_dense_even_sector_oracle_2d(self, n):
        op = build_hamiltonian_2d(reference_qubit_2d(), 0.5, GridSpec(n))
        result = lowest_eigenpairs(op, k=4)
        np.testing.assert_allclose(result.eigenvalues, even_sector_levels(op), rtol=1e-9)

    def test_fine_grid_off_optimal_residuals(self):
        q = reference_qubit_2d()
        op = build_hamiltonian_2d(q, 0.49, GridSpec(128))
        result = lowest_eigenpairs(op, k=4)
        residuals = [np.linalg.norm(op.matvec(v) - e * v)
                     for e, v in zip(result.eigenvalues, result.eigenvectors.T)]
        assert max(residuals) <= 1e-8 * q.E_J
        np.testing.assert_allclose(result.residual_norms, residuals, rtol=1e-12)

    @pytest.mark.parametrize("f", [0.5, 0.49])
    @pytest.mark.parametrize("n", [64, 80, 128])
    def test_contracted_start_meets_residual_contract(self, n, f):
        q = reference_qubit_2d()
        result = lowest_eigenpairs(build_hamiltonian_2d(q, f, GridSpec(n)), k=4)
        assert np.all(result.residual_norms <= 1e-8 * q.E_J)
        assert 1 <= result.iterations <= 10

    def test_contracted_start_keeps_at_least_k_soft_levels(self):
        # a stiff soft axis leaves 3 phi_m levels within two phi_p gaps and 3
        # phi_p levels below the barrier: 9 product states, fewer than k = 10
        grid = GridSpec(16)
        phi = grid.phi()
        bumps = (np.cos(phi)[:, None] * np.sin(2 * phi)[None, :]
                 + 0.3 * np.cos(2 * phi)[:, None] * np.cos(phi)[None, :])
        op = HamiltonianOperator((1.3, 3.0), 5.0 * (bumps - bumps.min()), grid, energy_scale=5.0)
        start = numeric._product_basis_start(op, 10)
        np.testing.assert_allclose(start.T @ start, np.eye(10), atol=1e-12)
        dense = np.column_stack([op.matvec(row) for row in np.eye(op.dim)])
        result = lowest_eigenpairs(op, k=10)
        np.testing.assert_allclose(result.eigenvalues, np.linalg.eigvalsh(dense)[:10], rtol=1e-9)

    def test_flat_phi_p_slice_keeps_two_levels(self):
        # U independent of phi_p binds no phi_p level below the slice top; the
        # start keeps the lowest two, which hold the two lowest product states
        grid = GridSpec(16)
        potential = np.tile(3.0 * (1.0 - np.cos(grid.phi())), (16, 1))
        op = HamiltonianOperator((1.3, 0.7), potential, grid, energy_scale=3.0)
        dense = np.column_stack([op.matvec(row) for row in np.eye(op.dim)])
        result = lowest_eigenpairs(op, k=2)
        np.testing.assert_allclose(result.eigenvalues, np.linalg.eigvalsh(dense)[:2], rtol=1e-9)

    def test_refinement_iterations(self):
        # the dense 1D solve needs none; the product-basis start leaves the
        # reference device a few Davidson steps at the bundled grid
        assert lowest_eigenpairs(build_hamiltonian_1d(reference_qubit_1d()), k=4).iterations == 0
        result = lowest_eigenpairs(build_hamiltonian_2d(reference_qubit_2d(), 0.5), k=4)
        assert 1 <= result.iterations <= 10

    def test_phi_p_independent_potential_third_level(self):
        # U = 3 (1 - cos phi_m) on every phi_p row: the levels are e_a + 1.3 n_p^2
        # for the phi_m levels e_a, so 2.279 (n_p = +-1) is doubly degenerate;
        # a start that kept one of the two slice levels n_p = +-1 missed the
        # other, and the solve returned [0.979, 2.279, 2.836]
        grid = GridSpec(16)
        potential = np.tile(3.0 * (1.0 - np.cos(grid.phi())), (16, 1))
        op = HamiltonianOperator((1.3, 0.7), potential, grid, energy_scale=3.0)
        dense = np.column_stack([op.matvec(row) for row in np.eye(op.dim)])
        result = lowest_eigenpairs(op, k=3)
        np.testing.assert_allclose(result.eigenvalues, np.linalg.eigvalsh(dense)[:3], rtol=1e-9)

    def test_k_validation(self):
        op = build_hamiltonian_1d(reference_qubit_1d(), GridSpec(16))
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, k=0)
        with pytest.raises(ValueError):
            lowest_eigenpairs(op, k=11)


class TestFull2DSpectrum:
    def test_full_2d_reproduces_measured_transitions(self):
        result = lowest_eigenpairs(build_hamiltonian_2d(reference_qubit_2d(), 0.5), k=4)
        assert result.omega01 == pytest.approx(4.68, rel=0.02)
        assert result.anharmonicity == pytest.approx(0.78, rel=0.10)

    def test_frozen_regression_values(self):
        result = lowest_eigenpairs(build_hamiltonian_2d(reference_qubit_2d(), 0.5), k=4)
        assert result.omega01 == pytest.approx(4.716058562, rel=1e-7)
        assert result.anharmonicity == pytest.approx(0.831166289, rel=1e-6)

    def test_even_sector_excludes_double_counted_partner(self):
        # without the single-valuedness projector every level appears twice
        # (the second well at (-pi, -pi) is the same physical configuration);
        # the projected solve must not return a near-zero splitting
        result = lowest_eigenpairs(build_hamiltonian_2d(reference_qubit_2d(), 0.5), k=2)
        assert result.omega01 > 1.0


class TestSpectrum1D:
    def test_against_charge_basis_oracle(self):
        q = reference_qubit_1d()
        result = lowest_eigenpairs(build_hamiltonian_1d(q, GridSpec(80)), k=4)
        oracle = charge_basis_levels(q.alpha, q.E_J, q.E_CS)
        np.testing.assert_allclose(result.eigenvalues, oracle, rtol=1e-9)

    def test_gap_against_analytic_perturbation(self):
        # exact 1D gap is 4.4843 GHz vs perturbative 4.7032: 4.7% apart
        # (higher cosine-expansion orders, mostly the negative sextic term)
        q = reference_qubit_1d()
        result = lowest_eigenpairs(build_hamiltonian_1d(q, GridSpec(80)), k=2)
        assert result.omega01 == pytest.approx(4.484271240191, rel=1e-9)
        deviation = abs(result.omega01 - analytic.gap(q)) / analytic.gap(q)
        assert deviation < 0.05

    @pytest.mark.parametrize("alpha,sign", [(0.10, -1.0), (0.30, +1.0)])
    def test_anharmonicity_sign_follows_quartic_coefficient(self, alpha, sign):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeAnharmonicityWarning)
            q = QubitParams(alpha=alpha, E_J=85.0, E_C=3.2,
                            C_S=capacitance_from_charging_energy(0.25))
        result = lowest_eigenpairs(build_hamiltonian_1d(q, GridSpec(80)), k=3)
        assert math.copysign(1.0, result.anharmonicity) == sign

    def test_error_shrinks_with_validity_ratio(self):
        # perturbation theory converges toward the exact 1D solve as
        # E_J (1-2 alpha)/E_CS grows
        errors = []
        for ratio in (20.0, 60.0, 200.0):
            e_j = ratio * 0.25 / (1.0 - 0.6)
            q = QubitParams(alpha=0.3, E_J=e_j, E_C=3.2,
                            C_S=capacitance_from_charging_energy(0.25))
            result = lowest_eigenpairs(build_hamiltonian_1d(q, GridSpec(80)), k=2)
            errors.append(abs(result.omega01 - analytic.gap(q)) / analytic.gap(q))
        assert errors[0] > errors[1] > errors[2]


@pytest.fixture(scope="module")
def solved():
    q = reference_qubit_1d()
    op = build_hamiltonian_1d(q, GridSpec(80))
    return q, op, lowest_eigenpairs(op, k=4)


class TestMatrixElements:
    def test_large_junction_element(self, solved):
        q, op, result = solved
        value = numeric_matrix_element(op, result, "sin_half_phi_m")
        assert value == pytest.approx(0.117210516820, rel=1e-6)
        m_large, _ = analytic.junction_matrix_elements(q)
        assert value == pytest.approx(m_large, rel=0.10)

    def test_cos_element_is_parity_forbidden(self, solved):
        # the optimal-point potential is even in phi_m, so <0|cos phi_m|1>
        # vanishes identically; the 0.03 perturbative estimate is a scale,
        # not this matrix element
        _, op, result = solved
        assert numeric_matrix_element(op, result, "cos_phi_m") < 1e-8

    def test_diagonal_sin_element_is_parity_forbidden(self, solved):
        _, op, result = solved
        assert numeric_matrix_element(op, result, "sin_half_phi_m", states=(0, 0)) < 1e-8

    def test_small_junction_estimate_scale(self, solved):
        # parity-allowed shift estimator; leading-order value is the analytic
        # estimate, exact 1D value sits ~23% below it at these parameters
        q, op, result = solved
        value = small_junction_coupling_estimate(op, result)
        assert value == pytest.approx(0.024724579776, rel=1e-6)
        _, m_small = analytic.junction_matrix_elements(q)
        assert value == pytest.approx(m_small, rel=0.35)

    def test_missing_states_rejected(self, solved):
        _, op, result = solved
        with pytest.raises(ValueError):
            numeric_matrix_element(op, result, "sin_half_phi_m", states=(0, 9))

    def test_unknown_kind_rejected(self, solved):
        _, op, result = solved
        with pytest.raises(ValueError):
            numeric_matrix_element(op, result, "sigma_x")

    def test_requires_1d_solve(self):
        op = build_hamiltonian_2d(reference_qubit_2d(), 0.5, GridSpec(24))
        result = lowest_eigenpairs(op, k=2)
        with pytest.raises(ValueError):
            numeric_matrix_element(op, result, "sin_half_phi_m")


def omega01_vs_flux(q, flux_values, grid):
    """omega01 (GHz) of a full 2D solve at each flux value."""
    return [lowest_eigenpairs(build_hamiltonian_2d(q, f, grid), k=2).omega01
            for f in flux_values]


class TestOmega01VsFlux:
    def test_symmetric_about_optimal_point(self):
        q = reference_qubit_2d()
        w_left, w_mid, w_right = omega01_vs_flux(q, [0.49, 0.5, 0.51], GridSpec(48))
        assert w_left == pytest.approx(w_right, rel=1e-6)
        assert w_mid < w_left


def reflect_phi_m(n):
    """Index permutation of phi_m -> -phi_m on the periodic grid."""
    return (-np.arange(n)) % n


class TestFluxReflection:
    """H(1 - f) is H(f) under phi_m -> -phi_m, the premise for solving each
    mirror pair of a flux sweep once."""

    @pytest.mark.parametrize("n", [24, 80])
    @pytest.mark.parametrize("f", [0.3, 0.49, 0.5, 0.51, 1.2])
    def test_potential_reflects(self, n, f):
        q = reference_qubit_2d()
        grid = GridSpec(n)
        mirrored = build_hamiltonian_2d(q, 1.0 - f, grid).potential
        reflected = build_hamiltonian_2d(q, f, grid).potential[:, reflect_phi_m(n)]
        np.testing.assert_allclose(mirrored, reflected, rtol=0, atol=1e-12 * q.E_J)

    @pytest.mark.parametrize("n", [24, 80])
    def test_operator_reflects(self, n):
        # kinetic term included: H(1 - f) R v = R H(f) v for any grid vector v
        q = reference_qubit_2d()
        grid = GridSpec(n)
        perm = reflect_phi_m(n)
        v = np.random.default_rng(5).standard_normal((n, n))
        lhs = build_hamiltonian_2d(q, 0.51, grid).matvec(v[:, perm].ravel())
        rhs = build_hamiltonian_2d(q, 0.49, grid).matvec(v.ravel()).reshape(n, n)[:, perm]
        np.testing.assert_allclose(lhs, rhs.ravel(), rtol=0, atol=1e-12 * q.E_J)

    @pytest.mark.parametrize("n", [24, 80])
    def test_even_sector_projector_commutes_with_reflection(self, n):
        op = build_hamiltonian_2d(reference_qubit_2d(), 0.49, GridSpec(n))
        perm = reflect_phi_m(n)
        psi = np.random.default_rng(7).standard_normal((n, n, 3))
        np.testing.assert_array_equal(op.sector_projector(psi[:, perm]),
                                      op.sector_projector(psi)[:, perm])

    @pytest.mark.parametrize("f", [0.49, 0.495])
    def test_mirror_solves_share_eigenvalues(self, f):
        q = reference_qubit_2d()
        grid = GridSpec(80)
        left = lowest_eigenpairs(build_hamiltonian_2d(q, f, grid), k=3)
        right = lowest_eigenpairs(build_hamiltonian_2d(q, 1.0 - f, grid), k=3)
        np.testing.assert_allclose(right.eigenvalues, left.eigenvalues, rtol=1e-12, atol=0)


class TestQuadraticFluxResponse:
    def test_parabolic_near_optimal_point(self):
        # numeric curvature of omega01(f); the analytic 2 (d eps/df)^2/Delta
        # at the same parameters is ~2.5x larger because the two-phase model
        # renormalizes the soft mode (same reason the fitted parameter sets
        # differ); frozen numeric value guards regressions
        q = QubitParams(alpha=0.41, E_J=85.0, E_C=3.2, C_S=78.0)
        offsets = np.array([-0.004, -0.002, 0.0, 0.002, 0.004])
        values = np.array(omega01_vs_flux(q, 0.5 + offsets, GridSpec(80)))
        coeffs = np.polyfit(offsets, values, 2)
        fit_vals = np.polyval(coeffs, offsets)
        np.testing.assert_allclose(fit_vals, values, rtol=1e-4)
        assert coeffs[0] == pytest.approx(2061.8, rel=0.02)


class TestCrossModel:
    def test_two_phase_solve_vs_perturbative_at_matched_parameters(self):
        # at matched parameters the two-phase model sits well below the
        # perturbative one (the phi_p zero-point motion softens the phi_m
        # stiffness), which is why the two device parameter sets that fit
        # the same measured spectrum differ; frozen value guards regressions
        q = QubitParams(alpha=0.41, E_J=85.0, E_C=3.2, C_S=78.0)
        result = lowest_eigenpairs(build_hamiltonian_2d(q, 0.5, GridSpec(80)), k=2)
        assert result.omega01 == pytest.approx(3.6888, rel=1e-3)
        deviation = abs(result.omega01 - analytic.gap(q)) / analytic.gap(q)
        assert 0.15 < deviation < 0.30


class TestEigenvectorParity2D:
    def test_ground_state_even_in_phi_m(self):
        q = reference_qubit_2d()
        grid = GridSpec(48)
        op = build_hamiltonian_2d(q, 0.5, grid)
        result = lowest_eigenpairs(op, k=2)
        phi = grid.phi()
        odd_operator = np.tile(np.sin(phi), (grid.n, 1)).ravel()
        ground = result.eigenvectors[:, 0]
        assert abs(ground @ (odd_operator * ground)) < 1e-8
