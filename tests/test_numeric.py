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
    one_well_element,
)

FULL_2D = dict(alpha=0.437, E_J=136.75, E_C=3.2, C_S=60.0)
# a weak shunt (beta ~ 0.83) whose fourth level at f = 0.5 is odd in phi_p
WEAK_SHUNT_2D = dict(alpha=0.437, E_J=10.0, E_C=3.2, C_S=5.0)
# a small alpha whose third level at f = 0.45 is even in phi_p, with the
# lowest odd level (53.0712 GHz) just above it
SMALL_ALPHA_2D = dict(alpha=0.15, E_J=30.0, E_C=3.2, C_S=5.0)


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


def dense_grid_operator(op):
    """Dense H on the full grid, built column by column from an FFT reference,
    not from the solver's kinetic matrices: the integer wavenumbers m of
    np.fft.fftfreq scale each plane wave by E m^2."""
    m2 = np.fft.fftfreq(op.grid.n, d=1.0 / op.grid.n) ** 2
    if op.ndim == 1:
        symbol, fft, ifft = op.kinetic[0] * m2, np.fft.fft, np.fft.ifft
    else:
        symbol = op.kinetic[0] * m2[:, None] + op.kinetic[1] * m2[None, :]
        fft, ifft = np.fft.fft2, np.fft.ifft2
    shape = op.potential.shape
    return np.column_stack([
        (ifft(symbol * fft(unit.reshape(shape))).real + op.potential * unit.reshape(shape)).ravel()
        for unit in np.eye(op.potential.size)])


def even_sector_levels(op, count=4, phi_p_parity=0):
    """Independent oracle: the dense full-grid H restricted to the range of
    the half-cell projector (1 + R)/2, R the roll by (n/2, n/2), and with a
    phi_p_parity of +-1 also to that of (1 + phi_p_parity P)/2, P the
    reflection phi_p -> -phi_p."""
    n = op.grid.n
    units = np.eye(n * n).reshape(n * n, n, n)
    if phi_p_parity:
        units = 0.5 * (units + phi_p_parity * units[:, (-np.arange(n)) % n])
    projector = np.column_stack([
        (0.5 * (unit + np.roll(unit, (n // 2, n // 2), axis=(0, 1)))).ravel() for unit in units])
    weights, vectors = np.linalg.eigh(projector)
    basis = vectors[:, weights > 0.5]
    return np.linalg.eigvalsh(basis.T @ dense_grid_operator(op) @ basis)[:count]


def generic_potential(grid, scale=5.0):
    """A potential with no symmetry but the two a 2D operator requires, the
    half-cell translation and phi_p -> -phi_p: cos phi_p and
    sin(phi_m + 0.4) both change sign under the first, cos 2 phi_p and
    cos 2 phi_m keep it, and every phi_p factor is even."""
    phi_p, phi_m = np.meshgrid(grid.phi(), grid.phi(), indexing="ij")
    bumps = (np.cos(phi_p) * np.sin(phi_m + 0.4)
             + 0.3 * np.cos(2 * phi_p) * np.cos(2 * phi_m))
    return scale * (bumps - bumps.min())


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

    def test_3d_potential_rejected(self):
        with pytest.raises(ValueError, match="potential must be 1D or 2D"):
            HamiltonianOperator((1.0, 1.0, 1.0), np.zeros((16, 16, 16)), GridSpec(16))

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

    @pytest.mark.parametrize("params,k", [
        pytest.param(FULL_2D, 3, id="reference-k3"),
        pytest.param(WEAK_SHUNT_2D, 4, id="weak_shunt-k4"),  # solves the odd sector too
    ])
    def test_2d_eigenvectors_are_unit_full_grids_of_one_symmetry(self, params, k):
        # a 2D vector is the flat full grid; each eigenvector is a unit vector
        # even under the half-cell translation and of one phi_p parity
        n = 24
        op = build_hamiltonian_2d(QubitParams(**params), 0.5, GridSpec(n))
        assert op.dim == n * n
        grids = lowest_eigenpairs(op, k=k).eigenvectors.T.reshape(k, n, n)
        np.testing.assert_allclose(np.linalg.norm(grids, axis=(1, 2)), 1.0, rtol=1e-12)
        assert np.max(np.abs(np.roll(grids, (n // 2, n // 2), axis=(1, 2)) - grids)) <= 1e-12
        parities = np.sum(grids * grids[:, (-np.arange(n)) % n], axis=(1, 2))
        np.testing.assert_allclose(np.abs(parities), 1.0, rtol=1e-12)

    def test_shape_validation(self):
        grid = GridSpec(16)
        with pytest.raises(ValueError):
            HamiltonianOperator((1.0,), np.zeros(17), grid)
        with pytest.raises(ValueError):
            HamiltonianOperator((1.0,), np.zeros((16, 16)), grid)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_potential(self, bad):
        # a NaN would pass both invariance checks without checking anything
        grid = GridSpec(16)
        potential = generic_potential(grid)
        potential[3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            HamiltonianOperator((1.3, 0.7), potential, grid)

    @pytest.mark.parametrize("shift", [(12, 0), (0, 12), (1, 1), (5, 3)])
    def test_rejects_potential_outside_the_even_sector(self, shift):
        # a potential that the half-cell translation changes mixes the two
        # sectors, so the even states a solve returns are no eigenstates.  One that
        # phi_p -> -phi_p changes mixes the two phi_p-parity sectors the
        # solver keeps apart
        grid = GridSpec(24)
        potential = generic_potential(grid)
        i, j = shift
        potential[i, j] += 1e-9 * potential.max()
        with pytest.raises(ValueError, match="half-cell"):
            HamiltonianOperator((1.3, 0.7), potential, grid)
        potential[i - 12, j - 12] = potential[i, j]
        if i % 12:  # off the two rows that phi_p -> -phi_p fixes
            with pytest.raises(ValueError, match="phi_p -> -phi_p"):
                HamiltonianOperator((1.3, 0.7), potential, grid)
            potential[-i, j] = potential[12 - i, j - 12] = potential[i, j]
        HamiltonianOperator((1.3, 0.7), potential, grid)

    @pytest.mark.parametrize("f", [0.5, 0.49, 0.45])
    def test_potential_matches_the_closed_form(self, f):
        # the outer-product form of 2 E_J (1 - cos phi_p cos phi_m)
        q = reference_qubit_2d()
        grid = GridSpec(80)
        phi_p, phi_m = np.meshgrid(grid.phi(), grid.phi(), indexing="ij")
        expected = 2.0 * q.E_J * (1.0 - np.cos(phi_p) * np.cos(phi_m)) \
            + q.alpha * q.E_J * (1.0 - np.cos(2.0 * math.pi * f + 2.0 * phi_m))
        np.testing.assert_allclose(build_hamiltonian_2d(q, f, grid).potential, expected,
                                   rtol=1e-15, atol=0)

    def test_matvec_matches_dense_operator(self):
        rng = np.random.default_rng(7)
        for op in (build_hamiltonian_1d(reference_qubit_1d(), GridSpec(80)),
                   build_hamiltonian_2d(reference_qubit_2d(), 0.49, GridSpec(24))):
            dense = dense_grid_operator(op)
            for _ in range(3):
                v = rng.standard_normal(op.dim)
                expected = dense @ v
                assert np.linalg.norm(op.matvec(v) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_block_matvec_matches_columns(self):
        rng = np.random.default_rng(13)
        for op in (build_hamiltonian_1d(reference_qubit_1d(), GridSpec(32)),
                   build_hamiltonian_2d(reference_qubit_2d(), 0.49, GridSpec(24))):
            block = rng.standard_normal((op.dim, 3))
            expected = np.column_stack([op.matvec(col) for col in block.T])
            result = op.matvec(block)
            assert result.shape == (op.dim, 3)
            assert np.linalg.norm(result - expected) <= 1e-12 * np.linalg.norm(expected)


def record_sector_applications(monkeypatch):
    """The parity of the sector of every block H application, in order."""
    applied = []
    original = numeric._Sector.matvec

    def counting(self, block):
        applied.append(self.parity)
        return original(self, block)

    monkeypatch.setattr(numeric._Sector, "matvec", counting)
    return applied


def record_eigh_calls(monkeypatch):
    """The shape of the matrix of every np.linalg.eigh call, in order."""
    calls = []
    original = np.linalg.eigh

    def counting(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class TestSolverStructure:
    """The kinetic caches, and the work and residuals of a 2D solve."""

    def test_operators_share_read_only_kinetic_factors(self):
        q = reference_qubit_2d()
        first, second = (numeric._Sector(build_hamiltonian_2d(q, f, GridSpec(32)), 1)
                         for f in (0.5, 0.49))
        assert first.kinetic is second.kinetic and first.t_m is second.t_m
        assert all(mine[1] is theirs[1] for mine, theirs in zip(first._inverse, second._inverse))
        e_p, e_m = kinetic_coefficients(q)
        matrices = [numeric._kinetic_matrix(coeff, 32) for coeff in (e_p, e_m)]
        assert matrices[1] is first.t_m and matrices[0] is not matrices[1]  # E_p != E_m
        blocks = [block for pair in numeric._sector_blocks(e_p, e_m, 32) for block in pair]
        for array in (*matrices, *(array for block in blocks for array in block)):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            matrices[0][0, 0] = 0.0

    def test_cold_and_warm_factor_cache_give_identical_solves(self, monkeypatch):
        # a cold 2D solve fills one kinetic matrix per axis and one set of sector blocks,
        # whose four eigendecompositions a warm solve no longer makes
        calls = record_eigh_calls(monkeypatch)
        q = reference_qubit_2d()
        numeric._kinetic_matrix.cache_clear()
        numeric._sector_blocks.cache_clear()
        cold = lowest_eigenpairs(build_hamiltonian_2d(q, 0.49, GridSpec(32)), k=3)
        assert numeric._kinetic_matrix.cache_info().currsize == 2
        assert numeric._sector_blocks.cache_info().currsize == 1
        cold_calls = len(calls)
        calls.clear()
        warm = lowest_eigenpairs(build_hamiltonian_2d(q, 0.49, GridSpec(32)), k=3)
        assert numeric._sector_blocks.cache_info().hits >= 1
        assert cold_calls - len(calls) == 4
        for field in ("eigenvalues", "eigenvectors", "residual_norms"):
            assert np.array_equal(getattr(cold, field), getattr(warm, field))

    def test_one_dimensional_solve_builds_no_sector_blocks(self, monkeypatch):
        # a 1D solve is one dense eigh; the phi_p-parity blocks serve 2D solves alone
        calls = record_eigh_calls(monkeypatch)
        numeric._kinetic_matrix.cache_clear()
        numeric._sector_blocks.cache_clear()
        lowest_eigenpairs(build_hamiltonian_1d(reference_qubit_1d(), GridSpec(80)), k=4)
        assert calls == [(80, 80)]
        assert numeric._sector_blocks.cache_info().currsize == 0

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

        def capturing(sector, *args):
            returned.append((sector, original(sector, *args)))
            return returned[-1][1]

        monkeypatch.setattr(numeric, "_refine", capturing)
        monkeypatch.setattr(numeric, "_MAX_STEPS", 1)
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, k=3)
        # a failed even sector is not followed by the odd one
        [(sector, (evals, vectors, norms, steps))] = returned
        assert sector.parity == 1
        assert steps == 1 and np.any(norms > 1e-8 * op.energy_scale)
        np.testing.assert_allclose(
            norms, np.linalg.norm(sector.matvec(vectors) - evals[:, None] * vectors, axis=1),
            rtol=1e-12)
        np.testing.assert_allclose(err.value.residual_norms,
                                   true_norms(evals, sector.expand(vectors).reshape(3, -1).T),
                                   rtol=1e-12)

    def test_one_block_application_per_step_on_the_bundled_sweep(self, monkeypatch):
        # the sweep of example_config.ini: n = 80, k = 3, 21 fluxes; in the
        # phi_p-even sector H is applied to the start, to each step's new rows
        # and once to confirm the exit, and the odd sector is never solved
        applied = record_sector_applications(monkeypatch)
        q = reference_qubit_2d()
        for f in np.linspace(0.49, 0.51, 21):
            applied.clear()
            result = lowest_eigenpairs(build_hamiltonian_2d(q, f, GridSpec(80)), k=3)
            assert applied == [1] * (result.iterations + 2), f
            assert result.iterations <= 5, f

    def test_weak_shunt_solves_both_sectors(self, monkeypatch):
        applied = record_sector_applications(monkeypatch)
        op = build_hamiltonian_2d(QubitParams(**WEAK_SHUNT_2D), 0.5, GridSpec(16))
        result = lowest_eigenpairs(op, k=4)
        assert set(applied) == {1, -1}
        assert len(applied) == result.iterations + 4  # each sector's start and confirmation


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
        # no symmetry but the half-cell translation
        grid = GridSpec(16)
        op = HamiltonianOperator((1.3, 0.7), generic_potential(grid), grid, energy_scale=5.0)
        result = lowest_eigenpairs(op, k=4)
        np.testing.assert_allclose(result.eigenvalues, even_sector_levels(op), rtol=1e-9)

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

    def test_nonconvergence_carries_residuals(self, monkeypatch):
        monkeypatch.setattr(numeric, "_MAX_STEPS", 1)
        op = build_hamiltonian_2d(reference_qubit_2d(), 0.5, GridSpec(48))
        with pytest.raises(ConvergenceError) as err:
            lowest_eigenpairs(op, k=4)
        assert err.value.residual_norms.size > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("energy", ["E_J", "E_C"])
    def test_overflowing_operator_stops_at_first_non_finite_residual(self, energy):
        # at 1e300 GHz the matvec overflows; the refinement must not spin to _MAX_STEPS
        q = QubitParams(**{**FULL_2D, energy: 1e300})
        op = build_hamiltonian_2d(q, 0.5, GridSpec(20))
        with pytest.raises(ConvergenceError, match=r"within [01] refinement steps") as err:
            lowest_eigenpairs(op, k=3)
        assert not np.all(np.isfinite(err.value.residual_norms))

    def test_charging_dominated_tolerance_is_reachable(self):
        # at E_J = 1e-300 GHz a 1e-8 E_J tolerance is below any rounding
        # error; the scale is max(E_J, E_p) (2D) or max(E_J, E_CS) (1D)
        q = QubitParams(**{**FULL_2D, "E_J": 1e-300})
        op = build_hamiltonian_2d(q, 0.5, GridSpec(16))
        assert op.energy_scale == 2.0 * q.E_C
        result = lowest_eigenpairs(op, k=3)
        assert np.all(result.residual_norms <= 1e-8 * op.energy_scale)
        # the ground level is 0 (a free rotor), so the check is absolute
        np.testing.assert_allclose(result.eigenvalues, even_sector_levels(op, 3), rtol=0.0,
                                   atol=1e-9 * op.energy_scale)
        op_1d = build_hamiltonian_1d(q, GridSpec(16))
        assert op_1d.energy_scale == q.E_CS
        assert lowest_eigenpairs(op_1d, k=3).iterations == 0

    @pytest.mark.parametrize("params,n,f,k", [
        pytest.param(FULL_2D, 16, 0.5, 4, id="16"),
        pytest.param(FULL_2D, 24, 0.5, 4, id="24"),
        # the fourth level, 29.3708 GHz, is odd in phi_p
        pytest.param(WEAK_SHUNT_2D, 16, 0.5, 4, id="weak_shunt-16"),
        pytest.param(WEAK_SHUNT_2D, 24, 0.5, 4, id="weak_shunt-24"),
        # the third level, 52.7426 GHz, is even in phi_p; the lowest odd one is 53.0712
        pytest.param(SMALL_ALPHA_2D, 16, 0.45, 3, id="small_alpha-16"),
        pytest.param(SMALL_ALPHA_2D, 24, 0.45, 3, id="small_alpha-24"),
        # at f = 0.5 phi_m -> -phi_m is a symmetry too, which the sectors do not split
        pytest.param(SMALL_ALPHA_2D, 16, 0.5, 6, id="small_alpha-f0.5-16"),
        pytest.param(WEAK_SHUNT_2D, 16, 0.5, 6, id="weak_shunt-k6-16"),
    ])
    def test_matches_dense_even_sector_oracle_2d(self, params, n, f, k):
        op = build_hamiltonian_2d(QubitParams(**params), f, GridSpec(n))
        result = lowest_eigenpairs(op, k=k)
        np.testing.assert_allclose(result.eigenvalues, even_sector_levels(op, k), rtol=1e-9)

    @pytest.mark.parametrize("params,f", [(FULL_2D, 0.5), (FULL_2D, 0.49), (WEAK_SHUNT_2D, 0.5),
                                          (SMALL_ALPHA_2D, 0.45), (SMALL_ALPHA_2D, 0.5)])
    def test_odd_sector_bound_is_below_its_lowest_level(self, params, f):
        op = build_hamiltonian_2d(QubitParams(**params), f, GridSpec(16))
        lowest_odd = even_sector_levels(op, 1, phi_p_parity=-1)[0]
        assert numeric._odd_sector_floor(op) <= lowest_odd

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
        # a stiff soft axis and at most 2 slice levels below the barrier per
        # phi_p-parity sector: the soft window, which reaches one slice gap
        # above the k-th soft level, must still give k independent start vectors
        grid = GridSpec(16)
        op = HamiltonianOperator((1.3, 3.0), generic_potential(grid), grid, energy_scale=5.0)
        for parity in (1, -1):
            sector = numeric._Sector(op, parity)
            start, _ = numeric._product_basis_start(sector, 10)
            assert start.shape == (10, sector.dim) and np.linalg.matrix_rank(start) == 10
        result = lowest_eigenpairs(op, k=10)
        np.testing.assert_allclose(result.eigenvalues, even_sector_levels(op, 10), rtol=1e-9)

    def test_flat_phi_p_slice_keeps_two_levels(self):
        # U independent of phi_p binds no phi_p level below the slice top; the
        # start keeps the lowest two, which hold the two lowest product states
        grid = GridSpec(16)
        potential = np.tile(3.0 * (1.0 - np.cos(2.0 * grid.phi())), (16, 1))
        op = HamiltonianOperator((1.3, 0.7), potential, grid, energy_scale=3.0)
        result = lowest_eigenpairs(op, k=2)
        np.testing.assert_allclose(result.eigenvalues, even_sector_levels(op, 2), rtol=1e-9)

    def test_refinement_iterations(self):
        # the dense 1D solve needs none; the product-basis start leaves the
        # reference device a few Davidson steps at the bundled grid
        assert lowest_eigenpairs(build_hamiltonian_1d(reference_qubit_1d()), k=4).iterations == 0
        result = lowest_eigenpairs(build_hamiltonian_2d(reference_qubit_2d(), 0.5), k=4)
        assert 1 <= result.iterations <= 10

    def test_phi_p_independent_potential_third_level(self):
        # U = 3 (1 - cos 2 phi_m) on every phi_p row: the levels are e_a + 1.3 n_p^2
        # for the phi_m levels e_a, with n_p even for the phi_m levels even under
        # phi_m -> phi_m + pi and odd for the odd ones, so 3.191 (n_p = +-1 on
        # the first odd phi_m level) is doubly degenerate.  Folded after the
        # Galerkin solve, start vectors odd under the half-cell translation
        # became rounding noise; folded before it, every one is a unit vector
        grid = GridSpec(16)
        potential = np.tile(3.0 * (1.0 - np.cos(2.0 * grid.phi())), (16, 1))
        op = HamiltonianOperator((1.3, 0.7), potential, grid, energy_scale=3.0)
        result = lowest_eigenpairs(op, k=3)
        np.testing.assert_allclose(result.eigenvalues, even_sector_levels(op, 3), rtol=1e-9)
        assert result.iterations <= 5
        for parity in (1, -1):
            start, _ = numeric._product_basis_start(numeric._Sector(op, parity), 3)
            assert np.all(np.linalg.norm(start, axis=1) >= 0.5)

    def test_degenerate_slice_pair_splits_across_parity_sectors(self):
        # U = 0.3 (1 - cos 3 phi_p cos phi_m): the slice at phi_m = -pi binds one
        # level (0.298) below its top (0.6) and has the degenerate pair 2.296
        # above it.  A 1D parity sector has no degenerate levels: the pair is
        # one phi_p-even and one phi_p-odd slice state, so no sector start cuts
        # it in half, and the solve finds the third level 2.99663
        grid = GridSpec(16)
        phi_p, phi_m = np.meshgrid(grid.phi(), grid.phi(), indexing="ij")
        potential = 0.3 * (1.0 - np.cos(3.0 * phi_p) * np.cos(phi_m))
        op = HamiltonianOperator((2.0, 0.7), potential, grid, energy_scale=0.3)
        slice_ = potential[:, np.argmin(potential) % grid.n]
        for parity in (1, -1):
            sector = numeric._Sector(op, parity)
            levels = np.linalg.eigvalsh(sector.kinetic.matrix + np.diag(slice_[sector.rows]))
            assert np.min(np.diff(levels)) > 1.0
            assert np.count_nonzero(np.abs(levels - 2.2955) < 1e-3) == 1
        result = lowest_eigenpairs(op, k=3)
        np.testing.assert_allclose(result.eigenvalues, even_sector_levels(op, 3), rtol=1e-9)

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


def charge_basis_levels_2d(q, f, cutoffs, count=4):
    """Independent oracle: the two-phase Hamiltonian in its charge basis, the
    plane waves e^{i(n_p phi_p + n_m phi_m)} with n_p + n_m even (exactly the
    half-cell-even sector), |n_p| <= cutoffs[0] and |n_m| <= cutoffs[1].  The
    kinetic term is the diagonal E_p n_p^2 + E_m n_m^2; -2 E_J cos phi_p cos phi_m
    couples (n_p +- 1, n_m +- 1) with -E_J/2, and -alpha E_J cos(2 pi f + 2 phi_m)
    couples n_m + 2 to n_m with -alpha E_J e^{2 pi i f}/2, real at f = 0.5.  It
    shares no code with the grid, its sectors or the solver's start."""
    e_p, e_m = kinetic_coefficients(q)
    states = [(a, b) for a in range(-cutoffs[0], cutoffs[0] + 1)
              for b in range(-cutoffs[1], cutoffs[1] + 1) if (a + b) % 2 == 0]
    index = {state: i for i, state in enumerate(states)}
    charges = np.array(states, dtype=float)
    h = np.diag(e_p * charges[:, 0] ** 2 + e_m * charges[:, 1] ** 2 + (2.0 + q.alpha) * q.E_J)
    flux_term = -0.5 * q.alpha * q.E_J * (-1.0 if f == 0.5 else np.exp(2j * math.pi * f))
    h = h.astype(type(flux_term))
    for (a, b), i in index.items():
        for j in (index.get((a + 1, b + 1)), index.get((a + 1, b - 1))):
            if j is not None:
                h[i, j] = h[j, i] = -0.5 * q.E_J
        j = index.get((a, b + 2))
        if j is not None:
            h[j, i], h[i, j] = flux_term, np.conj(flux_term)
    return np.linalg.eigvalsh(h)[:count]


def random_devices(count=12, seed=13):
    """Seeded devices in a fixed box: alpha in [0.15, 0.48], E_J in [10, 150] GHz
    (log-uniform), E_C in [2, 8] GHz, C_S in [5, 100] fF, and f = 0.5 on every
    other device, else f in [0.4, 0.6]; the grid is n = 48, 56 or 64 in turn."""
    rng = np.random.default_rng(seed)
    devices = []
    for index in range(count):
        alpha, log_e_j, e_c, c_s, f = rng.uniform([0.15, math.log(10.0), 2.0, 5.0, 0.4],
                                                  [0.48, math.log(150.0), 8.0, 100.0, 0.6])
        devices.append((QubitParams(alpha=alpha, E_J=math.exp(log_e_j), E_C=e_c, C_S=c_s),
                        0.5 if index % 2 == 0 else f, (48, 56, 64)[index % 3]))
    return devices


class TestLevelCompleteness:
    """A residual check cannot see a level the solver never found; the charge
    basis can.  The box stops at E_J = 150 GHz and E_C = 2 GHz, so that the
    cutoffs (12, 24) already agree with (14, 28) to 1e-10 E_J; a device where
    they do not is an oracle too short for it, and it fails, never skipped.
    Twelve devices, half of them complex (f != 0.5), take about 2.5 s."""

    @pytest.mark.parametrize("q, f, n", random_devices(),
                             ids=[f"device{index}" for index in range(12)])
    def test_grid_levels_match_the_charge_basis(self, q, f, n):
        coarse, fine = (charge_basis_levels_2d(q, f, cutoffs) for cutoffs in ((12, 24), (14, 28)))
        assert np.max(np.abs(coarse - fine)) <= 1e-10 * q.E_J
        grid = lowest_eigenpairs(build_hamiltonian_2d(q, f, GridSpec(n)), k=4).eigenvalues
        # a missed level shifts every level above it by a level spacing
        np.testing.assert_allclose(grid, fine, rtol=0.0, atol=1e-9 * q.E_J)


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


def junction_operators(n):
    """sin(phi_1/2), sin(phi_2/2) and cos(phi_m) on the n x n grid, phi_1,2 = phi_p +- phi_m."""
    phi = GridSpec(n).phi()
    phi_p, phi_m = np.meshgrid(phi, phi, indexing="ij")
    return np.sin((phi_p + phi_m) / 2.0), np.sin((phi_p - phi_m) / 2.0), np.cos(phi_m)


@pytest.fixture(scope="module")
def solved():
    """The perturbative set at f = 0.5, solved on n = 64 and n = 80."""
    q = QubitParams(alpha=0.41, E_J=85.0, E_C=3.2, C_S=78.0)
    return q, {n: lowest_eigenpairs(build_hamiltonian_2d(q, 0.5, GridSpec(n)), k=2)
               for n in (64, 80)}


def shift(result, n):
    """|<1|cos phi_m|1> - <0|cos phi_m|0>| / 2 of the one-well states."""
    cos_phi_m = junction_operators(n)[2]
    return abs(one_well_element(result, cos_phi_m, (1, 1))
               - one_well_element(result, cos_phi_m, (0, 0))) / 2.0


class TestMatrixElements:
    """Elements of the one-well states of a 2D solve (see one_well_element)."""

    def test_one_well_states_are_unit(self, solved):
        _, results = solved
        ones = np.ones((80, 80))
        for i in range(2):
            assert one_well_element(results[80], ones, (i, i)) == pytest.approx(1.0, abs=1e-12)

    def test_large_junction_element(self, solved):
        q, results = solved
        values = {n: abs(one_well_element(result, junction_operators(n)[0]))
                  for n, result in results.items()}
        assert values[80] == pytest.approx(0.122032212241, rel=1e-6)
        assert abs(values[80] - values[64]) < 1e-5
        # the other large junction gives the same element
        phi_2 = abs(one_well_element(results[80], junction_operators(80)[1]))
        assert abs(phi_2 - values[80]) < 1e-9
        m_large, _ = analytic.junction_matrix_elements(q)
        assert values[80] == pytest.approx(m_large, rel=0.10)

    def test_cos_element_is_parity_forbidden(self, solved):
        # the optimal-point potential is even in phi_m, so <0|cos phi_m|1>
        # vanishes identically; the 0.03 perturbative estimate is a scale,
        # not this matrix element
        _, results = solved
        assert abs(one_well_element(results[80], junction_operators(80)[2])) < 1e-8

    def test_diagonal_sin_element_is_parity_forbidden(self, solved):
        _, results = solved
        assert abs(one_well_element(results[80], junction_operators(80)[0], (0, 0))) < 1e-8

    def test_small_junction_estimate_scale(self, solved):
        # parity-allowed shift estimator; its leading-order value is the
        # analytic estimate, which the 2D value sits ~16% below
        q, results = solved
        value = shift(results[80], 80)
        assert value == pytest.approx(0.0268350063, rel=1e-6)
        assert abs(value - shift(results[64], 64)) < 1e-5
        _, m_small = analytic.junction_matrix_elements(q)
        assert value == pytest.approx(m_small, rel=0.35)

    def test_missing_states_rejected(self, solved):
        _, results = solved
        with pytest.raises(ValueError, match="not available"):
            one_well_element(results[80], junction_operators(80)[0], states=(0, 9))

    @pytest.mark.parametrize("shape", [(80,), (64, 64), (80, 40)], ids=["1d", "coarser", "half"])
    def test_operator_shape_rejected(self, solved, shape):
        _, results = solved
        with pytest.raises(ValueError, match="not the n x n grid"):
            one_well_element(results[80], np.ones(shape))

    def test_requires_2d_solve(self):
        result = lowest_eigenpairs(build_hamiltonian_1d(reference_qubit_1d(), GridSpec(80)), k=2)
        with pytest.raises(ValueError, match="not the n x n grid"):
            one_well_element(result, np.ones((80, 80)))

    def test_full_set_passes_the_guard(self):
        result = lowest_eigenpairs(build_hamiltonian_2d(reference_qubit_2d(), 0.5, GridSpec(64)),
                                   k=2)
        value = abs(one_well_element(result, junction_operators(64)[0]))
        assert value == pytest.approx(0.12214037737, rel=1e-6)

    @pytest.mark.parametrize("params", [WEAK_SHUNT_2D, SMALL_ALPHA_2D],
                             ids=["weak-shunt", "small-alpha"])
    def test_shallow_well_refused(self, params):
        # the ground state spreads onto the saddle between the two copies of
        # the well (edge weight >= 4e-5 here), so it has no one-well form
        result = lowest_eigenpairs(build_hamiltonian_2d(QubitParams(**params), 0.5,
                                                        GridSpec(64)), k=2)
        with pytest.raises(ValueError, match="state 0 puts weight .* on the edge of its well"):
            one_well_element(result, junction_operators(64)[0])


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
        # kinetic term included: H(1 - f) R v = R H(f) v for any grid vector
        # v, with R the column permutation phi_m -> -phi_m, which commutes
        # with the half-cell translation and so keeps the even sector
        q = reference_qubit_2d()
        grid = GridSpec(n)
        perm = reflect_phi_m(n)
        v = np.random.default_rng(5).standard_normal((n, n))
        half_cell = (n // 2, n // 2)
        np.testing.assert_array_equal(np.roll(v[:, perm], half_cell, axis=(0, 1)),
                                      np.roll(v, half_cell, axis=(0, 1))[:, perm])
        op = build_hamiltonian_2d(q, 0.49, grid)
        lhs = build_hamiltonian_2d(q, 0.51, grid).matvec(v[:, perm].ravel())
        rhs = op.matvec(v.ravel()).reshape(n, n)[:, perm]
        np.testing.assert_allclose(lhs, rhs.ravel(), rtol=0, atol=1e-12 * q.E_J)

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
