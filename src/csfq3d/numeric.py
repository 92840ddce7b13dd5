"""Grid diagonalization of the c-shunt flux qubit Hamiltonian.

The full two-phase Hamiltonian lives on a periodic (phi_p, phi_m) grid with
potential

    U = 2 E_J (1 - cos phi_p cos phi_m) + alpha E_J (1 - cos(2 pi f + 2 phi_m))

and kinetic energy E_p n_p^2 + E_m n_m^2 with E_p = 2 E_C and
E_m = 2 E_C / (1 + 2 alpha + 2 beta), beta = C_S/C_J, which reduces to
E_m -> E_CS in the heavy-shunt limit beta -> infinity.  Derivatives are
spectral: along each axis the kinetic term is the dense n x n matrix that
multiplies each grid plane wave e^{i m phi}, |m| <= n/2, by E m^2, so those
waves are exact eigenvectors of it.

The (phi_p, phi_m) square [-pi, pi)^2 double-covers the physical junction
phase torus: shifting one junction phase by 2 pi maps (phi_p, phi_m) to
(phi_p + pi, phi_m + pi), so every physical level appears twice, paired with
an unphysical partner that is odd under that half-cell translation.  The 2D
operator therefore carries a symmetry projector onto the even (single-valued)
sector, and :func:`lowest_eigenpairs` keeps its vectors inside it.

:func:`lowest_eigenpairs` diagonalizes 1D operators densely.  For 2D it takes
a hierarchical start (Kerman, arXiv:2010.14929; Groszkowski & Koch, Quantum 5,
583 (2021)): a dense solve in a product basis of the bound levels of the stiff
phi_p mode times the low levels of the soft phi_m mode, keeping the phi_m
levels within two phi_p gaps of the lowest (never fewer than k).  A block
Davidson iteration on the full grid refines it until every true residual
is within 1e-8 E_J, so the basis sizes set the speed, never the answer.  The
kinetic term is applied as one matrix product per axis with the dense 1D
kinetic matrices, and the refinement's preconditioner through their
eigenpairs.  Both depend only on (coefficient, n), not on the flux, so they are
built once and shared by every operator of a sweep, the start and the 1D
solve.  Nothing is random, and the solver uses numpy alone: a solve imports no
scipy.

H(1 - f) is H(f) under phi_m -> -phi_m (grid index j -> (n - j) mod n, which
keeps the kinetic term and the even-sector projector), so ``csfq3d spectrum``
solves each mirror pair of a flux sweep once and reports failed points per row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import QubitParams, normalized_flux


class ConvergenceError(RuntimeError):
    """A solve ended with a true residual above the tolerance."""

    def __init__(self, message: str, residual_norms):
        super().__init__(message)
        self.residual_norms = np.asarray(residual_norms)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic phase grid on [-pi, pi), n points per axis (n even, >= 16)."""

    n: int = 80

    def __post_init__(self) -> None:
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 16, got {self.n}")

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / self.n

    def phi(self) -> np.ndarray:
        return -math.pi + self.spacing * np.arange(self.n)


class _KineticFactors(NamedTuple):
    """Read-only dense kinetic term coeff * n^2 along one axis of an n-point
    grid, with its eigenvalues (ascending) and orthonormal eigenvectors."""

    matrix: np.ndarray
    levels: np.ndarray
    modes: np.ndarray


@functools.lru_cache(maxsize=16)
def _kinetic_factors(coeff: float, n: int) -> _KineticFactors:
    """The kinetic factors for one axis, built once per (coeff, n): the matrix
    multiplies the plane wave e^{i m phi} by coeff m^2 for the integer
    wavenumbers m of np.fft.fftfreq (m = -n/2 for the Nyquist wave)."""
    k2 = np.fft.fftfreq(n, d=1.0 / n) ** 2
    matrix = coeff * np.fft.ifft(k2[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real
    factors = _KineticFactors(matrix, *np.linalg.eigh(matrix))
    for array in factors:
        array.flags.writeable = False
    return factors


class HamiltonianOperator:
    """Real-symmetric Hamiltonian on a periodic grid: spectral kinetic term
    plus a diagonal potential.  The kinetic term is one dense matrix product
    per axis, with factors shared by every operator with the same
    coefficient and grid (see :class:`_KineticFactors`).

    Parameters
    ----------
    kinetic:
        kinetic coefficients in GHz, one per axis: (E_m,) for a 1D operator
        or (E_p, E_m) for 2D.  Axis order matches the potential array.
    potential:
        diagonal potential on the grid, GHz; shape (n,) or (n, n)
    grid:
        the GridSpec both axes share
    energy_scale:
        characteristic energy (GHz), usually E_J; sets the residual tolerance
        and the shift of the 2D preconditioner
    sector_projector:
        optional orthogonal projector (2D operators only) that restricts the
        solve to a symmetry sector; takes and returns a grid-shaped array,
        with any trailing axes a block of vectors
    """

    def __init__(self, kinetic, potential, grid: GridSpec, energy_scale: float = 1.0,
                 sector_projector=None):
        potential = np.asarray(potential, dtype=float)
        if potential.ndim not in (1, 2):
            raise ValueError("potential must be 1D or 2D")
        if any(size != grid.n for size in potential.shape):
            raise ValueError(
                f"potential shape {potential.shape} does not match grid n={grid.n}"
            )
        if len(kinetic) != potential.ndim:
            raise ValueError("need one kinetic coefficient per potential axis")
        if sector_projector is not None and potential.ndim != 2:
            raise ValueError("sector projectors apply to 2D operators only")
        self.kinetic = tuple(float(c) for c in kinetic)
        self.potential = potential
        self.grid = grid
        self.energy_scale = float(energy_scale)
        self.sector_projector = sector_projector
        self._factors = tuple(_kinetic_factors(coeff, grid.n) for coeff in self.kinetic)

    @property
    def ndim(self) -> int:
        return self.potential.ndim

    @property
    def dim(self) -> int:
        return self.potential.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply H to a flattened grid vector or to a (dim, m) block of them.

        The block is worked on as its transpose, m grid-shaped rows, so the
        transpose of a C-ordered (m, dim) array goes in and out uncopied."""
        v = np.asarray(v, dtype=float)
        rows = v.T.reshape(v.shape[1:] + self.potential.shape)
        out = rows @ self._factors[-1].matrix  # the kinetic matrices are symmetric
        if self.ndim == 2:
            out += np.matmul(self._factors[0].matrix, rows)
        out += self.potential * rows
        return out.reshape(v.shape[::-1]).T

    def project(self, v: np.ndarray) -> np.ndarray:
        """Apply the sector projector (identity if none is set) to a flat
        vector or a (dim, m) block."""
        if self.sector_projector is None:
            return v
        v = np.asarray(v)
        psi = v.reshape(self.potential.shape + v.shape[1:])
        return np.asarray(self.sector_projector(psi)).reshape(v.shape)


def kinetic_coefficients(q: QubitParams) -> tuple[float, float]:
    """(E_p, E_m) in GHz for the two-phase Hamiltonian.

    E_p = 2 E_C and E_m = 2 E_C/(1 + 2 alpha + 2 beta); the quadratic forms
    that follow from the circuit Lagrangian with phi_3 = 2 pi f + 2 phi_m.
    """
    e_p = 2.0 * q.E_C
    e_m = 2.0 * q.E_C / (1.0 + 2.0 * q.alpha + 2.0 * q.beta)
    return e_p, e_m


def _even_sector_projector(n: int):
    half = n // 2

    def project(psi: np.ndarray) -> np.ndarray:
        return 0.5 * (psi + np.roll(psi, (half, half), axis=(0, 1)))

    return project


def build_hamiltonian_2d(q: QubitParams, f, grid: GridSpec | None = None) -> HamiltonianOperator:
    """Full two-phase Hamiltonian at normalized flux f.

    The returned operator is restricted (via its sector projector) to the
    sector even under the half-cell translation, i.e. to wavefunctions
    single-valued in the junction phases; see the module docstring.
    """
    grid = grid or GridSpec()
    fval = normalized_flux(f)
    e_p, e_m = kinetic_coefficients(q)
    phi = grid.phi()
    phi_p, phi_m = np.meshgrid(phi, phi, indexing="ij")
    potential = 2.0 * q.E_J * (1.0 - np.cos(phi_p) * np.cos(phi_m)) \
        + q.alpha * q.E_J * (1.0 - np.cos(2.0 * math.pi * fval + 2.0 * phi_m))
    return HamiltonianOperator(
        (e_p, e_m), potential, grid, energy_scale=q.E_J,
        sector_projector=_even_sector_projector(grid.n),
    )


def build_hamiltonian_1d(q: QubitParams, grid: GridSpec | None = None) -> HamiltonianOperator:
    """Optimal-point Hamiltonian of the soft phase mode alone.

    E_CS n^2 + 2 E_J (1 - cos phi) + alpha E_J (1 + cos 2 phi); the f = 0.5
    bias is built into the cos 2 phi form.
    """
    grid = grid or GridSpec()
    phi = grid.phi()
    potential = 2.0 * q.E_J * (1.0 - np.cos(phi)) + q.alpha * q.E_J * (1.0 + np.cos(2.0 * phi))
    return HamiltonianOperator((q.E_CS,), potential, grid, energy_scale=q.E_J)


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenpairs: energies (GHz, ascending), column eigenvectors,
    true residual norms ||H v - E v|| and the number of block-Davidson
    growth steps (0 for a dense 1D solve)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray
    iterations: int

    def transition(self, i: int, j: int) -> float:
        """Transition frequency E_j - E_i, GHz."""
        return float(self.eigenvalues[j] - self.eigenvalues[i])

    @property
    def omega01(self) -> float:
        return self.transition(0, 1)

    @property
    def anharmonicity(self) -> float:
        return self.transition(1, 2) - self.transition(0, 1)


def lowest_eigenpairs(op: HamiltonianOperator, k: int = 4,
                      max_iter: int = 5000) -> EigenResult:
    """Lowest k eigenpairs of a grid Hamiltonian (method: module docstring),
    each with true residual ||H v - E v|| <= 1e-8 * op.energy_scale (i.e.
    1e-8 E_J) within max_iter Davidson growth steps; otherwise raises
    ConvergenceError carrying the true residual norms.

    Limitation (2D): the residual test cannot tell that a level is missing.
    If a symmetry of H makes the product-basis start orthogonal to a low
    state, the Davidson refinement and its preconditioner keep that symmetry
    and never reach it, so a higher level is returned in its place.  The
    start keeps each degenerate cluster of phi_p slice levels whole, so a
    phi_p-independent potential no longer shows this; a symmetry that splits
    a degenerate cluster of the soft phi_m levels at the M cut still can.  The
    reference device shows neither (its energies match the dense even-sector
    oracle)."""
    if k < 1 or k > 10:
        raise ValueError(f"k must be in 1..10, got {k}")
    tol = 1e-8 * op.energy_scale
    if op.ndim == 1:
        evals, vectors = np.linalg.eigh(op._factors[0].matrix + np.diag(op.potential))
        evals, vectors = evals[:k], vectors[:, :k]
        residuals, iterations = _residual_norms(op, evals, vectors), 0
    else:
        evals, vectors, residuals, iterations = _refine(
            op, _product_basis_start(op, k), tol, max_iter)
    if not np.all(residuals <= tol):
        raise ConvergenceError(f"solve did not converge within {iterations} refinement "
                               f"steps (worst residual {residuals.max():.3e}, "
                               f"tol {tol:.3e})", residuals)
    return EigenResult(evals, vectors, residuals, iterations)


def _residual_norms(op: HamiltonianOperator, evals, vectors) -> np.ndarray:
    return np.linalg.norm(op.matvec(vectors) - vectors * evals, axis=0)


def _product_basis_start(op: HamiltonianOperator, k: int) -> np.ndarray:
    """The k lowest eigenvectors of H in the product basis {chi_j x xi_a},
    mapped to the grid and projected to the sector.

    chi_j are the levels of the stiff phi_p slice through the potential
    minimum below its barrier top (at least two, and never part of a
    degenerate cluster): bound in one well, they hold one copy of each
    double-covered level, so the projection does not collapse two start
    vectors onto one.  xi_a are the soft phi_m levels of
    T_m + V_00(phi_m), the potential that chi_0 sees; M of them are kept, those
    within two phi_p gaps (chi_1 - chi_0) of the lowest, and never fewer than
    k.  So the dense solve has size K M instead of K n."""
    n = op.grid.n
    column = np.unravel_index(np.argmin(op.potential), op.potential.shape)[1]
    slice_ = op.potential[:, column]
    t_p, t_m = (factors.matrix for factors in op._factors)
    levels, chi = np.linalg.eigh(t_p + np.diag(slice_))
    # a well too shallow to bind two levels keeps the lowest two
    count = max(2, int(np.count_nonzero(levels <= slice_.max())))
    # and a degenerate cluster of slice levels is kept whole, never cut in half
    while count < n and levels[count] - levels[count - 1] <= 1e-9 * op.energy_scale:
        count += 1
    levels, chi = levels[:count], chi[:, :count]
    # V_jl(m) = (chi^T (T_p + U[:, m]) chi)_jl, the phi_p-projected potential
    v = np.einsum("pj,pm,pl->mjl", chi, op.potential, chi, optimize=True) + chi.T @ t_p @ chi
    soft, xi = np.linalg.eigh(t_m + np.diag(v[:, 0, 0]))
    size = max(k, int(np.count_nonzero(soft < soft[0] + 2.0 * (levels[1] - levels[0]))))
    xi = xi[:, :size]
    # <chi_j xi_a|H|chi_l xi_b> = delta_jl (xi^T T_m xi)_ab + sum_m xi_ma V_jl(m) xi_mb
    galerkin = np.einsum("ma,mjl,mb->jalb", xi, v, xi, optimize=True)
    j = np.arange(count)
    galerkin[j, :, j, :] += xi.T @ t_m @ xi
    coeffs = np.linalg.eigh(galerkin.reshape(count * size, count * size))[1][:, :k]
    start = np.einsum("pj,ma,jak->pmk", chi, xi, coeffs.reshape(count, size, k), optimize=True)
    return op.project(start.reshape(n * n, k))


# the Davidson basis restarts from its Ritz vectors rather than hold more than this many times k rows
_RESTART_BLOCKS = 6


def _settled(norms: np.ndarray, tol: float, steps: int, max_iter: int) -> bool:
    return bool(np.all(norms <= tol) or steps >= max_iter or not np.all(np.isfinite(norms)))


def _refine(op: HamiltonianOperator, start: np.ndarray, tol: float, max_iter: int):
    """Block Davidson from the start block: Rayleigh-Ritz on an orthonormal
    basis, grown each step by the residuals of the Ritz vectors above tol,
    preconditioned by (T + energy_scale)^-1 in the eigenbasis of the kinetic
    matrices and by the sector projector.  Returns (evals, vectors, residuals,
    steps) once every residual is <= tol, after max_iter steps, or at the first
    non-finite residual.

    Blocks are row-major (m, dim) arrays in two preallocated buffers, the
    basis and its H-image.  Each step applies H once, to the new rows, and
    takes the Ritz residuals from the H-image; H is applied to the Ritz
    vectors only to confirm an exit, so the residuals returned are true ones,
    and a failed confirmation continues the iteration from them."""
    k = start.shape[1]
    t_p, t_m = op._factors
    inverse = 1.0 / (t_p.levels[:, None] + t_m.levels + op.energy_scale)
    basis = np.empty((_RESTART_BLOCKS * k, op.dim))
    h_basis = np.empty_like(basis)
    basis[:k] = np.linalg.qr(start)[0].T
    h_basis[:k] = op.matvec(basis[:k].T).T
    size, steps = k, 0
    while True:
        evals, coeffs = np.linalg.eigh(basis[:size] @ h_basis[:size].T)
        evals, coeffs = evals[:k], coeffs[:, :k].T
        vectors, h_vectors = coeffs @ basis[:size], coeffs @ h_basis[:size]
        residuals = h_vectors - evals[:, None] * vectors
        norms = np.linalg.norm(residuals, axis=1)
        if _settled(norms, tol, steps, max_iter):
            h_vectors = op.matvec(vectors.T).T
            residuals = h_vectors - evals[:, None] * vectors
            norms = np.linalg.norm(residuals, axis=1)
            if _settled(norms, tol, steps, max_iter):
                return evals, vectors.T, norms, steps
        # (T + energy_scale)^-1: into the kinetic eigenbasis, scale, and back
        rows = residuals[norms > tol].reshape((-1,) + op.potential.shape)
        scaled = np.matmul(t_p.modes.T, rows @ t_m.modes) * inverse
        rows = np.matmul(t_p.modes, scaled @ t_m.modes.T)
        block = op.project(rows.reshape(-1, op.dim).T).T
        if size + len(block) > len(basis):
            basis[:k], h_basis[:k], size = vectors, h_vectors, k
        for _ in range(2):  # the second pass removes what rounding left in the basis span
            block = block - (block @ basis[:size].T) @ basis[:size]
            block = np.linalg.qr(block.T)[0].T
        new = slice(size, size + len(block))
        basis[new] = block
        h_basis[new] = op.matvec(basis[new].T).T
        size, steps = new.stop, steps + 1


def numeric_matrix_element(op: HamiltonianOperator, result: EigenResult, kind: str,
                           states: tuple[int, int] = (0, 1)) -> float:
    """|<i| O |j>| on the grid for O = sin(phi_m/2) or cos(phi_m).

    Requires a 1D solve.  Note that at the optimal point the potential is
    even in phi_m, so <0|cos phi_m|1> vanishes identically by parity; the
    perturbative small-junction estimate corresponds to
    :func:`small_junction_coupling_estimate` instead.
    """
    if op.ndim != 1:
        raise ValueError("matrix elements are defined on 1D (phi_m) solves")
    i, j = states
    n_states = result.eigenvectors.shape[1]
    if not (0 <= i < n_states and 0 <= j < n_states):
        raise ValueError(f"states {states} not available; solve returned {n_states}")
    phi = op.grid.phi()
    if kind == "sin_half_phi_m":
        operator = np.sin(phi / 2.0)
    elif kind == "cos_phi_m":
        operator = np.cos(phi)
    else:
        raise ValueError(f"unknown matrix-element kind {kind!r}")
    return float(abs(result.eigenvectors[:, i] @ (operator * result.eigenvectors[:, j])))


def small_junction_coupling_estimate(op: HamiltonianOperator, result: EigenResult) -> float:
    """Numeric scale of the small-junction quasiparticle coupling,
    |<1|cos phi_m|1> - <0|cos phi_m|0>| / 2.

    The literal off-diagonal <0|cos phi_m|1> is parity-forbidden at the
    optimal point; this state-dependent shift is the parity-allowed quantity
    whose leading perturbative value is (1/4) sqrt(E_CS/(E_J(1-2 alpha))),
    the same estimate as the small-junction entry of
    :func:`csfq3d.analytic.junction_matrix_elements`.
    """
    if op.ndim != 1:
        raise ValueError("matrix elements are defined on 1D (phi_m) solves")
    if result.eigenvectors.shape[1] < 2:
        raise ValueError("need at least two states")
    cos_phi = np.cos(op.grid.phi())
    expect = [result.eigenvectors[:, s] @ (cos_phi * result.eigenvectors[:, s]) for s in (0, 1)]
    return float(abs(expect[1] - expect[0]) / 2.0)
