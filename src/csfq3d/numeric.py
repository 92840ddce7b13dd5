"""Grid diagonalization of the c-shunt flux qubit Hamiltonian.

The full two-phase Hamiltonian lives on a periodic (phi_p, phi_m) grid with
potential

    U = 2 E_J (1 - cos phi_p cos phi_m) + alpha E_J (1 - cos(2 pi f + 2 phi_m))

and kinetic energy E_p n_p^2 + E_m n_m^2 with E_p = 2 E_C and
E_m = 2 E_C / (1 + 2 alpha + 2 beta), beta = C_S/C_J, which reduces to
E_m -> E_CS in the heavy-shunt limit beta -> infinity.  Derivatives are
applied spectrally (FFT), so a plane wave e^{i m phi} is an exact eigenvector
of the kinetic term with eigenvalue E m^2.

The (phi_p, phi_m) square [-pi, pi)^2 double-covers the physical junction
phase torus: shifting one junction phase by 2 pi maps (phi_p, phi_m) to
(phi_p + pi, phi_m + pi), so every physical level appears twice, paired with
an unphysical partner that is odd under that half-cell translation.  The 2D
operator therefore carries a symmetry projector onto the even (single-valued)
sector, and :func:`lowest_eigenpairs` keeps its vectors inside it.

:func:`lowest_eigenpairs` diagonalizes 1D operators densely.  For 2D it uses
the stiff phi_p mode (Kerman, arXiv:2010.14929; Groszkowski & Koch, Quantum 5,
583 (2021)): a dense solve in a product basis of bound phi_p levels times
phi_m grid points, refined by LOBPCG on the full grid until every true
residual meets the tolerance, so the basis size sets the speed, never the
answer.  Nothing is random, and scipy is imported only inside the solver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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


class HamiltonianOperator:
    """Real-symmetric Hamiltonian on a periodic grid: spectral kinetic term
    plus a diagonal potential.

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
        solve to a symmetry sector; takes and returns a grid-shaped array
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
        # integer wavenumbers squared; exact for periodic plane waves
        self._k2 = np.fft.fftfreq(grid.n, d=1.0 / grid.n) ** 2

    @property
    def ndim(self) -> int:
        return self.potential.ndim

    @property
    def dim(self) -> int:
        return self.potential.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply H to a flattened grid vector."""
        psi = np.asarray(v, dtype=float).reshape(self.potential.shape)
        out = self.potential * psi
        for axis, coeff in enumerate(self.kinetic):
            k2 = self._k2.reshape([-1 if a == axis else 1 for a in range(psi.ndim)])
            out = out + coeff * np.fft.ifft(k2 * np.fft.fft(psi, axis=axis), axis=axis).real
        return out.ravel()

    def project(self, v: np.ndarray) -> np.ndarray:
        """Apply the sector projector (identity if none is set)."""
        if self.sector_projector is None:
            return v
        psi = np.asarray(v).reshape(self.potential.shape)
        return np.asarray(self.sector_projector(psi)).ravel()


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
        return 0.5 * (psi + np.roll(np.roll(psi, half, axis=0), half, axis=1))

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
    true residual norms ||H v - E v|| and the number of LOBPCG refinement
    iterations (0 for a dense 1D solve)."""

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


def lowest_eigenpairs(op: HamiltonianOperator, k: int = 4, tol: float | None = None,
                      max_iter: int = 5000) -> EigenResult:
    """Lowest k eigenpairs of a grid Hamiltonian (method: module docstring),
    each with true residual ||H v - E v|| <= tol (default
    1e-8 * op.energy_scale, i.e. 1e-8 E_J) within max_iter LOBPCG iterations;
    otherwise raises ConvergenceError carrying the true residual norms."""
    from scipy.linalg import eigh

    if k < 1 or k > 10:
        raise ValueError(f"k must be in 1..10, got {k}")
    if tol is None:
        tol = 1e-8 * op.energy_scale
    if op.ndim == 1:
        matrix = _kinetic_matrix(op.kinetic[0], op._k2) + np.diag(op.potential)
        evals, vectors = eigh(matrix, subset_by_index=(0, k - 1), overwrite_a=True)
        residuals, iterations = _residual_norms(op, evals, vectors), 0
    else:
        evals, vectors, residuals, iterations = _refine(
            op, _product_basis_start(op, k), tol, max_iter)
    if not np.all(residuals <= tol):
        raise ConvergenceError(f"solve did not converge within {iterations} refinement "
                               f"iterations (worst residual {residuals.max():.3e}, "
                               f"tol {tol:.3e})", residuals)
    return EigenResult(evals, vectors, residuals, iterations)


def _residual_norms(op: HamiltonianOperator, evals, vectors) -> np.ndarray:
    return np.array([np.linalg.norm(op.matvec(v) - e * v) for e, v in zip(evals, vectors.T)])


def _kinetic_matrix(coeff: float, k2: np.ndarray) -> np.ndarray:
    """Dense coeff * n^2 along one axis, in the spectral form of matvec."""
    return coeff * np.fft.ifft(k2[:, None] * np.fft.fft(np.eye(k2.size), axis=0), axis=0).real


def _product_basis_start(op: HamiltonianOperator, k: int) -> np.ndarray:
    """The k lowest eigenvectors of H in the product basis {chi_j x e_m},
    mapped to the grid and projected to the sector.  chi_j are the levels of
    the phi_p slice through the potential minimum below its barrier top: bound
    in one well, they hold one copy of each double-covered level, so the
    projection does not collapse two start vectors onto one."""
    from scipy.linalg import eigh

    n = op.grid.n
    column = np.unravel_index(np.argmin(op.potential), op.potential.shape)[1]
    slice_ = op.potential[:, column]
    t_p = _kinetic_matrix(op.kinetic[0], op._k2)
    levels, chi = eigh(t_p + np.diag(slice_))
    count = max(1, int(np.count_nonzero(levels < slice_.max())))
    chi = chi[:, :count]
    # <chi_j e_m|H|chi_l e_m'> = delta_jl T_m,mm' + (chi^T (T_p + U[:, m]) chi)_jl delta_mm'
    galerkin = np.kron(np.eye(count), _kinetic_matrix(op.kinetic[1], op._k2))
    m = np.arange(n)
    galerkin.reshape(count, n, count, n)[:, m, :, m] += (
        np.einsum("pj,pm,pl->mjl", chi, op.potential, chi) + chi.T @ t_p @ chi)
    _, coeffs = eigh(galerkin, subset_by_index=(0, k - 1), overwrite_a=True)
    start = (chi @ coeffs.reshape(count, n * k)).reshape(n * n, k)
    return np.column_stack([op.project(v) for v in start.T])


def _refine(op: HamiltonianOperator, vectors: np.ndarray, tol: float, max_iter: int):
    """LOBPCG from the start block `vectors`, preconditioned by the
    Fourier-diagonal (T + energy_scale)^-1 and the sector projector, restarted
    from its best vectors every 20 iterations (a long run can lose a vector to
    an ill-conditioned Rayleigh-Ritz step once others have locked).  Returns
    (evals, vectors, residuals, iterations)."""
    from scipy.sparse.linalg import lobpcg

    inverse = 1.0 / (op.kinetic[0] * op._k2[:, None] + op.kinetic[1] * op._k2 + op.energy_scale)
    iterations = 0

    def precondition(block):
        nonlocal iterations
        iterations += 1  # once per LOBPCG iteration
        psi = np.fft.fft2(block.reshape(*op.potential.shape, -1), axes=(0, 1))
        psi = np.fft.ifft2(inverse[:, :, None] * psi, axes=(0, 1)).real.reshape(op.dim, -1)
        return np.column_stack([op.project(v) for v in psi.T])

    while True:
        spent = iterations
        with warnings.catch_warnings():
            # an unconverged exit surfaces as ConvergenceError; only LOBPCG's messages
            # are named, as sweep threads share the filters catch_warnings restores
            warnings.filterwarnings("ignore", r"(Exited|Failed|eigh failed) ", UserWarning)
            evals, vectors = lobpcg(lambda b: np.column_stack([op.matvec(v) for v in b.T]),
                                    vectors, M=precondition, tol=tol, largest=False,
                                    maxiter=min(20, max_iter - iterations) - 1)
        residuals = _residual_norms(op, evals, vectors)
        if np.all(residuals <= tol) or iterations == spent or iterations >= max_iter:
            return evals, vectors, residuals, iterations


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


def numeric_omega01_vs_flux(q: QubitParams, flux_values, grid: GridSpec | None = None,
                            k: int = 2, max_iter: int = 5000) -> list[tuple[float, float]]:
    """omega01 from a full 2D solve at each flux value, as (f, GHz) pairs.

    Solver failures propagate as ConvergenceError annotated with the flux
    value that failed.
    """
    grid = grid or GridSpec()
    out = []
    for f in flux_values:
        fval = normalized_flux(f)
        op = build_hamiltonian_2d(q, fval, grid)
        try:
            result = lowest_eigenpairs(op, k=k, max_iter=max_iter)
        except ConvergenceError as err:
            raise ConvergenceError(
                f"solve failed at f={fval}: {err}", err.residual_norms
            ) from err
        out.append((fval, result.omega01))
    return out
