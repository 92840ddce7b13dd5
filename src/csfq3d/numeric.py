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
an unphysical partner that is odd under that half-cell translation.  A 2D
solve therefore returns the even (single-valued) sector alone, the states
with psi(i + n/2, j + n/2) = psi(i, j).

:func:`lowest_eigenpairs` diagonalizes 1D operators densely.  In 2D, U is even
in phi_p, and phi_p -> -phi_p commutes with the half-cell translation, so the
even sector splits into two phi_p-parity sectors, solved one at a time (Bunker
& Jensen, *Molecular Symmetry and Spectroscopy*).  A sector vector holds rows
i = 0..n/2 (even) or 1..n/2-1 (odd) of a phi_p parity basis by columns j < n/2,
about n^2/4 entries, with U diagonal.  Its start (Kerman, arXiv:2010.14929;
Groszkowski & Koch, Quantum 5, 583 (2021)) is a dense solve in the folded
product basis of the sector's phi_p slice levels through the potential
minimum below the slice top (at least two; a 1D parity sector has no
degenerate levels) times the soft phi_m levels in the potential the lowest of them
sees, up to one slice gap above the k-th lowest.  Block Davidson
refines it until every true residual, recomputed on the full grid with no
folding, is within 1e-8 max(E_J, E_p).  The odd
sector is solved only when a Weyl lower bound on its levels
(:func:`_odd_sector_floor`) fails to clear the even sector's k-th level by the
tolerance; the k lowest of both are returned.  At f = 0.5, phi_m -> -phi_m is
a symmetry too, which is not split; the tests check those levels against a
dense oracle.  Kinetic matrices are cached per (coefficient, n), sector
blocks per (E_p, E_m, n).  Nothing is random, and a solve imports no scipy.

H(1 - f) is H(f) under phi_m -> -phi_m (grid index j -> (n - j) mod n, which
keeps the kinetic term and the even sector), so ``csfq3d spectrum`` solves
each mirror pair of a flux sweep once and reports failed points per row.

sin(phi_j/2) flips sign under the half-cell translation, so its elements
between even-sector states vanish.  :func:`one_well_element` takes them over
one-well states: sqrt 2 psi on the diamond |phi_p| + |phi_m| < pi about the
(0, 0) minimum, where phi_1,2 = phi_p +- phi_m lie in (-pi, pi), half weight
on its edge (the saddle to the next well), zero outside; the diamond and its
half-cell translate tile the torus.
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


# a symmetric matrix, its eigenvalues (ascending) and orthonormal eigenvectors
_Block = NamedTuple("_Block", [("matrix", np.ndarray), ("levels", np.ndarray),
                               ("modes", np.ndarray)])


@functools.lru_cache(maxsize=16)
def _kinetic_matrix(coeff: float, n: int) -> np.ndarray:
    """The read-only kinetic matrix of one axis, built once per (coeff, n).  It
    multiplies the plane wave e^{i m phi} by coeff m^2, |m| <= n/2, so entry
    (i, j) is (coeff/n) sum_m m^2 cos(2 pi m d/n), d the ring distance."""
    index = np.arange(n)
    distance = np.minimum(index, n - index)  # also |m| of the wave at each index
    t = coeff / n * (np.cos(2.0 * math.pi / n * (np.outer(distance, index) % n)) @ distance ** 2)
    matrix = t[distance[(index[:, None] - index) % n]]
    matrix.flags.writeable = False
    return matrix


@functools.lru_cache(maxsize=16)
def _sector_blocks(e_p: float, e_m: float, n: int):
    """The read-only blocks of the phi_p-parity sectors, built once per (E_p, E_m, n): T_p
    on functions even and odd under phi_p -> -phi_p, in the bases (delta_i +- delta_{n-i})
    /sqrt 2, 0 < i < n/2, plus delta_0 and delta_{n/2} if even, and T_m on n/2 points of
    functions (anti)periodic under phi_m -> phi_m + pi."""
    t_p, t_m, half = _kinetic_matrix(e_p, n), _kinetic_matrix(e_m, n), n // 2
    reflect = np.eye(n)[(-np.arange(n)) % n]
    bases = [basis / np.linalg.norm(basis, axis=0)
             for basis in ((np.eye(n) + reflect)[:, :half + 1], (np.eye(n) - reflect)[:, 1:half])]
    blocks = [basis.T @ t_p @ basis for basis in bases] + [
        t_m[:half, :half] + sign * t_m[half:, :half] for sign in (1.0, -1.0)]
    blocks = [_Block(block, *np.linalg.eigh(block)) for block in blocks]
    for array in (array for block in blocks for array in block):
        array.flags.writeable = False
    return tuple(blocks[:2]), tuple(blocks[2:])


class HamiltonianOperator:
    """Real-symmetric Hamiltonian on a periodic grid: spectral kinetic term, one
    dense product per axis with the matrix :func:`_kinetic_matrix` caches, plus a
    diagonal potential.  A vector is the flat grid, dim = n (1D) or n^2 (2D,
    row-major in (phi_p, phi_m)).

    Parameters
    ----------
    kinetic:
        kinetic coefficients in GHz, one per axis: (E_m,) for a 1D operator
        or (E_p, E_m) for 2D.  Axis order matches the potential array.
    potential:
        finite diagonal potential on the grid, GHz; shape (n,) or (n, n).  A 2D
        potential must be invariant under the half-cell translation
        (i, j) -> (i + n/2, j + n/2) and under phi_p -> -phi_p
        (i -> (n - i) mod n), each to 1e-12 of its largest magnitude.
    grid:
        the GridSpec both axes share
    energy_scale:
        characteristic energy (GHz); sets the residual tolerance and the shift
        of the 2D preconditioner.  The builders pass max(E_J, E_p) (2D) or
        max(E_J, E_CS) (1D), so a vanishing E_J keeps a reachable tolerance
    """

    def __init__(self, kinetic, potential, grid: GridSpec, energy_scale: float = 1.0):
        potential = np.asarray(potential, dtype=float)
        if potential.ndim not in (1, 2):
            raise ValueError("potential must be 1D or 2D")
        if any(size != grid.n for size in potential.shape):
            raise ValueError(
                f"potential shape {potential.shape} does not match grid n={grid.n}"
            )
        if len(kinetic) != potential.ndim:
            raise ValueError("need one kinetic coefficient per potential axis")
        if not np.all(np.isfinite(potential)):
            raise ValueError("potential must be finite")
        half = grid.n // 2
        if potential.ndim == 2:
            for name, image in (
                    ("the half-cell translation", np.roll(potential, (half, half), axis=(0, 1))),
                    ("phi_p -> -phi_p", potential[(-np.arange(grid.n)) % grid.n])):
                if np.max(np.abs(potential - image)) > 1e-12 * np.max(np.abs(potential)):
                    raise ValueError(f"2D potential is not invariant under {name}")
        self.kinetic = tuple(float(c) for c in kinetic)
        self.potential = potential
        self.grid = grid
        self.energy_scale = float(energy_scale)

    @property
    def ndim(self) -> int:
        return self.potential.ndim

    @property
    def dim(self) -> int:
        return self.potential.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply H to a flat vector or to a (dim, m) block of them.

        The block is worked on as its transpose, m grids, so the transpose of
        a C-ordered (m, dim) array goes in and out uncopied."""
        v = np.asarray(v, dtype=float)
        grids = v.T.reshape(v.shape[1:] + self.potential.shape)
        out = grids @ _kinetic_matrix(self.kinetic[-1], self.grid.n)  # the matrix is symmetric
        if self.ndim == 2:
            out += _kinetic_matrix(self.kinetic[0], self.grid.n) @ grids
        out += self.potential * grids
        return out.reshape(v.shape[::-1]).T


def kinetic_coefficients(q: QubitParams) -> tuple[float, float]:
    """(E_p, E_m) in GHz for the two-phase Hamiltonian.

    E_p = 2 E_C and E_m = 2 E_C/(1 + 2 alpha + 2 beta); the quadratic forms
    that follow from the circuit Lagrangian with phi_3 = 2 pi f + 2 phi_m.
    """
    e_p = 2.0 * q.E_C
    e_m = 2.0 * q.E_C / (1.0 + 2.0 * q.alpha + 2.0 * q.beta)
    return e_p, e_m


def build_hamiltonian_2d(q: QubitParams, f, grid: GridSpec | None = None) -> HamiltonianOperator:
    """Full two-phase Hamiltonian at normalized flux f.

    The returned operator acts on the sector even under the half-cell
    translation, i.e. on wavefunctions single-valued in the junction phases;
    see the module docstring.
    """
    grid = grid or GridSpec()
    fval = float(normalized_flux(f))  # one flux bias per operator
    e_p, e_m = kinetic_coefficients(q)
    phi = grid.phi()
    cos_phi = np.cos(phi)
    potential = 2.0 * q.E_J * (1.0 - np.outer(cos_phi, cos_phi)) \
        + q.alpha * q.E_J * (1.0 - np.cos(2.0 * math.pi * fval + 2.0 * phi))
    return HamiltonianOperator((e_p, e_m), potential, grid, energy_scale=max(q.E_J, e_p))


def build_hamiltonian_1d(q: QubitParams, grid: GridSpec | None = None) -> HamiltonianOperator:
    """Optimal-point Hamiltonian of the soft phase mode alone.

    E_CS n^2 + 2 E_J (1 - cos phi) + alpha E_J (1 + cos 2 phi); the f = 0.5
    bias is built into the cos 2 phi form.
    """
    grid = grid or GridSpec()
    phi = grid.phi()
    potential = 2.0 * q.E_J * (1.0 - np.cos(phi)) + q.alpha * q.E_J * (1.0 + np.cos(2.0 * phi))
    return HamiltonianOperator((q.E_CS,), potential, grid, energy_scale=max(q.E_J, q.E_CS))


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenpairs: energies (GHz, ascending), unit column eigenvectors
    in the operator's layout (2D: flat full grids, each even under the
    half-cell translation and of one phi_p parity), true residual norms
    ||H v - E v|| and the number of block-Davidson growth steps of both
    phi_p-parity sectors (0 for a dense 1D solve)."""

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


def lowest_eigenpairs(op: HamiltonianOperator, k: int = 4) -> EigenResult:
    """Lowest k eigenpairs of a grid Hamiltonian (method: module docstring),
    each with true residual ||H v - E v|| <= 1e-8 * op.energy_scale (1e-8
    max(E_J, E_p) from build_hamiltonian_2d, 1e-8 max(E_J, E_CS) from
    build_hamiltonian_1d) within _MAX_STEPS Davidson growth steps per
    phi_p-parity sector (2D ``iterations`` sums both); otherwise raises
    ConvergenceError carrying the true residual norms, recomputed with
    op.matvec."""
    if k < 1 or k > 10:
        raise ValueError(f"k must be in 1..10, got {k}")
    tol = 1e-8 * op.energy_scale
    if op.ndim == 1:
        evals, vectors = np.linalg.eigh(_kinetic_matrix(*op.kinetic, op.grid.n)
                                        + np.diag(op.potential))
        evals, vectors, iterations = evals[:k], vectors[:, :k], 0
    else:  # the odd sector is skipped if its bound clears the even one's k-th level
        results, iterations = [], 0
        for parity in (1, -1):
            sector = _Sector(op, parity)
            evals, vectors, norms, steps = _refine(sector, *_product_basis_start(sector, k), tol)
            results.append((evals, sector.expand(vectors).reshape(k, op.dim)))
            iterations += steps
            if parity < 0 or not np.all(norms <= tol) or _odd_sector_floor(op) > evals[-1] + tol:
                break
        evals, vectors = (np.concatenate(parts) for parts in zip(*results))
        order = np.argsort(evals, kind="stable")[:k]
        evals, vectors = evals[order], vectors[order].T
    residuals = np.linalg.norm(op.matvec(vectors) - vectors * evals, axis=0)
    if not np.all(residuals <= tol):
        raise ConvergenceError(f"solve did not converge within {iterations} refinement "
                               f"steps (worst residual {residuals.max():.3e}, "
                               f"tol {tol:.3e})", residuals)
    return EigenResult(evals, vectors, residuals, iterations)


class _Sector:
    """The phi_p-parity sector (parity +1 or -1) of the half-cell-even states
    of a 2D operator: a vector is a flat row of the rows 0..n/2 (even) or
    1..n/2-1 (odd) of the parity basis of :func:`_sector_blocks` by the
    columns j < n/2 (module docstring), which fix the rest of the grid."""

    def __init__(self, op: HamiltonianOperator, parity: int):
        self.op, self.parity, self.half = op, parity, op.grid.n // 2
        self.rows = slice(0, self.half + 1) if parity > 0 else slice(1, self.half)
        parities, periods = _sector_blocks(*op.kinetic, op.grid.n)
        self.kinetic, self.t_m = parities[parity < 0], _kinetic_matrix(op.kinetic[1], op.grid.n)
        self.diagonal = op.potential[self.rows, :self.half]
        self.shape, self.dim = self.diagonal.shape, self.diagonal.size
        # a phi_p mode that flip keeps (negates) meets the phi_m modes (anti)periodic in pi
        keeps = parity * np.sum(self.kinetic.modes * self.kinetic.modes[::-1], axis=0) > 0
        self._inverse = [(part, block.modes, 1.0 / (self.kinetic.levels[part, None]
                                                     + block.levels + op.energy_scale))
                         for part, block in zip((keeps, ~keeps), periods)]

    def flip(self, rows: np.ndarray) -> np.ndarray:
        return self.parity * rows[..., ::-1, :]

    def matvec(self, block: np.ndarray) -> np.ndarray:
        """H applied to each row of a (m, dim) block."""
        rows = block.reshape((-1,) + self.shape)
        image = rows @ self.t_m[:self.half]
        out = image[..., :self.half] + self.flip(image[..., self.half:])
        out += self.kinetic.matrix @ rows
        out += self.diagonal * rows
        return out.reshape(block.shape)

    def precondition(self, block: np.ndarray) -> np.ndarray:
        """(T + energy_scale)^-1 applied to each row of a (m, dim) block."""
        coeffs = self.kinetic.modes.T @ block.reshape((-1,) + self.shape)
        for part, modes, inverse in self._inverse:
            coeffs[:, part] = ((coeffs[:, part] @ modes) * inverse) @ modes.T
        return (self.kinetic.modes @ coeffs).reshape(block.shape)

    def expand(self, block: np.ndarray) -> np.ndarray:
        """The unit (m, n, n) grids of the unit rows of a (m, dim) block: the
        columns j < n/2 in the grid basis, the rest by the half-cell translation."""
        rows = np.zeros((len(block), self.half + 1, self.half))
        rows[:, self.rows] = math.sqrt(0.5) * block.reshape((-1,) + self.shape)
        rows[:, 1:self.half] *= math.sqrt(0.5)
        columns = np.concatenate((rows, self.flip(rows[:, 1:self.half])), axis=-2)
        return np.concatenate((columns, np.roll(columns, self.half, axis=-2)), axis=-1)


def _odd_sector_floor(op: HamiltonianOperator) -> float:
    """A lower bound on the phi_p-odd sector: T_m >= 0 and U >= L(phi_p),
    its minimum over phi_m, so H >= (T_p + diag L) x 1 (Weyl)."""
    floor = op.potential[1:op.grid.n // 2].min(axis=1)
    odd = _sector_blocks(*op.kinetic, op.grid.n)[0][1]
    return float(np.linalg.eigvalsh(odd.matrix + np.diag(floor))[0])


def _product_basis_start(sector: _Sector, k: int):
    """The k lowest Ritz pairs (vectors, H vectors) in the sector's folded
    product basis chi_j x xi_a (module docstring).  A product state folds to
    chi x xi_lo + flip(chi) x xi_hi (xi_lo, xi_hi: j < n/2, j >= n/2), of
    squared norm 1 + f g, f = <chi|flip chi>, g = 2 <xi_lo|xi_hi>.  Rotating
    chi and xi to diagonalize f and g makes the folds orthogonal; one that
    the double cover collapses (1 + f g <= 1e-6) is dropped."""
    potential, half, t_p, t_m = sector.op.potential, sector.half, sector.kinetic.matrix, sector.t_m
    u, slice_ = potential[sector.rows], potential[:, np.argmin(potential) % len(potential)]
    levels, chi = np.linalg.eigh(t_p + np.diag(slice_[sector.rows]))
    # a well too shallow to bind two levels keeps the lowest two
    count = max(2, int(np.count_nonzero(levels <= slice_.max())))
    levels, chi = levels[:count], chi[:, :count]
    soft, xi = np.linalg.eigh(t_m + np.diag(chi[:, 0] ** 2 @ u))
    size = int(np.count_nonzero(soft < soft[k - 1] + levels[1] - levels[0]))
    f, turn = np.linalg.eigh(chi.T @ sector.flip(chi))
    chi = chi @ turn
    overlap = xi[:half, :size].T @ xi[half:, :size]
    g, turn = np.linalg.eigh(overlap + overlap.T)
    xi, norm2 = xi[:, :size] @ turn, 1.0 + np.outer(f, g).ravel()
    # <p|H(1 + R)|p'> for p = chi_j x xi_a, p' = chi_l x xi_b, indexed (a, b, j, l):
    # the half-cell translation R maps p' to flip(chi_l) x xi_b shifted by pi
    galerkin = 0.0
    for right, shifted in ((chi, xi), (sector.flip(chi), np.roll(xi, half, axis=0))):
        v = u.T @ (chi[:, :, None] * right[:, None, :]).reshape(len(chi), -1)
        galerkin = galerkin + ((xi[:, :, None] * shifted[:, None, :]).reshape(len(xi), -1).T
                               @ v).reshape(size, size, count, count)
        galerkin += ((xi.T @ shifted)[:, :, None, None] * (chi.T @ t_p @ right)
                     + (xi.T @ t_m @ shifted)[:, :, None, None] * (chi.T @ right))
    keep = np.flatnonzero(norm2 > 1e-6)
    scale = 1.0 / np.sqrt(norm2[keep])
    galerkin = galerkin.transpose(2, 0, 3, 1).reshape(count * size, -1)[np.ix_(keep, keep)]
    coeffs = np.zeros((count * size, k))
    coeffs[keep] = scale[:, None] * np.linalg.eigh(scale[:, None] * galerkin * scale)[1][:, :k]
    coeffs = coeffs.reshape(count, size, k).transpose(2, 0, 1)
    start = (chi @ coeffs @ xi[:half].T + sector.flip(chi) @ coeffs @ xi[half:].T).reshape(k, -1)
    return start, sector.matvec(start)


# the Davidson basis restarts from its Ritz vectors rather than hold more than this many times k rows
_RESTART_BLOCKS = 6
# a sector's refinement gives up after this many growth steps
_MAX_STEPS = 5000


def _settled(norms: np.ndarray, tol: float, steps: int) -> bool:
    return bool(np.all(norms <= tol) or steps >= _MAX_STEPS or not np.all(np.isfinite(norms)))


def _refine(sector: _Sector, start: np.ndarray, h_start: np.ndarray, tol: float):
    """Block Davidson in a sector from an orthonormal (k, dim) start and its
    H-image, in row-major (m, dim) buffers grown by the preconditioned
    residuals above tol.  Each step applies H once, to the new rows; H is
    applied to the Ritz vectors only to confirm an exit at all residuals <= tol,
    _MAX_STEPS steps or a non-finite residual, so the residuals returned with
    (evals, (k, dim) vectors, residuals, steps) are true ones."""
    k = len(start)
    basis = np.empty((min(_RESTART_BLOCKS * k, sector.dim), sector.dim))
    h_basis = np.empty_like(basis)
    basis[:k], h_basis[:k] = start, h_start
    size, steps = k, 0
    while True:
        evals, coeffs = np.linalg.eigh(basis[:size] @ h_basis[:size].T)
        evals, coeffs = evals[:k], coeffs[:, :k].T
        vectors, h_vectors = coeffs @ basis[:size], coeffs @ h_basis[:size]
        residuals = h_vectors - evals[:, None] * vectors
        norms = np.linalg.norm(residuals, axis=1)
        if _settled(norms, tol, steps):
            h_vectors = sector.matvec(vectors)
            residuals = h_vectors - evals[:, None] * vectors
            norms = np.linalg.norm(residuals, axis=1)
            if _settled(norms, tol, steps):
                return evals, vectors, norms, steps
        block = sector.precondition(residuals[norms > tol])
        if size + len(block) > len(basis):
            basis[:k], h_basis[:k], size = vectors, h_vectors, k
        for _ in range(2):  # the second pass removes what rounding left in the basis span
            block = block - (block @ basis[:size].T) @ basis[:size]
            block = np.linalg.qr(block.T)[0].T
        new = slice(size, size + len(block))
        basis[new] = block
        h_basis[new] = sector.matvec(basis[new])
        size, steps = new.stop, steps + 1


# most weight 2 sum psi^2 on the edge; at n = 64/80 bundled sets <= 1.1e-8, shallow wells >= 4e-5
_EDGE_WEIGHT_BOUND = 1e-6


def one_well_element(result: EigenResult, operator, states: tuple[int, int] = (0, 1)) -> float:
    """<i|O|j> over the one-well states (module docstring) of a 2D solve for a diagonal O,
    given as its (n, n) grid values; i != j takes the eigenvectors' arbitrary signs.  A
    state with more than _EDGE_WEIGHT_BOUND on the edge raises ValueError naming it."""
    vectors, operator = result.eigenvectors, np.asarray(operator, dtype=float)
    n = math.isqrt(len(vectors))
    if operator.shape != (n, n) or n * n != len(vectors):
        raise ValueError(f"operator of shape {operator.shape} is not the n x n grid of a 2D "
                         f"solve with {len(vectors)} grid points")
    if not all(0 <= s < vectors.shape[1] for s in states):
        raise ValueError(f"states {states} not available; solve returned {vectors.shape[1]}")
    offset = np.abs(np.arange(n) - n // 2)  # |phi| / spacing
    weight = np.sign(n // 2 - offset[:, None] - offset) + 1.0  # 2 inside, 1 on the edge
    psi = [vectors[:, s].reshape(n, n) for s in states]
    for state, grid in zip(states, psi):
        edge = 2.0 * float(np.sum(grid[weight == 1.0] ** 2))
        if edge > _EDGE_WEIGHT_BOUND:
            raise ValueError(f"state {state} puts weight {edge:.2e} on the edge of its well, "
                             f"above {_EDGE_WEIGHT_BOUND:.0e}: too shallow for one-well elements")
    return float(np.sum(weight * psi[0] * operator * psi[1]))
