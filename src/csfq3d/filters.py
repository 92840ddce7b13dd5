"""Frequency-domain filter functions of CPMG sequences of N pi pulses.

g_N(omega, tau) = |1 + (-1)^(N+1) e^{i omega tau}
                   + 2 sum_j (-1)^j e^{i omega delta_j tau} cos(omega tau_pi/2)|^2
                  / (omega tau)^2

with delta_j = (2j - 1)/(2N) the normalized center of the j-th pi pulse.
N = 0 (empty sum) is the Ramsey free-induction filter and N = 1 the Hahn
echo; omega = 0 is handled by its analytic limit (1 for Ramsey, 0 for any
refocusing sequence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def cpmg_positions(n_pulses: int) -> np.ndarray:
    """Normalized CPMG pulse centers delta_j = (2j - 1)/(2N), j = 1..N."""
    if n_pulses < 1:
        raise ValueError(f"CPMG needs at least one pi pulse, got N = {n_pulses}")
    j = np.arange(1, n_pulses + 1)
    return (2.0 * j - 1.0) / (2.0 * n_pulses)


@dataclass(frozen=True)
class FilterSpec:
    """CPMG sequence: N pi pulses of duration tau_pi within total length tau
    (seconds), centered at the positions of :func:`cpmg_positions`."""

    N: int
    tau: float
    tau_pi: float = 0.0

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError(f"pulse count must be non-negative, got {self.N}")
        if self.tau <= 0.0:
            raise ValueError(f"sequence length must be positive, got {self.tau}")
        if self.tau_pi < 0.0:
            raise ValueError(f"pulse duration must be non-negative, got {self.tau_pi}")
        if self.N * self.tau_pi >= self.tau and self.N > 0:
            raise ValueError("pi pulses do not fit into the sequence length")


def filter_function(spec: FilterSpec, omega):
    """Filter function g_N at angular frequency omega (rad/s, scalar or array).

    Non-negative everywhere; at omega = 0 returns the analytic limit.
    """
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    omega = np.atleast_1d(omega)
    out = np.empty_like(omega)

    zero = omega == 0.0
    out[zero] = 1.0 if spec.N == 0 else 0.0

    nz = ~zero
    if np.any(nz):
        w = omega[nz]
        wt = w * spec.tau
        total = 1.0 + (-1.0) ** (spec.N + 1) * np.exp(1j * wt)
        if spec.N > 0:
            positions = cpmg_positions(spec.N)
            signs = (-1.0) ** np.arange(1, spec.N + 1)
            phases = np.exp(1j * np.outer(w, positions) * spec.tau)
            total = total + 2.0 * (phases @ signs) * np.cos(w * spec.tau_pi / 2.0)
        out[nz] = np.abs(total) ** 2 / wt**2

    return float(out[0]) if scalar else out


def filter_curve(spec: FilterSpec, omega_grid) -> np.ndarray:
    """Tabulate (omega, g_N) rows over a positive angular-frequency grid."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    if np.any(omega_grid <= 0.0):
        raise ValueError("frequency grid must be strictly positive")
    return np.column_stack([omega_grid, filter_function(spec, omega_grid)])
