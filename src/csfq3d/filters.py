"""Frequency-domain filter functions of CPMG sequences of N pi pulses.

g_N(omega, tau) = |1 + (-1)^(N+1) e^{i omega tau}
                   + 2 sum_j (-1)^j e^{i omega delta_j tau} cos(omega tau_pi/2)|^2
                  / (omega tau)^2

with delta_j = (2j - 1)/(2N) the normalized center of the j-th pi pulse.
N = 0 (empty sum) is the Ramsey free-induction filter and N = 1 the Hahn
echo; omega tau = 0, or so small that its square underflows, takes the
analytic limit (1 for Ramsey, 0 for any refocusing sequence).
:func:`filter_function` takes a scalar or an array of omega; ``csfq3d
filter`` tabulates it on a log-spaced grid.
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
    wt = omega * spec.tau
    with np.errstate(over="ignore"):  # (omega tau)^2 past the double range: g_N is 0
        wt_sq = wt * wt

    # omega = 0, or omega tau so small that g_N equals its limit in double precision
    zero = wt_sq == 0.0
    out[zero] = 1.0 if spec.N == 0 else 0.0

    nz = ~zero
    if np.any(nz):
        w = omega[nz]
        total = 1.0 + (-1.0) ** (spec.N + 1) * np.exp(1j * wt[nz])
        if spec.N > 0:
            positions = cpmg_positions(spec.N)
            signs = (-1.0) ** np.arange(1, spec.N + 1)
            phases = np.exp(1j * np.outer(w, positions) * spec.tau)
            total = total + 2.0 * (phases @ signs) * np.cos(w * spec.tau_pi / 2.0)
        out[nz] = np.abs(total) ** 2 / wt_sq[nz]

    return float(out[0]) if scalar else out

