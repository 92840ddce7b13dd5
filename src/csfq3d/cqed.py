"""Dispersive-limit cavity QED: partial shifts, cavity pull, coupling
extraction and the Purcell limit.

Couplings g, shifts chi and linewidths kappa are cyclic MHz throughout;
qubit and cavity frequencies are cyclic GHz.  The Purcell rate uses the
cyclic convention directly (kappa in MHz times 1e6 as s^-1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

#: g/|detuning| above which the dispersive approximation is flagged
DISPERSIVE_RATIO_CEILING = 0.2


class DispersiveLimitWarning(UserWarning):
    """Coupling is not small against the detuning; dispersive formulas degrade."""


@dataclass(frozen=True)
class DispersiveSet:
    """Partial shifts chi01/chi12, qubit-state-dependent pull chi = chi01 -
    chi12/2, and the couplings they imply (all cyclic MHz)."""

    chi01: float
    chi12: float
    chi: float
    g01: float
    g12: float


def _check_dispersive(name: str, g_mhz: float, detuning_mhz: float) -> None:
    """Warn, at the public function's caller, when g/|detuning| exceeds the ceiling."""
    if g_mhz != 0.0 and abs(g_mhz / detuning_mhz) > DISPERSIVE_RATIO_CEILING:
        warnings.warn(f"{name}/|detuning| = {abs(g_mhz / detuning_mhz):.3g} > "
                      f"{DISPERSIVE_RATIO_CEILING}: outside the dispersive regime",
                      DispersiveLimitWarning, stacklevel=3)


def chi_partial(g_mhz: float, omega_ij_ghz: float, omega_c0_ghz: float) -> float:
    """Partial dispersive shift g^2/(omega_ij - omega_c0), signed, MHz.

    Warns when g/|detuning| exceeds 0.2, where the dispersive expansion is
    no longer trustworthy.
    """
    detuning_mhz = (omega_ij_ghz - omega_c0_ghz) * 1e3
    if detuning_mhz == 0.0:
        raise ValueError("zero qubit-cavity detuning: dispersive shift undefined")
    _check_dispersive("g", g_mhz, detuning_mhz)
    return g_mhz * g_mhz / detuning_mhz


def total_pull(chi01_mhz: float, chi12_mhz: float) -> float:
    """Qubit-state-dependent cavity pull chi = chi01 - chi12/2, MHz.

    The readout splitting between ground and excited state is 2 chi.
    """
    return chi01_mhz - chi12_mhz / 2.0


def dispersive_set(omega01_ghz: float, omega12_ghz: float, omega_c0_ghz: float,
                   omega_c_ghz: float, chi_mhz: float) -> DispersiveSet:
    """Full dispersive summary from measured frequencies and the cavity pull.

    Inverts chi01 = omega_c0 - omega_c and chi12 = 2(chi01 - chi); both
    radicands chi_ij (omega_ij - omega_c0) must be positive, otherwise the
    inputs are mutually inconsistent.  Warns, as chi_partial does, when
    g01 or g12 is not small against its detuning.
    """
    chi01 = (omega_c0_ghz - omega_c_ghz) * 1e3
    chi12 = 2.0 * (chi01 - chi_mhz)
    g01_sq = chi01 * (omega01_ghz - omega_c0_ghz) * 1e3
    g12_sq = chi12 * (omega12_ghz - omega_c0_ghz) * 1e3
    if g01_sq < 0.0 or g12_sq < 0.0:
        raise ValueError(
            "inconsistent inputs: negative radicand for "
            f"g01^2 = {g01_sq:.3f} or g12^2 = {g12_sq:.3f} MHz^2"
        )
    g01, g12 = math.sqrt(g01_sq), math.sqrt(g12_sq)
    _check_dispersive("g01", g01, (omega01_ghz - omega_c0_ghz) * 1e3)
    _check_dispersive("g12", g12, (omega12_ghz - omega_c0_ghz) * 1e3)
    return DispersiveSet(chi01=chi01, chi12=chi12, chi=total_pull(chi01, chi12),
                         g01=g01, g12=g12)


def purcell_t1(kappa_mhz: float, g01_mhz: float, omega01_ghz: float,
               omega_c_ghz: float) -> float:
    """Purcell-limited relaxation time (kappa g01^2/detuning^2)^-1, seconds.

    kappa enters as a cyclic rate (MHz * 1e6 as s^-1); this convention
    reproduces the millisecond-scale Purcell times quoted for this device.
    Returns math.inf for g01 = 0.
    """
    if kappa_mhz <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa_mhz} MHz")
    detuning_mhz = (omega01_ghz - omega_c_ghz) * 1e3
    if detuning_mhz == 0.0:
        raise ValueError("zero qubit-cavity detuning: Purcell rate undefined")
    if g01_mhz == 0.0:
        return math.inf
    rate = kappa_mhz * 1e6 * (g01_mhz / detuning_mhz) ** 2
    return 1.0 / rate
