"""Physical constants, the capacitance and micro-eV conversions the models
use, and validated parameter containers.

Unit conventions used throughout the package:

- energies and transition frequencies are cyclic frequencies in GHz (E/h);
  conversions to angular frequency (x 2 pi) happen only inside formulas that
  need them, and each such function documents the convention it uses
- cavity loss rates, dispersive shifts and couplings are cyclic MHz
- relaxation/dephasing rates are plain s^-1, times are seconds
- temperatures are Kelvin, capacitances fF, superconducting gaps micro-eV
- flux biases are plain numbers, the normalized flux f = Phi/Phi_0
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-exact SI constants; hbar is derived, not stored."""

    h: float = 6.62607015e-34       # J s
    e: float = 1.602176634e-19      # C
    k_B: float = 1.380649e-23       # J/K

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)


CONSTANTS = PhysicalConstants()


def microev_to_joule(energy_uev: float) -> float:
    """Micro-electronvolt to Joule (used for the superconducting gap)."""
    return energy_uev * 1e-6 * CONSTANTS.e


def charging_energy_from_capacitance(capacitance_ff: float) -> float:
    """Single-electron charging energy e^2/2C of a capacitance in fF, as cyclic GHz.

    78 fF gives 0.2483 GHz; the energy scales exactly as 1/C.
    """
    if capacitance_ff <= 0.0:
        raise ValueError(f"capacitance must be positive, got {capacitance_ff} fF")
    return CONSTANTS.e**2 / (2.0 * capacitance_ff * 1e-15) / CONSTANTS.h / 1e9


#: e^2/2h in fF GHz: the capacitance in fF of a charging energy of 1 GHz
_CAPACITANCE_FF_GHZ = CONSTANTS.e**2 / (2.0 * 1e9 * CONSTANTS.h) * 1e15


def capacitance_from_charging_energy(energy_ghz: float) -> float:
    """Capacitance in fF whose charging energy e^2/2C equals the given cyclic GHz.

    One division by the energy, so no product underflows: 1e-301 GHz gives
    1.937e302 fF.  An energy whose capacitance overflows is a ValueError.
    """
    if energy_ghz <= 0.0:
        raise ValueError(f"charging energy must be positive, got {energy_ghz} GHz")
    capacitance = _CAPACITANCE_FF_GHZ / energy_ghz
    if capacitance == math.inf:
        raise ValueError(f"charging energy {energy_ghz} GHz overflows the capacitance")
    return capacitance


class NegativeAnharmonicityWarning(UserWarning):
    """Raised for alpha <= 1/8 where the quartic coefficient (8 alpha - 1) is not positive."""


@dataclass(frozen=True)
class QubitParams:
    """Circuit parameters of the three-junction capacitively shunted flux qubit.

    Parameters
    ----------
    alpha:
        area ratio of the small junction to the two (identical) large ones;
        restricted to 0 < alpha < 0.5, the single-well regime
    E_J:
        Josephson energy of each large junction, cyclic GHz
    E_C:
        charging energy e^2/2C_J of a single large junction, cyclic GHz
    C_S:
        shunt capacitance across the small junction, fF
    """

    alpha: float
    E_J: float
    E_C: float
    C_S: float

    def __post_init__(self) -> None:
        _check_qubit_params(self)

    @property
    def E_CS(self) -> float:
        """Shunt charging energy e^2/2C_S, cyclic GHz."""
        return charging_energy_from_capacitance(self.C_S)

    @property
    def beta(self) -> float:
        """Capacitance ratio C_S/C_J (equals E_C/E_CS)."""
        return self.E_C / self.E_CS


def _check_qubit_params(q: QubitParams) -> None:
    if not q.alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {q.alpha}")
    if q.alpha >= 0.5:
        raise ValueError(
            f"alpha = {q.alpha} >= 0.5: double-well regime unsupported"
        )
    for name, value, unit in (("E_J", q.E_J, "GHz"), ("E_C", q.E_C, "GHz"),
                              ("C_S", q.C_S, "fF")):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value} {unit}")
    # values that zero a divisor of the models (the stiffness E_J(1 - 2 alpha),
    # C_S in farad, e^2/2C_S) or overflow the potential depth (4 + 2 alpha) E_J
    if q.E_J * (1.0 - 2.0 * q.alpha) == 0.0:
        raise ValueError(f"E_J = {q.E_J} GHz underflows the stiffness E_J(1 - 2 alpha) to 0")
    if not math.isfinite((4.0 + 2.0 * q.alpha) * q.E_J):
        raise ValueError(f"E_J = {q.E_J} GHz overflows the potential depth (4 + 2 alpha) E_J")
    if 2.0 * q.C_S * 1e-15 == 0.0 or q.E_CS == 0.0:
        raise ValueError(f"C_S = {q.C_S} fF underflows to 0 F or to a charging energy of 0")
    if q.alpha <= 0.125:
        warnings.warn(
            f"alpha = {q.alpha} <= 1/8: quartic coefficient (8 alpha - 1) is not "
            "positive and the perturbative anharmonicity is not positive",
            NegativeAnharmonicityWarning,
            stacklevel=3,
        )


@dataclass(frozen=True)
class CavityParams:
    """3D cavity mode: bare frequency (GHz, cyclic) and loss rates (MHz, cyclic)."""

    omega_c0: float
    kappa_c: float
    kappa_i: float

    def __post_init__(self) -> None:
        if self.omega_c0 <= 0.0:
            raise ValueError(f"omega_c0 must be positive, got {self.omega_c0} GHz")
        if self.kappa_c < 0.0 or self.kappa_i < 0.0:
            raise ValueError("loss rates must be non-negative")
        if self.kappa_c + self.kappa_i <= 0.0:
            raise ValueError("total loss rate kappa must be positive")

    @property
    def kappa(self) -> float:
        """Total linewidth kappa_c + kappa_i, MHz."""
        return self.kappa_c + self.kappa_i


def normalized_flux(f):
    """The normalized flux f = Phi/Phi_0: a float for a scalar, else a float array.
    Every entry must be finite."""
    value = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(value)):
        raise ValueError(f"flux bias must be finite, got {f}")
    return float(value) if value.ndim == 0 else value
