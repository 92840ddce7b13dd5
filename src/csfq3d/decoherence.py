"""Forward models for the decoherence channels of the 3D c-shunt flux qubit:
quasiparticle-limited relaxation, thermal-photon dephasing with the closed-form
effective temperature of the attenuation chain, 1/omega flux-noise dephasing,
and coherence decay envelopes.

Rate conventions (documented per function, never mixed inside one formula):

- flux-noise dephasing uses angular frequency derivatives
  (|d omega01/d f| in GHz converted by 2 pi 1e9)
- thermal-photon dephasing and everything involving kappa/chi uses cyclic
  rates (MHz * 1e6 as s^-1), the convention that reproduces the
  millisecond-scale times quoted for this device
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CONSTANTS, QubitParams, microev_to_joule

class QuasiparticleValidityWarning(UserWarning):
    """hbar omega01 or k_B T is not small against the superconducting gap."""


@dataclass(frozen=True)
class QuasiparticleEnv:
    """Quasiparticle environment: normalized density x_qp (dimensionless),
    superconducting gap Delta0 (micro-eV), Cooper-pair density n_cp (um^-3)."""

    x_qp: float
    Delta0: float = 200.0  # superconducting gap of a thin aluminium film
    n_cp: float = 4.9e6  # Cooper-pair density of thin-film aluminium

    def __post_init__(self) -> None:
        if self.x_qp < 0.0:
            raise ValueError(f"x_qp must be non-negative, got {self.x_qp}")
        if not microev_to_joule(self.Delta0) > 0.0:  # the rates divide by the gap in J
            raise ValueError(f"Delta0 = {self.Delta0} ueV must be positive, not underflow to 0 J")
        if self.n_cp <= 0.0:
            raise ValueError(f"n_cp must be positive, got {self.n_cp} um^-3")

    @property
    def n_qp(self) -> float:
        """Absolute quasiparticle density x_qp * 2 n_cp, um^-3."""
        return self.x_qp * 2.0 * self.n_cp


@dataclass(frozen=True)
class AttenuationChain:
    """Thermal radiation sources seen by the cavity: (temperature K, weight)
    stages, where each weight is the net power attenuation between that stage
    and the cavity.  The cavity sees the weighted mean Bose occupation of the
    stages, so only weight ratios matter; see effective_temperature."""

    stages: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("attenuation chain needs at least one stage")
        for temperature, weight in self.stages:
            if not 0.0 < temperature < math.inf:
                raise ValueError(f"stage temperature must be finite and positive, "
                                 f"got {temperature} K")
            if not 0.0 <= weight < math.inf:
                raise ValueError(f"stage weight must be finite and non-negative, got {weight}")
        if sum(weight for _, weight in self.stages) <= 0.0:
            raise ValueError("all attenuation weights are zero")


@dataclass(frozen=True)
class FluxNoise:
    """1/omega flux noise S(omega) = A_Phi/omega with amplitude A_Phi in
    Phi_0^2 (e.g. (1.8e-6)^2 for 1.8 micro-Phi_0) and an infrared cutoff in rad/s."""

    A_Phi: float
    omega_ir: float = 2.0 * math.pi / 2.45  # 2 pi / (2.45 s single-point acquisition time)

    def __post_init__(self) -> None:
        if self.A_Phi < 0.0:
            raise ValueError(f"A_Phi must be non-negative, got {self.A_Phi}")
        if self.omega_ir <= 0.0:
            raise ValueError(f"omega_ir must be positive, got {self.omega_ir}")


def _bessel_k0e(x: float) -> float:
    """exp(x) K0(x), x > 0, finite over the whole positive double range.

    Trapezoid rule on exp(x) K0(x) = integral_0^inf exp(-(s sinh(t/2))^2) dt,
    s = sqrt(2) sqrt(x), cut at top = 2 asinh(sqrt(40)/s), where the integrand
    has fallen to e^-40, with 64 + floor(4 top) points and halved end weights.
    The integrand is even and analytic in t, so the rule converges
    geometrically in the step (Trefethen & Weideman, SIAM Rev. 56, 385
    (2014)).  The s sinh(t/2) form neither overflows at the ends of the
    double range, as 2x sinh^2(t/2) would, nor cancels at large x, as
    x (cosh t - 1) would.
    """
    s = math.sqrt(2.0) * math.sqrt(x)
    top = 2.0 * math.asinh(math.sqrt(40.0) / s)
    t, step = np.linspace(0.0, top, 64 + int(4.0 * top), retstep=True)
    values = np.exp(-np.square(s * np.sinh(0.5 * t)))
    return float(step * (values.sum() - 0.5 * (values[0] + values[-1])))


def qp_relaxation_rate(q: QubitParams, omega01_ghz: float, env: QuasiparticleEnv,
                       temperature_k: float,
                       matrix_elements: tuple[float, float]) -> float:
    """Quasiparticle relaxation rate Gamma = 1/T1 in s^-1 across the three
    junctions: the non-equilibrium rate, linear in x_qp, plus the equilibrium
    downward rate and its detailed-balance upward partner, free of x_qp.

    matrix_elements is (m_large, m_small): |<0|sin(phi_j/2)|1>| for the two
    large junctions (at E_J each) and the small one (at alpha E_J); either
    the analytic estimates or numeric grid values can be supplied.

    Junction energies enter as angular frequencies E_J/hbar.  Valid for
    hbar omega01 and k_B T small against the gap; warns otherwise.
    """
    if temperature_k <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_k} K")
    m_large, m_small = matrix_elements
    gap_j = microev_to_joule(env.Delta0)
    hbar_omega = CONSTANTS.hbar * 2.0 * math.pi * omega01_ghz * 1e9
    kt = CONSTANTS.k_B * temperature_k
    # a tiny positive input can underflow either energy to 0, which both divide
    if kt == 0.0:
        raise ValueError(f"temperature {temperature_k} K underflows k_B T to 0")
    if hbar_omega == 0.0:
        raise ValueError(f"omega01 = {omega01_ghz} GHz underflows hbar omega01 to 0")
    if hbar_omega > 0.25 * gap_j or kt > 0.25 * gap_j:
        warnings.warn(
            "quasiparticle model assumes hbar*omega01 and k_B*T << Delta0; "
            f"ratios are {hbar_omega / gap_j:.2f} and {kt / gap_j:.2f}",
            QuasiparticleValidityWarning,
            stacklevel=2,
        )
    # sum over junctions: |m_j|^2 E_J^(j)/hbar, as an angular rate
    a_sum = (2.0 * m_large**2 * q.E_J + m_small**2 * q.alpha * q.E_J) * 1e9 * 2.0 * math.pi
    neq = a_sum * (8.0 / math.pi) * env.x_qp * math.sqrt(2.0 * gap_j / hbar_omega)
    x = hbar_omega / (2.0 * kt)
    eq_down = a_sum * (16.0 / math.pi) * math.exp(-gap_j / kt) * _bessel_k0e(x)
    eq_up = eq_down * math.exp(-2.0 * x)
    return neq + eq_down + eq_up


def thermal_voltage_psd(omega_ghz: float, temperature_k: float) -> float:
    """Quantum Johnson noise power spectral density of an R = 50 Ohm resistor,
    V^2/Hz: 4 k_B T R (hbar omega/k_B T)/(exp(hbar omega/k_B T) - 1), 4 k_B T R
    where that ratio is 0; strictly increasing in T.  omega_ghz is a cyclic frequency."""
    if temperature_k <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_k} K")
    x = CONSTANTS.h / CONSTANTS.k_B * (omega_ghz * 1e9) / temperature_k  # no subnormal h f
    if x > 700.0:  # noise power underflows double precision
        return 0.0
    return 4.0 * CONSTANTS.k_B * temperature_k * 50.0 * (x / math.expm1(x) if x else 1.0)


def effective_temperature(chain: AttenuationChain, omega_c_ghz: float) -> float:
    """Temperature whose resistor noise matches the weighted chain noise, K.

    The Johnson noise S(omega_c, T) is proportional to the Bose occupation
    n(omega_c, T), so T_eff = (h f/k_B)/ln(1 + 1/nbar) in closed form, with
    nbar = sum_i A_i n(omega_c, T_i) / sum_i A_i; only weight ratios matter.
    Below the 1 mK floor (or when nbar underflows to zero) the floor is
    returned with a warning; an nbar so large that ln(1 + 1/nbar) underflows
    to 0 (an infinite nbar) is a ValueError.
    """
    if not 0.0 < omega_c_ghz * 1e9 < math.inf:
        raise ValueError(f"cavity frequency must be positive and finite, got {omega_c_ghz} GHz")
    total_weight = sum(weight for _, weight in chain.stages)
    nbar = sum(
        weight * thermal_photon_population(omega_c_ghz, temperature)
        for temperature, weight in chain.stages
    ) / total_weight
    divisor = math.log1p(1.0 / nbar) if nbar else math.inf
    if not divisor > 0.0:
        raise ValueError(f"mean thermal occupation {nbar:.3g} underflows "
                         "ln(1 + 1/nbar), the divisor of T_eff, to 0")
    t_eff = CONSTANTS.h / CONSTANTS.k_B * (omega_c_ghz * 1e9) / divisor
    if t_eff < 1e-3:
        warnings.warn(
            "effective temperature lies below the 1 mK floor; returning 1 mK",
            UserWarning,
            stacklevel=2,
        )
        return 1e-3
    return t_eff


def thermal_photon_population(omega_c_ghz: float, temperature_k: float) -> float:
    """Bose occupation 1/(exp(hbar omega_c/k_B T) - 1) at the cavity frequency;
    0, the T -> 0 limit, where T is not positive, and infinite, the classical
    limit's, where even h f/k_B T formed from h/k_B is 0."""
    if not temperature_k > 0.0:
        return 0.0
    x = CONSTANTS.h / CONSTANTS.k_B * (omega_c_ghz * 1e9) / temperature_k  # no subnormal h f
    if x > 700.0:  # population underflows double precision
        return 0.0
    return 1.0 / math.expm1(x) if x else math.inf


def thermal_dephasing_rate(kappa_mhz: float, chi_mhz: float, nbar: float) -> float:
    """Thermal-photon dephasing rate kappa^2/(kappa^2 + 4 chi^2) * 4 chi^2/kappa * nbar.

    kappa and chi are cyclic MHz and enter as cyclic rates (MHz * 1e6 as
    s^-1), matching the cqed module convention.
    """
    if kappa_mhz <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa_mhz} MHz")
    k2 = kappa_mhz * kappa_mhz
    c2 = 4.0 * chi_mhz * chi_mhz
    return k2 / (k2 + c2) * (c2 / kappa_mhz) * 1e6 * nbar


def flux_dephasing_rates(noise: FluxNoise, domega01_df_ghz: float,
                         ramsey_time_s: float) -> tuple[float, float]:
    """Pure dephasing rates (Gamma_E, Gamma_R) in s^-1 from 1/omega flux noise.

    Gamma_E = sqrt(A_Phi ln 2) |d omega01/d f| and
    Gamma_R = sqrt(A_Phi ln(1/(omega_ir t))) |d omega01/d f|, with the flux
    derivative supplied in cyclic GHz per unit flux and converted to angular
    rad/s internally.  The Ramsey rate needs 0 < omega_ir * t < 1; their ratio
    sqrt(ln(1/(omega_ir t))/ln 2) is independent of both A_Phi and the
    derivative.
    """
    product = noise.omega_ir * ramsey_time_s
    if not 0.0 < product < 1.0:
        raise ValueError(f"omega_ir * t = {noise.omega_ir:.3g} rad/s * {ramsey_time_s!r} s = "
                         f"{product:.3g}, not in (0, 1): Ramsey log factor undefined")
    derivative = abs(domega01_df_ghz) * 2.0 * math.pi * 1e9
    gamma_echo = math.sqrt(noise.A_Phi * math.log(2.0)) * derivative
    gamma_ramsey = math.sqrt(noise.A_Phi * math.log(1.0 / product)) * derivative
    return gamma_echo, gamma_ramsey


def decay_envelope(t, t1_s: float, gamma_phi: float, shape: str = "gaussian"):
    """Coherence decay envelope exp(-t/2T1) times the pure-dephasing factor.

    shape "gaussian" uses exp(-(Gamma_phi t)^2), "exponential" uses
    exp(-Gamma_phi t).  Accepts scalar or array t (seconds); values lie in
    [0, 1] and decrease monotonically.
    """
    if t1_s <= 0.0:
        raise ValueError(f"T1 must be positive, got {t1_s}")
    if gamma_phi < 0.0:
        raise ValueError(f"Gamma_phi must be non-negative, got {gamma_phi}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("times must be non-negative")
    with np.errstate(over="ignore"):  # t/2T1 past the double range: the limit 0
        relax = np.exp(-t / (2.0 * t1_s))
    if shape == "gaussian":
        dephase = np.exp(-((gamma_phi * t) ** 2))
    elif shape == "exponential":
        dephase = np.exp(-gamma_phi * t)
    else:
        raise ValueError(f"unknown envelope shape {shape!r}")
    result = relax * dephase
    return float(result) if result.ndim == 0 else result
