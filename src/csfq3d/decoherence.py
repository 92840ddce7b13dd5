"""Forward models for the decoherence channels of the 3D c-shunt flux qubit:
quasiparticle-limited relaxation, thermal-photon dephasing with its
effective-temperature solver, 1/omega flux-noise dephasing, and coherence
decay envelopes.

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

#: infrared cutoff 2 pi / (2.45 s single-point acquisition time), rad/s
DEFAULT_OMEGA_IR = 2.0 * math.pi / 2.45

#: Cooper-pair density of thin-film aluminium, um^-3
DEFAULT_N_CP = 4.9e6

#: superconducting gap of a thin aluminium film, micro-eV
DEFAULT_GAP_UEV = 200.0


class QuasiparticleValidityWarning(UserWarning):
    """hbar omega01 or k_B T is not small against the superconducting gap."""


@dataclass(frozen=True)
class QuasiparticleEnv:
    """Quasiparticle environment: normalized density x_qp (dimensionless),
    superconducting gap Delta0 (micro-eV), Cooper-pair density n_cp (um^-3)."""

    x_qp: float
    Delta0: float = DEFAULT_GAP_UEV
    n_cp: float = DEFAULT_N_CP

    def __post_init__(self) -> None:
        if self.x_qp < 0.0:
            raise ValueError(f"x_qp must be non-negative, got {self.x_qp}")
        if self.Delta0 <= 0.0:
            raise ValueError(f"Delta0 must be positive, got {self.Delta0} ueV")
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
    and the cavity.  Only weight ratios matter; see effective_temperature."""

    stages: tuple[tuple[float, float], ...]
    resistance: float = 50.0

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("attenuation chain needs at least one stage")
        for temperature, weight in self.stages:
            if temperature <= 0.0:
                raise ValueError(f"stage temperature must be positive, got {temperature} K")
            if weight < 0.0:
                raise ValueError(f"stage weight must be non-negative, got {weight}")


@dataclass(frozen=True)
class FluxNoise:
    """1/omega flux noise S(omega) = A_Phi/omega with amplitude A_Phi in
    Phi0^2 (e.g. (1.8e-6)^2 for 1.8 micro-Phi0) and an infrared cutoff in rad/s."""

    A_Phi: float
    omega_ir: float = DEFAULT_OMEGA_IR

    def __post_init__(self) -> None:
        if self.A_Phi < 0.0:
            raise ValueError(f"A_Phi must be non-negative, got {self.A_Phi}")
        if self.omega_ir <= 0.0:
            raise ValueError(f"omega_ir must be positive, got {self.omega_ir}")


# Chebyshev expansions from the Cephes bessel suite (netlib.org/cephes),
# public domain.  _K0_A: K0(x) + log(x/2) I0(x) on 0 < x <= 2, argument
# x^2 - 2; _K0_B: exp(x) sqrt(x) K0(x) on x >= 2, argument 8/x - 2;
# _I0_A: exp(-x) I0(x) on 0 <= x <= 8, argument x/2 - 2.
_K0_A = (
    1.37446543561352307156e-16,
    4.25981614279661018399e-14,
    1.03496952576338420167e-11,
    1.90451637722020886025e-9,
    2.53479107902614945675e-7,
    2.28621210311945178607e-5,
    1.26461541144692592338e-3,
    3.59799365153615016266e-2,
    3.44289899924628486886e-1,
    -5.35327393233902768720e-1,
)
_K0_B = (
    5.30043377268626276149e-18, -1.64758043015242134646e-17,
    5.21039150503902756861e-17, -1.67823109680541210385e-16,
    5.51205597852431940784e-16, -1.84859337734377901440e-15,
    6.34007647740507060557e-15, -2.22751332699166985548e-14,
    8.03289077536357521100e-14, -2.98009692317273043925e-13,
    1.14034058644448343609e-12, -4.51459788337394416547e-12,
    1.85594911495471785253e-11, -7.95748924447710747776e-11,
    3.57739728140030116597e-10, -1.69753450938905987466e-9,
    8.57403401741422608519e-9, -4.66048989768794782956e-8,
    2.76681363944501510342e-7, -1.83175552271911948767e-6,
    1.39498137188764993662e-5, -1.28495495816278026384e-4,
    1.56988388573005337491e-3, -3.14481013119645005427e-2,
    2.44030308206595545468e0,
)
_I0_A = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17,
    -2.43127984654795469359e-16, 1.71539128555513303061e-15,
    -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12,
    -1.72682629144155570723e-11, 9.67580903537323691224e-11,
    -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8,
    -2.67079385394061173391e-7, 1.11738753912010371815e-6,
    -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4,
    -5.76375574538582365885e-4, 1.63947561694133579842e-3,
    -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2,
    -9.49010970480476444210e-2, 1.71620901522208775349e-1,
    -3.04682672343198398683e-1, 6.76795274409476084995e-1,
)


def _chebyshev(x: float, coeffs) -> float:
    b0, b1, b2 = coeffs[0], 0.0, 0.0
    for c in coeffs[1:]:
        b2 = b1
        b1 = b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def bessel_k0(x: float) -> float:
    """Modified Bessel function of the second kind K0(x), x > 0.

    Chebyshev expansions split at x = 2; relative error is at machine level
    over the range used here (1e-3 to 50 and beyond).
    """
    if x <= 0.0:
        raise ValueError(f"K0 requires x > 0, got {x}")
    if x <= 2.0:
        i0 = math.exp(x) * _chebyshev(x / 2.0 - 2.0, _I0_A)
        return _chebyshev(x * x - 2.0, _K0_A) - math.log(0.5 * x) * i0
    return math.exp(-x) * _bessel_k0e(x)


def _bessel_k0e(x: float) -> float:
    """exp(x) K0(x), x > 0, finite where exp(x) alone overflows (x > 709)."""
    if x <= 2.0:
        return math.exp(x) * bessel_k0(x)
    return _chebyshev(8.0 / x - 2.0, _K0_B) / math.sqrt(x)


@dataclass(frozen=True)
class QpRateComponents:
    """Quasiparticle transition rates in s^-1: non-equilibrium (downward only)
    and the equilibrium downward/upward pair related by detailed balance."""

    nonequilibrium: float
    equilibrium_down: float
    equilibrium_up: float

    @property
    def total(self) -> float:
        return self.nonequilibrium + self.equilibrium_down + self.equilibrium_up


def qp_rate_components(q: QubitParams, omega01_ghz: float, env: QuasiparticleEnv,
                       temperature_k: float,
                       matrix_elements: tuple[float, float]) -> QpRateComponents:
    """Quasiparticle tunneling rates across the three junctions, s^-1.

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
    return QpRateComponents(nonequilibrium=neq, equilibrium_down=eq_down,
                            equilibrium_up=eq_up)


def qp_relaxation_rate(q: QubitParams, omega01_ghz: float, env: QuasiparticleEnv,
                       temperature_k: float,
                       matrix_elements: tuple[float, float]) -> float:
    """Total quasiparticle relaxation rate Gamma = 1/T1 in s^-1."""
    return qp_rate_components(q, omega01_ghz, env, temperature_k, matrix_elements).total


def thermal_voltage_psd(omega_ghz: float, temperature_k: float,
                        resistance: float = 50.0) -> float:
    """Quantum Johnson noise power spectral density of a resistor, V^2/Hz:
    4 k_B T R (hbar omega/k_B T)/(exp(hbar omega/k_B T) - 1); strictly
    increasing in T.  omega_ghz is a cyclic frequency."""
    if temperature_k <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_k} K")
    x = CONSTANTS.h * omega_ghz * 1e9 / (CONSTANTS.k_B * temperature_k)
    if x > 700.0:  # noise power underflows double precision
        return 0.0
    return 4.0 * CONSTANTS.k_B * temperature_k * resistance * x / math.expm1(x)


def effective_temperature(chain: AttenuationChain, omega_c_ghz: float) -> float:
    """Temperature whose resistor noise matches the weighted chain noise, K.

    Solves S(omega_c, T_eff) = sum_i A_i S(omega_c, T_i) / sum_i A_i by
    bisection; the weights are normalized internally so only their ratios
    matter.  The answer is bracketed by the coldest and hottest stages and
    resolved far below the guaranteed 0.01 mK tolerance.  If the target lies
    below the 1 mK search floor the floor is returned with a warning.
    """
    if omega_c_ghz <= 0.0:
        raise ValueError(f"cavity frequency must be positive, got {omega_c_ghz} GHz")
    total_weight = sum(weight for _, weight in chain.stages)
    if total_weight <= 0.0:
        raise ValueError("all attenuation weights are zero")
    target = sum(
        weight * thermal_voltage_psd(omega_c_ghz, temperature, chain.resistance)
        for temperature, weight in chain.stages
    ) / total_weight

    lo = 1e-3
    hi = max(temperature for temperature, _ in chain.stages)
    if thermal_voltage_psd(omega_c_ghz, lo, chain.resistance) >= target:
        warnings.warn(
            "chain noise target lies below the 1 mK search floor; returning 1 mK",
            UserWarning,
            stacklevel=2,
        )
        return lo
    hi = max(hi, lo * 2.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if thermal_voltage_psd(omega_c_ghz, mid, chain.resistance) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def thermal_photon_population(omega_c_ghz: float, temperature_k: float) -> float:
    """Bose occupation 1/(exp(hbar omega_c/k_B T) - 1) at the cavity frequency."""
    if temperature_k <= 0.0:
        return 0.0
    x = CONSTANTS.h * omega_c_ghz * 1e9 / (CONSTANTS.k_B * temperature_k)
    if x > 700.0:  # population underflows double precision
        return 0.0
    return 1.0 / math.expm1(x)


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
    rad/s internally.  The Ramsey rate needs omega_ir * t < 1; their ratio
    sqrt(ln(1/(omega_ir t))/ln 2) is independent of both A_Phi and the
    derivative.
    """
    product = noise.omega_ir * ramsey_time_s
    if product >= 1.0:
        raise ValueError(
            f"omega_ir * t = {product:.3g} >= 1: Ramsey log factor undefined"
        )
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
    relax = np.exp(-t / (2.0 * t1_s))
    if shape == "gaussian":
        dephase = np.exp(-((gamma_phi * t) ** 2))
    elif shape == "exponential":
        dephase = np.exp(-gamma_phi * t)
    else:
        raise ValueError(f"unknown envelope shape {shape!r}")
    result = relax * dephase
    return float(result) if result.ndim == 0 else result
