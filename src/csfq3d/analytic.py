"""Perturbative single-well model of the c-shunt flux qubit.

Treats the soft phase mode as a harmonic oscillator with kinetic energy set
by the shunt charging energy E_CS and quadratic stiffness E_J(1 - 2 alpha),
plus the quartic correction at first order.  Valid near the optimal point
when E_J(1 - 2 alpha)/E_CS >> 1; :func:`validity_ratio` warns in the
regime where the expansion degrades.
"""

from __future__ import annotations

import math
import warnings

from .core import QubitParams, normalized_flux

#: ratio E_J(1-2 alpha)/E_CS below which the perturbative expansion is suspect
VALIDITY_RATIO_FLOOR = 20.0


class PerturbativeValidityWarning(UserWarning):
    """Perturbative expansion applied outside its comfortable regime."""


def gap(q: QubitParams) -> float:
    """Qubit gap at the optimal point, GHz.

    sqrt(4 E_CS E_J (1-2 alpha)) plus the first-order quartic shift
    (8 alpha - 1)/(4(1 - 2 alpha)) E_CS.
    """
    e_cs = q.E_CS
    stiffness = q.E_J * (1.0 - 2.0 * q.alpha)
    return math.sqrt(4.0 * e_cs * stiffness) + anharmonicity(q)


def anharmonicity(q: QubitParams) -> float:
    """First-order anharmonicity (E2 - E1) - (E1 - E0), GHz."""
    return (8.0 * q.alpha - 1.0) / (4.0 * (1.0 - 2.0 * q.alpha)) * q.E_CS


def epsilon_slope(q: QubitParams) -> float:
    """Slope of the flux-induced energy shift, GHz per unit normalized flux."""
    ratio = q.E_CS / (q.E_J * (1.0 - 2.0 * q.alpha))
    return 2.0 * math.sqrt(2.0) * math.pi * q.alpha * q.E_J * ratio**0.25


def epsilon(q: QubitParams, f) -> float:
    """Flux-induced energy shift, GHz; linear in (f - 0.5) and zero at the optimal point."""
    return epsilon_slope(q) * (normalized_flux(f) - 0.5)


def omega01(q: QubitParams, f) -> float:
    """Qubit transition frequency Delta + 2 eps^2/Delta, GHz; minimum at f = 0.5."""
    delta = gap(q)
    eps = epsilon(q, f)
    return delta + 2.0 * eps * eps / delta


def domega01_df(q: QubitParams, f) -> float:
    """Analytic flux derivative of omega01, GHz per unit normalized flux."""
    slope = epsilon_slope(q)
    return 4.0 * slope * slope * (normalized_flux(f) - 0.5) / gap(q)


def junction_matrix_elements(q: QubitParams) -> tuple[float, float]:
    """Perturbative |<0|sin(phi/2)|1>| estimates for the large and small junctions.

    The small-junction value (1/4) sqrt(E_CS/(E_J(1-2 alpha))) equals twice the
    square of the large-junction one; a magnitude estimate only, to compare with
    the shift |<1|cos phi_m|1> - <0|cos phi_m|0>|/2, since <0|cos phi_m|1> vanishes
    by parity at f = 0.5.  :func:`csfq3d.numeric.one_well_element` gives both on a 2D solve.
    """
    ratio = q.E_CS / (q.E_J * (1.0 - 2.0 * q.alpha))
    m_large = ratio**0.25 / (2.0 * math.sqrt(2.0))
    m_small = 0.25 * math.sqrt(ratio)
    return m_large, m_small


def validity_ratio(q: QubitParams) -> float:
    """E_J(1 - 2 alpha)/E_CS, the inverse expansion parameter.

    Warns below VALIDITY_RATIO_FLOOR, where the quartic and higher
    cosine-expansion terms are no longer small.
    """
    ratio = q.E_J * (1.0 - 2.0 * q.alpha) / q.E_CS
    if ratio < VALIDITY_RATIO_FLOOR:
        warnings.warn(
            f"E_J(1-2 alpha)/E_CS = {ratio:.1f} < {VALIDITY_RATIO_FLOOR:.0f}: "
            "perturbative spectrum is unreliable",
            PerturbativeValidityWarning,
            stacklevel=2,
        )
    return ratio
