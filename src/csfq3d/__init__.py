"""Numerical models of a capacitively shunted flux qubit in a 3D cavity:
exact and perturbative spectra, dispersive readout quantities, decoherence
channel predictions, pulse-sequence filter functions, and parameter
extraction from measured data."""

from .analytic import (
    PerturbativeValidityWarning,
    anharmonicity,
    domega01_df,
    epsilon,
    epsilon_slope,
    gap,
    junction_matrix_elements,
    omega01,
    validity_ratio,
)
from .core import (
    CONSTANTS,
    CavityParams,
    NegativeAnharmonicityWarning,
    QubitParams,
    capacitance_from_charging_energy,
    charging_energy_from_capacitance,
)
from .cqed import (
    DispersiveLimitWarning,
    DispersiveSet,
    chi_partial,
    dispersive_set,
    purcell_t1,
    total_pull,
)
from .decoherence import (
    AttenuationChain,
    FluxNoise,
    QuasiparticleEnv,
    QuasiparticleValidityWarning,
    decay_envelope,
    effective_temperature,
    flux_dephasing_rates,
    qp_relaxation_rate,
    thermal_dephasing_rate,
    thermal_photon_population,
)
from .filters import FilterSpec, cpmg_positions, filter_function
from .fit import (
    DataSeries,
    FitError,
    FitResult,
    RankDeficientDataError,
    fit_envelope,
    fit_flux_noise,
    fit_spectrum,
    fit_t1_exponential,
    fit_xqp,
)
from .numeric import (
    ConvergenceError,
    EigenResult,
    GridSpec,
    HamiltonianOperator,
    build_hamiltonian_1d,
    build_hamiltonian_2d,
    kinetic_coefficients,
    lowest_eigenpairs,
    one_well_element,
)

__version__ = "0.1.0"
