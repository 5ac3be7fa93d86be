"""Dressed-state master equation toolkit for the quasi-degenerate Rabi model.

A qubit far red-detuned from an oscillator and coupled beyond the
rotating-wave regime organizes into two dressed harmonic ladders.  This
package builds that eigenstructure, derives the matching master equation
(whose zero-temperature steady state is the true interacting ground state,
unlike the bare-operator master equation), and simulates driven steady
states and two-tone spectroscopy of the ladder splittings.
"""

__version__ = "0.1.0"

from .hilbert import SpaceDims
from .rabi import RabiParams, exact_spectrum, ground_state, rabi_hamiltonian
from .adiabatic import (
    DressedBasis,
    build_basis,
    displaced_overlap,
    validity_report,
)
from .schrieffer_wolff import (
    fidelity_comparison,
    sw_eigensystem,
    sw_generator,
    sw_hamiltonian,
)
from .lindblad import (
    MasterEquation,
    RateFunctions,
    driven_rotating_dme,
    finite_temperature_dme,
    gibbs_state,
    standard_master_equation,
    zero_temperature_dme,
)
from .dynamics import (
    NumericsError,
    SteadyState,
    Trajectory,
    coherent_dressed_ket,
    evolve,
    observables,
    steady_state_nullspace,
    steady_state_timeaveraged,
)
from .spectroscopy import (
    ScanResult,
    SpectroscopyConfig,
    default_scan_grid,
    dissipated_power,
    local_maxima,
    predicted_resonances,
    pump_family,
    run_scan,
)

__all__ = [
    "__version__",
    "SpaceDims",
    "RabiParams",
    "rabi_hamiltonian",
    "exact_spectrum",
    "ground_state",
    "DressedBasis",
    "build_basis",
    "displaced_overlap",
    "validity_report",
    "sw_hamiltonian",
    "sw_generator",
    "sw_eigensystem",
    "fidelity_comparison",
    "MasterEquation",
    "RateFunctions",
    "standard_master_equation",
    "zero_temperature_dme",
    "finite_temperature_dme",
    "gibbs_state",
    "driven_rotating_dme",
    "NumericsError",
    "Trajectory",
    "SteadyState",
    "evolve",
    "observables",
    "steady_state_nullspace",
    "steady_state_timeaveraged",
    "coherent_dressed_ket",
    "ScanResult",
    "SpectroscopyConfig",
    "default_scan_grid",
    "predicted_resonances",
    "dissipated_power",
    "run_scan",
    "pump_family",
    "local_maxima",
]
