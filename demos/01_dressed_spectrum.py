"""Eigenstructure of a slow qubit ultra-strongly coupled to an oscillator.

The spectrum organizes into two interleaved harmonic ladders of entangled
states |Psi_N^+->.  This demo builds them, compares their energies with the
exact dense diagonalization and with the dispersive (Schrieffer-Wolff)
Hamiltonian, and prints the ladder frequencies of both descriptions.
"""

import numpy as np

from dressedrabi import (
    RabiParams,
    SpaceDims,
    build_basis,
    exact_spectrum,
    fidelity_comparison,
)
from dressedrabi.schrieffer_wolff import sw_frequencies

p = RabiParams(omega=1.0, omega0=0.15, beta=0.1)
dims = SpaceDims(40)

basis = build_basis(p, n_levels=6, dims=dims, energy_mode="exact_overlap")
print(f"ladder frequencies: omega_- = {basis.omega_minus:.6f}, omega_+ = {basis.omega_plus:.6f}")
print(f"pair splittings omega_tilde_N: {np.round(basis.omega_tilde, 6)}")
print()

# one table: exact energy, dressed energy, dispersive energy, per paired state
comparison = fidelity_comparison(p, n_states=12, dims=dims)
print(f"{'state':>8} {'E_exact':>12} {'E_dressed':>12} {'E_dispersive':>13} {'fid_dressed':>12}")
for row in comparison.rows:
    label = f"{row.n_label}{row.sector_label}"
    print(
        f"{label:>8} {row.energy_exact:12.6f} {row.energy_adiabatic:12.6f}"
        f" {row.energy_sw:13.6f} {row.f_adiabatic:12.8f}"
    )

spec = exact_spectrum(p, dims, keep=12)
print(f"\nall 12 lowest eigenpairs truncation-converged: {bool(spec.converged.all())}")

omega_sw_plus, omega_sw_minus = sw_frequencies(p)
print(
    "dispersive ladder frequencies agree with omega -+ 2 omega0 beta^2 to "
    f"{max(abs(omega_sw_plus - basis.omega_plus), abs(omega_sw_minus - basis.omega_minus)):.2e}"
)
