"""Pumping the lower dressed ladder into a coherent steady state.

With the pump resonant on the lower ladder, all population ends up there
and the steady state is a coherent state of dressed states with amplitude
alpha_- = Omega_p / (i Gamma/2 - Delta_-), so the steady excitation number
is 4 Omega_p^2 / Gamma^2 on resonance.
"""

import os

# one OpenBLAS thread, as the CLI runs; OpenBLAS reads this once, when numpy loads it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from dressedrabi import (
    RabiParams,
    RateFunctions,
    SpaceDims,
    build_basis,
    coherent_dressed_ket,
    driven_rotating_dme,
    observables,
    steady_state_nullspace,
)

p = RabiParams(omega=1.0, omega0=0.3, beta=0.1)
dims = SpaceDims(40)
gamma_big = 3 * p.omega0 * p.beta**2 / 5
kappa = gamma_big / 6
rates = RateFunctions.flat(gamma_big, kappa - 4 * p.beta**2 * gamma_big, gamma_f=gamma_big / 3)

basis = build_basis(p, n_levels=12, dims=dims, energy_mode="truncated")
print(f"pump locked to the lower ladder at omega_- = {basis.omega_minus:.6f}")
print(f"{'Omega_p/Gamma':>14} {'N_ss':>10} {'4 Op^2/G^2':>11} {'fid(|alpha_->)':>15} {'sector_+':>10}")
for scale in (0.25, 0.5, np.sqrt(2) / 2, 1.0):
    amp = scale * gamma_big
    me = driven_rotating_dme(basis, rates, amp, basis.omega_minus)
    ss = steady_state_nullspace(me)
    obs = observables(ss.rho, basis)
    alpha = amp / (1j * gamma_big / 2)
    ket = coherent_dressed_ket(basis, alpha, "-")
    fid = np.real(ket.conj() @ ss.rho @ ket)
    print(
        f"{scale:14.3f} {obs['n_total']:10.6f} {4 * amp**2 / gamma_big**2:11.6f}"
        f" {fid:15.8f} {obs['sector_plus']:10.2e}"
    )
print("\n(the N_ss offsets come from the dephasing channel, plus ladder truncation"
      " once the coherent state reaches the top retained rungs)")
