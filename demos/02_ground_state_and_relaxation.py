"""Why the bare-operator master equation fails at ultra-strong coupling.

At zero temperature the joint system must relax to the interacting ground
state |Psi_0^->.  The dressed master equation holds it exactly; the
standard one (jump operators a and sigma_-) pushes the system out of it,
toward the factorized |g,0> instead.  The two candidate ground states sit a
distance d = 1 - |<Psi_0^-|g,0>| ~ beta^2/2 apart.
"""

import math
import os
from dataclasses import replace

# one OpenBLAS thread, as the CLI runs; OpenBLAS reads this once, when numpy loads it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from dressedrabi import (
    RabiParams,
    RateFunctions,
    SpaceDims,
    build_basis,
    evolve,
    ground_state,
    standard_master_equation,
    zero_temperature_dme,
)

p = RabiParams(omega=1.0, omega0=0.3, beta=0.1)
dims = SpaceDims(40)
rates = RateFunctions.flat(0.1, 0.05)

basis = build_basis(p, n_levels=8, dims=dims, energy_mode="truncated")
dme = zero_temperature_dme(basis, rates)
# with the basis attached, evolve records the population of |Psi_0^-> as "ground"
sme = replace(standard_master_equation(p, rates, dims), basis=basis)

# dressed generator from the dressed ground state: nothing moves
rho0 = np.zeros((basis.reduced_dim, basis.reduced_dim), dtype=complex)
rho0[0, 0] = 1.0
traj = evolve(dme, rho0, t_end=30.0, dt=0.02, stride=100, exact=True, store_states=False)
print(f"DME from |Psi_0^->: final ground population {traj.observables['ground'][-1]:.12f}")

# bare generator from the exact ground state: it leaks
_, gs = ground_state(p, dims)
traj = evolve(sme, np.outer(gs, gs.conj()), t_end=30.0, dt=0.02, stride=100, exact=True, store_states=False)
fid = traj.observables["ground"]
print("SME from the exact ground state, fidelity to |Psi_0^->:")
for t, f in zip(traj.times[::3], fid[::3]):
    print(f"   t = {t:6.1f}   fidelity = {f:.8f}")

print("\ndistance between the two candidate ground states:")
print(f"{'beta':>6} {'d':>12} {'1-exp(-b^2/2)':>14} {'b^2/2':>10}")
for beta in (0.02, 0.05, 0.1, 0.15, 0.2):
    b = build_basis(RabiParams(1.0, 0.3, beta), 1, dims)
    g0 = np.zeros(dims.total_dim, dtype=complex)
    g0[dims.n_cut] = 1.0
    d = 1.0 - abs(np.vdot(b.state(0, "-"), g0))
    print(f"{beta:6.2f} {d:12.3e} {1 - math.exp(-beta**2 / 2):14.3e} {beta**2 / 2:10.3e}")
