"""Thermal steady states, detailed balance, and the validity window.

With both baths at temperature T the dressed master equation relaxes to the
Gibbs state over the dressed spectrum, and every up/down jump pair obeys
rate_up / rate_down = exp(-nu/T).  The last block prints the regime
diagnostics: how far the parameters sit from the quasi-degenerate,
weak-coupling, and secular bounds, and how the damping rates would shift if
the bath spectrum were frequency dependent (they are evaluated at the
coupling-dependent dressed frequencies).
"""

import math
import os

# one OpenBLAS thread, as the CLI runs; OpenBLAS reads this once, when numpy loads it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from dressedrabi import (
    RabiParams,
    RateFunctions,
    SpaceDims,
    build_basis,
    finite_temperature_dme,
    gibbs_state,
    observables,
    steady_state_nullspace,
    validity_report,
)
from dressedrabi.hilbert import trace_distance

p = RabiParams(omega=1.0, omega0=0.3, beta=0.1)
dims = SpaceDims(40)
basis = build_basis(p, n_levels=12, dims=dims, energy_mode="truncated")

for temperature in (0.1, 0.5):
    rates = RateFunctions.flat(0.0018, 0.0002, temperature=temperature)
    me = finite_temperature_dme(basis, rates)
    ss = steady_state_nullspace(me)
    gb = gibbs_state(basis, temperature)
    obs = observables(ss.rho, basis)
    print(
        f"T = {temperature}: N_ss = {obs['n_total']:.6f}, upper-sector weight "
        f"{obs['sector_plus']:.6f}, distance to Gibbs {trace_distance(ss.rho, gb):.2e}"
    )
    pair = [t for t in me.jumps if t.label.startswith("cross_0")]
    down, up = pair[0], pair[1]
    print(
        f"   cross-pair rates: down {down.rate:.3e}, up {up.rate:.3e}, "
        f"ratio {up.rate / down.rate:.6f} = exp(-nu/T) = "
        f"{math.exp(-down.frequency / temperature):.6f}"
    )

print("\nvalidity diagnostics at the working point:")
rep = validity_report(p, 12, RateFunctions.flat(0.0018, 0.0002, gamma_f=0.0006))
print(f"   quasi-degenerate: {rep.quasi_degenerate} (margin {rep.qubit_margin:+.3f} omega)")
print(f"   coupling window:  {rep.beta_ok} (margin {rep.beta_margin:+.3f})")
print(f"   ladder bound:     N << {rep.n_max}")
print(f"   secular margin:   {rep.secular_margin:.1f}x")

# the damping rates enter at dressed frequencies, so they tune with beta
def ohmic(w):
    return 0.002 * w

print("\noscillator damping evaluated at the coupling-shifted ladder frequencies:")
for beta in (0.0, 0.1, 0.2):
    if beta == 0.0:
        wm = wp = 1.0
    else:
        b = build_basis(RabiParams(1.0, 0.3, beta), 3, dims)
        wm, wp = b.omega_minus, b.omega_plus
    print(f"   beta = {beta}: Gamma(omega_-) = {ohmic(wm):.6e}, Gamma(omega_+) = {ohmic(wp):.6e}")
