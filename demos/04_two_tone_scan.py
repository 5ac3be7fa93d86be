"""Two-tone spectroscopy: reading the ladder splittings off the dissipated power.

A weak probe scanned below the qubit frequency steals population from the
pumped lower ladder whenever it hits a pair splitting
omega_tilde_N = omega0 (1 - 2 beta^2 - 4 N beta^2), i.e. at normalized
detunings (omega0 - omega_s)/(2 omega0 beta^2) = 1, 3, 5, ...  Stronger
pumps occupy higher rungs, so the higher-N dips take over.

This demo uses a coarsened grid so it finishes in about a second; the CLI
`spectroscopy` subcommand runs the full 241-point family.
"""

import os

# one OpenBLAS thread, as the CLI runs; OpenBLAS reads this once, when numpy loads it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from dressedrabi import (
    RabiParams,
    RateFunctions,
    SpectroscopyConfig,
    dissipated_power,
    local_maxima,
    predicted_resonances,
    pump_family,
)
from dressedrabi.spectroscopy import default_scan_grid

p = RabiParams(omega=1.0, omega0=0.3, beta=0.1)
gamma_big = 3 * p.omega0 * p.beta**2 / 5
kappa = gamma_big / 6
rates = RateFunctions.flat(gamma_big, kappa - 4 * p.beta**2 * gamma_big, gamma_f=gamma_big / 3)

print("predicted probe resonances:", np.round(predicted_resonances(p, 4), 6))

grid = default_scan_grid(p, n_points=97, span=(0.0, 8.0))
cfg = SpectroscopyConfig(
    params=p,
    rates=rates,
    pump_amp=gamma_big / 2,
    spec_amp=kappa,
    omega_s_grid=grid,
    n_levels=12,
)
baselines = (0.5, 1.0, 2.0)
family = pump_family(cfg, [gamma_big / 2 * np.sqrt(b) for b in baselines])

norm = 2 * p.omega0 * p.beta**2
for res in family:
    u = (p.omega0 - res.omega_s) / norm
    peaks = local_maxima(u, res.percent_reduction, threshold=0.03 * res.percent_reduction.max())
    print(f"\npump with baseline N_ss = {res.metadata['label_n_ss']:.1f} "
          f"(measured {res.baseline_n_ss:.4f}):")
    for x, y in peaks:
        power_drop = dissipated_power(res.baseline_n_ss * y / 100, res.metadata["pump_freq"], gamma_big)
        print(f"   dip at u = {x:5.2f}  reduction {y:7.4f}%  power drop {power_drop:.3e}")
print("\nhigher pumps: the u=1 dip fades while u=5 takes over, mapping the ladder")
