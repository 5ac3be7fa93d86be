"""Dispersive (Schrieffer-Wolff) approximation and its fidelity comparison.

Rotating the Rabi Hamiltonian by e^S with an anti-Hermitian generator S that
removes the qubit-oscillator coupling at first order yields

    H_SW = (omega0/2) sigma_z + omega a^dag a
           + omega0 (omega^2 beta^2 / (omega0^2 - omega^2)) sigma_z (a + a^dag)^2,

whose sigma_z sectors are quadratic bosonic forms with frequencies
omega_sw_+- = omega sqrt(1 -+ 4 omega omega0 beta^2/(omega^2 - omega0^2)).
Unlike the dressed-ladder construction this does not require a slow qubit,
so it serves as the competing approximation in the fidelity comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .adiabatic import build_basis
from .hilbert import SpaceDims, annihilation, qubit_op
from .rabi import RabiParams, exact_spectrum, max_overlap_pairing

__all__ = [
    "FidelityRow",
    "FidelityComparison",
    "sw_frequencies",
    "sw_hamiltonian",
    "sw_generator",
    "sw_dropped_constant",
    "sw_eigensystem",
    "fidelity_comparison",
]


def _check_regime(p: RabiParams) -> None:
    if p.omega0 == p.omega:
        raise ValueError("dispersive transformation is singular at resonance omega0 = omega")


def sw_frequencies(p: RabiParams) -> tuple[float, float]:
    """Sector frequencies (omega_sw_plus, omega_sw_minus) of the dispersive Hamiltonian."""
    _check_regime(p)
    x = 4.0 * p.omega * p.omega0 * p.beta**2 / (p.omega**2 - p.omega0**2)
    if abs(x) >= 1.0:
        raise ValueError(
            f"dispersive frequencies complex: |4 omega omega0 beta^2/(omega^2-omega0^2)| = {abs(x):.3g} >= 1"
        )
    return p.omega * math.sqrt(1.0 - x), p.omega * math.sqrt(1.0 + x)


def sw_hamiltonian(p: RabiParams, dims: SpaceDims) -> np.ndarray:
    """Dispersive effective Hamiltonian, assembled directly from its closed form."""
    _check_regime(p)
    a = annihilation(dims)
    x = a + a.conj().T
    sz = qubit_op("sigma_z", dims)
    coeff = p.omega0 * (p.omega**2 * p.beta**2 / (p.omega0**2 - p.omega**2))
    return 0.5 * p.omega0 * sz + p.omega * (a.conj().T @ a) + coeff * sz @ (x @ x)


def sw_generator(p: RabiParams, dims: SpaceDims) -> np.ndarray:
    """Anti-Hermitian generator S of the dispersive rotation.

    S = beta omega [ (a sigma_+ - a^dag sigma_-)/(omega0 - omega)
                   + (a^dag sigma_+ - a sigma_-)/(omega0 + omega) ].

    Validated by conjugation rather than provenance: e^{S} H e^{-S} equals
    the closed-form dispersive Hamiltonian up to the dropped constant
    beta^2 omega^3/(omega^2 - omega0^2) with an O(beta^3 omega) residual on
    the low-lying levels, which tests/test_schrieffer_wolff.py measures.
    """
    _check_regime(p)
    a = annihilation(dims)
    ad = a.conj().T
    sp = qubit_op("sigma_plus", dims)
    sm = qubit_op("sigma_minus", dims)
    g = p.beta * p.omega
    return g * (
        (a @ sp - ad @ sm) / (p.omega0 - p.omega)
        + (ad @ sp - a @ sm) / (p.omega0 + p.omega)
    )


def sw_dropped_constant(p: RabiParams) -> float:
    """Constant energy beta^2 omega^3/(omega^2 - omega0^2) absent from the closed form.

    The dispersive analog of the constant -omega beta^2 dropped from the
    dressed-ladder energies; restored when comparing absolute energies.
    """
    _check_regime(p)
    return p.beta**2 * p.omega**3 / (p.omega**2 - p.omega0**2)


def sw_eigensystem(p: RabiParams, dims: SpaceDims, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest dispersive eigenpairs, rotated back to the lab frame by e^S.

    Energies are absolute (dropped constant restored); states are the
    columns of e^S applied to the eigenvectors of the closed-form
    Hamiltonian.
    """
    vals, vecs = np.linalg.eigh(sw_hamiltonian(p, dims))
    rot = expm(sw_generator(p, dims))
    return vals[:keep] - sw_dropped_constant(p), rot @ vecs[:, :keep]


@dataclass
class FidelityRow:
    index: int
    energy_exact: float
    f_adiabatic: float
    f_sw: float
    n_label: int
    sector_label: str
    energy_adiabatic: float
    energy_sw: float
    ambiguous: bool


@dataclass
class FidelityComparison:
    rows: list[FidelityRow]
    mean_f_adiabatic: float
    mean_f_sw: float


def fidelity_comparison(
    p: RabiParams,
    n_states: int,
    dims: SpaceDims,
    n_levels: int | None = None,
) -> FidelityComparison:
    """Fidelities |<approx|exact>|^2 of both approximations for the lowest states.

    Each family of approximate eigenvectors (dressed ladders, and dispersive
    eigenvectors rotated back by e^S) is matched to the exact eigenvectors by
    global maximum-weight assignment on |overlap|^2; a row is flagged
    ambiguous when its greedy best-overlap candidate was claimed by another
    exact state.
    """
    if n_levels is None:
        n_levels = max(2, (n_states + 1) // 2 + 2)
    if n_states > 2 * n_levels:
        # the pairing would leave exact states without a dressed partner
        raise ValueError(f"n_states={n_states} exceeds the {2 * n_levels} dressed states of n_levels={n_levels}")
    spec = exact_spectrum(p, dims, keep=n_states)

    basis = build_basis(p, n_levels, dims, energy_mode="exact_overlap")
    ad_states = basis.isometry
    ad_energies = np.concatenate([basis.energies_minus, basis.energies_plus])
    ad_labels = [(n, "-") for n in range(n_levels)] + [(n, "+") for n in range(n_levels)]

    keep_sw = min(4 * n_levels, dims.total_dim)
    sw_energies_abs, sw_states = sw_eigensystem(p, dims, keep_sw)

    # both families hold at least n_states candidates, so exact state k is row k of each pairing
    _, cols_ad, f_ad = max_overlap_pairing(ad_states, spec.states)
    _, cols_sw, f_sw = max_overlap_pairing(sw_states, spec.states)

    ov_ad = np.abs(spec.states.conj().T @ ad_states) ** 2
    ov_sw = np.abs(spec.states.conj().T @ sw_states) ** 2

    rows = []
    for k in range(n_states):
        c_ad, c_sw = cols_ad[k], cols_sw[k]
        ambiguous = int(np.argmax(ov_ad[k])) != c_ad or int(np.argmax(ov_sw[k])) != c_sw
        n_label, sector = ad_labels[c_ad]
        rows.append(
            FidelityRow(
                index=k,
                energy_exact=float(spec.energies[k]),
                f_adiabatic=float(f_ad[k]),
                f_sw=float(f_sw[k]),
                n_label=n_label,
                sector_label=sector,
                energy_adiabatic=float(ad_energies[c_ad]),
                energy_sw=float(sw_energies_abs[c_sw]),
                ambiguous=ambiguous,
            )
        )
    return FidelityComparison(
        rows=rows,
        mean_f_adiabatic=float(np.mean([r.f_adiabatic for r in rows])),
        mean_f_sw=float(np.mean([r.f_sw for r in rows])),
    )
