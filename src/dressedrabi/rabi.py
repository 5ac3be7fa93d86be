"""Exact numerical treatment of the Rabi Hamiltonian on the truncated space.

This module is the ground truth the approximate (dressed / dispersive)
descriptions are measured against: it builds

    H = (omega0/2) sigma_z + omega a^dag a + beta omega (a + a^dag) sigma_x

with hbar = 1 and diagonalizes it densely.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    SpaceDims,
    annihilation,
    hermiticity_defect,
    max_abs,
    qubit_op,
)

__all__ = [
    "RabiParams",
    "Spectrum",
    "rabi_hamiltonian",
    "diagonalize",
    "exact_spectrum",
    "ground_state",
    "max_overlap_pairing",
]

#: validity bounds of the quasi-degenerate ultra-strong-coupling regime
MAX_QUBIT_RATIO = 0.3
MAX_COUPLING = 0.2


@dataclass(frozen=True)
class RabiParams:
    """Physical parameters: oscillator frequency, qubit splitting, coupling.

    ``beta`` is the dimensionless coupling; the interaction term is
    beta*omega*(a+a^dag)*sigma_x.  All frequencies are in units of the
    problem's frequency scale (omega = 1 is the conventional choice).
    """

    omega: float = 1.0
    omega0: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be finite and positive, got {self.omega}")
        if not 0 <= self.omega0 < math.inf:
            raise ValueError(f"omega0 must be finite and >= 0, got {self.omega0}")
        if not -math.inf < self.beta < math.inf:
            raise ValueError(f"beta must be finite, got {self.beta}")

    @property
    def quasi_degenerate(self) -> bool:
        return self.omega0 <= MAX_QUBIT_RATIO * self.omega

    @property
    def coupling_ok(self) -> bool:
        return abs(self.beta) <= MAX_COUPLING

    # -- dressed-ladder frequencies: every module reads them from here --------

    @property
    def omega_plus(self) -> float:
        """Upper-ladder spacing omega_+ = omega - 2 omega0 beta^2."""
        return self.omega - 2.0 * self.omega0 * self.beta**2

    @property
    def omega_minus(self) -> float:
        """Lower-ladder spacing omega_- = omega + 2 omega0 beta^2."""
        return self.omega + 2.0 * self.omega0 * self.beta**2

    @property
    def half_splitting(self) -> float:
        """Half the dressed-pair splitting, (omega0/2)(1 - 2 beta^2)."""
        return 0.5 * self.omega0 * (1.0 - 2.0 * self.beta**2)

    def omega_tilde(self, n_levels: int) -> np.ndarray:
        """Pair splittings omega_tilde_N = omega0 (1 - 2 beta^2 - 4 N beta^2), N < n_levels."""
        n = np.arange(n_levels)
        return self.omega0 * (1.0 - 2.0 * self.beta**2 - 4.0 * n * self.beta**2)

    def ladder_energies(self, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
        """Harmonic-ladder energies E_N^+- = N omega_+- +- (omega0/2)(1 - 2 beta^2), as (E^-, E^+)."""
        n = np.arange(n_levels)
        half = self.half_splitting
        return n * self.omega_minus - half, n * self.omega_plus + half


@dataclass
class Spectrum:
    """Eigenpairs sorted by energy; ``states`` holds eigenvectors as columns."""

    energies: np.ndarray
    states: np.ndarray
    converged: np.ndarray | None = None


def rabi_hamiltonian(p: RabiParams, dims: SpaceDims) -> np.ndarray:
    a = annihilation(dims)
    sx = qubit_op("sigma_x", dims)
    sz = qubit_op("sigma_z", dims)
    return 0.5 * p.omega0 * sz + p.omega * (a.conj().T @ a) + p.beta * p.omega * (a + a.conj().T) @ sx


def diagonalize(h: np.ndarray, keep: int | None = None) -> Spectrum:
    """Dense diagonalization of a parity-conserving joint-space Hamiltonian, lowest ``keep`` eigenpairs ascending.

    The matrix is diagonalized one sector of the parity sigma_z exp(i pi a^dag a)
    at a time, so each state is exactly zero outside its sector, degenerate pairs
    (omega0 = 0) included.  ``ValueError`` refuses a Hermiticity defect
    above 1e-12 of the largest entry (or of 1), a size that is no joint
    space (odd, or below 4), and entries between the two sectors at or above
    1e-9 of that scale.  Eigenvectors carry no phase convention.
    """
    scale = max(max_abs(h), 1.0)
    defect = hermiticity_defect(h)
    if defect > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3g}")
    h = 0.5 * (h + h.conj().T)
    n = h.shape[0]
    if n % 2 or n < 4:
        raise ValueError(f"a {n} x {n} matrix is no joint space of the qubit and >= 2 Fock states")
    even = np.kron([1.0, -1.0], (-1.0) ** np.arange(n // 2)) > 0  # the parity's diagonal
    coupling = max_abs(h[np.ix_(even, ~even)])
    if coupling >= 1e-9 * scale:
        raise ValueError(f"matrix couples the two parity sectors: largest entry {coupling:.3g}")
    (e_even, v_even), (e_odd, v_odd) = (np.linalg.eigh(h[np.ix_(sector, sector)]) for sector in (even, ~even))
    states = np.zeros((n, n), dtype=v_even.dtype)
    states[even, : e_even.size], states[~even, e_even.size :] = v_even, v_odd
    energies = np.concatenate([e_even, e_odd])
    order = np.argsort(energies, kind="stable")[:keep]
    return Spectrum(energies=energies[order], states=states[:, order])


def exact_spectrum(p: RabiParams, dims: SpaceDims, keep: int) -> Spectrum:
    """Diagonalize the Rabi Hamiltonian with a truncation-convergence check.

    Each retained eigenvalue is flagged converged only if it moves by less
    than 1e-8 omega when n_cut is raised by 10.
    """
    if keep > dims.total_dim:
        raise ValueError(f"keep={keep} exceeds the {dims.total_dim} states of the truncated space, n_cut={dims.n_cut}")
    spec = diagonalize(rabi_hamiltonian(p, dims), keep=keep)
    ref = diagonalize(rabi_hamiltonian(p, SpaceDims(dims.n_cut + 10)), keep=keep).energies
    shifts = np.abs(spec.energies - ref)
    spec.converged = shifts < 1e-8 * p.omega
    if not spec.converged.all():
        warnings.warn(
            f"{int((~spec.converged).sum())} of {keep} eigenpairs not converged "
            f"at n_cut={dims.n_cut} (max shift {shifts.max():.3g})",
            stacklevel=2,
        )
    return spec


def ground_state(p: RabiParams, dims: SpaceDims) -> tuple[float, np.ndarray]:
    spec = exact_spectrum(p, dims, keep=1)
    return float(spec.energies[0]), spec.states[:, 0]


def max_overlap_pairing(
    approx: np.ndarray, exact: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match approximate states (columns) to exact states by global max |overlap|^2.

    Returns (exact_index, approx_index, fidelity) triples solving the
    maximum-weight assignment; robust where near-degenerate pairs make
    energy-order matching ambiguous.
    """
    # imported here: scipy.optimize adds ~0.2 s and ~16 MB to every import of the package
    from scipy.optimize import linear_sum_assignment

    ov = np.abs(exact.conj().T @ approx) ** 2
    rows, cols = linear_sum_assignment(-ov)
    return rows, cols, ov[rows, cols]
