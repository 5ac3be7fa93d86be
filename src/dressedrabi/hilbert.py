"""Truncated-Fock-space operator algebra for one qubit coupled to one oscillator.

All operators are dense complex numpy arrays on the joint space
qubit (x) oscillator, with the qubit index slowest: a joint operator is
``np.kron(q, o)`` for a 2x2 qubit matrix ``q`` and an n_cut x n_cut
oscillator matrix ``o``.  Qubit basis: index 0 = |e>, index 1 = |g>,
so sigma_z = diag(+1, -1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "SpaceDims",
    "osc_annihilation",
    "osc_displacement",
    "annihilation",
    "qubit_op",
    "sigma_x_eigenket",
    "displaced_fock",
    "laguerre",
    "max_abs",
    "hermiticity_defect",
    "trace_distance",
]


@dataclass(frozen=True)
class SpaceDims:
    """Truncation of the joint Hilbert space: oscillator Fock states |0>..|n_cut-1>."""

    n_cut: int

    def __post_init__(self):
        if self.n_cut < 2:
            raise ValueError(f"n_cut must be >= 2, got {self.n_cut}")

    @property
    def total_dim(self) -> int:
        return 2 * self.n_cut


def osc_annihilation(n_cut: int) -> np.ndarray:
    """Oscillator lowering operator on the bare Fock factor: <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, n_cut, dtype=float)), 1).astype(complex)


def annihilation(dims: SpaceDims) -> np.ndarray:
    """Joint-space oscillator lowering operator (identity on the qubit factor)."""
    return np.kron(np.eye(2, dtype=complex), osc_annihilation(dims.n_cut))


_PAULI = {
    "sigma_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "sigma_z": np.array([[1, 0], [0, -1]], dtype=complex),
    "sigma_plus": np.array([[0, 1], [0, 0]], dtype=complex),
    "sigma_minus": np.array([[0, 0], [1, 0]], dtype=complex),
}


def qubit_op(which: str, dims: SpaceDims) -> np.ndarray:
    """Qubit operator tensored with the oscillator identity.

    ``which`` is one of sigma_x, sigma_z, sigma_plus, sigma_minus.
    Convention: sigma_z|e> = +|e>, sigma_z|g> = -|g>.
    """
    try:
        q = _PAULI[which]
    except KeyError:
        raise ValueError(f"unknown qubit operator {which!r}; choose from {sorted(_PAULI)}")
    return np.kron(q, np.eye(dims.n_cut, dtype=complex))


def sigma_x_eigenket(m: int) -> np.ndarray:
    """Qubit sigma_x eigenstate |m=+1> or |m=-1>: (|e> + m|g>)/sqrt(2)."""
    if m not in (+1, -1):
        raise ValueError("m must be +1 or -1")
    return np.array([1.0, m], dtype=complex) / np.sqrt(2.0)


def osc_displacement(alpha: complex, n_cut: int) -> np.ndarray:
    """Displacement operator exp(alpha a^dag - alpha* a) on the truncated Fock factor.

    The exact matrix exponential of the anti-Hermitian truncated generator, so
    unitary to rounding.  Truncation error sits in the high-Fock columns D|n>,
    n near n_cut, which a second run at a larger n_cut measures; a warning is
    emitted when 4 |alpha|^2 >= n_cut, a displacement too large for the
    truncation.
    """
    a = osc_annihilation(n_cut)
    dop = expm(alpha * a.conj().T - np.conjugate(alpha) * a)
    if 4.0 * abs(alpha) ** 2 >= n_cut:
        warnings.warn(
            f"displacement |alpha|={abs(alpha):.3g} is large for n_cut={n_cut}; "
            "increase the truncation",
            stacklevel=2,
        )
    return dop


def displaced_fock(n: int, m: int, beta: float, dims: SpaceDims) -> np.ndarray:
    """Displaced Fock state D(-m beta)|n> of the oscillator (the bare oscillator ket).

    ``m`` = +1 or -1 selects the conditional displacement sign.
    """
    if not 0 <= n < dims.n_cut:
        raise IndexError(f"Fock index {n} outside 0..{dims.n_cut - 1}")
    if m not in (+1, -1):
        raise ValueError("m must be +1 or -1")
    return osc_displacement(-m * beta, dims.n_cut)[:, n].copy()


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x) by the three-term recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lk_minus, lk = 1.0, 1.0 - x
    if n == 0:
        return lk_minus
    for k in range(1, n):
        lk_minus, lk = lk, ((2 * k + 1 - x) * lk - k * lk_minus) / (k + 1)
    return lk


# ---------------------------------------------------------------------------
# generic algebra helpers


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry; the element-wise matrix norm used throughout."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermiticity_defect(a: np.ndarray) -> float:
    return max_abs(a - a.conj().T)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance (1/2)||rho - sigma||_1 between two Hermitian matrices."""
    diff = 0.5 * ((rho - sigma) + (rho - sigma).conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
