"""Dressed eigenstructure of the quasi-degenerate, strongly coupled Rabi model.

For a slow qubit the joint spectrum organizes into two interleaved harmonic
ladders of entangled qubit-oscillator states,

    |Psi_N^+-> = (|+, N_+> +- |-, N_->)/sqrt(2),

built from conditionally displaced Fock states |N_m> = D(-m beta)|N>.  The
module constructs the retained basis and, in reduced coordinates, its ladder,
projection and cross-ladder operators and the effective two-oscillator
Hamiltonian; the basis's ``isometry`` V carries any of them to the full space
as V op V^dag.

Reduced coordinates: basis states are ordered minus ladder first, then plus
ladder (index = N for |Psi_N^->, n_levels + N for |Psi_N^+>); operators in
this 2*n_levels representation are exact for anything supported on the
retained subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    SpaceDims,
    laguerre,
    osc_displacement,
    sigma_x_eigenket,
)
from .rabi import MAX_COUPLING, MAX_QUBIT_RATIO, RabiParams

__all__ = [
    "DressedBasis",
    "ValidityReport",
    "displaced_overlap",
    "n_levels_cap",
    "build_basis",
    "validity_report",
]


def displaced_overlap(n: int, beta: float) -> float:
    """Overlap <N_-|N_+> = exp(-2 beta^2) L_N(4 beta^2) of same-N displaced Fock states.

    Signed; turns negative once N beta^2 is large enough for the Laguerre
    polynomial to change sign.
    """
    return math.exp(-2.0 * beta * beta) * laguerre(n, 4.0 * beta * beta)


def _ladder_bound(beta: float, fraction: float) -> int | None:
    """floor(fraction / (2 beta)^2) rungs, or None (no bound) when that quotient is not finite.

    beta = 0 has no bound, and neither has a beta so small that (2 beta)^2
    underflows to 0 or the quotient overflows (|beta| below a few times 1e-155).
    """
    square = (2.0 * beta) ** 2
    bound = fraction / square if square else math.inf
    return int(math.floor(bound + 1e-9)) if math.isfinite(bound) else None


def n_levels_cap(beta: float) -> tuple[int | None, int | None]:
    """(hard cap 1/(8 beta^2), warning threshold 1/(20 beta^2)) on retained rungs from N << 1/(2 beta)^2."""
    return _ladder_bound(beta, 0.5), _ladder_bound(beta, 0.2)


@dataclass
class DressedBasis:
    """Retained dressed ladders {|Psi_N^+->, E_N^+-}, stored as the isometry V, and their reduced algebra."""

    params: RabiParams
    n_levels: int
    isometry: np.ndarray  # V, read-only, total_dim x 2*n_levels: every |Psi_N^->, then every |Psi_N^+>
    energies_minus: np.ndarray
    energies_plus: np.ndarray
    omega_minus: float
    omega_plus: float
    omega_tilde: np.ndarray

    @property
    def reduced_dim(self) -> int:
        return 2 * self.n_levels

    @property
    def states_minus(self) -> np.ndarray:
        """The minus-ladder columns of V, a read-only view; ``states_plus`` likewise."""
        return self.isometry[:, self.sector_block("-")]

    @property
    def states_plus(self) -> np.ndarray:
        return self.isometry[:, self.sector_block("+")]

    def sector_block(self, sector: str) -> slice:
        """Reduced indices of one ladder, minus first: ``"-"`` is 0..L-1, ``"+"`` is L..2L-1.

        The one place a sector string is read; any other string raises ``ValueError``.
        """
        if sector not in ("-", "+"):
            raise ValueError(f"unknown sector {sector!r}; choose '-' or '+'")
        start = 0 if sector == "-" else self.n_levels
        return slice(start, start + self.n_levels)

    def state(self, n: int, sector: str) -> np.ndarray:
        return self.isometry[:, self.sector_block(sector)][:, n]

    # -- exact reduced-coordinate operators ---------------------------------

    def reduced_ladder(self, sector: str) -> np.ndarray:
        block = self.sector_block(sector)
        ladder = np.zeros((self.reduced_dim, self.reduced_dim), dtype=complex)
        ladder[block, block] = np.diag(np.sqrt(np.arange(1, self.n_levels, dtype=float)), 1)
        return ladder

    def reduced_cross(self, n: int) -> np.ndarray:
        """|Psi_n^-><Psi_n^+| in reduced coordinates."""
        op = np.zeros((self.reduced_dim, self.reduced_dim), dtype=complex)
        op[self.sector_block("-"), self.sector_block("+")][n, n] = 1.0  # a view of the cross block
        return op

    def reduced_dephasing_op(self) -> np.ndarray:
        """S_z = sum_N <N_+|N_-> (|Psi_N^+><Psi_N^+| - |Psi_N^-><Psi_N^-|), reduced."""
        o = np.array([displaced_overlap(n, self.params.beta) for n in range(self.n_levels)])
        return np.diag(np.concatenate([-o, o])).astype(complex)

    def reduced_hamiltonian(self) -> np.ndarray:
        em, ep = self.params.ladder_energies(self.n_levels)
        return np.diag(np.concatenate([em, ep])).astype(complex)


def build_basis(
    p: RabiParams,
    n_levels: int,
    dims: SpaceDims,
    energy_mode: str = "exact_overlap",
) -> DressedBasis:
    """Construct the retained dressed basis and its energies.

    ``energy_mode`` sets only ``energies_minus`` and ``energies_plus``, which no
    generator reads (they take ``RabiParams.ladder_energies`` or their own
    rotating-frame diagonal):

    - ``"exact_overlap"``: E_N^+- = omega (N - beta^2) +- (omega0/2) <N_-|N_+>,
      keeping the exact Laguerre overlap and the constant -omega beta^2.
    - ``"truncated"``: E_N^+- = N omega_+- +- (omega0/2)(1 - 2 beta^2) with
      omega_+- = omega -+ 2 omega0 beta^2 and the constant dropped, the
      harmonic-ladder form of ``RabiParams.ladder_energies``.

    Raises ``ValueError`` for an unknown ``energy_mode`` and for ``n_levels``
    below 1, at or above ``dims.n_cut``, or above the hard cap 1/(8 beta^2) of
    ``n_levels_cap``.  So n_levels < n_cut always holds: a reduced state
    (2 n_levels) and a full-space one (2 n_cut) never share a shape, which is
    how ``observables`` tells them apart.  Below the cap every pair splitting
    E_N^+ - E_N^- is at least omega0/2 in both modes.  The soft limits of the
    regime (the comfort bound 1/(20 beta^2), omega0 = 0, the coupling and
    secular margins) are not checked here: ``validity_report`` grades them.
    """
    if energy_mode not in ("exact_overlap", "truncated"):
        raise ValueError(f"unknown energy_mode {energy_mode!r}")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if n_levels >= dims.n_cut:
        raise ValueError(f"n_levels={n_levels} must be below the Fock truncation n_cut={dims.n_cut}")
    cap, _ = n_levels_cap(p.beta)
    if cap is not None and n_levels > cap:
        raise ValueError(
            f"n_levels={n_levels} violates the ladder validity bound "
            f"n_levels <= {cap} at beta={p.beta} (N must stay far below 1/(2 beta)^2)"
        )

    # columns |+, N_+> = |+> D(-beta)|N> and |-, N_-> = |-> D(beta)|N>, for N < n_levels
    up = np.kron(sigma_x_eigenket(+1)[:, None], osc_displacement(-p.beta, dims.n_cut)[:, :n_levels])
    dn = np.kron(sigma_x_eigenket(-1)[:, None], osc_displacement(+p.beta, dims.n_cut)[:, :n_levels])
    isometry = np.hstack([up - dn, up + dn]) / np.sqrt(2.0)
    isometry.flags.writeable = False  # every caller shares this array

    if energy_mode == "exact_overlap":
        ov = np.array([displaced_overlap(k, p.beta) for k in range(n_levels)])
        base = p.omega * (np.arange(n_levels) - p.beta**2)
        energies_minus = base - 0.5 * p.omega0 * ov
        energies_plus = base + 0.5 * p.omega0 * ov
    else:
        energies_minus, energies_plus = p.ladder_energies(n_levels)

    return DressedBasis(
        params=p,
        n_levels=n_levels,
        isometry=isometry,
        energies_minus=energies_minus,
        energies_plus=energies_plus,
        omega_minus=p.omega_minus,
        omega_plus=p.omega_plus,
        omega_tilde=p.omega_tilde(n_levels),
    )


@dataclass
class ValidityReport:
    """Diagnostic margins for the approximations behind the dressed description.

    Purely informational; nothing here blocks a computation.
    """

    quasi_degenerate: bool
    qubit_margin: float
    beta_ok: bool
    beta_margin: float
    n_max: int | None
    n_levels_ok: bool
    secular_ok: bool
    secular_margin: float
    warnings: list[str] = field(default_factory=list)


def validity_report(p: RabiParams, n_levels: int, rates) -> ValidityReport:
    """Evaluate the regime constraints and the secular margin of ``rates``.

    The secular margin compares the largest relaxation rate against the
    smallest difference between distinct dressed transition frequencies (the
    spacing that protects the dissipator from cross-terms); it is infinite
    when either vanishes.
    """
    notes: list[str] = []
    quasi = p.quasi_degenerate
    q_margin = MAX_QUBIT_RATIO * p.omega - p.omega0
    if not quasi:
        notes.append(f"omega0={p.omega0} exceeds the quasi-degenerate bound {MAX_QUBIT_RATIO}*omega")
    if p.omega0 == 0:
        notes.append("omega0 = 0: degenerate qubit, dressed pairs coincide")

    beta_ok = p.coupling_ok
    beta_margin = MAX_COUPLING - abs(p.beta)
    if not beta_ok:
        notes.append(f"|beta|={abs(p.beta)} exceeds the O(beta^4) bound {MAX_COUPLING}")

    n_max = _ladder_bound(p.beta, 1.0)
    cap, warn_above = n_levels_cap(p.beta)
    n_ok = cap is None or n_levels <= cap
    if warn_above is not None and n_levels > warn_above:
        notes.append(f"n_levels={n_levels} above the comfortable bound {warn_above}")

    omega_tilde = p.omega_tilde(max(n_levels, 1))
    freqs = np.concatenate([[p.omega_plus, p.omega_minus], omega_tilde])
    diffs = np.abs(freqs[:, None] - freqs[None, :])
    distinct = diffs[diffs > 1e-15]
    min_spacing = float(distinct.min()) if distinct.size else 0.0
    evaluated = [rates.oscillator_rate(f) for f in freqs] + [
        rates.qubit_rate(f) for f in omega_tilde
    ]
    max_rate = max([*evaluated, rates.gamma_f])
    if max_rate > 0 and min_spacing > 0:
        secular_margin = min_spacing / max_rate
        # "much bigger" taken as a few times over; diagnostic only
        secular_ok = secular_margin >= 3.0
        if not secular_ok:
            notes.append(
                f"secular margin {secular_margin:.3g} < 3: rates are not small "
                "against the dressed frequency spacings"
            )
    else:
        secular_ok = True
        secular_margin = math.inf

    return ValidityReport(
        quasi_degenerate=quasi,
        qubit_margin=q_margin,
        beta_ok=beta_ok,
        beta_margin=beta_margin,
        n_max=n_max,
        n_levels_ok=n_ok,
        secular_ok=secular_ok,
        secular_margin=secular_margin,
        warnings=notes,
    )
