"""Lindblad generators: standard, dressed, thermal, dephasing, and driven forms.

A :class:`MasterEquation` is time independent: a Hamiltonian and a list of
weighted jump operators (pure dephasing is one of them, the Hermitian jump
S_z).  The pump enters in its rotating frame; the spectroscopy probe is
added to the pumped generator by ``spectroscopy``, in either of its two
solvers.  Generators built from a :class:`DressedBasis` carry it and are
stored in its exact reduced dressed coordinates (2 n_levels), where the
retained subspace is the whole representation; the bare-operator generator
lives on the full truncated space (2 n_cut).  ``build_basis`` keeps
n_levels < n_cut, so the two never share a shape.  ``relax`` and demo 02
attach a basis to the full-space generator only to read its states out
through ``observables``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .adiabatic import DressedBasis
from .hilbert import SpaceDims, annihilation, hermiticity_defect, max_abs, qubit_op
from .rabi import RabiParams, rabi_hamiltonian

__all__ = [
    "RateFunctions",
    "JumpTerm",
    "MasterEquation",
    "standard_master_equation",
    "zero_temperature_dme",
    "finite_temperature_dme",
    "gibbs_state",
    "driven_rotating_dme",
]


def _finite_nonnegative(name: str, value: float) -> float:
    """Rates and the temperature must be finite and >= 0; NaN fails the comparison."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} = {value} must be finite and >= 0")
    return value


def _as_rate_fn(value):
    if callable(value):
        return value
    const = float(value)
    return lambda _w, _c=const: _c


@dataclass
class RateFunctions:
    """Spectral relaxation rates of the two baths plus dephasing and temperature.

    ``Gamma`` (oscillator bath) and ``gamma`` (qubit bath) may be constants or
    functions of frequency; ``gamma_f`` is the zero-frequency qubit-noise
    weight driving pure dephasing; ``temperature`` is in energy units with
    k_B = 1 (zero allowed).
    """

    Gamma: object = 0.0
    gamma: object = 0.0
    gamma_f: float = 0.0
    temperature: float = 0.0

    def __post_init__(self):
        for name in ("gamma_f", "temperature"):
            _finite_nonnegative(name, getattr(self, name))
        self._Gamma_fn = _as_rate_fn(self.Gamma)
        self._gamma_fn = _as_rate_fn(self.gamma)

    @classmethod
    def flat(cls, Gamma0: float, gamma0: float, gamma_f: float = 0.0, temperature: float = 0.0):
        return cls(Gamma=float(Gamma0), gamma=float(gamma0), gamma_f=gamma_f, temperature=temperature)

    def oscillator_rate(self, freq: float) -> float:
        return _finite_nonnegative(f"Gamma({freq})", float(self._Gamma_fn(freq)))

    def qubit_rate(self, freq: float) -> float:
        return _finite_nonnegative(f"gamma({freq})", float(self._gamma_fn(freq)))

    def cross_rate(self, beta: float, freq: float) -> float:
        """Cross-ladder transfer rate kappa = gamma(freq) + 4 beta^2 Gamma(freq)."""
        return self.qubit_rate(freq) + 4.0 * beta**2 * self.oscillator_rate(freq)

    def thermal_occupation(self, freq: float) -> float:
        """Bose occupation 1/(exp(freq/T) - 1); zero at T = 0.  At T > 0, freq <= 0 raises."""
        if self.temperature == 0.0:
            return 0.0
        if not freq > 0:
            raise ValueError(f"thermal occupation at T = {self.temperature} needs a frequency > 0, got {freq}")
        x = freq / self.temperature
        if x > 700.0:
            return 0.0
        return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class JumpTerm:
    """One dissipator channel: rate * D[op], tagged with its transition frequency."""

    rate: float
    op: np.ndarray
    frequency: float | None = None
    label: str = ""


@dataclass
class MasterEquation:
    """Assembled time-independent evolution generator; immutable by convention after construction."""

    hamiltonian: np.ndarray
    jumps: list[JumpTerm] = field(default_factory=list)
    basis: DressedBasis | None = None

    def __post_init__(self):
        dim = self.hamiltonian.shape[0]
        if self.hamiltonian.shape != (dim, dim):
            raise ValueError("hamiltonian must be square")
        if not np.all(np.isfinite(self.hamiltonian)):
            raise ValueError("hamiltonian has non-finite entries")
        scale = max(max_abs(self.hamiltonian), 1.0)
        if hermiticity_defect(self.hamiltonian) > 1e-10 * scale:
            raise ValueError("hamiltonian is not Hermitian within 1e-10")
        for term in self.jumps:
            _finite_nonnegative(f"jump rate ({term.label})", term.rate)
            if term.op.shape != (dim, dim):
                raise ValueError(f"jump operator shape mismatch ({term.label})")
        # the sparse Liouvillian, built on first use
        self._liouvillian = None

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def liouvillian(self) -> sparse.csc_matrix:
        """The generator (H and jumps) as one sparse d^2 x d^2 matrix.

        Column-stacking convention: vec(rho) stacks columns (Fortran order), so
        vec(A rho B) = (B^T kron A) vec(rho).  With the effective generator
        K = -i H - (1/2) sum_k r_k O_k^dag O_k,

            L = 1 kron K + conj(K) kron 1 + sum_k r_k conj(O_k) kron O_k,

        assembled from the operators' nonzeros in one COO pass.  K takes its
        O_k^dag O_k from the same products of nonzeros as the O_k rho O_k^dag
        block, not from dense matrix products: a small product per jump calls
        the threaded BLAS, whose cost then swings with the load on the other
        cores.  Built on first use and cached.
        """
        if self._liouvillian is None:
            d = self.dim
            idx = np.arange(d)
            active = [term for term in self.jumps if term.rate > 0]
            k = -1j * self.hamiltonian
            rows, cols, vals = [], [], []
            for term in active:
                r, c = np.nonzero(term.op)
                v = term.op[r, c]
                pairs = term.rate * np.outer(v.conj(), v)
                # O rho O^dag
                rows.append((r + d * r[:, None]).ravel())
                cols.append((c + d * c[:, None]).ravel())
                vals.append(pairs.ravel())
                # O^dag O from the same pairs: those of nonzeros in one row of O
                i, j = np.nonzero(r[:, None] == r)
                np.add.at(k, (c[i], c[j]), -0.5 * pairs[i, j])
            r, c = np.nonzero(k)
            v = k[r, c]
            # K rho and rho K^dag
            rows += [(r + d * idx[:, None]).ravel(), (idx + d * r[:, None]).ravel()]
            cols += [(c + d * idx[:, None]).ravel(), (idx + d * c[:, None]).ravel()]
            vals += [np.tile(v, d), np.repeat(v.conj(), d)]
            coo = sparse.coo_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(d * d, d * d)
            )
            self._liouvillian = coo.tocsc()
        return self._liouvillian

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        """Generator applied to a state: d(rho)/dt."""
        d = self.dim
        return (self.liouvillian() @ rho.reshape(-1, order="F")).reshape((d, d), order="F")


def _require_zero_temperature(rates: RateFunctions, builder: str) -> None:
    if rates.temperature != 0:
        raise ValueError(f"{builder} is zero-temperature, got T = {rates.temperature}; use finite_temperature_dme")


def standard_master_equation(p: RabiParams, rates: RateFunctions, dims: SpaceDims) -> MasterEquation:
    """Quantum-optics master equation with bare jump operators a and sigma_-.

    The dissipators ignore the qubit-oscillator coupling; this generator is
    kept as the (incorrect at strong coupling) reference.  The oscillator
    rate is evaluated at omega and the qubit rate at omega0.  T > 0 raises.
    """
    _require_zero_temperature(rates, "standard_master_equation")
    kappa = rates.oscillator_rate(p.omega)
    gamma = rates.qubit_rate(p.omega0)
    return MasterEquation(
        hamiltonian=rabi_hamiltonian(p, dims),
        jumps=[
            JumpTerm(kappa, annihilation(dims), frequency=p.omega, label="oscillator"),
            JumpTerm(gamma, qubit_op("sigma_minus", dims), frequency=p.omega0, label="qubit"),
        ],
    )


def _dme_jumps(b: DressedBasis, rates: RateFunctions) -> list[JumpTerm]:
    """Zero-temperature dressed jump list in reduced coordinates.

    The two cross-ladder sources (oscillator bath, weight 4 beta^2, and qubit
    bath) share the jump operator |Psi_N^-><Psi_N^+| and are merged into one
    channel per rung with the rates added.
    """
    beta = b.params.beta
    jumps = [
        JumpTerm(rates.oscillator_rate(b.omega_plus), b.reduced_ladder("+"), b.omega_plus, "ladder_plus"),
        JumpTerm(rates.oscillator_rate(b.omega_minus), b.reduced_ladder("-"), b.omega_minus, "ladder_minus"),
    ]
    for n in range(b.n_levels):
        freq = float(b.omega_tilde[n])
        jumps.append(JumpTerm(rates.cross_rate(beta, freq), b.reduced_cross(n), freq, f"cross_{n}"))
    return jumps


def zero_temperature_dme(b: DressedBasis, rates: RateFunctions) -> MasterEquation:
    """Dressed-state master equation for zero-temperature baths.

    Damping acts within each dressed ladder through a_+- and transfers
    population from |Psi_N^+> to |Psi_N^-> at rate
    gamma(omega_tilde_N) + 4 beta^2 Gamma(omega_tilde_N).  T > 0 raises
    ``ValueError``; ``finite_temperature_dme`` is the thermal form.
    """
    _require_zero_temperature(rates, "zero_temperature_dme")
    return MasterEquation(
        hamiltonian=b.reduced_hamiltonian(),
        jumps=_dme_jumps(b, rates),
        basis=b,
    )


def finite_temperature_dme(b: DressedBasis, rates: RateFunctions) -> MasterEquation:
    """Thermal dressed master equation by detailed-balance pairing of the jumps.

    Every zero-temperature channel (r, L) at transition frequency nu becomes
    the pair (r (nbar+1), L) downward and (r nbar, L^dag) upward with
    nbar = 1/(exp(nu/T) - 1), so each pair satisfies
    rate_up / rate_down = exp(-nu/T) identically.
    """
    if rates.temperature <= 0:
        raise ValueError("finite_temperature_dme requires temperature > 0")
    jumps: list[JumpTerm] = []
    for term in _dme_jumps(b, rates):
        nbar = rates.thermal_occupation(term.frequency)
        down = term.rate * (nbar + 1.0)
        jumps.append(JumpTerm(down, term.op, term.frequency, term.label + "_down"))
        up = down * math.exp(-term.frequency / rates.temperature)
        jumps.append(JumpTerm(up, term.op.conj().T, term.frequency, term.label + "_up"))
    return MasterEquation(
        hamiltonian=b.reduced_hamiltonian(),
        jumps=jumps,
        basis=b,
    )


def gibbs_state(b: DressedBasis, temperature: float) -> np.ndarray:
    """Thermal state exp(-H/T)/Z over the retained dressed spectrum (reduced coords)."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    em, ep = b.params.ladder_energies(b.n_levels)
    energies = np.concatenate([em, ep])
    weights = np.exp(-(energies - energies.min()) / temperature)
    return np.diag(weights / weights.sum()).astype(complex)


def driven_rotating_dme(
    b: DressedBasis,
    rates: RateFunctions,
    pump_amp: float,
    pump_freq: float,
) -> MasterEquation:
    """Pumped dressed master equation in the frame rotating at the pump frequency.

    After averaging the fast pump components, each ladder sees a detuned
    drive Delta_+- a_+-^dag a_+- + Omega_p(a_+- + a_+-^dag) with damping
    Gamma, the ladders stay coupled by the incoherent cross jumps at rate
    kappa = gamma(omega_tilde_N) + 4 beta^2 Gamma(omega_tilde_N), and pure
    dephasing acts through the jump (gamma_f, S_z).  Time independent.

    The Hamiltonian also carries the dressed-pair splitting
    (omega0/2)(1-2 beta^2)(1_+ - 1_-): invisible to a state confined to one
    ladder, it sets the resonance of drives that connect the ladders.  T > 0 raises.
    """
    _require_zero_temperature(rates, "driven_rotating_dme")
    jumps = _dme_jumps(b, rates)
    gp, gm = jumps[0].rate, jumps[1].rate
    if abs(gp - gm) > 1e-12 * max(gp, gm, 1e-300):
        warnings.warn(
            "Gamma(omega_+) != Gamma(omega_-): the driven generator assumes a flat "
            "oscillator spectral density across the two ladders",
            stacklevel=2,
        )
    kappas = np.array([term.rate for term in jumps[2:]])
    if kappas.size and max_abs(kappas - kappas[0]) > 1e-12 * max(kappas.max(), 1e-300):
        warnings.warn(
            "cross-ladder rate kappa varies with N; the constant-kappa sector flow "
            "relations hold only approximately",
            stacklevel=2,
        )
    if rates.gamma_f > 0:
        jumps.append(JumpTerm(rates.gamma_f, b.reduced_dephasing_op(), 0.0, "dephasing"))
    n = np.arange(b.n_levels, dtype=float)
    half = b.params.half_splitting
    diag = np.concatenate([n * (b.omega_minus - pump_freq) - half, n * (b.omega_plus - pump_freq) + half])
    h = np.diag(diag).astype(complex)
    drive = b.reduced_ladder("+") + b.reduced_ladder("-")
    h += pump_amp * (drive + drive.conj().T)
    return MasterEquation(
        hamiltonian=h,
        jumps=jumps,
        basis=b,
    )
