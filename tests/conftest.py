import numpy as np
import pytest

from dressedrabi import cli
from dressedrabi.hilbert import SpaceDims
from dressedrabi.lindblad import MasterEquation, RateFunctions, driven_rotating_dme
from dressedrabi.rabi import RabiParams
from dressedrabi.spectroscopy import _cross_drive_op


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the suite with OpenBLAS at one thread, as the CLI runs: its matrices are too small for a second."""
    with cli._one_blas_thread():
        yield


@pytest.fixture(scope="session")
def dims40():
    return SpaceDims(40)


def basis_ket(qubit_index: int, n: int, dims: SpaceDims) -> np.ndarray:
    """Joint product state |qubit_index> (x) |n>; qubit index 0 = |e>, 1 = |g>."""
    ket = np.zeros(dims.total_dim, dtype=complex)
    ket[qubit_index * dims.n_cut + n] = 1.0
    return ket


def expand(b, op_reduced: np.ndarray) -> np.ndarray:
    """A reduced-coordinate operator of basis ``b`` carried to the full space: V op V^dag."""
    v = b.isometry
    return v @ op_reduced @ v.conj().T


def fig3_params() -> RabiParams:
    return RabiParams(omega=1.0, omega0=0.3, beta=0.1)


def fig3_rates(gamma_f_scale: float = 1.0) -> RateFunctions:
    """Damping set Gamma = 6 kappa = 3 gamma_f = 3 omega0 beta^2 / 5.

    kappa is the total cross-ladder rate gamma + 4 beta^2 Gamma, so the bare
    qubit rate is backed out of it.
    """
    p = fig3_params()
    big = 3.0 * p.omega0 * p.beta**2 / 5.0
    kappa = big / 6.0
    small = kappa - 4.0 * p.beta**2 * big
    return RateFunctions.flat(big, small, gamma_f=gamma_f_scale * big / 3.0)


def probe_frame_generator(pump: MasterEquation, tone: np.ndarray, omega_s: float) -> MasterEquation:
    """The pump+probe co-rotating generator assembled in full at one omega_s.

    Rotating the pumped generator ``pump`` at omega_s adds omega_s F,
    F = (1_- - 1_+)/2, to its Hamiltonian and makes the cross-ladder probe
    ``tone`` static; the jumps are the pump's.  The slow reference of the
    scan's L(0) + omega_s B.
    """
    frame = np.diag(np.repeat([0.5, -0.5], pump.dim // 2))
    return MasterEquation(pump.hamiltonian + omega_s * frame + tone, pump.jumps, pump.basis)


def scan_pump_system(b, rates: RateFunctions, pump_amp: float, spec_amp: float):
    """One co-rotating scan pump: the generator L(0) (pump plus static probe tone) and the shift B.

    A point at omega_s solves L(0) + omega_s B, B = -i[F, .] with the probe
    frame's F = (1_- - 1_+)/2.
    """
    pump = driven_rotating_dme(b, rates, pump_amp, b.omega_minus)
    point = MasterEquation(pump.hamiltonian + _cross_drive_op(b, spec_amp), pump.jumps, pump.basis)
    frame = np.diag(np.repeat([0.5, -0.5], b.n_levels))
    return point, MasterEquation(frame).liouvillian()


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random state from a Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
