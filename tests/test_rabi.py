import math

import numpy as np
import pytest

from dressedrabi.hilbert import SpaceDims, max_abs
from dressedrabi.rabi import (
    RabiParams,
    diagonalize,
    exact_spectrum,
    ground_state,
    max_overlap_pairing,
    rabi_hamiltonian,
)

from conftest import basis_ket


def _parity(dims: SpaceDims) -> np.ndarray:
    """The conserved parity sigma_z exp(i pi a^dag a), built here independently of ``diagonalize``."""
    return np.kron(np.diag([1.0, -1.0]), np.diag((-1.0) ** np.arange(dims.n_cut)))


def _sectors(states: np.ndarray, dims: SpaceDims) -> np.ndarray:
    """Each column's parity read from its support: +1 or -1 if it is exactly zero outside that sector, else 0."""
    signs = np.diag(_parity(dims))
    even, odd = (np.all(states[signs == -sign] == 0, axis=0) for sign in (1.0, -1.0))
    return np.where(even, 1.0, 0.0) - np.where(odd, 1.0, 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        RabiParams(omega=0.0)
    with pytest.raises(ValueError):
        RabiParams(omega0=-0.1)
    p = RabiParams(1.0, 0.3, 0.1)
    assert p.quasi_degenerate and p.coupling_ok
    assert not RabiParams(1.0, 0.4, 0.1).quasi_degenerate
    assert not RabiParams(1.0, 0.1, 0.25).coupling_ok


def test_hamiltonian_hermitian(dims40):
    h = rabi_hamiltonian(RabiParams(1.0, 0.27, 0.17), dims40)
    assert max_abs(h - h.conj().T) < 1e-12


def test_decoupled_spectrum(dims40):
    # beta = 0: eigenvalues are N*omega +- omega0/2
    p = RabiParams(1.0, 0.3, 0.0)
    spec = diagonalize(rabi_hamiltonian(p, dims40), keep=8)
    expected = sorted(n + s * 0.15 for n in range(5) for s in (+1, -1))[:8]
    assert np.allclose(spec.energies, expected, atol=1e-12)


def test_degenerate_qubit_spectrum(dims40):
    # omega0 = 0: displaced ladders at omega (N - beta^2), doubly degenerate
    p = RabiParams(1.0, 0.0, 0.1)
    spec = diagonalize(rabi_hamiltonian(p, dims40), keep=10)
    for n in range(5):
        expect = 1.0 * (n - 0.01)
        assert abs(spec.energies[2 * n] - expect) < 1e-9
        assert abs(spec.energies[2 * n + 1] - expect) < 1e-9
    # each state of the degenerate pairs lies in one parity sector
    assert set(_sectors(spec.states[:, :4], dims40)) == {-1.0, 1.0}


def test_ground_energy_vs_dressed_formula(dims40):
    p = RabiParams(1.0, 0.3, 0.1)
    e0, _ = ground_state(p, dims40)
    formula = -(p.omega0 / 2.0) * math.exp(-2 * p.beta**2) - p.omega * p.beta**2
    assert abs(e0 - formula) < 2e-3


def test_lowest_gap_matches_overlap(dims40):
    p = RabiParams(1.0, 0.15, 0.1)
    spec = exact_spectrum(p, dims40, keep=2)
    gap = spec.energies[1] - spec.energies[0]
    assert abs(gap - p.omega0 * math.exp(-2 * p.beta**2)) < 1e-4


def test_diagonalize_contracts(dims40):
    spec = diagonalize(np.eye(6, dtype=complex))
    assert np.allclose(spec.energies, 1.0)
    # matrices too small or odd-sized to be a joint space, or coupling the two parity sectors
    for h, match in [(np.array([[1.0, 0.5j], [-0.5j, -1.0]]), "no joint space"),
                     (np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1j], [0.0, -1j, 1.0]]), "no joint space"),
                     (np.ones((4, 4)), "couples the two parity sectors")]:
        with pytest.raises(ValueError, match=match):
            diagonalize(h)
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    h = rabi_hamiltonian(RabiParams(1.0, 0.15, 0.1), dims40)
    spec = diagonalize(h, keep=6)
    # orthonormality and eigen-residuals
    overlap = spec.states.conj().T @ spec.states
    assert max_abs(overlap - np.eye(6)) < 1e-10
    residuals = np.linalg.norm(h @ spec.states - spec.states * spec.energies, axis=0)
    assert residuals.max() < 1e-9 * max_abs(h)


def test_truncation_convergence(dims40):
    p = RabiParams(1.0, 0.3, 0.2)
    spec = exact_spectrum(p, dims40, keep=12)
    # converged flags an eigenvalue that moves by less than 1e-8 omega (omega = 1 here) at n_cut + 10
    assert spec.converged is not None and spec.converged.all()
    # four Fock states cannot hold beta = 0.2's levels: the shortfall is flagged and warned
    with pytest.warns(UserWarning, match="not converged at n_cut=4"):
        short = exact_spectrum(p, SpaceDims(4), keep=4)
    assert not short.converged.all()
    # more states than the truncated space holds is refused by name, not by a shape mismatch
    with pytest.raises(ValueError, match="keep=81 exceeds the 80 states"):
        exact_spectrum(p, dims40, keep=81)


def test_parity_symmetry(dims40):
    p = RabiParams(1.0, 0.22, 0.13)
    h = rabi_hamiltonian(p, dims40)
    pi_op = _parity(dims40)
    assert max_abs(h @ pi_op - pi_op @ h) < 1e-10
    spec = diagonalize(h, keep=10)
    assert np.all(np.isin(_sectors(spec.states, dims40), (-1, 1)))


@pytest.mark.parametrize("omega0", [0.0, 0.22])
def test_parity_sectors_are_exact(dims40, omega0):
    # omega0 = 0 makes every parity pair exactly degenerate; 0.22 is a generic point
    p = RabiParams(1.0, omega0, 0.13)
    h = rabi_hamiltonian(p, dims40)
    spec = diagonalize(h)
    # each state vanishes exactly on the indices of the other sector, and each sector holds n_cut states
    sectors = _sectors(spec.states, dims40)
    assert set(sectors) == {-1.0, 1.0} and (sectors == 1.0).sum() == dims40.n_cut
    residuals = np.linalg.norm(h @ spec.states - spec.states * spec.energies, axis=0)
    assert residuals.max() < 1e-12 * max_abs(h)
    assert np.abs(exact_spectrum(p, dims40, keep=12).energies - np.linalg.eigvalsh(h)[:12]).max() < 1e-12


def test_ground_state_limits(dims40):
    # beta = 0: ground state |g> (x) |0>
    _, gs = ground_state(RabiParams(1.0, 0.3, 0.0), dims40)
    target = basis_ket(1, 0, dims40)
    assert abs(abs(np.vdot(target, gs)) - 1.0) < 1e-12
    # weak coupling: overlap with |g,0> deviates at O(beta^2)
    p = RabiParams(1.0, 0.15, 0.1)
    _, gs = ground_state(p, dims40)
    ov = abs(np.vdot(basis_ket(1, 0, dims40), gs))
    assert 1.0 - ov < 2 * p.beta**2
    assert 1.0 - ov > 0.1 * p.beta**2


def test_max_overlap_pairing_on_permutation():
    rng = np.random.default_rng(11)
    basis, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    perm = rng.permutation(8)
    rows, cols, fid = max_overlap_pairing(basis[:, perm], basis)
    assert np.allclose(fid, 1.0)
    assert np.array_equal(perm[cols], rows)
