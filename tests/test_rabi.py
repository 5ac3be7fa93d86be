import math

import numpy as np
import pytest

from dressedrabi.hilbert import max_abs
from dressedrabi.rabi import (
    RabiParams,
    diagonalize,
    exact_spectrum,
    ground_state,
    max_overlap_pairing,
    parity_operator,
    rabi_hamiltonian,
)

from conftest import basis_ket


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
    # deterministic parity labels on the degenerate pairs
    assert spec.parity is not None
    assert set(np.round(spec.parity[:4]).astype(int)) == {-1, 1}


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
    with pytest.raises(ValueError):
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
    # more states than the truncated space holds is refused by name, not by a shape mismatch
    with pytest.raises(ValueError, match="keep=81 exceeds the 80 states"):
        exact_spectrum(p, dims40, keep=81)


def test_parity_symmetry(dims40):
    p = RabiParams(1.0, 0.22, 0.13)
    h = rabi_hamiltonian(p, dims40)
    pi_op = parity_operator(dims40)
    assert max_abs(h @ pi_op - pi_op @ h) < 1e-10
    spec = diagonalize(h, keep=10)
    assert np.all(np.isin(np.round(spec.parity), (-1, 1)))


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
