import numpy as np
import pytest
from scipy.linalg import expm

from dressedrabi.hilbert import max_abs
from dressedrabi.rabi import RabiParams, rabi_hamiltonian
from dressedrabi.schrieffer_wolff import (
    fidelity_comparison,
    sw_dropped_constant,
    sw_frequencies,
    sw_generator,
    sw_hamiltonian,
)


def sector_ladders(p, wp, wm, n_levels):
    """+-omega0/2 + w_+- (N + 1/2); at w_+- = sw_frequencies(p) the dispersive closed form."""
    n = np.arange(n_levels)
    return 0.5 * p.omega0 + wp * (n + 0.5), -0.5 * p.omega0 + wm * (n + 0.5)


def sw_conjugation_residual(p, dims, n_levels):
    """Largest element of e^{S} H e^{-S} - H_SW on the lowest levels of H_SW.

    The dropped constant is restored before comparing, so the result measures
    the genuine third-order defect of the rotation.
    """
    h = rabi_hamiltonian(p, dims)
    rot = expm(sw_generator(p, dims))
    h_sw = sw_hamiltonian(p, dims)
    _, vecs = np.linalg.eigh(h_sw)
    block = vecs[:, :n_levels]
    delta = rot @ h @ rot.conj().T - h_sw + sw_dropped_constant(p) * np.eye(h.shape[0])
    return float(max_abs(block.conj().T @ delta @ block))


def test_decoupled_limit(dims40):
    p = RabiParams(1.0, 0.15, 0.0)
    h = sw_hamiltonian(p, dims40)
    assert max_abs(h - rabi_hamiltonian(p, dims40)) < 1e-14
    assert max_abs(sw_generator(p, dims40)) == 0.0
    comp = fidelity_comparison(p, 6, dims40)
    assert all(abs(r.f_adiabatic - 1) < 1e-10 and abs(r.f_sw - 1) < 1e-10 for r in comp.rows)
    closed_plus, _ = sector_ladders(p, *sw_frequencies(p), 4)
    assert np.allclose(closed_plus, 0.075 + np.arange(4) + 0.5)


def test_sector_bogoliubov_eigenvalues(dims40):
    # per sigma_z sector the quadratic form diagonalizes exactly: matrix
    # eigenvalues equal the closed form minus the bare zero point omega/2
    p = RabiParams(1.0, 0.15, 0.1)
    eig = np.linalg.eigvalsh(sw_hamiltonian(p, dims40))
    closed = np.sort(np.concatenate(sector_ladders(p, *sw_frequencies(p), 6))) - 0.5 * p.omega
    assert max_abs(eig[:12] - closed[:12]) < 1e-8


def test_quasi_degenerate_frequencies():
    p = RabiParams(1.0, 0.1, 0.1)
    wp, wm = sw_frequencies(p)
    # omega_sw_pm -> omega -+ 2 omega0 beta^2 up to O(omega0^2 beta^2, beta^4)
    assert abs(wp - (1.0 - 2 * p.omega0 * p.beta**2)) < 1e-4
    assert abs(wm - (1.0 + 2 * p.omega0 * p.beta**2)) < 1e-4
    closed_plus, _ = sector_ladders(p, wp, wm, 6)
    # harmonic ladder: equally spaced rungs
    assert np.allclose(np.diff(closed_plus), wp)
    # quasi-degenerate closed form (omega_sw_pm -> omega -+ 2 omega0 beta^2)
    # matches the dressed-ladder energies up to the constant zero point, at
    # machine precision
    quasi_plus, quasi_minus = sector_ladders(p, p.omega_plus, p.omega_minus, 6)
    dressed_minus, dressed_plus = p.ladder_energies(6)
    gaps = np.concatenate([quasi_plus - dressed_plus, quasi_minus - dressed_minus]) - 0.5 * p.omega
    assert max_abs(gaps) < 1e-12


def test_generator_properties(dims40):
    p = RabiParams(1.0, 0.15, 0.1)
    s = sw_generator(p, dims40)
    assert max_abs(s + s.conj().T) == 0.0
    # conjugation reproduces the closed form: O(beta^3) residual once the
    # dropped constant beta^2 omega^3/(omega^2-omega0^2) is restored
    assert abs(sw_dropped_constant(p) - 0.1 * 0.1 / (1 - 0.15**2)) < 1e-15
    r10 = sw_conjugation_residual(p, dims40, n_levels=10)
    assert r10 < 3e-3
    assert sw_conjugation_residual(p, dims40, n_levels=4) < 5e-4
    # cubic scaling in the coupling
    r_half = sw_conjugation_residual(RabiParams(1.0, 0.15, 0.05), dims40, n_levels=10)
    assert r10 / r_half > 6.0


def test_resonance_guards(dims40):
    with pytest.raises(ValueError):
        sw_hamiltonian(RabiParams(1.0, 1.0, 0.1), dims40)
    with pytest.raises(ValueError):
        sw_frequencies(RabiParams(1.0, 0.99, 0.08))


@pytest.mark.parametrize(
    "omega0,beta,adiabatic_wins",
    [(0.05, 0.1, True), (0.15, 0.1, True), (0.1, 0.05, True), (3.0, 0.1, False)],
)
def test_fidelity_ordering(dims40, omega0, beta, adiabatic_wins):
    comp = fidelity_comparison(RabiParams(1.0, omega0, beta), 6, dims40)
    for r in comp.rows:
        assert 0.0 <= r.f_adiabatic <= 1.0 and 0.0 <= r.f_sw <= 1.0
    if adiabatic_wins:
        assert comp.mean_f_adiabatic >= comp.mean_f_sw
    else:
        assert comp.mean_f_sw > comp.mean_f_adiabatic


def test_fidelity_energy_columns(dims40):
    p = RabiParams(1.0, 0.15, 0.1)
    comp = fidelity_comparison(p, 6, dims40)
    for r in comp.rows:
        assert abs(r.energy_exact - r.energy_adiabatic) < 5e-3
        assert abs(r.energy_exact - r.energy_sw) < 5e-3
