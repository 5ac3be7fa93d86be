import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_laguerre

from dressedrabi.hilbert import (
    SpaceDims,
    annihilation,
    displaced_fock,
    laguerre,
    max_abs,
    osc_displacement,
    qubit_op,
    sigma_x_eigenket,
    trace_distance,
)

from conftest import basis_ket, random_density


def test_space_dims():
    assert SpaceDims(5).total_dim == 10
    with pytest.raises(ValueError):
        SpaceDims(1)


def test_ladder_action(dims40):
    a = annihilation(dims40)
    one = basis_ket(0, 1, dims40)
    zero = basis_ket(0, 0, dims40)
    assert np.allclose(a @ one, zero)
    assert np.allclose(a @ zero, 0.0)
    # <3|a|4> = sqrt(4) = 2
    assert abs((basis_ket(1, 3, dims40).conj() @ a @ basis_ket(1, 4, dims40)) - 2.0) < 1e-14


def test_number_operator_exact(dims40):
    a = annihilation(dims40)
    n_op = a.conj().T @ a
    for n in range(dims40.n_cut):
        ket = basis_ket(0, n, dims40)
        assert np.allclose(n_op @ ket, n * ket)


def test_qubit_ops(dims40):
    sx = qubit_op("sigma_x", dims40)
    sy = qubit_op("sigma_y", dims40)
    sz = qubit_op("sigma_z", dims40)
    sp = qubit_op("sigma_plus", dims40)
    sm = qubit_op("sigma_minus", dims40)
    plus = np.kron(sigma_x_eigenket(+1), np.eye(dims40.n_cut)[0])
    assert np.allclose(sx @ plus, plus)
    eye = qubit_op("identity", dims40)
    assert max_abs(sp @ sm + sm @ sp - eye) < 1e-14
    assert max_abs(sz @ sx - 1j * sy) < 1e-14
    with pytest.raises(ValueError):
        qubit_op("sigma_w", dims40)
    with pytest.raises(ValueError, match="m must be"):
        sigma_x_eigenket(0)


def _displacement_series(alpha: float, n_cut: int, order: int = 60) -> np.ndarray:
    # brute-force Taylor sum of exp(alpha a^dag - alpha* a), independent of expm
    a = np.diag(np.sqrt(np.arange(1, n_cut)), 1).astype(complex)
    gen = alpha * a.conj().T - np.conjugate(alpha) * a
    out = np.eye(n_cut, dtype=complex)
    term = np.eye(n_cut, dtype=complex)
    for k in range(1, order):
        term = term @ gen / k
        out += term
    return out


def test_displacement_identity_and_vacuum_overlap(dims40):
    joint = np.kron(np.eye(2), osc_displacement(0.0, dims40.n_cut))
    assert max_abs(joint - np.eye(dims40.total_dim)) < 1e-14
    beta = 0.1
    d = osc_displacement(-beta, dims40.n_cut)
    # <0|D(-beta)|0> = exp(-beta^2/2) = 0.99501...
    assert abs(d[0, 0] - math.exp(-(beta**2) / 2.0)) < 1e-12
    assert abs(d[0, 0] - 0.9950124791926823) < 1e-12
    # cross-check the matrix exponential against a brute-force series
    assert max_abs(d - _displacement_series(-beta, dims40.n_cut)) < 1e-12


def test_displacement_unitarity(dims40):
    d = osc_displacement(0.2, dims40.n_cut)
    assert max_abs(d @ osc_displacement(-0.2, dims40.n_cut) - np.eye(dims40.n_cut)) < 1e-10
    # the truncated generator is anti-Hermitian, so D is unitary on the whole truncated
    # space, however large alpha is against n_cut (which only warns)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for n_cut in (2, 5, 40):
            for alpha in (0.2, 3.0, 10.0, 1 + 2j):
                d = osc_displacement(alpha, n_cut)
                assert max_abs(d.conj().T @ d - np.eye(n_cut)) < 1e-12, (alpha, n_cut)


def test_displacement_composition(dims40):
    # D(a)D(b) = exp(i Im(a b*)) D(a+b) on the protected low-Fock block
    a, b = 0.15 + 0.05j, -0.1 + 0.2j
    lhs = osc_displacement(a, dims40.n_cut) @ osc_displacement(b, dims40.n_cut)
    rhs = np.exp(1j * np.imag(a * np.conjugate(b))) * osc_displacement(a + b, dims40.n_cut)
    half = dims40.n_cut // 2
    assert max_abs((lhs - rhs)[:half, :half]) < 1e-8


def test_displacement_warns_when_too_large():
    with pytest.warns(UserWarning):
        osc_displacement(2.0, 4)


def test_displaced_fock(dims40):
    for n in (0, 3):
        assert np.allclose(displaced_fock(n, +1, 0.0, dims40), np.eye(dims40.n_cut)[n])
    beta = 0.1
    # <N_-|N_+> = exp(-2 beta^2) L_N(4 beta^2), oracle via scipy's Laguerre
    for n in range(6):
        minus = displaced_fock(n, -1, beta, dims40)
        plus = displaced_fock(n, +1, beta, dims40)
        expected = math.exp(-2 * beta**2) * eval_laguerre(n, 4 * beta**2)
        assert abs(np.vdot(minus, plus) - expected) < 1e-9
    assert abs(np.vdot(displaced_fock(0, -1, beta, dims40), displaced_fock(0, +1, beta, dims40))
               - 0.9801986733067553) < 1e-9
    with pytest.raises(IndexError):
        displaced_fock(40, 1, beta, dims40)
    with pytest.raises(ValueError):
        displaced_fock(0, 2, beta, dims40)


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.2])
def test_overlap_formula_block(dims40, beta):
    for n in range(9):
        minus = displaced_fock(n, -1, beta, dims40)
        plus = displaced_fock(n, +1, beta, dims40)
        expected = math.exp(-2 * beta**2) * eval_laguerre(n, 4 * beta**2)
        assert abs(np.vdot(minus, plus) - expected) < 1e-8


def test_laguerre_recurrence_against_scipy():
    for n in range(12):
        for x in (0.0, 0.01, 0.04, 0.16, 1.0, 3.7):
            assert abs(laguerre(n, x) - eval_laguerre(n, x)) < 1e-12 * max(1, abs(eval_laguerre(n, x)))
    with pytest.raises(ValueError, match="n must be >= 0"):
        laguerre(-1, 0.5)


def test_algebra_helpers(dims40):
    a = annihilation(dims40)
    comm = a @ a.conj().T - a.conj().T @ a
    block = comm[: dims40.n_cut - 1, : dims40.n_cut - 1]
    # sqrt(n)*sqrt(n) rounds at the eps*n level on the top rungs
    assert max_abs(block - np.eye(dims40.n_cut - 1)) < 1e-13

    rng = np.random.default_rng(7)
    rho = random_density(10, rng)
    assert np.trace(rho @ rho).real <= 1.0 + 1e-12


def test_tensor_ordering():
    dims = SpaceDims(3)
    # qubit index is the slow one: |g> (x) |1> sits at index n_cut + 1
    ket = np.kron(np.array([0.0, 1.0]), np.eye(3)[1])
    assert ket[4] == 1.0
    assert basis_ket(1, 1, dims)[4] == 1.0
    sz = qubit_op("sigma_z", dims)
    assert sz[4, 4] == -1.0


def test_density_matrix_checks():
    rng = np.random.default_rng(3)
    rho = random_density(6, rng)
    assert trace_distance(rho, rho) < 1e-14
    other = random_density(6, rng)
    td = trace_distance(rho, other)
    assert 0.0 < td <= 1.0
