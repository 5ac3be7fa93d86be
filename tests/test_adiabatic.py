import math
import warnings

import numpy as np
import pytest

from dressedrabi.adiabatic import build_basis, displaced_overlap, n_levels_cap, validity_report
from dressedrabi.hilbert import SpaceDims, annihilation, displaced_fock, max_abs, qubit_op
from dressedrabi.rabi import RabiParams, exact_spectrum, max_overlap_pairing

from conftest import basis_ket, expand, fig3_rates


def _cross_sum(b):
    """sum_N |Psi_N^-><Psi_N^+| in reduced coordinates."""
    return sum(b.reduced_cross(n) for n in range(b.n_levels))


def _dressed_lowering(b):
    """a_- + a_+ - 2 beta sum_N |Psi_N^-><Psi_N^+| in the full space."""
    return expand(b, b.reduced_ladder("-") + b.reduced_ladder("+") - 2.0 * b.params.beta * _cross_sum(b))


def test_displaced_overlap_values(dims40):
    assert displaced_overlap(4, 0.0) == 1.0
    assert abs(displaced_overlap(0, 0.1) - math.exp(-0.02)) < 1e-15
    assert abs(displaced_overlap(0, 0.1) - 0.98019867) < 5e-9
    # against the displaced-Fock inner product from the exponential route
    ip = np.vdot(displaced_fock(2, -1, 0.1, dims40), displaced_fock(2, +1, 0.1, dims40))
    assert abs(displaced_overlap(2, 0.1) - ip.real) < 1e-9


def test_n_levels_cap():
    cap, warn = n_levels_cap(0.1)
    assert (cap, warn) == (12, 5)
    assert n_levels_cap(0.0) == (None, None)
    # no bound, not an OverflowError or a ZeroDivisionError: at 1e-160 the quotient
    # overflows to inf, at 1e-170 and 1e-200 (2 beta)^2 underflows to 0
    for beta in (1e-160, 1e-170, 1e-200):
        assert n_levels_cap(beta) == (None, None)


def test_build_basis_decoupled(dims40):
    p = RabiParams(1.0, 0.3, 0.0)
    b = build_basis(p, 3, dims40)
    # |Psi_0^+> = |e,0>, |Psi_0^-> = |g,0>
    assert abs(abs(np.vdot(b.state(0, "+"), basis_ket(0, 0, dims40))) - 1.0) < 1e-12
    assert abs(abs(np.vdot(b.state(0, "-"), basis_ket(1, 0, dims40))) - 1.0) < 1e-12
    assert abs(b.energies_plus[0] - 0.15) < 1e-12
    assert abs(b.energies_minus[0] + 0.15) < 1e-12


def test_ladder_frequencies_and_gaps(dims40):
    p = RabiParams(1.0, 0.3, 0.1)
    b = build_basis(p, 6, dims40, energy_mode="truncated")
    assert abs(b.omega_plus - (1.0 - 0.006)) < 1e-12
    assert abs(b.omega_minus - (1.0 + 0.006)) < 1e-12
    gaps = b.energies_plus - b.energies_minus
    for n in range(6):
        assert abs(gaps[n] - p.omega0 * (1 - 2 * p.beta**2 - 4 * n * p.beta**2)) < 1e-12
        assert abs(gaps[n] - b.omega_tilde[n]) < 1e-12


@pytest.mark.parametrize(
    "omega0,beta,floor",
    [
        (0.15, 0.1, 0.99),
        (0.3, 0.1, 0.99),
        (0.15, 0.2, 0.99),
        (0.05, 0.05, 0.99),
        # both validity bounds maxed out at once: slightly below 0.99
        (0.3, 0.2, 0.985),
    ],
)
def test_orthonormality_and_oracle_fidelity(dims40, omega0, beta, floor):
    p = RabiParams(1.0, omega0, beta)
    cap, _ = n_levels_cap(beta)
    levels = 6 if cap is None else min(6, cap)
    b = build_basis(p, levels, dims40)
    assert max_abs(b.isometry.conj().T @ b.isometry - np.eye(2 * levels)) < 1e-9
    spec = exact_spectrum(p, dims40, keep=2 * levels)
    candidates = np.hstack([b.states_minus, b.states_plus])
    _, _, fid = max_overlap_pairing(candidates, spec.states)
    assert fid.min() >= floor


@pytest.mark.parametrize("beta", [0.02, 0.05, -0.1, 0.2, 0.35])
def test_pair_splitting_stays_above_half_omega0_up_to_the_cap(beta):
    # n_levels <= 1/(8 beta^2) keeps 4 N beta^2 <= 1/2 - 4 beta^2 on every retained rung, so
    # omega_tilde_N >= omega0 (1/2 + 2 beta^2); the exact overlap stays above 1/2 as well
    p = RabiParams(1.0, 0.3, beta)
    cap, _ = n_levels_cap(beta)
    for mode in ("truncated", "exact_overlap"):
        b = build_basis(p, cap, SpaceDims(cap + 20), energy_mode=mode)
        assert np.min(b.energies_plus - b.energies_minus) >= 0.5 * p.omega0, mode


def test_isometry_is_built_once(dims40):
    # every reduce reads it: one hstack per basis
    b = build_basis(RabiParams(1.0, 0.3, 0.1), 4, dims40)
    assert b.isometry is b.isometry and not b.isometry.flags.writeable
    assert np.array_equal(b.isometry, np.hstack([b.states_minus, b.states_plus]))


@pytest.mark.parametrize("beta", [0.05, 0.1])
def test_energy_mode_consistency(dims40, beta):
    # exact-overlap and harmonic-ladder energies differ by the dropped
    # constant plus (omega0/2)(2N^2 + 2N + 1) beta^4 + O(beta^6)
    p = RabiParams(1.0, 0.15, beta)
    eo = build_basis(p, 6, dims40, energy_mode="exact_overlap")
    tr = build_basis(p, 6, dims40, energy_mode="truncated")
    shift = p.omega * p.beta**2
    n = np.arange(6)
    bound = p.omega0 * (2 * n**2 + 2 * n + 1) * beta**4
    for a, b_ in ((eo.energies_minus, tr.energies_minus), (eo.energies_plus, tr.energies_plus)):
        diff = np.abs(a - (b_ - shift))
        assert np.all(diff <= 1.2 * bound + 1e-12)
    # the N <= 1 rungs stay inside the tight 1e-3 omega0 window
    tight = np.abs(eo.energies_minus[:2] - (tr.energies_minus[:2] - shift))
    assert tight.max() < 1e-3 * p.omega0


def test_ladders_algebra(dims40):
    p = RabiParams(1.0, 0.3, 0.1)
    b = build_basis(p, 5, dims40)
    a_plus, a_minus = (expand(b, b.reduced_ladder(sector)) for sector in "+-")
    # sector projectors 1_+- from the reduced ordering: minus ladder first
    minus = np.repeat([1.0, 0.0], 5)
    proj_plus, proj_minus = expand(b, np.diag(1.0 - minus)), expand(b, np.diag(minus))
    assert max_abs(a_plus @ b.state(1, "+") - b.state(0, "+")) < 1e-12
    for n in range(5):
        assert np.linalg.norm(a_plus @ b.state(n, "-")) < 1e-12
    # [a_-, a_-^dag] = 1_- on the retained rungs below the top one
    comm = a_minus @ a_minus.conj().T - a_minus.conj().T @ a_minus
    for n in range(4):
        ket = b.state(n, "-")
        assert abs(ket.conj() @ comm @ ket - 1.0) < 1e-12
    # number action a_pm^dag a_pm |Psi_N^pm> = N |Psi_N^pm>
    for n in range(5):
        ket = b.state(n, "+")
        num = a_plus.conj().T @ a_plus
        assert np.linalg.norm(num @ ket - n * ket) < 1e-12
    # projectors resolve the retained subspace
    assert max_abs(proj_plus @ proj_minus) < 1e-12


def test_dressed_hamiltonian(dims40):
    p = RabiParams(1.0, 0.15, 0.1)
    b = build_basis(p, 6, dims40, energy_mode="truncated")
    h_ad = expand(b, b.reduced_hamiltonian())
    for n in range(6):
        for sector, energy in (("-", b.energies_minus[n]), ("+", b.energies_plus[n])):
            ket = b.state(n, sector)
            assert np.linalg.norm(h_ad @ ket - energy * ket) < 1e-12
    # beta = 0 limit: omega a^dag a + omega0 sigma_z / 2 on the retained span
    b0 = build_basis(RabiParams(1.0, 0.15, 0.0), 6, dims40, energy_mode="truncated")
    h0 = expand(b0, b0.reduced_hamiltonian())
    a = annihilation(dims40)
    h_expected = 1.0 * a.conj().T @ a + 0.075 * qubit_op("sigma_z", dims40)
    v = b0.isometry
    assert max_abs(v.conj().T @ (h0 - h_expected) @ v) < 1e-12
    # retained-block energies track the exact spectrum once the dropped
    # constant is restored
    spec = exact_spectrum(p, dims40, keep=8)
    ladder = np.sort(np.concatenate([b.energies_minus, b.energies_plus]))[:8]
    assert max_abs(ladder - (spec.energies + p.omega * p.beta**2)) < 5e-3


def test_dressed_matrix_elements(dims40):
    # position a + a^dag: bare ladder elements sqrt(M) delta_{N,M-1} + sqrt(M+1) delta_{N,M+1}
    # within each ladder and -2 beta delta_{N,M} across; sigma_x: delta_{N,M} across only
    p = RabiParams(1.0, 0.3, 0.1)
    b = build_basis(p, 5, dims40)
    ladders = b.reduced_ladder("-") + b.reduced_ladder("+")
    cross = _cross_sum(b)
    x_reduced = ladders + ladders.conj().T - 2 * p.beta * (cross + cross.conj().T)
    a = annihilation(dims40)
    x = a + a.conj().T
    # closed forms against brute-force sandwiches
    for n in range(4):
        num = b.state(n, "+").conj() @ x @ b.state(n + 1, "+")
        assert abs(num - math.sqrt(n + 1)) < 1e-3
        for sector in "+-":
            block = b.sector_block(sector)
            assert abs(x_reduced[block, block][n, n + 1] - math.sqrt(n + 1)) < 1e-12
    for n in range(5):
        num = b.state(n, "-").conj() @ x @ b.state(n, "+")
        assert abs(num - (-2 * p.beta)) < 1e-3
        assert abs(x_reduced[b.sector_block("-"), b.sector_block("+")][n, n] - (-2 * p.beta)) < 1e-12
    # the expanded operator agrees with the numeric sandwich on every pair
    v = b.isometry
    numeric = v.conj().T @ x @ v
    assembled = v.conj().T @ expand(b, x_reduced) @ v
    assert max_abs(numeric - assembled) < 1e-9

    sx_reduced = cross + cross.conj().T
    sx = qubit_op("sigma_x", dims40)
    for n in range(5):
        for m in range(5):
            intra = b.state(n, "+").conj() @ sx @ b.state(m, "+")
            assert abs(intra) < 1e-12
            cross_nm = b.state(n, "-").conj() @ sx @ b.state(m, "+")
            assert abs(cross_nm - (1.0 if n == m else 0.0)) < 1e-12
    assert max_abs(sx_reduced[:5, 5:] - np.eye(5)) < 1e-12
    assert max_abs(v.conj().T @ sx @ v - sx_reduced) < 1e-12


def test_dressed_lowering(dims40):
    p = RabiParams(1.0, 0.3, 0.1)
    b = build_basis(p, 5, dims40)
    s = _dressed_lowering(b)
    assert np.linalg.norm(s @ b.state(0, "-")) < 1e-12
    # second construction route: energy-ordered elements of the position operator
    states = [(b.energies_minus[n], b.state(n, "-")) for n in range(5)]
    states += [(b.energies_plus[n], b.state(n, "+")) for n in range(5)]
    states.sort(key=lambda t: t[0])
    a = annihilation(dims40)
    x = a + a.conj().T
    alt = np.zeros_like(s)
    for j, (ej, ketj) in enumerate(states):
        for k, (ek, ketk) in enumerate(states):
            if ek > ej:
                alt += (ketj.conj() @ x @ ketk) * np.outer(ketj, ketk.conj())
    v = b.isometry
    assert max_abs(v.conj().T @ (s - alt) @ v) < 1e-9
    # beta = 0: reduces to the bare lowering operator on the retained span
    b0 = build_basis(RabiParams(1.0, 0.3, 0.0), 5, dims40)
    s0 = _dressed_lowering(b0)
    v0 = b0.isometry
    assert max_abs(v0.conj().T @ (s0 - a) @ v0) < 1e-12


def test_build_basis_guards(dims40):
    with pytest.raises(ValueError):
        build_basis(RabiParams(1.0, 0.3, 0.1), 13, dims40)  # above the hard cap
    # the soft limits are graded by validity_report alone: build_basis builds without a warning
    rates = fig3_rates()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_basis(RabiParams(1.0, 0.3, 0.1), 8, dims40)  # above the comfort bound
        build_basis(RabiParams(1.0, 0.0, 0.1), 3, dims40)  # degenerate qubit
    comfort = "n_levels=8 above the comfortable bound 5"
    assert comfort in validity_report(RabiParams(1.0, 0.3, 0.1), 8, rates).warnings
    assert not any("comfortable" in w for w in validity_report(RabiParams(1.0, 0.3, 0.1), 5, rates).warnings)
    assert "omega0 = 0: degenerate qubit, dressed pairs coincide" in \
        validity_report(RabiParams(1.0, 0.0, 0.1), 3, rates).warnings
    with pytest.raises(ValueError):
        build_basis(RabiParams(1.0, 0.3, 0.1), 0, dims40)
    with pytest.raises(ValueError):
        build_basis(RabiParams(1.0, 0.3, 0.1), 5, dims40, energy_mode="approximate")
    # n_levels < n_cut: a reduced state (2 n_levels) never has a full-space shape (2 n_cut)
    for n in (2, 5, 12):
        with pytest.raises(ValueError, match=f"n_levels={n} .*n_cut={n}"):
            build_basis(RabiParams(1.0, 0.3, 0.1), n, SpaceDims(n))
    # a sector is "-" or "+" and nothing else
    b = build_basis(RabiParams(1.0, 0.3, 0.1), 5, dims40)
    for sector in ("minus", "", "+-"):
        for read in (lambda: b.state(0, sector), lambda: b.reduced_ladder(sector)):
            with pytest.raises(ValueError, match="unknown sector"):
                read()


def test_validity_report():
    rates = fig3_rates()
    rep = validity_report(RabiParams(1.0, 0.3, 0.1), 5, rates)
    assert rep.quasi_degenerate and abs(rep.qubit_margin) < 1e-12
    assert rep.beta_ok and rep.n_max == 25
    for beta in (1e-160, 1e-170):
        assert validity_report(RabiParams(1.0, 0.3, beta), 12, rates).n_max is None
    assert rep.secular_ok is True and rep.secular_margin == pytest.approx(20 / 3, rel=1e-6)

    rep = validity_report(RabiParams(1.0, 0.3, 0.25), 5, rates)
    assert not rep.beta_ok

    rep = validity_report(RabiParams(1.0, 0.0, 0.1), 5, rates)
    assert any("degenerate" in w for w in rep.warnings)
