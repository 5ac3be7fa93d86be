import math
from dataclasses import replace

import numpy as np
import pytest

from dressedrabi.adiabatic import build_basis, displaced_overlap
from dressedrabi.hilbert import max_abs
from dressedrabi.lindblad import (
    JumpTerm,
    MasterEquation,
    RateFunctions,
    driven_rotating_dme,
    finite_temperature_dme,
    gibbs_state,
    standard_master_equation,
    zero_temperature_dme,
)
from dressedrabi.rabi import RabiParams, ground_state
from dressedrabi.spectroscopy import _cross_drive_op

from conftest import basis_ket, expand, fig3_params, fig3_rates, probe_frame_generator, random_density
from dense_reference import dissipator_apply


@pytest.fixture(scope="module")
def basis(dims40):
    return build_basis(fig3_params(), 12, dims40, energy_mode="truncated")


def test_dissipator_basics(dims40):
    a_small = np.diag(np.sqrt(np.arange(1, 4)), 1).astype(complex)
    vac = np.zeros((4, 4), dtype=complex)
    vac[0, 0] = 1.0
    assert max_abs(dissipator_apply(a_small, vac)) == 0.0
    one = np.zeros((4, 4), dtype=complex)
    one[1, 1] = 1.0
    out = dissipator_apply(a_small, one)
    expected = vac - one
    assert max_abs(out - expected) < 1e-14
    rng = np.random.default_rng(5)
    rho = random_density(4, rng)
    assert abs(np.trace(dissipator_apply(a_small, rho))) < 1e-14
    with pytest.raises(ValueError):
        dissipator_apply(a_small, np.eye(3, dtype=complex))


def test_sme_decoupled_stationary(dims40):
    p = RabiParams(1.0, 0.3, 0.0)
    me = standard_master_equation(p, RateFunctions.flat(0.1, 0.1), dims40)
    g0 = basis_ket(1, 0, dims40)
    rho = np.outer(g0, g0.conj())
    assert max_abs(me.rhs(rho)) < 1e-14


def test_sme_disturbs_interacting_ground_state(dims40):
    p = fig3_params()
    rate = 0.1
    me = standard_master_equation(p, RateFunctions.flat(rate, rate), dims40)
    _, gs = ground_state(p, dims40)
    rho = np.outer(gs, gs.conj())
    assert max_abs(me.rhs(rho)) > 1e-4 * rate


def test_generator_trace_and_hermiticity(dims40, basis):
    rng = np.random.default_rng(9)
    for me in (
        standard_master_equation(fig3_params(), RateFunctions.flat(0.1, 0.05), dims40),
        zero_temperature_dme(basis, fig3_rates()),
    ):
        rho = random_density(me.dim, rng)
        out = me.rhs(rho)
        assert abs(np.trace(out)) < 1e-12 * max(max_abs(out), 1e-300)
        assert max_abs(out - out.conj().T) < 1e-12


def test_zero_t_dme_structure(basis):
    rates = fig3_rates()
    me = zero_temperature_dme(basis, rates)
    # dark ground state
    rho = np.zeros((24, 24), dtype=complex)
    rho[0, 0] = 1.0
    assert max_abs(me.rhs(rho)) == 0.0
    # |Psi_0^+> drains into |Psi_0^-> at kappa = gamma + 4 beta^2 Gamma
    top = np.zeros((24, 24), dtype=complex)
    top[12, 12] = 1.0
    out = me.rhs(top)
    kappa = rates.qubit_rate(basis.omega_tilde[0]) + 4 * 0.01 * rates.oscillator_rate(basis.omega_tilde[0])
    assert abs(out[12, 12] + kappa) < 1e-15
    assert abs(out[0, 0] - kappa) < 1e-15


def test_zero_t_dme_decoupled_limit(dims40):
    # beta = 0, qubit bath off: two independently damped ladders
    p = RabiParams(1.0, 0.3, 0.0)
    b = build_basis(p, 6, dims40, energy_mode="truncated")
    rates = RateFunctions.flat(0.2, 0.0)
    me = zero_temperature_dme(b, rates)
    rng = np.random.default_rng(2)
    block = random_density(6, rng)
    rho = np.zeros((12, 12), dtype=complex)
    rho[:6, :6] = block
    out = me.rhs(rho)
    ladder = np.diag(np.sqrt(np.arange(1, 6)), 1).astype(complex)
    h_block = np.diag(b.energies_minus).astype(complex)
    expected = -1j * (h_block @ block - block @ h_block) + 0.2 * dissipator_apply(ladder, block)
    assert max_abs(out[:6, :6] - expected) < 1e-13
    assert max_abs(out[6:, 6:]) < 1e-15


def test_finite_t_recovers_zero_t(basis):
    rates0 = fig3_rates()
    tiny = RateFunctions.flat(rates0.oscillator_rate(1.0), rates0.qubit_rate(1.0), temperature=1e-6)
    me_t = finite_temperature_dme(basis, tiny)
    me_0 = zero_temperature_dme(basis, RateFunctions.flat(rates0.oscillator_rate(1.0), rates0.qubit_rate(1.0)))
    rng = np.random.default_rng(4)
    rho = random_density(24, rng)
    assert max_abs(me_t.rhs(rho) - me_0.rhs(rho)) < 1e-12


@pytest.mark.parametrize("temperature", [0.1, 0.5])
def test_gibbs_stationary_and_detailed_balance(basis, temperature):
    base = fig3_rates()
    rates = RateFunctions.flat(
        base.oscillator_rate(1.0), base.qubit_rate(1.0), temperature=temperature
    )
    me = finite_temperature_dme(basis, rates)
    gb = gibbs_state(basis, temperature)
    assert max_abs(me.rhs(gb)) < 1e-9
    # detailed balance, channel by channel
    by_label = {term.label: term for term in me.jumps}
    for label, term in by_label.items():
        if label.endswith("_down"):
            up = by_label[label[:-5] + "_up"]
            ratio = up.rate / term.rate
            assert ratio == pytest.approx(math.exp(-term.frequency / temperature), rel=5e-14)


def test_finite_t_requires_temperature(basis):
    with pytest.raises(ValueError):
        finite_temperature_dme(basis, fig3_rates())


def test_dephasing_operator(dims40, basis):
    sz = expand(basis, basis.reduced_dephasing_op())
    v = basis.isometry
    red = v.conj().T @ sz @ v
    beta = basis.params.beta
    for n in range(12):
        o = displaced_overlap(n, beta)
        assert abs(red[n + 12, n + 12] - o) < 1e-12  # plus sector
        assert abs(red[n, n] + o) < 1e-12  # minus sector
        for m in range(12):
            assert abs(red[n, m + 12]) < 1e-12
    # beta = 0 limit: 1_+ - 1_-
    b0 = build_basis(RabiParams(1.0, 0.3, 0.0), 4, dims40)
    sz0 = b0.reduced_dephasing_op()
    assert max_abs(sz0 - np.diag([-1, -1, -1, -1, 1, 1, 1, 1])) < 1e-15


def test_dephasing_term(basis):
    rates = fig3_rates()
    me = zero_temperature_dme(basis, rates)
    sz = basis.reduced_dephasing_op()
    gamma_f = rates.gamma_f
    med = replace(me, jumps=[*me.jumps, JumpTerm(gamma_f, sz, 0.0, "dephasing")])
    beta = basis.params.beta

    # populations within one ladder move only at O(beta^4)
    for n, m in ((0, 1), (0, 2), (1, 2)):
        coeff = (displaced_overlap(n, beta) - displaced_overlap(m, beta)) ** 2
        assert coeff <= 6.4e-3
        coherence = np.zeros((24, 24), dtype=complex)
        coherence[n, m] = 1.0
        extra = med.rhs(coherence) - me.rhs(coherence)
        assert abs(extra[n, m] + 0.5 * gamma_f * coeff) < 1e-15

    # cross-ladder coherences decay at (gamma_f/2)(<N_+|N_-> + <M_+|M_->)^2 ~ 2 gamma_f
    cross = np.zeros((24, 24), dtype=complex)
    cross[0, 12] = 1.0
    extra = med.rhs(cross) - me.rhs(cross)
    coeff = (displaced_overlap(0, beta) + displaced_overlap(0, beta)) ** 2
    assert abs(extra[0, 12] + 0.5 * gamma_f * coeff) < 1e-15
    assert abs(coeff - 4.0) < 0.2  # ~ 2 gamma_f decay rate of the element

    # the Hermitian jump equals the double-commutator form -(gamma_f/2)[S_z,[S_z, rho]]
    rng = np.random.default_rng(3)
    rho = random_density(24, rng)
    inner = sz @ rho - rho @ sz
    double_commutator = -0.5 * gamma_f * (sz @ inner - inner @ sz)
    assert max_abs(med.rhs(rho) - me.rhs(rho) - double_commutator) < 1e-12


def test_driven_rotating_structure(basis):
    rates = fig3_rates()
    me = driven_rotating_dme(basis, rates, pump_amp=0.0, pump_freq=basis.omega_minus)
    labels = [t.label for t in me.jumps]
    assert labels.count("ladder_plus") == 1 and labels.count("ladder_minus") == 1
    assert sum(lbl.startswith("cross_") for lbl in labels) == 12
    # dephasing is the last jump, (gamma_f, S_z), and absent at gamma_f = 0
    last = me.jumps[-1]
    assert last.label == "dephasing" and last.rate == rates.gamma_f
    assert np.array_equal(last.op, basis.reduced_dephasing_op())
    undephased = driven_rotating_dme(basis, fig3_rates(gamma_f_scale=0.0), 0.0, basis.omega_minus)
    assert [t.label for t in undephased.jumps] == labels[:-1]
    # pump-frame Hamiltonian: the lower ladder is exactly on resonance
    h = me.hamiltonian
    assert abs((h[1, 1] - h[0, 0]).real) < 1e-15  # Delta_- = 0
    assert abs((h[13, 13] - h[12, 12]).real - (basis.omega_plus - basis.omega_minus)) < 1e-15


def test_coherent_steady_state_of_driven_generator(basis):
    # small pump keeps the coherent state far from the retained-top boundary
    from dressedrabi.dynamics import coherent_dressed_ket

    rates = fig3_rates(gamma_f_scale=0.0)
    gamma = rates.oscillator_rate(basis.omega_minus)
    amp = 0.25 * gamma  # |alpha| = 0.5
    me = driven_rotating_dme(basis, rates, amp, basis.omega_minus)
    alpha = amp / (1j * gamma / 2.0)
    ket = coherent_dressed_ket(basis, alpha, "-")
    rho = np.outer(ket, ket.conj())
    assert max_abs(me.rhs(rho)) < 1e-8


def test_corotating_two_tone_detunings(basis):
    rates = fig3_rates()
    ws = basis.omega_tilde[0]
    pump_only = driven_rotating_dme(basis, rates, 0.0009, basis.omega_minus)
    me = probe_frame_generator(pump_only, _cross_drive_op(basis, 0.0003), ws)
    h = me.hamiltonian
    # pair splitting becomes omega_tilde_N - omega_s: zero on rung 0
    assert abs((h[12, 12] - h[0, 0]).real - 0.0) < 1e-15
    assert abs((h[13, 13] - h[1, 1]).real - (basis.omega_tilde[1] - ws)) < 1e-12
    # the static probe: -2 beta Omega_s on every equal-N cross element
    assert abs(h[0, 12] - (-2 * 0.1 * 0.0003)) < 1e-18
    # the probe leaves the jumps and the intra-ladder Hamiltonian of the pump frame alone
    assert all(a.label == b.label and a.rate == b.rate for a, b in zip(me.jumps, pump_only.jumps))
    assert len(me.jumps) == len(pump_only.jumps)
    assert max_abs((h - pump_only.hamiltonian)[:12, :12] - 0.5 * ws * np.eye(12)) < 1e-15
    # the pump+probe frame: the diagonal gains omega_s (1_- - 1_+)/2
    assert max_abs(np.diag(h - pump_only.hamiltonian) - ws * np.repeat([0.5, -0.5], 12)) < 1e-15


def test_validation_guards(dims40, basis):
    with pytest.raises(ValueError):
        RateFunctions.flat(0.1, 0.1, gamma_f=-1.0)
    with pytest.raises(ValueError):
        RateFunctions(Gamma=lambda w: -1.0).oscillator_rate(1.0)
    with pytest.raises(ValueError):
        MasterEquation(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        MasterEquation(hamiltonian=np.zeros((2, 3), dtype=complex))
    with pytest.raises(ValueError, match="shape mismatch"):
        MasterEquation(hamiltonian=np.eye(2, dtype=complex), jumps=[JumpTerm(0.1, np.eye(3, dtype=complex))])
    for temperature in (0.0, -0.1):
        with pytest.raises(ValueError, match="temperature"):
            gibbs_state(basis, temperature)
    # the zero-temperature builders refuse a temperature instead of ignoring it
    warm = RateFunctions.flat(0.1, 0.1, temperature=0.4)
    for build in (
        lambda: zero_temperature_dme(basis, warm),
        lambda: driven_rotating_dme(basis, warm, 0.01, basis.omega_minus),
        lambda: standard_master_equation(basis.params, warm, dims40),
    ):
        with pytest.raises(ValueError, match="finite_temperature_dme"):
            build()
    # past freq/T = 700 the Bose occupation (< 1e-304) is 0, not an overflow of exp
    cold = RateFunctions.flat(0.1, 0.1, temperature=1e-3)
    assert cold.thermal_occupation(0.69) == pytest.approx(1.0 / math.expm1(690.0), rel=1e-12, abs=0.0)
    assert cold.thermal_occupation(1.0) == 0.0
    with pytest.raises(ValueError):
        MasterEquation(
            hamiltonian=np.eye(2, dtype=complex),
            jumps=[JumpTerm(-0.1, np.eye(2, dtype=complex))],
        )
    # non-finite rates and Hamiltonians are rejected, not propagated
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            RateFunctions.flat(bad, 0.1).oscillator_rate(1.0)
        with pytest.raises(ValueError):
            RateFunctions(gamma=lambda w, v=bad: v).qubit_rate(1.0)
        with pytest.raises(ValueError):
            RateFunctions.flat(0.1, 0.1, gamma_f=bad)
        with pytest.raises(ValueError):
            MasterEquation(
                hamiltonian=np.eye(2, dtype=complex),
                jumps=[JumpTerm(bad, np.eye(2, dtype=complex))],
            )
        with pytest.raises(ValueError):
            MasterEquation(hamiltonian=np.diag([bad, 0.0]).astype(complex))
