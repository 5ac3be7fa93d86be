import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import schur
from scipy.linalg.lapack import dtrsyl
from scipy.sparse.linalg import expm_multiply

from dressedrabi import dynamics
from dressedrabi.adiabatic import build_basis
from dressedrabi.dynamics import (
    _CHUNK,
    _DENSE_MAX,
    NumericsError,
    _reachable_block,
    _shifted_qt_solve,
    _shifted_solver,
    _solve_liouvillian,
    _unvec,
    coherent_dressed_ket,
    evolve,
    generator_scale,
    observables,
    steady_state_longtime,
    steady_state_nullspace,
    steady_state_timeaveraged,
)
from dressedrabi.hilbert import SpaceDims, max_abs, trace_distance
from dressedrabi.lindblad import (
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

from conftest import expand, fig3_params, probe_frame_generator, random_density, scan_pump_system
from dense_reference import dense_liouvillian, dense_rhs, dense_steady_state, rk4_time_average


def _basis(dims, n_levels=6, omega0=0.3, beta=0.1):
    return build_basis(RabiParams(1.0, omega0, beta), n_levels, dims, energy_mode="truncated")


def _moderate_rates(gamma_f=0.0):
    # fast relaxation so integrations stay short; kappa = gamma + 4 beta^2 Gamma
    big = 0.3
    kappa = 0.05
    return RateFunctions.flat(big, kappa - 4 * 0.01 * big, gamma_f=gamma_f), big, kappa


def test_constant_trajectory(dims40):
    b = _basis(dims40)
    rates, _, _ = _moderate_rates()
    me = zero_temperature_dme(b, rates)
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[0, 0] = 1.0
    traj = evolve(me, rho0, 5.0, 0.05, stride=10)
    assert max_abs(traj.states[-1] - rho0) < 1e-12
    assert traj.metadata["max_trace_drift"] < 1e-12


def test_two_level_relaxation_closed_form(dims40):
    # from |Psi_0^+>: population of |Psi_0^-> grows as 1 - e^{-kappa t}
    b = _basis(dims40)
    rates, _, kappa = _moderate_rates()
    me = zero_temperature_dme(b, rates)
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[6, 6] = 1.0
    traj = evolve(me, rho0, 3.0 / kappa, 0.02, stride=25)
    pops = np.array([np.real(s[0, 0]) for s in traj.states])
    expected = 1.0 - np.exp(-kappa * traj.times)
    assert np.max(np.abs(pops - expected)) < 1e-6


def test_damped_ladder_decay(dims40):
    # undriven damped ladder: <n>(t) = n0 e^{-Gamma t}
    b = _basis(dims40)
    rates, big, _ = _moderate_rates()
    me = zero_temperature_dme(b, rates)
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[2, 2] = 1.0  # |Psi_2^->
    traj = evolve(me, rho0, 2.0 / big, 0.01, stride=20)
    expected = 2.0 * np.exp(-big * traj.times)
    assert np.max(np.abs(traj.observables["n_minus"] - expected)) < 1e-6
    assert np.max(np.abs(traj.observables["n_plus"])) < 1e-12


def test_integrator_fourth_order(dims40):
    b = _basis(dims40)
    rates, _, _ = _moderate_rates(gamma_f=0.1)
    me = driven_rotating_dme(b, rates, 0.1, b.omega_minus)
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[1, 1] = 1.0
    ref = evolve(me, rho0, 2.0, 0.002, stride=10**9).states[-1]
    err = []
    for dt in (0.08, 0.04):
        state = evolve(me, rho0, 2.0, dt, stride=10**9).states[-1]
        err.append(max_abs(state - ref))
    assert err[0] / err[1] >= 8.0


def _exact_cases(dims40):
    """(label, generator, initial state): the bare-operator ME at n_cut = 10 and the DME."""
    rng = np.random.default_rng(3)
    p, dims = fig3_params(), SpaceDims(10)
    sme = standard_master_equation(p, RateFunctions.flat(0.3, 0.2), dims)
    _, gs = ground_state(p, dims)
    b = _basis(dims40)
    dme = zero_temperature_dme(b, _moderate_rates(gamma_f=0.05)[0])
    ground = np.zeros((12, 12), dtype=complex)
    ground[0, 0] = 1.0
    return [
        ("sme exact ground", sme, np.outer(gs, gs.conj())),
        ("sme random", sme, random_density(dims.total_dim, rng)),
        ("dme dressed ground", dme, ground),
        ("dme random", dme, random_density(12, rng)),
    ]


def test_exact_matches_rk4(dims40):
    # exact propagation against RK4 at a tenth of the CLI's step, on the same sample grid
    for label, me, rho0 in _exact_cases(dims40):
        fast = evolve(me, rho0, 2.0, 0.002, stride=50, exact=True)
        slow = evolve(me, rho0, 2.0, 0.002, stride=50)
        assert np.array_equal(fast.times, slow.times), label
        assert len(fast.states) == 21, label
        gap = max(max_abs(a - b) for a, b in zip(fast.states, slow.states))
        assert gap < 1e-9, (label, gap)
        assert fast.metadata["method"] == "expm" and slow.metadata["method"] == "rk4"
        assert fast.metadata["steps"] == 20 and slow.metadata["steps"] == 1000


def test_exact_block_matches_full_space(dims40):
    # the reachable block against expm_multiply on all d^2 unknowns
    blocks = {}
    for label, me, rho0 in _exact_cases(dims40):
        traj = evolve(me, rho0, 3.0, 0.02, stride=10, exact=True)
        d = me.dim
        x = rho0.reshape(-1, order="F")
        for h, state in zip(np.diff(traj.times), traj.states[1:]):
            x = expm_multiply(h * me.liouvillian(), x)
            assert max_abs(state - x.reshape((d, d), order="F")) < 1e-12, label
        blocks[label] = traj.metadata["block_dim"]
        assert traj.metadata["dropped_weight"] < 1e-14, label
    # the parity block of the exact ground state, a single unknown for the dressed one
    assert blocks == {"sme exact ground": 200, "sme random": 400, "dme dressed ground": 1, "dme random": 144}


def test_exact_drops_and_reports_sub_floor_weight(dims40):
    # 5e-14 in each of the 3200 entries off the parity block of the exact ground
    # state: each is below the seed floor of 1e-13 max|rho|, together they weigh 1.6e-10
    p = fig3_params()
    sme = standard_master_equation(p, RateFunctions.flat(0.3, 0.2), dims40)
    _, gs = ground_state(p, dims40)
    rho0 = np.outer(gs, gs.conj())
    vec = rho0.reshape(-1, order="F")
    off = np.setdiff1d(np.arange(vec.size), _reachable_block(sme.liouvillian(), vec)[0])
    assert off.size == 3200
    stray = np.zeros(vec.size, dtype=complex)
    stray[off] = 5e-14
    with pytest.warns(UserWarning, match="dropped"):
        traj = evolve(sme, rho0 + _unvec(stray, sme.dim), 0.4, 0.02, stride=20, exact=True)
    assert traj.metadata["block_dim"] == 3200
    assert traj.metadata["dropped_weight"] == pytest.approx(3200 * 5e-14, rel=1e-3)


def test_exact_tail_interval_keeps_the_rk4_grid(dims40):
    # t_end is no multiple of dt * stride: the last, shorter interval ends at t_end
    _, me, rho0 = _exact_cases(dims40)[3]
    fast = evolve(me, rho0, 1.03, 0.02, stride=10, exact=True)
    slow = evolve(me, rho0, 1.03, 0.02, stride=10)
    assert np.array_equal(fast.times, slow.times)
    assert fast.times[-2] == pytest.approx(1.0) and fast.times[-1] == 1.03
    # RK4's own error at dt = 0.02 is 3.7e-8 here
    assert max_abs(fast.states[-1] - slow.states[-1]) < 1e-6


def test_exact_checks_the_eigenvalue_floor(dims40):
    # a negative population in |Psi_0^+> decays at kappa: still negative at the first sample
    b = _basis(dims40)
    me = zero_temperature_dme(b, _moderate_rates()[0])
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[0, 0] = 1.2
    rho0[6, 6] = -0.2
    with pytest.raises(NumericsError, match="eigenvalue"):
        evolve(me, rho0, 1.0, 0.02, stride=5, exact=True)


def test_exact_chunks_match_per_interval_propagation(dims40):
    # more sample intervals than one grid call takes, and a shortened tail:
    # the chunked grid calls against one expm_multiply per interval
    _, me, rho0 = _exact_cases(dims40)[1]
    n_full = _CHUNK + 30
    traj = evolve(me, rho0, n_full * 0.02 + 0.007, 0.01, stride=2, exact=True)
    intervals = np.diff(traj.times)
    assert len(intervals) == n_full + 1 and intervals[-1] == pytest.approx(0.007)
    x = rho0.reshape(-1, order="F")
    for h, state in zip(intervals, traj.states[1:]):
        x = expm_multiply(h * me.liouvillian(), x)
        assert max_abs(state - _unvec(x, me.dim)) < 1e-12


def test_exact_leaves_the_global_random_stream_alone(dims40):
    # a chunk spanning many intervals makes scipy estimate matrix-power norms with random vectors
    _, me, rho0 = _exact_cases(dims40)[0]
    np.random.seed(7)
    expected = np.random.random_sample()
    np.random.seed(7)
    evolve(me, rho0, 40.0, 0.02, stride=20, exact=True, store_states=False)
    assert np.random.random_sample() == expected


@pytest.mark.parametrize("exact", [True, False])
def test_eigenvalue_floor_tolerates_rounding_but_not_negativity(dims40, exact):
    # a negative population in |Psi_0^+> decays at kappa = 0.05: over t = 1 it keeps
    # 95% of its size, so -1e-9 stays above the floor and -1e-6 stays below it
    b = _basis(dims40)
    me = zero_temperature_dme(b, _moderate_rates()[0])
    for negative in (1e-9, 1e-6):
        rho0 = np.zeros((12, 12), dtype=complex)
        rho0[0, 0] = 1.0 + negative
        rho0[6, 6] = -negative
        if negative > 1e-7:
            with pytest.raises(NumericsError, match="eigenvalue"):
                evolve(me, rho0, 1.0, 0.02, stride=5, exact=exact)
            continue
        traj = evolve(me, rho0, 1.0, 0.02, stride=5, exact=exact)
        assert len(traj.times) == 11
        # every sample passed the Cholesky test: min_eigenvalue is the final sample's
        final = np.linalg.eigvalsh(0.5 * (traj.states[-1] + traj.states[-1].conj().T))[0]
        assert traj.metadata["min_eigenvalue"] == final
        assert -1e-9 < final < -0.9e-9


@pytest.mark.parametrize("exact", [True, False])
def test_non_finite_initial_state_is_refused(dims40, exact):
    # and a horizon, step or stride that is not finite, or out of range
    me = zero_temperature_dme(_basis(dims40), _moderate_rates()[0])
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[0, 0] = 1.0
    bad = rho0.copy()
    bad[0, 6] = np.nan
    cases = [(bad, 1.0, 0.02, 5, "non-finite")]
    # a state other than the generator's 12 x 12, the full space's 80 x 80 included
    full = np.zeros((dims40.total_dim, dims40.total_dim), dtype=complex)
    full[dims40.n_cut, dims40.n_cut] = 1.0
    cases += [(state, 1.0, 0.02, 5, "does not fit") for state in (np.eye(5, dtype=complex) / 5.0, full)]
    cases += [(rho0, t_end, 0.02, 5, "t_end") for t_end in (math.nan, math.inf, -1.0)]
    cases += [(rho0, 1.0, dt, 5, "dt") for dt in (math.nan, math.inf, -math.inf, 0.0, -0.02)]
    # a fractional stride would sample where taken % stride == 0: every 3rd step at 1.5
    cases += [(rho0, 1.0, 0.02, stride, "stride") for stride in (0, -1, 1.5, 2.5)]
    for state, t_end, dt, stride, match in cases:
        with pytest.raises(ValueError, match=match):
            evolve(me, state, t_end, dt, stride=stride, exact=exact)
    # the long-time solver takes its state as evolve does
    for state, match in [(bad, "non-finite"), (full, "does not fit")]:
        with pytest.raises(ValueError, match=match):
            steady_state_longtime(me, state, dt=0.02)
    # a numpy integer is a stride
    assert len(evolve(me, rho0, 0.2, 0.02, stride=np.int64(2), exact=exact).times) == 6


def test_non_finite_system_is_refused_before_the_dense_retry():
    me = MasterEquation(hamiltonian=np.diag(np.arange(4.0)).astype(complex))
    system = me.liouvillian().copy()
    system.data[3] = np.nan
    with pytest.raises(NumericsError, match="non-finite"):
        _solve_liouvillian(system, me.dim, 3.0)


def test_ground_readout_matches_stored_states():
    # observables["ground"] of a run without stored states against <Psi_0^-| rho |Psi_0^->
    # read from the stored states, for the DME and for the bare-operator ME given the basis
    p, dims = fig3_params(), SpaceDims(10)
    rates = RateFunctions.flat(0.3, 0.2)
    b = _basis(dims, n_levels=4)
    ket = b.state(0, "-")
    _, gs = ground_state(p, dims)
    cases = [
        (zero_temperature_dme(b, rates), random_density(b.reduced_dim, np.random.default_rng(5)), lambda s: s[0, 0]),
        (replace(standard_master_equation(p, rates, dims), basis=b), np.outer(gs, gs.conj()),
         lambda s: ket.conj() @ s @ ket),
    ]
    for me, rho0, ground in cases:
        for exact in (False, True):
            light = evolve(me, rho0, 1.0, 0.01, stride=10, exact=exact, store_states=False)
            stored = evolve(me, rho0, 1.0, 0.01, stride=10, exact=exact)
            assert light.states is None and len(light.times) == len(stored.states) == 11
            expected = np.array([np.real(ground(s)) for s in stored.states])
            assert max_abs(light.observables["ground"] - expected) < 1e-14, (me.dim, exact)


def test_trace_breach_aborts(dims40):
    b = _basis(dims40)
    rates, _, _ = _moderate_rates()
    me = zero_temperature_dme(b, rates)
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[5, 5] = 1.0
    with pytest.raises(NumericsError):
        evolve(me, rho0, 400.0, 8.0)  # absurd step: RK4 blows up


def test_nullspace_ground_state(dims40):
    b = _basis(dims40)
    rates, _, _ = _moderate_rates()
    ss = steady_state_nullspace(zero_temperature_dme(b, rates))
    assert ss.metadata["solve"] == "splu"
    assert np.real(ss.rho[0, 0]) > 1.0 - 1e-10
    assert ss.residual < 1e-10 * 0.3


def test_nullspace_driven_matches_formula(dims40):
    b = _basis(dims40, n_levels=12)
    rates, big, _ = _moderate_rates()
    me = driven_rotating_dme(b, rates, big / 2.0, b.omega_minus)
    ss = steady_state_nullspace(me)
    obs = observables(ss.rho, b)
    assert abs(obs["n_total"] - 1.0) < 1e-6
    assert obs["sector_plus"] < 1e-6


def test_nullspace_thermal(dims40):
    b = _basis(dims40)
    rates = RateFunctions.flat(0.3, 0.04, temperature=0.4)
    ss = steady_state_nullspace(finite_temperature_dme(b, rates))
    assert trace_distance(ss.rho, gibbs_state(b, 0.4)) < 1e-8


def test_nullspace_singular_factor_falls_back():
    # without dissipation the folded system is exactly singular: splu refuses it
    # and the dense least-squares retry returns one member of the steady family
    me = MasterEquation(hamiltonian=np.diag(np.arange(4.0)).astype(complex))
    ss = steady_state_nullspace(me)
    assert abs(np.trace(ss.rho) - 1.0) < 1e-12
    assert ss.residual <= 1e-10 * 3.0
    assert ss.metadata["solve"] == "lstsq"
    # above 2500 unknowns (d = 51 here) the dense retry is refused, not allocated
    big = MasterEquation(hamiltonian=np.diag(np.arange(51.0)).astype(complex))
    with pytest.raises(NumericsError, match="dense retry"):
        steady_state_nullspace(big)


def test_a_discarded_splu_attempt_does_not_warn(dims40, monkeypatch):
    # a stand-in splu whose solve is off by -0.5 I on rho_0: the clip of that
    # attempt meets an eigenvalue near -0.5 and leaves a projector, which misses
    # the residual bound, so the attempt is discarded; only the returned lstsq
    # state may warn, and it has nothing to clip
    b = _basis(dims40)
    me = finite_temperature_dme(b, RateFunctions.flat(0.3, 0.04, temperature=0.4))
    off = 0.5 * np.eye(me.dim).reshape(-1, order="F")
    real_splu = dynamics.splu

    class OffSplu:
        def __init__(self, matrix):
            self.lu = real_splu(matrix)

        def solve(self, rhs):
            v = self.lu.solve(rhs)
            v[: off.size] -= off
            return v

    monkeypatch.setattr(dynamics, "splu", OffSplu)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ss = steady_state_nullspace(me)
    assert ss.metadata["solve"] == "lstsq"
    assert trace_distance(ss.rho, gibbs_state(b, 0.4)) < 1e-8
    assert not [w for w in caught if "clipped" in str(w.message)]


def test_nullspace_vs_longtime(dims40):
    b = _basis(dims40)
    rates, big, _ = _moderate_rates(gamma_f=0.05)
    me = driven_rotating_dme(b, rates, 0.1, b.omega_minus)
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[0, 0] = 1.0
    ss_n = steady_state_nullspace(me)
    ss_l = steady_state_longtime(me, rho0, dt=0.01)
    assert trace_distance(ss_n.rho, ss_l.rho) < 1e-6
    # the bare-operator generator too, on a small space
    dims = SpaceDims(8)
    sme = standard_master_equation(fig3_params(), RateFunctions.flat(0.3, 0.2), dims)
    rho0 = random_density(16, np.random.default_rng(0))
    ss_n = steady_state_nullspace(sme)
    ss_l = steady_state_longtime(sme, rho0, dt=0.01)
    assert trace_distance(ss_n.rho, ss_l.rho) < 1e-6


def test_timeaveraged_consistency_no_tone(dims40):
    b = _basis(dims40)
    rates, big, kappa = _moderate_rates(gamma_f=0.02)
    me = driven_rotating_dme(b, rates, 0.1, b.omega_minus)
    ss_n = steady_state_nullspace(me)
    # a zero tone decouples the harmonics: rho_0 is the nullspace state from K = 2 on, so K stops at 3
    ss_t = steady_state_timeaveraged(me, np.zeros((me.dim, me.dim), dtype=complex), 0.29)
    assert trace_distance(ss_n.rho, ss_t.rho) < 1e-12
    assert ss_t.metadata["harmonics"] == 3 and ss_t.metadata["k_change"] <= 1e-8


def _probed(b, rates, pump_amp, spec_amp):
    """The pump-frame generator and the probe tone of the time-averaged solver."""
    return driven_rotating_dme(b, rates, pump_amp, b.omega_minus), _cross_drive_op(b, spec_amp)


def test_timeaveraged_matches_corotating_on_resonance(dims40):
    # frame equivalence of the two two-tone solvers
    b = _basis(dims40, n_levels=8)
    rates, big, kappa = _moderate_rates(gamma_f=0.02)
    ws = float(b.omega_tilde[0])
    pump, tone = _probed(b, rates, big / 2, kappa)
    fast = probe_frame_generator(pump, tone, ws)
    n_fast = observables(steady_state_nullspace(fast).rho, b)["n_total"]

    slow = steady_state_timeaveraged(pump, tone, ws)
    n_slow = observables(slow.rho, b)["n_total"]
    assert abs(n_fast - n_slow) / n_fast < 3e-3
    assert slow.metadata["harmonics"] >= 3 and slow.metadata["k_change"] <= 1e-8


def test_timeaveraged_matches_rk4_average(dims40):
    # the harmonic period average against the brute-force one it replaced: an
    # RK4 burn-in of 10/kappa from the no-probe state, then the mean over 20
    # probe periods.  Measured gap 7.8e-9 relative in n_total; the bound leaves
    # a margin of ~13x.  Both differ from the co-rotating result by 1.0e-3.
    b = _basis(dims40, n_levels=8)
    rates, big, kappa = _moderate_rates(gamma_f=0.02)
    me, tone = _probed(b, rates, big / 2, kappa)
    ws = float(b.omega_tilde[0])
    rho0 = steady_state_nullspace(me).rho
    n_rk4 = observables(rk4_time_average(me, tone, ws, rho0, dt=0.05, t_start=10 / kappa), b)["n_total"]
    n_harmonic = observables(steady_state_timeaveraged(me, tone, ws).rho, b)["n_total"]
    assert abs(n_harmonic - n_rk4) / n_rk4 < 1e-7


def test_dephasing_sets_no_relaxation_time(dims40, monkeypatch):
    # the long-time solver's default block is 5 over the slowest relaxation
    # rate, kappa here; the slower dephasing jump (gamma_f < kappa) does not set it
    b = _basis(dims40)
    rates, big, kappa = _moderate_rates(gamma_f=0.02)
    me = driven_rotating_dme(b, rates, 0.1, b.omega_minus)
    assert me.jumps[-1].label == "dephasing" and me.jumps[-1].rate < kappa
    rho0 = np.zeros((12, 12), dtype=complex)
    rho0[0, 0] = 1.0
    # a loose residual tolerance stops after the first block
    monkeypatch.setattr(dynamics, "_LONGTIME_TOL", 1.0)
    ss = steady_state_longtime(me, rho0, dt=0.1)
    assert ss.metadata["time"] == pytest.approx(5.0 / kappa, rel=1e-12)


def test_timeaveraged_refuses_a_non_hermitian_tone(dims40):
    # H(t) = 2 cos(w t) tone is Hermitian only for a Hermitian tone
    b = _basis(dims40, n_levels=3)
    me, tone = _probed(b, _moderate_rates()[0], 0.1, 0.05)
    with pytest.raises(ValueError, match="Hermitian"):
        steady_state_timeaveraged(me, np.triu(tone), 0.29)


def test_timeaveraged_unconverged_harmonics_raise(dims40):
    # a probe far stronger than its frequency spreads rho over many harmonics:
    # K stops at the cap and the solve fails loudly instead of truncating
    b = _basis(dims40, n_levels=3)
    rates, big, kappa = _moderate_rates()
    with pytest.raises(NumericsError, match="harmonic"):
        steady_state_timeaveraged(*_probed(b, rates, 0.1, 5.0), 0.29)


def test_observables_and_expansion(dims40):
    b = _basis(dims40, n_levels=12)
    rho = np.zeros((24, 24), dtype=complex)
    rho[2, 2] = 1.0  # |Psi_2^->
    obs = observables(rho, b)
    assert obs["n_minus"] == 2.0 and obs["n_plus"] == 0.0
    assert obs["sector_minus"] == 1.0 and obs["sector_plus"] == 0.0
    # coherent ladder state: n_minus = |alpha|^2
    ket = coherent_dressed_ket(b, 0.7, "-")
    rho_c = np.outer(ket, ket.conj())
    assert abs(observables(rho_c, b)["n_minus"] - 0.49) < 1e-6
    for sector in ("minus", ""):
        with pytest.raises(ValueError, match="unknown sector"):
            coherent_dressed_ket(b, 0.7, sector)
    # expansion back to the full space preserves the observables
    full = expand(b, rho_c)
    assert full.shape == (dims40.total_dim, dims40.total_dim)
    obs_full = observables(full, b)
    assert abs(obs_full["n_minus"] - 0.49) < 1e-6
    assert abs(obs_full["leakage"]) < 1e-12
    # a state living outside the span shows up as leakage
    stray = np.zeros(dims40.total_dim, dtype=complex)
    stray[dims40.n_cut - 1] = 1.0
    obs_stray = observables(np.outer(stray, stray.conj()), b)
    assert abs(obs_stray["leakage"] - 1.0) < 1e-9
    # read through V, a state expanded to the full space has its reduced observables; also at the
    # smallest truncation a basis allows, n_cut = n_levels + 1, where the two shapes still differ
    mixed = random_density(24, np.random.default_rng(7))
    for basis in (b, _basis(SpaceDims(13), n_levels=12)):
        for state in (rho_c, mixed):
            assert observables(expand(basis, state), basis) == pytest.approx(observables(state, basis), abs=1e-12)


def test_sector_flow_rate_equations(dims40):
    # d/dt p_+ = -kappa p_+ and d/dt p_- = +kappa p_+, exactly, driven or not
    b = _basis(dims40, n_levels=8)
    rates, big, kappa = _moderate_rates(gamma_f=0.08)
    me = driven_rotating_dme(b, rates, big / 2, b.omega_minus)
    rho0 = np.zeros((16, 16), dtype=complex)
    rho0[8, 8] = 0.35
    rho0[9, 9] = 0.25
    rho0[0, 0] = 0.40
    traj = evolve(me, rho0, 5.0 / kappa, 0.02, stride=100)
    p_plus = traj.observables["sector_plus"]
    expected = 0.6 * np.exp(-kappa * traj.times)
    assert np.max(np.abs(p_plus - expected) / expected) < 1e-6
    # flux conservation into the lower sector
    p_minus = traj.observables["sector_minus"]
    assert np.max(np.abs(p_minus + p_plus - 1.0)) < 1e-10
    # long-time limit: upper sector empties
    assert p_plus[-1] < 1e-6 * 0.6 + math.exp(-5.0) * 0.6 * 1.01


def test_positivity_clip_report(dims40):
    b = _basis(dims40)
    rates, _, _ = _moderate_rates()
    ss = steady_state_nullspace(zero_temperature_dme(b, rates))
    assert ss.metadata["clipped_weight"] < 1e-10
    assert np.linalg.eigvalsh(ss.rho)[0] >= -1e-14


def test_superoperator_matches_rhs(dims40):
    # the sparse Liouvillian, rhs and steady state against the dense kron reference
    b = _basis(dims40)
    rates, _, _ = _moderate_rates(gamma_f=0.03)
    pumped = driven_rotating_dme(b, rates, 0.07, b.omega_minus)
    sme = standard_master_equation(fig3_params(), RateFunctions.flat(0.3, 0.2), SpaceDims(6))
    rng = np.random.default_rng(12)
    for me in (pumped, sme):
        d = me.dim
        assert max_abs(me.liouvillian().toarray() - dense_liouvillian(me)) < 1e-12
        rho = random_density(d, rng)
        assert max_abs(me.rhs(rho) - dense_rhs(me, rho)) < 1e-12
        ss = steady_state_nullspace(me)
        assert max_abs(ss.rho - dense_steady_state(me)) < 1e-12


# ---------------------------------------------------------------------------
# the scan's per-pump solver of system + omega B


def _paper_pump(n_levels=12):
    """The default spectroscopy pump at the paper point, and its grid's probe frequencies."""
    p = fig3_params()
    rates = RateFunctions.flat(0.00108, 0.000108)
    b = build_basis(p, n_levels, SpaceDims(40), energy_mode="truncated")
    point, shift = scan_pump_system(b, rates, rates.oscillator_rate(p.omega_minus) / 2,
                                    rates.cross_rate(p.beta, float(p.omega_tilde(1)[0])))
    return b, point, shift


def _per_point(point, shift, omega):
    return _solve_liouvillian(point.liouvillian() + omega * shift, point.dim, generator_scale(point))


def test_schur_solver_matches_per_point_at_the_paper_point():
    b, point, shift = _paper_pump()
    grid = fig3_params().omega0 - np.linspace(0.0, 12.0, 25) * 2 * 0.3 * 0.1**2
    solve, path = _shifted_solver(point.liouvillian(), shift, point.dim, generator_scale(point), grid)
    assert path == "schur"
    for omega in grid:
        fast, slow = solve(float(omega)), _per_point(point, shift, float(omega))
        assert fast.metadata["solve"] == "schur" and slow.metadata["solve"] == "splu"
        assert fast.residual <= 1e-10 * generator_scale(point)
        n_fast, n_slow = (observables(ss.rho, b)["n_total"] for ss in (fast, slow))
        assert abs(n_fast - n_slow) <= 1e-12 * n_slow


def test_schur_point_over_the_residual_bound_is_re_solved(monkeypatch):
    b, point, shift = _paper_pump(n_levels=6)
    grid = [0.28, 0.29, 0.3]
    qt_solve = dynamics._shifted_qt_solve

    def stand_in(t, omegas, c):
        # the quasi-triangular solution of the middle grid column is 1% off
        x = qt_solve(t, omegas, c)
        x[:, omegas == grid[1]] *= 1.01
        return x

    monkeypatch.setattr(dynamics, "_shifted_qt_solve", stand_in)
    solve, _ = _shifted_solver(point.liouvillian(), shift, point.dim, generator_scale(point), grid)
    states = [solve(omega) for omega in grid]
    assert [ss.metadata["solve"] for ss in states] == ["schur", "splu", "schur"]
    slow = _per_point(point, shift, grid[1])
    assert max_abs(states[1].rho - slow.rho) == 0.0 and states[1].residual == slow.residual
    # every returned state warns here: a point warns once, for the state it returns, not for a discarded attempt
    monkeypatch.setattr(dynamics, "_warn_clipped", lambda lowest: warnings.warn("eigenvalue clipped to zero"))
    for omega in grid:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(omega)
        assert len(caught) == 1


def test_non_finite_grid_column_is_re_solved(monkeypatch):
    _, point, shift = _paper_pump(n_levels=6)
    grid = np.array([0.28, 0.29, 0.3])
    qt_solve = dynamics._shifted_qt_solve

    def stand_in(t, omegas, c):
        # the middle grid column comes back as a singular shift's would
        x = qt_solve(t, omegas, c)
        x[:, omegas == grid[1]] = np.inf
        return x

    monkeypatch.setattr(dynamics, "_shifted_qt_solve", stand_in)
    solve, _ = _shifted_solver(point.liouvillian(), shift, point.dim, generator_scale(point), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = [solve(omega) for omega in grid]
    assert [ss.metadata["solve"] for ss in states] == ["schur", "splu", "schur"]
    slow = _per_point(point, shift, grid[1])
    assert max_abs(states[1].rho - slow.rho) == 0.0 and states[1].residual == slow.residual


def _real_schur_form(n: int, rng) -> np.ndarray:
    """The real Schur form of a random n x n matrix, drawn again until it has a complex pair (n >= 2)."""
    while True:
        t, _ = schur(rng.standard_normal((n, n)), output="real")
        if n < 2 or np.diag(t, -1).any():
            return t


def _one_block_size(n: int, rng, pairs: bool) -> np.ndarray:
    """A quasi-triangular T in Schur canonical form with only 2 x 2 blocks (``pairs``, n even) or only 1 x 1 ones.

    As in the Schur form of an n x n Gaussian matrix, the eigenvalues lie in
    the disk of radius sqrt(n) and the entries above the blocks are N(0, 1).
    """
    t = np.triu(rng.standard_normal((n, n)), 1)
    radius = math.sqrt(n)
    if not pairs:
        np.fill_diagonal(t, rng.uniform(-radius, radius, n))
        return t
    for j in range(0, n, 2):
        re, im, ratio = rng.uniform(-radius, radius), rng.uniform(0.1, radius), rng.uniform(0.5, 2.0)
        t[j:j + 2, j:j + 2] = [[re, im * ratio], [-im / ratio, re]]  # eigenvalues re +- i im
    return t


def _dtrsyl_columns(t, omegas, c):
    """The LAPACK quasi-triangular solve of (T + omega) x = c, one ``dtrsyl`` call per shift."""
    columns = []
    for omega in omegas:
        x, scale, info = dtrsyl(t, np.array([[omega]]), c[:, None])
        assert info == 0
        columns.append(x[:, 0] / scale)
    return np.column_stack(columns)


def _pair_shifts(t) -> list[float]:
    """Shifts within 1e-3 of -Re lambda for the complex pair of each 2 x 2 block of T."""
    starts = np.flatnonzero(np.diag(t, -1))
    return [-t[j, j] + delta for j in starts for delta in (-1e-3, 0.0, 1e-3)]


def _assert_matches_dtrsyl(t, omegas, rng):
    c = rng.standard_normal(t.shape[0])
    fast, slow = _shifted_qt_solve(t, omegas, c), _dtrsyl_columns(t, omegas, c)
    assert fast.shape == slow.shape == (t.shape[0], omegas.size)
    for k in range(omegas.size):
        assert max_abs(fast[:, k] - slow[:, k]) <= 1e-12 * max_abs(slow[:, k])


def _leading_block(n: int, rng) -> np.ndarray:
    """A leading k x k block, k >= 25, of an n x n Schur form: it keeps its 2 x 2 blocks whole and has one at its middle row."""
    big = _real_schur_form(n, rng)
    sub = np.diag(big, -1) != 0
    k = next(k for k in range(25, n) if sub[k // 2 - 1] and not sub[k - 1])
    return big[:k, :k]


@pytest.mark.parametrize(
    "n, blocks",
    [(1, "mixed"), (2, "mixed"), (3, "mixed"), (23, "mixed"), (24, "mixed"), (25, "mixed"), (288, "mixed"),
     (288, "pairs"), (288, "singles"), (288, "leading")],
    # only 2 x 2 blocks, as in every default scan pump's T, an upper-triangular T, or a Schur form's leading block
    ids=["1", "2", "3", "23", "24", "25", "288", "pairs_only", "singles_only", "leading_block"],
)
def test_quasi_triangular_solve_matches_dtrsyl(n, blocks):
    rng = np.random.default_rng(n)
    if blocks == "mixed":
        t = _real_schur_form(n, rng)
    elif blocks == "leading":
        t = _leading_block(n, rng)
    else:
        t = _one_block_size(n, rng, pairs=blocks == "pairs")
    omegas = np.concatenate([rng.uniform(-3.0, 3.0, 17), _pair_shifts(t)])
    _assert_matches_dtrsyl(t, omegas, rng)


def test_singular_shift_gives_one_non_finite_column_and_no_warning():
    rng = np.random.default_rng(3)
    t = _real_schur_form(40, rng)
    sub = np.concatenate([[0.0], np.diag(t, -1)])
    single = next(i for i in range(40) if sub[i] == 0 and (i == 39 or t[i + 1, i] == 0))
    omegas = np.array([0.5, -t[single, single], -0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _shifted_qt_solve(t, omegas, rng.standard_normal(40))
    finite = np.isfinite(x).all(axis=0)
    assert finite.tolist() == [True, False, True]


def test_singular_same_sector_block_drops_the_pump_to_per_point_solves():
    # without dissipation the populations do not move: M_SS is singular, and
    # every point takes the per-point path, whose dense retry solves it
    me = MasterEquation(hamiltonian=np.diag([0.0, 1.0, 0.2, 1.5]).astype(complex))
    shift = MasterEquation(np.diag([0.5, 0.5, -0.5, -0.5])).liouvillian()
    solve, path = _shifted_solver(me.liouvillian(), shift, me.dim, 1.5, [0.3])
    assert path == "splu"
    ss = solve(0.3)
    assert ss.metadata["solve"] == "lstsq" and abs(np.trace(ss.rho) - 1.0) < 1e-12


def test_cross_sector_past_the_dense_limit_keeps_per_point_solves():
    # two sectors of 36 levels: m = 2 * 36^2 real cross-sector unknowns, too many for a dense Schur form
    d = 72
    assert 2 * (d // 2) ** 2 > _DENSE_MAX
    me = MasterEquation(hamiltonian=np.diag(np.arange(d, dtype=complex)))
    shift = MasterEquation(np.diag(np.repeat([0.5, -0.5], d // 2))).liouvillian()
    _, path = _shifted_solver(me.liouvillian(), shift, d, 1.0, [0.3])
    assert path == "splu"


def test_non_finite_system_fails_each_point_of_the_pump():
    _, point, shift = _paper_pump(n_levels=4)
    system = point.liouvillian().copy()
    system.data[3] = np.nan
    solve, path = _shifted_solver(system, shift, point.dim, generator_scale(point), [0.3])
    assert path == "splu"
    with pytest.raises(NumericsError, match="non-finite"):
        solve(0.3)
