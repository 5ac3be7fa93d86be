import warnings

import numpy as np
import pytest

from dressedrabi import spectroscopy
from dressedrabi.adiabatic import build_basis
from dressedrabi.dynamics import NumericsError, observables, steady_state_nullspace
from dressedrabi.lindblad import RateFunctions, driven_rotating_dme
from dressedrabi.rabi import RabiParams
from dressedrabi.spectroscopy import (
    SpectroscopyConfig,
    default_scan_grid,
    dissipated_power,
    local_maxima,
    predicted_resonances,
    pump_family,
    run_scan,
)

from conftest import fig3_params, fig3_rates, probe_frame_generator


def _u(p, omega_s):
    return (p.omega0 - omega_s) / (2 * p.omega0 * p.beta**2)


def test_predicted_resonances():
    p = fig3_params()
    res = predicted_resonances(p, 4)
    assert abs(res[0] - 0.294) < 1e-12
    positions = _u(p, res)
    assert np.allclose(positions, [1, 3, 5, 7], atol=1e-10)
    # near-zero coupling: everything collapses onto the qubit frequency
    tiny = predicted_resonances(RabiParams(1.0, 0.3, 1e-4), 6)
    assert np.max(np.abs(tiny - 0.3)) < 1e-7
    with pytest.raises(ValueError):
        predicted_resonances(RabiParams(1.0, 0.3, 0.0), 3)


def test_run_scan_refuses_zero_coupling_before_any_solve(monkeypatch):
    # the resonances are undefined at beta = 0; the scan says so before it solves anything
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a steady state before refusing beta = 0")

    monkeypatch.setattr(spectroscopy, "steady_state_nullspace", no_solve)
    cfg = SpectroscopyConfig(params=RabiParams(1.0, 0.3, 0.0), rates=fig3_rates(), pump_amp=1e-3,
                             spec_amp=1e-4, omega_s_grid=[0.28, 0.3], n_levels=4)
    with pytest.raises(ValueError, match="beta = 0"):
        run_scan(cfg)


def test_run_scan_refuses_an_unpumped_baseline():
    # with no pump the baseline holds no excitation, and a percent reduction of it means nothing
    cfg = SpectroscopyConfig(params=fig3_params(), rates=fig3_rates(), pump_amp=0.0,
                             spec_amp=1e-4, omega_s_grid=[0.28, 0.3], n_levels=4)
    with pytest.raises(ValueError, match="is the pump on"):
        run_scan(cfg)


def test_a_pump_warns_once_per_flat_spectrum_assumption():
    # the pumped generator, and with it its jump list, is built once per pump
    p = fig3_params()
    cfg = SpectroscopyConfig(params=p, rates=RateFunctions(Gamma=lambda w: 1e-3 * w, gamma=1e-4), pump_amp=1e-3,
                             spec_amp=1e-4, omega_s_grid=default_scan_grid(p, 2), n_levels=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_scan(cfg)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2
    assert sum(m.startswith("Gamma(omega_+) != Gamma(omega_-)") for m in messages) == 1
    assert sum(m.startswith("cross-ladder rate kappa varies with N") for m in messages) == 1


def test_dissipated_power():
    assert dissipated_power(0.0, 1.0, 0.1) == 0.0
    assert dissipated_power(2.0, 1.0, 0.1) == 2 * dissipated_power(1.0, 1.0, 0.1)
    # resonant pump at Omega_p = Gamma/2 gives N_ss = 1, P = omega_p Gamma / 2
    gamma = 0.0018
    assert abs(dissipated_power(1.0, 1.0006, lambda w: gamma) - 1.0006 * gamma / 2) < 1e-15
    with pytest.raises(ValueError):
        dissipated_power(-1.0, 1.0, 0.1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RabiParams(omega=np.nan),
        lambda: RabiParams(omega=np.inf),
        lambda: RabiParams(omega0=np.nan),
        lambda: RabiParams(omega0=np.inf),
        lambda: RabiParams(beta=np.nan),
        lambda: RabiParams(beta=-np.inf),
        lambda: SpectroscopyConfig(params=fig3_params(), rates=fig3_rates(), pump_amp=1e-3, spec_amp=1e-4,
                                   omega_s_grid=[0.29, np.nan]),
        lambda: dissipated_power(np.nan, 1.0, 0.1),
        lambda: dissipated_power(np.inf, 1.0, 0.1),
        lambda: dissipated_power(1.0, np.nan, 0.1),
        lambda: dissipated_power(1.0, np.inf, 0.1),
        lambda: dissipated_power(1.0, 1.0, np.nan),
        lambda: dissipated_power(1.0, 1.0, np.inf),
        lambda: dissipated_power(1.0, 1.0, -0.1),
        lambda: dissipated_power(1.0, 1.0, lambda w: np.nan),
    ],
    ids=["omega-nan", "omega-inf", "omega0-nan", "omega0-inf", "beta-nan", "beta-inf", "grid-nan",
         "power-nan", "power-inf", "power-omega-nan", "power-omega-inf", "power-rate-nan", "power-rate-inf",
         "power-rate-negative", "power-rate-function-nan"],
)
def test_non_finite_inputs_are_refused(build):
    # each guard is a comparison that NaN fails
    with pytest.raises(ValueError, match="finite|grid"):
        build()


def test_grid_and_config_validation():
    p = fig3_params()
    grid = default_scan_grid(p, 41)
    assert len(grid) == 41 and grid[0] == p.omega0
    with pytest.raises(ValueError):
        SpectroscopyConfig(
            params=p, rates=fig3_rates(), pump_amp=1e-3, spec_amp=1e-4,
            omega_s_grid=np.array([0.5]),  # above 1.2 * omega0
        )
    with pytest.raises(ValueError):
        SpectroscopyConfig(
            params=p, rates=fig3_rates(), pump_amp=1e-3, spec_amp=1e-4,
            omega_s_grid=grid, solver="magic",
        )


@pytest.fixture(scope="module")
def focused_scan():
    """One scan on windows around the first two resonances (cheap)."""
    p = fig3_params()
    rates = fig3_rates()
    gamma = rates.oscillator_rate(p.omega)
    u = np.concatenate([np.linspace(0.4, 1.6, 31), np.linspace(2.4, 3.6, 31)])
    grid = p.omega0 - u * 2 * p.omega0 * p.beta**2
    cfg = SpectroscopyConfig(
        params=p, rates=rates, pump_amp=gamma / 2, spec_amp=gamma / 6,
        omega_s_grid=grid, n_levels=12,
    )
    return cfg, run_scan(cfg)


def test_scan_dip_positions(focused_scan):
    cfg, res = focused_scan
    p = cfg.params
    assert not res.failures
    gamma = cfg.rates.oscillator_rate(p.omega)
    u = _u(p, res.omega_s)
    peaks = local_maxima(u, res.percent_reduction, threshold=0.1 * res.percent_reduction.max())
    positions = [x for x, _ in peaks]
    half_width_u = (gamma / 2) / (2 * p.omega0 * p.beta**2)
    assert any(abs(x - 1.0) <= half_width_u for x in positions)
    assert any(abs(x - 3.0) <= half_width_u for x in positions)
    # reductions are positive at the resonances
    assert res.percent_reduction.max() > 0


def test_scan_baseline_consistency():
    # with gamma_f small the baseline matches 4 Omega_p^2 / Gamma^2 to 1e-4 relative
    p = fig3_params()
    rates = fig3_rates(gamma_f_scale=0.01)
    gamma = rates.oscillator_rate(p.omega)
    grid = default_scan_grid(p, 3, span=(0.9, 1.1))
    for target in (0.5, 1.0):
        cfg = SpectroscopyConfig(
            params=p, rates=rates, pump_amp=gamma / 2 * np.sqrt(target),
            spec_amp=gamma / 6, omega_s_grid=grid, n_levels=12,
        )
        res = run_scan(cfg)
        assert abs(res.baseline_n_ss - target) / target < 1e-4


def test_far_detuned_probe_leaves_baseline():
    # a probe far from every pair splitting changes N_ss by well under 1%
    p = fig3_params()
    rates = fig3_rates()
    gamma = rates.oscillator_rate(p.omega)
    grid = np.array([1.2 * p.omega0])  # ten linewidths above every resonance
    cfg = SpectroscopyConfig(
        params=p, rates=rates, pump_amp=gamma / 2, spec_amp=gamma / 6,
        omega_s_grid=grid, n_levels=12,
    )
    res = run_scan(cfg)
    assert abs(res.n_ss[0] - res.baseline_n_ss) / res.baseline_n_ss < 0.01


def test_scan_zero_probe_is_flat():
    p = fig3_params()
    rates = fig3_rates()
    gamma = rates.oscillator_rate(p.omega)
    grid = default_scan_grid(p, 5)
    cfg = SpectroscopyConfig(
        params=p, rates=rates, pump_amp=gamma / 2, spec_amp=0.0,
        omega_s_grid=grid, n_levels=12,
    )
    res = run_scan(cfg)
    assert np.max(np.abs(res.percent_reduction)) < 1e-6


def test_scan_determinism():
    p = fig3_params()
    rates = fig3_rates()
    gamma = rates.oscillator_rate(p.omega)
    grid = default_scan_grid(p, 7, span=(0.8, 1.2))
    cfg = SpectroscopyConfig(
        params=p, rates=rates, pump_amp=gamma / 2, spec_amp=gamma / 6,
        omega_s_grid=grid, n_levels=10,
    )
    first = run_scan(cfg)
    second = run_scan(cfg)
    assert np.array_equal(first.n_ss, second.n_ss)
    assert np.array_equal(first.percent_reduction, second.percent_reduction)


def test_pump_family_labels_and_ordering():
    p = fig3_params()
    rates = fig3_rates()
    gamma = rates.oscillator_rate(p.omega)
    u = np.concatenate([np.linspace(0.6, 1.4, 17), np.linspace(4.6, 5.4, 17)])
    grid = p.omega0 - u * 2 * p.omega0 * p.beta**2
    baselines = (0.5, 1.0, 2.0)
    amps = [gamma / 2 * np.sqrt(b) for b in baselines]
    cfg = SpectroscopyConfig(
        params=p, rates=rates, pump_amp=amps[0], spec_amp=gamma / 6,
        omega_s_grid=grid, n_levels=12,
    )
    family = pump_family(cfg, amps)
    labels = [r.metadata["label_n_ss"] for r in family]
    assert np.allclose(labels, [4 * a**2 / gamma**2 for a in amps], rtol=1e-12)
    assert labels == sorted(labels)
    dips_at_1 = []
    dips_at_5 = []
    for res in family:
        uu = _u(p, res.omega_s)
        dips_at_1.append(res.percent_reduction[np.abs(uu - 1.0) < 0.45].max())
        dips_at_5.append(res.percent_reduction[np.abs(uu - 5.0) < 0.45].max())
    # stronger pumps: the first dip fades, the u=5 dip gains in relative weight
    assert dips_at_1[0] > dips_at_1[-1]
    ratios = [d5 / d1 for d1, d5 in zip(dips_at_1, dips_at_5)]
    assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_timeaveraged_solver_scan():
    # the exact period average of the two-tone generator, at accelerated rates;
    # must agree with the co-rotating default
    p = fig3_params()
    gamma, kappa = 0.3, 0.05
    rates = RateFunctions.flat(gamma, kappa - 4 * p.beta**2 * gamma, gamma_f=0.02)
    grid = np.array([float(p.omega0 * (1 - 2 * p.beta**2))])  # on the first resonance
    common = dict(
        params=p, rates=rates, pump_amp=gamma / 2, spec_amp=kappa,
        omega_s_grid=grid, n_levels=8,
    )
    fast = run_scan(SpectroscopyConfig(**common, solver="corotating"))
    slow = run_scan(SpectroscopyConfig(**common, solver="timeaveraged"))
    assert not slow.failures
    assert abs(slow.n_ss[0] - fast.n_ss[0]) / fast.n_ss[0] < 3e-3
    assert slow.metadata["solver"] == "timeaveraged"


def test_timeaveraged_matches_corotating_at_paper_rates():
    # the CLI's default rates, pump and probe at n_levels=12, on the u = 1, 3, 5
    # resonances: dropping the probe's counter-rotating component moves n_ss by
    # 4.9e-8 to 5.7e-8 relative (measured); the bound leaves a margin of ~9x
    p = fig3_params()
    rates = RateFunctions.flat(0.00108, 0.000108)
    grid = p.omega0 - np.array([1.0, 3.0, 5.0]) * 2 * p.omega0 * p.beta**2
    common = dict(
        params=p, rates=rates, pump_amp=rates.oscillator_rate(p.omega_minus) / 2,
        spec_amp=rates.cross_rate(p.beta, float(p.omega_tilde(1)[0])), omega_s_grid=grid, n_levels=12,
    )
    fast = run_scan(SpectroscopyConfig(**common, solver="corotating"))
    slow = run_scan(SpectroscopyConfig(**common, solver="timeaveraged"))
    assert not slow.failures and not fast.failures
    assert np.max(np.abs(slow.n_ss - fast.n_ss) / fast.n_ss) < 5e-7


def test_scan_reuses_the_probe_frame_generator():
    # run_scan solves L(0) + omega_s B per point; the generator rebuilt at each
    # omega_s gives the same steady states
    p = fig3_params()
    rates = fig3_rates()
    gamma = rates.oscillator_rate(p.omega)
    cfg = SpectroscopyConfig(
        params=p, rates=rates, pump_amp=gamma / 2, spec_amp=gamma / 6,
        omega_s_grid=default_scan_grid(p, 7), n_levels=10,
    )
    res = run_scan(cfg)
    basis = build_basis(p, cfg.n_levels, cfg.dims, energy_mode="truncated")
    pump = driven_rotating_dme(basis, rates, cfg.pump_amp, basis.omega_minus)
    tone = spectroscopy._cross_drive_op(basis, cfg.spec_amp)
    for ws, n_ss in zip(cfg.omega_s_grid, res.n_ss):
        me = probe_frame_generator(pump, tone, float(ws))
        assert abs(observables(steady_state_nullspace(me).rho, basis)["n_total"] - n_ss) <= 1e-12


def test_scan_failure_handling(monkeypatch):
    p = fig3_params()
    rates = fig3_rates()
    gamma = rates.oscillator_rate(p.omega)
    grid = default_scan_grid(p, 3, span=(0.8, 1.2))
    common = dict(params=p, rates=rates, pump_amp=gamma / 2, spec_amp=gamma / 6, omega_s_grid=grid, n_levels=8)
    solve_point = spectroscopy._solve_point

    def failing(error):
        def stand_in(solve, omega_s):
            if omega_s == grid[1]:
                raise error
            return solve_point(solve, omega_s)
        return stand_in

    # a config error inside a point solve propagates
    monkeypatch.setattr(spectroscopy, "_solve_point", failing(ValueError("injected")))
    with pytest.raises(ValueError, match="injected"):
        run_scan(SpectroscopyConfig(**common))

    # a numeric failure costs only its own point
    monkeypatch.setattr(spectroscopy, "_solve_point", failing(NumericsError("injected")))
    res = run_scan(SpectroscopyConfig(**common))
    assert res.failures == [(1, "NumericsError: injected")]
    assert np.isnan(res.n_ss[1]) and np.all(np.isfinite(res.n_ss[[0, 2]]))


def test_scan_records_each_point_solve(monkeypatch):
    p = fig3_params()
    rates = fig3_rates()
    gamma = rates.oscillator_rate(p.omega)
    common = dict(params=p, rates=rates, pump_amp=gamma / 2, spec_amp=gamma / 6)
    res = run_scan(SpectroscopyConfig(**common, omega_s_grid=default_scan_grid(p, 5), n_levels=6))
    assert res.metadata["point_solver"] == "schur"
    assert [rec["solve"] for rec in res.metadata["point_solves"]] == ["schur"] * 5
    assert all(rec["residual"] <= 1e-10 * gamma and rec["clipped_weight"] < 1e-10
               for rec in res.metadata["point_solves"])
    # the time-averaged solver factorizes each point
    res = run_scan(SpectroscopyConfig(**common, omega_s_grid=default_scan_grid(p, 2), n_levels=4,
                                      solver="timeaveraged"))
    assert res.metadata["point_solver"] == "splu"
    assert [rec["solve"] for rec in res.metadata["point_solves"]] == ["splu"] * 2
    # a failed point has no record
    grid = default_scan_grid(p, 3)
    solve_point = spectroscopy._solve_point

    def stand_in(solve, omega_s):
        if omega_s == grid[1]:
            raise NumericsError("injected")
        return solve_point(solve, omega_s)

    monkeypatch.setattr(spectroscopy, "_solve_point", stand_in)
    res = run_scan(SpectroscopyConfig(**common, omega_s_grid=grid, n_levels=6))
    assert [rec and rec["solve"] for rec in res.metadata["point_solves"]] == ["schur", None, "schur"]


def test_local_maxima_helper():
    x = np.arange(7.0)
    y = np.array([0.0, 1.0, 0.5, 2.0, 0.1, 0.3, 0.0])
    peaks = local_maxima(x, y)
    assert peaks == [(1.0, 1.0), (3.0, 2.0), (5.0, 0.3)]
    assert local_maxima(x, y, threshold=0.5) == [(1.0, 1.0), (3.0, 2.0)]
