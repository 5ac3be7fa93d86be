import numpy as np
import pytest

from dressedrabi import spectroscopy
from dressedrabi.dynamics import NumericsError
from dressedrabi.lindblad import RateFunctions
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

from conftest import fig3_params, fig3_rates


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


def test_dissipated_power():
    assert dissipated_power(0.0, 1.0, 0.1) == 0.0
    assert dissipated_power(2.0, 1.0, 0.1) == 2 * dissipated_power(1.0, 1.0, 0.1)
    # resonant pump at Omega_p = Gamma/2 gives N_ss = 1, P = omega_p Gamma / 2
    gamma = 0.0018
    assert abs(dissipated_power(1.0, 1.0006, lambda w: gamma) - 1.0006 * gamma / 2) < 1e-15
    with pytest.raises(ValueError):
        dissipated_power(-1.0, 1.0, 0.1)


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
    # the honest time-dependent point solver, run at accelerated rates so the
    # burn-in fits a test budget; must agree with the co-rotating default
    p = fig3_params()
    gamma, kappa = 0.3, 0.05
    rates = RateFunctions.flat(gamma, kappa - 4 * p.beta**2 * gamma, gamma_f=0.02)
    grid = np.array([float(p.omega0 * (1 - 2 * p.beta**2))])  # on the first resonance
    common = dict(
        params=p, rates=rates, pump_amp=gamma / 2, spec_amp=kappa,
        omega_s_grid=grid, n_levels=8,
    )
    fast = run_scan(SpectroscopyConfig(**common, solver="corotating"))
    slow = run_scan(SpectroscopyConfig(**common, solver="timeaveraged", dt=0.05))
    assert not slow.failures
    assert abs(slow.n_ss[0] - fast.n_ss[0]) / fast.n_ss[0] < 3e-3
    assert slow.metadata["solver"] == "timeaveraged"


def test_scan_failure_handling(monkeypatch):
    p = fig3_params()
    rates = fig3_rates()
    gamma = rates.oscillator_rate(p.omega)
    common = dict(params=p, rates=rates, pump_amp=gamma / 2, spec_amp=gamma / 6,
                  omega_s_grid=default_scan_grid(p, 3, span=(0.8, 1.2)), n_levels=8)
    # a config error inside a point solve (window under 20 probe periods) propagates
    with pytest.raises(ValueError, match="window"):
        run_scan(SpectroscopyConfig(**common, solver="timeaveraged", t_start=0.0, window=1.0))

    # a numeric failure costs only its own point
    solve = spectroscopy._solve_point

    def flaky(cfg, basis, pump_freq, baseline_rho, omega_s):
        if omega_s == cfg.omega_s_grid[1]:
            raise NumericsError("injected")
        return solve(cfg, basis, pump_freq, baseline_rho, omega_s)

    monkeypatch.setattr(spectroscopy, "_solve_point", flaky)
    res = run_scan(SpectroscopyConfig(**common))
    assert res.failures == [(1, "NumericsError: injected")]
    assert np.isnan(res.n_ss[1]) and np.all(np.isfinite(res.n_ss[[0, 2]]))


def test_local_maxima_helper():
    x = np.arange(7.0)
    y = np.array([0.0, 1.0, 0.5, 2.0, 0.1, 0.3, 0.0])
    peaks = local_maxima(x, y)
    assert peaks == [(1.0, 1.0), (3.0, 2.0), (5.0, 0.3)]
    assert local_maxima(x, y, threshold=0.5) == [(1.0, 1.0), (3.0, 2.0)]
