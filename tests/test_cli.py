import json
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from dressedrabi import cli
from dressedrabi.cli import ConfigError, config_digest, load_config, main, resolve_config
from dressedrabi.dynamics import NumericsError


def write_config(tmp_path: Path, payload: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


BASE = {
    "params": {"omega": 1.0, "omega0": 0.3, "beta": 0.1},
    "rates": {"Gamma": 0.0018, "gamma": 0.000228, "gamma_f": 0.0006},
    "n_cut": 30,
    "n_levels": 8,
}


def test_resolve_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        resolve_config({"paramz": {}}, {})
    with pytest.raises(ConfigError):
        resolve_config({"params": {"omega": 1.0, "Omega": 2.0}}, {})
    cfg = resolve_config({}, {})
    assert cfg["n_cut"] == 40 and cfg["params"]["omega0"] == 0.3


def test_config_errors_name_the_table():
    with pytest.raises(ConfigError, match=r"^expected a table at params, got int$"):
        resolve_config({"params": 3}, {})
    with pytest.raises(ConfigError, match=r"^unknown config keys at rates: \['Gama'\]$"):
        resolve_config({"rates": {"Gama": 0.1}}, {})
    with pytest.raises(ConfigError, match=r"^expected a table at top level, got list$"):
        resolve_config([], {})
    with pytest.raises(ConfigError, match=r"^relax\.dt must be a finite number > 0, got -1$"):
        resolve_config({"relax": {"dt": -1}}, {})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_seedless_flag_rejected(tmp_path, capsys):
    # no such flag: argparse rejects it with its usage exit code
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--out", str(tmp_path), "--seedless"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seedless" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, flags",
    [
        ("drive", {"rates": {"Gamma": float("nan")}}, []),
        ("validate", {"rates": {"Gamma": float("nan")}}, []),
        ("drive", {}, ["--n-levels", "100"]),
        ("drive", {"params": {"omega0": -0.1}}, []),
        ("relax", {"relax": {"dt": float("nan")}}, []),
        ("relax", {"relax": {"t_end_over_rate": float("inf")}}, []),
        ("relax", {"relax": {"t_end_over_rate": -1}}, []),
        ("relax", {"relax": {"stride": 0}}, []),
        ("relax", {"relax": {"stride": 2.5}}, []),
        ("relax", {"relax": {"beta_grid": [float("nan")]}}, []),
        ("relax", {"relax": {"beta_grid": 0.1}}, []),
        ("validate", {"n_cut": 2.5}, []),
        ("validate", {"n_levels": "8"}, []),
        ("spectroscopy", {"spectroscopy": {"baselines": []}}, []),
        ("spectroscopy", {"spectroscopy": {"pump_amps": []}}, []),
        ("spectroscopy", {"spectroscopy": {"grid_points": 0}}, []),
        ("drive", {"drive": {"pump_amps": []}}, []),
        ("fidelity", {"fidelity": {"n_states": 0}}, []),
        ("spectrum", {"spectrum": {"keep": 0}}, []),
        ("spectroscopy", {"spectroscopy": {"span": [0.0, float("nan")]}}, []),
        ("spectroscopy", {"spectroscopy": {"span": [0.0]}}, []),
        ("spectroscopy", {"spectroscopy": {"span": [0.0, 6.0, 12.0]}}, []),
        ("fidelity", {"fidelity": {"grid": [{"omega0": 0.1}]}}, []),
        ("fidelity", {"fidelity": {"grid": []}}, []),
        ("fidelity", {"fidelity": {"grid": [{"omega0": 0.1, "beta": 0.1, "n_cut": 20}]}}, []),
        ("fidelity", {"fidelity": {"grid": [{"omega0": 0.1, "beta": float("inf")}]}}, []),
        ("fidelity", {"fidelity": {"grid": [[0.1, 0.1]]}}, []),
        ("validate", {"params": {"beta": "0.1"}}, []),
        ("validate", {"rates": {"Gamma": "0.001"}}, []),
        ("validate", {"rates": {"temperature": "0.5"}}, []),
        ("validate", {"check_truncation": "no"}, []),
        ("validate", {"params": {"omega0": float("nan")}}, []),
        ("validate", {"params": {"beta": float("inf")}}, []),
        ("spectrum", {"params": {"beta": float("nan")}}, []),
        ("spectrum", {"rates": {"Gamma": float("nan")}}, []),
        ("spectrum", {"rates": {"Gamma": -1}}, []),
        ("fidelity", {"rates": {"Gamma_table": [[0.9, 0.001], [1.1, float("nan")]]}}, []),
        ("validate", {"spectroscopy": {"t_start": "x"}}, []),
        ("relax", {"rates": {"Gamma": 0.0, "gamma": 0.0}}, []),
        ("drive", {"rates": {"Gamma": 0.0}, "drive": {"pump_amps": [0.001]}}, []),
        ("relax", {"rates": {"Gamma": 0.1, "gamma": 0.1}, "n_cut": 12, "n_levels": 3,
                   "relax": {"beta_grid": [-1.0]}}, []),
        ("drive", {"rates": {"temperature": 0.5}}, []),
        ("spectrum", {"spectrum": {"keep": 100}}, []),
        ("fidelity", {"fidelity": {"n_states": 100}}, []),
        ("spectrum", {"spectrum": {"keep": 30}}, []),
        ("spectroscopy", {"spectroscopy": {"baselines": [1.0, 1.0], "grid_points": 3}}, []),
        ("spectroscopy", {"spectroscopy": {"pump_amps": [0.001, -0.001], "grid_points": 3}}, []),
        ("spectroscopy", {"spectroscopy": {"baselines": [1.0, 1.000001], "grid_points": 3}}, []),
        ("spectroscopy", {"rates": {"Gamma": 0.0}, "spectroscopy": {"pump_amps": [0.001], "grid_points": 3}}, []),
        ("spectroscopy", {"spectroscopy": {"pump_amps": [0.0], "grid_points": 3}}, []),
        # n_levels must stay below n_cut, or the full-space states of relax read as reduced ones
        ("relax", {"rates": {"Gamma": 0.1, "gamma": 0.1}, "n_cut": 12, "n_levels": 12}, []),
        # Gamma(omega_-) = 0 leaves every |Psi_N^-> stationary: unpumped or detuned, no steady state is unique
        ("drive", {"rates": {"Gamma": 0.0, "gamma": 0.001}, "drive": {"pump_amps": [0.0]}}, []),
        ("drive", {"rates": {"Gamma": 0.0, "gamma": 0.001}, "drive": {"detuning": 0.01, "pump_amps": [0.001]}}, []),
    ],
)
def test_bad_input_is_a_config_error(tmp_path, capsys, command, payload, flags):
    cfg = write_config(tmp_path, payload)
    code = main([command, "--config", cfg, "--out", str(tmp_path / "bad"), *flags])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    # rejected before any file is written
    assert not list(tmp_path.glob("bad/*"))


def test_unusable_out_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    assert main(["validate", "--out", str(taken)]) == 2
    assert "config error" in capsys.readouterr().err
    assert taken.read_text(encoding="utf-8") == "not a directory"


def test_a_failed_run_writes_no_file(tmp_path, monkeypatch, capsys):
    # the command has computed its table when the validity report fails
    def fail(*args, **kwargs):
        raise NumericsError("probe")

    monkeypatch.setattr(cli, "validity_report", fail)
    cfg = write_config(tmp_path, {**BASE, "n_cut": 12, "n_levels": 3, "spectrum": {"keep": 4}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "failed")]) == 3
    assert "numeric failure: probe" in capsys.readouterr().err
    assert (tmp_path / "failed").is_dir() and not list((tmp_path / "failed").iterdir())


@pytest.mark.parametrize("beta", [1e-160, 1e-170])
def test_tiny_beta_runs_without_a_ladder_bound(tmp_path, beta):
    cfg = write_config(tmp_path, {**BASE, "params": {"omega": 1.0, "omega0": 0.3, "beta": beta}, "n_cut": 6,
                                  "n_levels": 2, "fidelity": {"n_states": 2, "grid": [{"omega0": 0.3, "beta": beta}]}})
    for command in ("validate", "fidelity"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
    assert json.loads((tmp_path / "validate" / "validate.json").read_text())["report"]["n_max"] is None


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_outputs_are_strict_json(tmp_path):
    # no rates: the secular margin is infinite, which JSON writes as null
    cfg = write_config(tmp_path, {**BASE, "rates": {"Gamma": 0.0, "gamma": 0.0}})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "zero")]) == 0
    for name, key in (("validate.json", "report"), ("validate.meta.json", "validity")):
        text = (tmp_path / "zero" / name).read_text(encoding="utf-8")
        assert json.loads(text, parse_constant=_reject_constant)[key]["secular_margin"] is None


# one small run of every command
TINY = {
    **BASE,
    "rates": {"Gamma": 0.1, "gamma": 0.05, "gamma_f": 0.0},
    "n_cut": 12,
    "n_levels": 3,
    "spectrum": {"keep": 2},
    "fidelity": {"n_states": 2, "grid": [{"omega0": 0.3, "beta": 0.1}]},
    "relax": {"t_end_over_rate": 0.5, "dt": 0.1, "stride": 1, "beta_grid": [0.1]},
    "drive": {"pump_amps": [0.05]},
    "spectroscopy": {"baselines": [1.0], "grid_points": 2, "span": [1.0, 3.0]},
}


@pytest.mark.parametrize("command", ["spectrum", "fidelity", "relax", "drive", "spectroscopy", "validate"])
def test_validity_is_graded_once_per_run(tmp_path, monkeypatch, command):
    # main grades the regime once, after the command and never inside it
    reports, real = [], cli.validity_report

    def counted(*args):
        reports.append(real(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "validity_report", counted)
    cfg = write_config(tmp_path, TINY)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(reports) == 1
    meta = json.loads((tmp_path / "out" / f"{command}.meta.json").read_text())
    assert meta["validity"] == cli._jsonable(asdict(reports[0]))
    if command == "validate":
        assert json.loads((tmp_path / "out" / "validate.json").read_text())["report"] == meta["validity"]


def test_default_drive_warns_nothing_and_files_the_comfort_note(tmp_path):
    # n_levels=12 at beta=0.1 is above the comfort bound 5: a note in the sidecar, not a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["drive", "--out", str(tmp_path)]) == 0
    assert not [w for w in caught if str(w.message).startswith("n_levels=")]
    meta = json.loads((tmp_path / "drive.meta.json").read_text())
    assert "n_levels=12 above the comfortable bound 5" in meta["validity"]["warnings"]


def test_spectrum_energy_mode_is_not_a_key(tmp_path, capsys):
    # spectrum always reports exact-overlap energies, so no value of energy_mode is accepted
    for mode in ("exact_overlap", "truncated", "approximate"):
        cfg = write_config(tmp_path, {**BASE, "spectrum": {"energy_mode": mode}})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / mode)]) == 2
        assert "unknown config keys at spectrum: ['energy_mode']" in capsys.readouterr().err
        assert not (tmp_path / mode).exists()


def test_validate_command(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "quasi-degenerate qubit: True" in out
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["report"]["beta_ok"] is True
    # degenerate-qubit note
    cfg0 = write_config(tmp_path, {**BASE, "params": {"omega": 1.0, "omega0": 0.0, "beta": 0.1}})
    assert main(["validate", "--config", cfg0, "--out", str(tmp_path)]) == 0
    assert "degenerate" in capsys.readouterr().out


def test_spectrum_command_and_roundtrip(tmp_path):
    cfg_path = write_config(tmp_path, {**BASE, "spectrum": {"keep": 8}})
    out1 = tmp_path / "run1"
    assert main(["spectrum", "--config", cfg_path, "--out", str(out1)]) == 0
    csv1 = (out1 / "spectrum.csv").read_bytes()
    assert csv1.startswith(b"# dressedrabi")
    assert b"\r" not in csv1  # LF endings

    meta = json.loads((out1 / "spectrum.meta.json").read_text())
    assert meta["config_digest"].startswith("sha256:")
    assert meta["wall_time_s"] >= 0

    # re-running the resolved config reproduces the table byte for byte
    resolved = meta["resolved_config"]
    cfg2 = tmp_path / "resolved.json"
    cfg2.write_text(json.dumps(resolved), encoding="utf-8")
    out2 = tmp_path / "run2"
    assert main(["spectrum", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out2 / "spectrum.csv").read_bytes() == csv1


def test_spectrum_out_of_regime_proceeds_with_flag(tmp_path):
    # omega0 = 3 omega: validity flags it, the run still completes
    cfg_path = write_config(
        tmp_path,
        {**BASE, "params": {"omega": 1.0, "omega0": 3.0, "beta": 0.1}, "spectrum": {"keep": 6}},
    )
    out = tmp_path / "w3"
    assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == 0
    meta = json.loads((out / "spectrum.meta.json").read_text())
    assert meta["validity"]["quasi_degenerate"] is False


def test_spectrum_decoupled_rows_agree(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {**BASE, "params": {"omega": 1.0, "omega0": 0.15, "beta": 0.0}, "spectrum": {"keep": 6}},
    )
    out = tmp_path / "b0"
    assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == 0
    rows = [
        line.split(",")
        for line in (out / "spectrum.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("index")
    ]
    for row in rows:
        e_exact, e_ad, e_sw = float(row[3]), float(row[4]), float(row[5])
        assert abs(e_exact - e_ad) < 1e-9
        assert abs(e_exact - e_sw) < 1e-9


def test_fidelity_command(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {**BASE, "fidelity": {"n_states": 4, "grid": [{"omega0": 0.15, "beta": 0.1}]}},
    )
    out = tmp_path / "fid"
    assert main(["fidelity", "--config", cfg_path, "--out", str(out)]) == 0
    meta = json.loads((out / "fidelity.meta.json").read_text())
    summary = meta["summaries"][0]
    assert summary["mean_f_adiabatic"] >= summary["mean_f_sw"]


def test_relax_command(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {
            **BASE,
            "rates": {"Gamma": 0.1, "gamma": 0.05, "gamma_f": 0.0},
            "relax": {"t_end_over_rate": 2.0, "dt": 0.02, "stride": 20,
                      "beta_grid": [0.05, 0.1, 0.2]},
        },
    )
    out = tmp_path / "relax"
    assert main(["relax", "--config", cfg_path, "--out", str(out)]) == 0
    meta = json.loads((out / "relax.meta.json").read_text())
    assert meta["dme_final_fidelity"] > 1 - 1e-9
    assert meta["sme_final_fidelity"] < 1 - 1e-6
    # both generators are propagated exactly, each on the block reachable from its state
    prop = meta["propagation"]
    assert prop["dme"]["method"] == prop["sme"]["method"] == "expm"
    assert prop["dme"]["block_dim"] == 1 and prop["sme"]["block_dim"] == 60**2 // 2  # the parity block
    assert prop["sme"]["dropped_weight"] < 1e-12 and prop["sme"]["steps"] == prop["dme"]["steps"]
    # the distance table carries the closed form and the small-coupling law
    rows = [
        line.split(",")
        for line in (out / "relax_distance.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("beta")
    ]
    for row in rows:
        beta, dist, closed, small = map(float, row)
        assert abs(dist - closed) < 1e-10
        assert abs(dist - small) < beta**4


def test_drive_command(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {
            **BASE,
            "n_levels": 12,
            "rates": {"Gamma": 0.0018, "gamma": 0.000228, "gamma_f": 0.0},
            "drive": {"pump_amps": [0.0, 0.0009], "detuning": 0.0},
        },
    )
    out = tmp_path / "drive"
    assert main(["drive", "--config", cfg_path, "--out", str(out)]) == 0
    rows = [
        line.split(",")
        for line in (out / "drive.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("pump_amp")
    ]
    off, on = rows
    assert abs(float(off[4])) < 1e-10  # no pump, no excitation
    assert abs(float(on[4]) - 1.0) < 1e-6  # N_ss = 4 Omega_p^2 / Gamma^2 = 1
    assert float(on[6]) > 0.999  # coherent-state fidelity


def test_spectroscopy_command(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {
            **BASE,
            "n_levels": 10,
            "spectroscopy": {"baselines": [0.5, 1.0], "grid_points": 11, "span": [0.5, 1.5]},
        },
    )
    out = tmp_path / "spec"
    assert main(["spectroscopy", "--config", cfg_path, "--out", str(out)]) == 0
    files = sorted(f.name for f in out.glob("*.csv"))
    assert "spectroscopy_combined.csv" in files
    assert sum(f.startswith("spectroscopy_scan_") for f in files) == 2
    meta = json.loads((out / "spectroscopy.meta.json").read_text())
    assert meta["failures"] == []
    assert len(meta["baselines"]) == 2
    assert meta["ignored_keys"] == []


def test_spectroscopy_sidecar_summarizes_every_pump(tmp_path, monkeypatch):
    # n_levels=4 takes the Schur path at any grid length; the middle point of
    # each pump is forced off it, and each pump's summary names that point
    from dressedrabi import dynamics
    from dressedrabi.rabi import RabiParams
    from dressedrabi.spectroscopy import default_scan_grid

    middle = default_scan_grid(RabiParams(1.0, 0.3, 0.1), 5, (0.5, 1.5))[2]
    qt_solve = dynamics._shifted_qt_solve

    def stand_in(t, omegas, c):
        x = qt_solve(t, omegas, c)
        x[:, omegas == middle] *= 1.01
        return x

    monkeypatch.setattr(dynamics, "_shifted_qt_solve", stand_in)
    cfg_path = write_config(tmp_path, {**BASE, "n_levels": 4,
                                       "spectroscopy": {"baselines": [0.5, 1.0], "grid_points": 5, "span": [0.5, 1.5]}})
    out = tmp_path / "spec"
    assert main(["spectroscopy", "--config", cfg_path, "--out", str(out)]) == 0
    meta = json.loads((out / "spectroscopy.meta.json").read_text())
    assert [pump["label_n_ss"] for pump in meta["point_solves"]] == pytest.approx([0.5, 1.0], rel=1e-12)
    # each summary names its own pump: amplitude sqrt(label) Gamma / 2 at BASE's Gamma
    gamma = BASE["rates"]["Gamma"]
    assert [pump["pump_amp"] for pump in meta["point_solves"]] == pytest.approx(
        [gamma / 2.0 * np.sqrt(0.5), gamma / 2.0], rel=1e-12)
    for pump in meta["point_solves"]:
        assert pump["point_solver"] == "schur"
        assert pump["paths"] == {"schur": 4, "splu": 1}
        assert pump["fallback_points"] == [2]
        assert 0.0 <= pump["residual_max"] <= 1e-10 * 0.3
        assert 0.0 <= pump["clipped_weight_max"] < 1e-10
        assert pump["baseline_residual"] <= 1e-10 * 0.3
    # the shared record holds no per-pump value, the per-point records stay out of
    # the sidecar, and the tables gain no column
    for key in ("pump_amp", "label_n_ss", "baseline_residual", "point_solver", "point_solves"):
        assert key not in meta["scan_metadata"]
    assert meta["scan_metadata"]["n_levels"] == 4 and meta["scan_metadata"]["solver"] == "corotating"
    header = [line for line in (out / "spectroscopy_scan_n1.csv").read_text().splitlines() if not line.startswith("#")][0]
    assert header == "omega_s,normalized_detuning,n_ss,percent_reduction"


def test_spectroscopy_ignores_integrator_keys(tmp_path):
    # t_start, window and dt stay valid keys (configs and digests keep working),
    # but no solver reads them: a run warns and lists them in the sidecar
    spec = {"baselines": [1.0], "grid_points": 2, "span": [1.0, 3.0], "solver": "timeaveraged"}
    outputs = []
    for name, extra in (("plain", {}), ("keys", {"t_start": 200.0, "window": 510.0, "dt": 0.05})):
        cfg_path = write_config(tmp_path, {**BASE, "spectroscopy": {**spec, **extra}})
        out = tmp_path / name
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["spectroscopy", "--config", cfg_path, "--out", str(out)]) == 0
        ignored = [w for w in caught if "ignored" in str(w.message)]
        assert len(ignored) == (1 if extra else 0)
        meta = json.loads((out / "spectroscopy.meta.json").read_text())
        assert meta["ignored_keys"] == list(extra)
        outputs.append([line for line in (out / "spectroscopy_combined.csv").read_text().splitlines()
                        if not line.startswith("# config_digest")])
    assert outputs[0] == outputs[1]


def test_spectroscopy_labels_follow_the_pump_rate(tmp_path):
    # with a sloped Gamma table, Gamma(omega) != Gamma(omega_-); the requested
    # baseline 1 still names its file, because amplitudes and labels share a rate
    cfg_path = write_config(
        tmp_path,
        {
            **BASE,
            "rates": {"Gamma_table": [[0.9, 0.0016], [1.1, 0.0020]], "gamma": 0.000228},
            "spectroscopy": {"baselines": [1.0], "grid_points": 3, "span": [0.5, 1.5]},
        },
    )
    out = tmp_path / "table"
    assert main(["spectroscopy", "--config", cfg_path, "--out", str(out)]) == 0
    assert (out / "spectroscopy_scan_n1.csv").exists()


def test_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    # a steady-state solve that fails, as for a generator with no unique steady state
    def fail(me):
        raise NumericsError("the steady-state system is singular")

    monkeypatch.setattr(cli, "steady_state_nullspace", fail)
    cfg_path = write_config(tmp_path, {**BASE, "n_cut": 12, "n_levels": 3})
    code = main(["drive", "--config", cfg_path, "--out", str(tmp_path / "boom")])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_readme_example_config_resolves():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    cfg = resolve_config(example, {})
    assert cfg["rates"] == {**example["rates"], "Gamma_table": None, "gamma_table": None}
    assert cfg["spectroscopy"]["solver"] == "corotating"


def test_digest_is_stable():
    cfg = resolve_config({}, {})
    assert config_digest(cfg) == config_digest(json.loads(json.dumps(cfg)))


def test_default_probe_is_the_generator_cross_rate(tmp_path):
    # the default probe amplitude is kappa(omega_tilde_0) = gamma + 4 beta^2 Gamma,
    # both rates read at the lowest pair splitting omega_tilde_0 = omega0 (1 - 2 beta^2)
    table = [[0.2, 0.0010], [1.1, 0.0020]]
    omega_tilde_0 = 0.3 * (1.0 - 2.0 * 0.1**2)
    sloped = 0.000228 + 4.0 * 0.1**2 * float(np.interp(omega_tilde_0, *zip(*table)))
    flat = BASE["rates"]["gamma"] + 4.0 * 0.1**2 * BASE["rates"]["Gamma"]
    for name, rates, expected in (("sloped", {"Gamma_table": table, "gamma": 0.000228}, sloped),
                                  ("flat", BASE["rates"], flat)):
        cfg_path = write_config(
            tmp_path,
            {**BASE, "rates": rates,
             "spectroscopy": {"baselines": [1.0], "grid_points": 3, "span": [0.5, 1.5]}},
        )
        out = tmp_path / name
        assert main(["spectroscopy", "--config", cfg_path, "--out", str(out)]) == 0
        meta = json.loads((out / "spectroscopy.meta.json").read_text())
        assert meta["scan_metadata"]["spec_amp"] == pytest.approx(expected, rel=1e-14)
