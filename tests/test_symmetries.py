"""Exact relations of the model, checked on the CLI's tables at omega != 1.

Every other test runs at omega = 1, where a formula that drops a factor of
omega reads the same.  Two relations hold exactly in the model, whatever the
truncation, so small runs of ``cli.main`` check them column by column:

- Units.  Scaling every frequency and rate by lambda scales every energy and
  frequency in the tables by lambda and every time by 1/lambda, and leaves
  every other column as it is.  ``POWERS`` gives each ``cli._SCHEMA`` leaf its
  power of lambda, and ``COLUMNS`` each table column its power.
- Coupling sign.  a -> -a is a unitary that maps the model at beta to the
  model at -beta, so every column but beta itself is even in beta.

lambda = 2 is a power of two, and so is a sign: both move every floating-point
operation exactly, and at this config every column, residuals included, meets
its relation to the last bit.  ``BOUND`` leaves a margin for an operation that
does not scale (an absolute tolerance, a branch on a size), and still sits
nine orders below a dropped factor of omega: dropped from the coupling, it
moves E_exact by 1.4e-2, and from omega_-, n_ss by 3.8e-3.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from dressedrabi import cli

# the power of lambda of each schema leaf; fidelity.grid gives one per key of its tables
POWERS = {
    "params.omega": 1, "params.omega0": 1, "params.beta": 0,
    "rates.Gamma": 1, "rates.gamma": 1, "rates.gamma_f": 1,
    "n_cut": 0, "n_levels": 0,
    "spectrum.keep": 0,
    "fidelity.n_states": 0, "fidelity.grid": {"omega0": 1, "beta": 0},
    # the horizon is in units of 1/rate
    "relax.t_end_over_rate": 0, "relax.sample_interval": -1, "relax.beta_grid": 0,
    "drive.pump_amps": 1, "drive.detuning": 1,
    # baselines are excitation numbers and span a normalized detuning
    "spectroscopy.baselines": 0, "spectroscopy.spec_amp": 1, "spectroscopy.grid_points": 0,
    "spectroscopy.span": 0, "spectroscopy.solver": 0,
    "spectroscopy.t_start": -1, "spectroscopy.window": -1, "spectroscopy.dt": -1,
}
# the (leaf, grid key) pairs that beta -> -beta flips
ODD_IN_BETA = {("params.beta", None), ("fidelity.grid", "beta"), ("relax.beta_grid", None)}

COLUMNS = {
    "spectrum.csv": {"index": 0, "N": 0, "branch": 0, "E_exact": 1, "E_adiabatic": 1, "E_sw": 1,
                     "err_adiabatic": 1, "err_sw": 1},
    "fidelity.csv": {"omega0": 1, "beta": 0, "index": 0, "N": 0, "branch": 0, "f_adiabatic": 0, "f_sw": 0,
                     "ambiguous": 0},
    "relax.csv": {"time": -1, "fidelity_dme_from_dressed_ground": 0, "fidelity_sme_from_exact_ground": 0},
    "relax_distance.csv": {"beta": 0, "distance": 0, "one_minus_exp": 0, "beta_sq_over_2": 0},
    "drive.csv": {"pump_amp": 1, "detuning_minus": 1, "n_minus": 0, "n_plus": 0, "n_total": 0, "predicted_n": 0,
                  "fidelity_coherent": 0, "sector_plus": 0, "residual": 1},
    "spectroscopy_combined.csv": {"label_n_ss": 0, "omega_s": 1, "normalized_detuning": 0, "n_ss": 0,
                                  "percent_reduction": 0},
}
# the largest deviation from a relation, relative to the largest cell of its column
BOUND = 1e-12

BASE = cli.resolve_config({
    "params": {"omega": 1.0, "omega0": 0.3, "beta": 0.1},
    "rates": {"Gamma": 0.01, "gamma": 0.002, "gamma_f": 0.001},
    "n_cut": 12,
    "n_levels": 3,
    "spectrum": {"keep": 4},
    "fidelity": {"n_states": 3, "grid": [{"omega0": 0.15, "beta": 0.1}, {"omega0": 0.3, "beta": 0.05}]},
    "relax": {"t_end_over_rate": 0.5, "sample_interval": 2.0, "beta_grid": [0.05, 0.1]},
    "drive": {"pump_amps": [0.002, 0.005], "detuning": 0.001},
    "spectroscopy": {"baselines": [1.0, 4.0], "grid_points": 7, "span": [0.0, 6.0]},
}, {})
COMMANDS = ("spectrum", "fidelity", "relax", "drive", "spectroscopy")


def _leaves(schema: dict, path: str = ""):
    for key, entry in schema.items():
        if isinstance(entry, dict):
            yield from _leaves(entry, f"{path}{key}.")
        else:
            yield f"{path}{key}"


def _transform(cfg: dict, factor) -> dict:
    """``cfg`` with every number of each leaf multiplied by ``factor(leaf, key)``; key names a grid table's entry."""
    out = json.loads(json.dumps(cfg))
    for leaf in _leaves(cli._SCHEMA):
        *tables, key = leaf.split(".")
        table = out
        for name in tables:
            table = table[name]
        value = table[key]
        if isinstance(value, list) and value and isinstance(value[0], dict):
            table[key] = [{k: v * factor(leaf, k) for k, v in point.items()} for point in value]
        elif isinstance(value, list):
            table[key] = [v * factor(leaf, None) for v in value]
        elif isinstance(value, (int, float)) and not isinstance(value, bool) and factor(leaf, None) != 1:
            table[key] = value * factor(leaf, None)
    return out


def _run(cfg: dict, tmp: Path) -> dict:
    """Every table of every command at ``cfg``: {file: {column: [cells]}}."""
    tmp.mkdir()
    config = tmp / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    tables = {}
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, "--config", str(config), "--out", str(tmp)]) == 0
    for name in COLUMNS:
        header, *rows = [line.split(",") for line in (tmp / name).read_text(encoding="utf-8").splitlines()
                         if not line.startswith("#")]
        assert set(header) == set(COLUMNS[name])
        tables[name] = {column: [row[i] for row in rows] for i, column in enumerate(header)}
    return tables


def _deviations(base: dict, moved: dict, factor) -> dict:
    """The largest |moved - factor * base| / max|factor * base| of every numeric column."""
    out = {}
    for name, columns in COLUMNS.items():
        for column in columns:
            a, b = base[name][column], moved[name][column]
            assert len(a) == len(b), (name, column)
            if column == "branch":
                assert a == b
                continue
            expected = [factor(name, column) * float(x) for x in a]
            got = [float(x) for x in b]
            scale = max(map(abs, expected)) or 1.0
            out[name, column] = max(abs(g - e) for g, e in zip(got, expected)) / scale
    return out


@pytest.fixture(scope="module")
def base_tables(tmp_path_factory):
    return _run(BASE, tmp_path_factory.mktemp("base") / "run")


def test_every_schema_leaf_has_a_power_of_lambda():
    assert set(_leaves(cli._SCHEMA)) == set(POWERS)
    assert {leaf for leaf, _ in ODD_IN_BETA} <= set(POWERS)


def test_tables_scale_with_the_units(base_tables, tmp_path):
    lam = 2.0

    def power(leaf, key):
        return POWERS[leaf][key] if key is not None else POWERS[leaf]

    scaled = _run(_transform(BASE, lambda leaf, key: lam ** power(leaf, key)), tmp_path / "scaled")
    deviations = _deviations(base_tables, scaled, lambda name, column: lam ** COLUMNS[name][column])
    assert {key: dev for key, dev in deviations.items() if not dev <= BOUND} == {}


def test_tables_are_even_in_the_coupling(base_tables, tmp_path):
    flipped = _run(_transform(BASE, lambda leaf, key: -1.0 if (leaf, key) in ODD_IN_BETA else 1.0),
                   tmp_path / "flipped")
    deviations = _deviations(base_tables, flipped, lambda name, column: -1.0 if column == "beta" else 1.0)
    assert {key: dev for key, dev in deviations.items() if not dev <= BOUND} == {}
