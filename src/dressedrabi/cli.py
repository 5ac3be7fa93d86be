"""Command-line entry point: config-driven experiments with CSV/JSON emission.

Subcommands: spectrum | fidelity | relax | drive | spectroscopy | validate.
A single JSON config file carries the physical parameters plus one block per
experiment; CLI flags override config keys.  Tables are emitted as CSV with
'#'-prefixed metadata lines (deterministic: re-running the resolved config
reproduces them byte for byte) and a JSON sidecar holds the full metadata,
including wall time and solver diagnostics.  All frequencies and rates are
in units of the oscillator frequency (omega = 1 internally).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import ctypes
import hashlib
import json
import math
import sys
import time
import warnings
from collections.abc import Callable
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .adiabatic import ValidityReport, build_basis, validity_report
from .dynamics import (
    NumericsError,
    coherent_dressed_ket,
    evolve,
    observables,
    steady_state_nullspace,
)
from .hilbert import SpaceDims
from .lindblad import (
    RateFunctions,
    driven_rotating_dme,
    standard_master_equation,
    zero_temperature_dme,
)
from .rabi import RabiParams, ground_state
from .schrieffer_wolff import fidelity_comparison
from .spectroscopy import SpectroscopyConfig, default_scan_grid, pump_family

__all__ = ["main", "ConfigError", "load_config", "resolve_config"]


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


# ---------------------------------------------------------------------------
# config schema: each key maps to (default, kind), a table to its own schema.
# Unknown keys are rejected; values are kept as given, so each config has one digest.


class _Kind(NamedTuple):
    check: Callable[[object], bool]
    text: str  # what a valid value is, for the error message


def _is_finite(value) -> bool:
    # a bool is not a number; abs() <= max also rejects NaN and ints beyond float range
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _integer(minimum: int) -> _Kind:
    return _Kind(lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= minimum,
                 f"an integer >= {minimum}")


def _one_of(*choices: str) -> _Kind:
    return _Kind(lambda v: isinstance(v, str) and v in choices, f"one of {list(choices)}")


def _optional(kind: _Kind) -> _Kind:
    return _Kind(lambda v: v is None or kind.check(v), f"null or {kind.text}")


def _list_of(kind: _Kind) -> _Kind:
    # an empty list would run nothing and write a header-only table
    return _Kind(lambda v: isinstance(v, list) and bool(v) and all(map(kind.check, v)),
                 f"a non-empty list, each {kind.text}")


_NUMBER = _Kind(_is_finite, "a finite number")
_POSITIVE = _Kind(lambda v: _is_finite(v) and v > 0, "a finite number > 0")
_NONNEGATIVE = _Kind(lambda v: _is_finite(v) and v >= 0, "a finite number >= 0")
_SPAN = _Kind(lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_finite, v)),
              "a list of two finite numbers")
_GRID_POINT = _Kind(lambda v: isinstance(v, dict) and set(v) == {"omega0", "beta"}
                    and _NONNEGATIVE.check(v["omega0"]) and _is_finite(v["beta"]),
                    "an {omega0 >= 0, beta} table of finite numbers")

_SCHEMA = {
    "params": {"omega": (1.0, _POSITIVE), "omega0": (0.3, _NONNEGATIVE), "beta": (0.1, _NUMBER)},
    "rates": {
        "Gamma": (0.00108, _NONNEGATIVE),
        "gamma": (0.000108, _NONNEGATIVE),
        "gamma_f": (0.0, _NONNEGATIVE),
    },
    "n_cut": (40, _integer(2)),
    "n_levels": (12, _integer(1)),
    "spectrum": {"keep": (12, _integer(1))},
    "fidelity": {
        "n_states": (6, _integer(1)),
        "grid": ([{"omega0": 0.05, "beta": 0.1}, {"omega0": 0.15, "beta": 0.1}, {"omega0": 3.0, "beta": 0.1}],
                 _list_of(_GRID_POINT)),
    },
    "relax": {
        "t_end_over_rate": (5.0, _POSITIVE),
        "sample_interval": (0.4, _POSITIVE),
        "beta_grid": ([0.02, 0.05, 0.1, 0.15, 0.2], _list_of(_NUMBER)),
    },
    "drive": {"pump_amps": (None, _optional(_list_of(_NUMBER))), "detuning": (0.0, _NUMBER)},
    "spectroscopy": {
        "baselines": ([0.5, 1.0, 2.0, 4.0], _list_of(_POSITIVE)),
        "spec_amp": (None, _optional(_NUMBER)),
        "grid_points": (241, _integer(1)),
        "span": ([0.0, 12.0], _SPAN),
        "solver": ("corotating", _one_of("corotating", "timeaveraged")),
        "t_start": (None, _optional(_NUMBER)),
        "window": (None, _optional(_NUMBER)),
        "dt": (None, _optional(_NUMBER)),
    },
    "validate": {},
}


def _resolve(schema: dict, given, path: str) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"expected a table at {path or 'top level'}, got {type(given).__name__}")
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys at {path or 'top level'}: {sorted(unknown)}")
    out = {}
    for key, entry in schema.items():
        name = f"{path}.{key}" if path else key
        if isinstance(entry, dict):
            out[key] = _resolve(entry, given.get(key, {}), name)
            continue
        default, kind = entry
        value = given.get(key, default)
        if not kind.check(value):
            raise ConfigError(f"{name} must be {kind.text}, got {value!r:.80}")
        out[key] = copy.deepcopy(value)
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return data


def resolve_config(raw: dict, overrides: dict) -> dict:
    """Check ``raw``, with the ``--n-cut``/``--n-levels`` overrides merged in, against ``_SCHEMA``."""
    flags = {key: value for key, value in overrides.items() if value is not None}
    return _resolve(_SCHEMA, {**raw, **flags} if isinstance(raw, dict) else raw, "")


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _build_rates(cfg: dict) -> RateFunctions:
    rc = cfg["rates"]
    return RateFunctions(Gamma=float(rc["Gamma"]), gamma=float(rc["gamma"]), gamma_f=float(rc["gamma_f"]))


def _params(cfg: dict) -> RabiParams:
    pc = cfg["params"]
    return RabiParams(omega=float(pc["omega"]), omega0=float(pc["omega0"]), beta=float(pc["beta"]))


# ---------------------------------------------------------------------------
# emission


def _fmt(value) -> str:
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, columns: list[str], rows: list[list], digest: str, notes: list[str] | None = None):
    lines = [f"# dressedrabi {__version__}", f"# config_digest=sha256:{digest}",
             "# units: frequencies and rates in units of omega"]
    for note in notes or []:
        lines.append(f"# {note}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _jsonable(obj):
    """Plain JSON values; a non-finite float becomes null, as ``JSON.stringify`` writes it."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_sidecar(path: Path, cfg: dict, digest: str, extra: dict):
    sidecar = {"code_version": __version__, "config_digest": f"sha256:{digest}", "resolved_config": cfg, **extra}
    path.write_text(json.dumps(_jsonable(sidecar), indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands: each returns {"files": {name: (columns, rows, notes)}, "meta": {...}} and writes
# nothing; main writes each file as a CSV table.


def cmd_spectrum(cfg: dict) -> dict:
    p = _params(cfg)
    dims = SpaceDims(cfg["n_cut"])
    n_states = cfg["spectrum"]["keep"]
    comparison = fidelity_comparison(p, n_states, dims, n_levels=cfg["n_levels"])
    rows = []
    for r in comparison.rows:
        rows.append([
            r.index, r.n_label, r.sector_label,
            r.energy_exact, r.energy_adiabatic, r.energy_sw,
            abs(r.energy_exact - r.energy_adiabatic), abs(r.energy_exact - r.energy_sw),
        ])
    table = (["index", "N", "branch", "E_exact", "E_adiabatic", "E_sw", "err_adiabatic", "err_sw"], rows,
             ["energies in units of omega; E_sw includes the dropped dispersive constant"])
    return {"files": {"spectrum.csv": table}, "meta": {"max_err_adiabatic": max(r[6] for r in rows)}}


def cmd_fidelity(cfg: dict) -> dict:
    dims = SpaceDims(cfg["n_cut"])
    n_states = cfg["fidelity"]["n_states"]
    rows = []
    summaries = []
    for point in cfg["fidelity"]["grid"]:
        p = RabiParams(
            omega=cfg["params"]["omega"],
            omega0=float(point["omega0"]),
            beta=float(point["beta"]),
        )
        comp = fidelity_comparison(p, n_states, dims)
        for r in comp.rows:
            rows.append([p.omega0, p.beta, r.index, r.n_label, r.sector_label,
                         r.f_adiabatic, r.f_sw, int(r.ambiguous)])
        summaries.append({
            "omega0": p.omega0,
            "beta": p.beta,
            "mean_f_adiabatic": comp.mean_f_adiabatic,
            "mean_f_sw": comp.mean_f_sw,
        })
    table = (["omega0", "beta", "index", "N", "branch", "f_adiabatic", "f_sw", "ambiguous"], rows, [])
    return {"files": {"fidelity.csv": table}, "meta": {"summaries": summaries}}


def cmd_relax(cfg: dict) -> dict:
    p = _params(cfg)
    dims = SpaceDims(cfg["n_cut"])
    rates = _build_rates(cfg)
    block = cfg["relax"]
    rate_scale = max(rates.oscillator_rate(p.omega), rates.qubit_rate(p.omega0))
    if rate_scale == 0:
        # checked here because the schema checks each key alone, and either rate may be 0
        raise ConfigError(f"relax needs Gamma({p.omega}) or gamma({p.omega0}) > 0: its horizon is in 1/rate")
    t_end = block["t_end_over_rate"] / rate_scale

    dist_rows = []
    for beta in block["beta_grid"]:
        pb = RabiParams(p.omega, p.omega0, float(beta))
        bb = build_basis(pb, 1, dims)
        d = 1.0 - abs(bb.state(0, "-")[dims.n_cut])  # entry n_cut is |g> (x) |0>
        dist_rows.append([beta, d, 1.0 - np.exp(-beta**2 / 2.0), beta**2 / 2.0])

    basis = build_basis(p, cfg["n_levels"], dims)
    dme = zero_temperature_dme(basis, rates)
    # the basis lets evolve read <Psi_0^-| rho |Psi_0^-> of the full-space states as "ground"
    sme = replace(standard_master_equation(p, rates, dims), basis=basis)

    # dressed ground state under the dressed generator: stays put
    rho_dme = np.zeros((basis.reduced_dim, basis.reduced_dim), dtype=complex)
    rho_dme[0, 0] = 1.0
    traj_dme = evolve(dme, rho_dme, t_end, block["sample_interval"], exact=True, store_states=False)
    fid_dme = traj_dme.observables["ground"]

    # exact ground state under the bare-operator generator: leaks out
    _, gs = ground_state(p, dims)
    rho_sme = np.outer(gs, gs.conj())
    traj_sme = evolve(sme, rho_sme, t_end, block["sample_interval"], exact=True, store_states=False)
    fid_sme = traj_sme.observables["ground"]

    # both trajectories sample the same evolve grid
    files = {
        "relax.csv": (["time", "fidelity_dme_from_dressed_ground", "fidelity_sme_from_exact_ground"],
                      list(zip(traj_dme.times, fid_dme, fid_sme)),
                      ["fidelity = <Psi_0^-| rho |Psi_0^->"]),
        "relax_distance.csv": (["beta", "distance", "one_minus_exp", "beta_sq_over_2"], dist_rows,
                               ["distance d = 1 - |<Psi_0^-|g,0>| between the two putative ground states"]),
    }
    meta = {
        "dme_final_fidelity": float(fid_dme[-1]),
        "sme_final_fidelity": float(fid_sme[-1]),
        "propagation": {"dme": traj_dme.metadata, "sme": traj_sme.metadata},
    }
    return {"files": files, "meta": meta}


def cmd_drive(cfg: dict) -> dict:
    p = _params(cfg)
    dims = SpaceDims(cfg["n_cut"])
    rates = _build_rates(cfg)
    basis = build_basis(p, cfg["n_levels"], dims)
    gamma = rates.oscillator_rate(basis.omega_minus)
    pump_amps = cfg["drive"]["pump_amps"]
    if pump_amps is None:
        pump_amps = [gamma / 2.0]
    detuning = float(cfg["drive"]["detuning"])
    pump_freq = basis.omega_minus - detuning
    # undamped, every |Psi_N^-> is stationary: no steady state is unique, pumped or not
    if gamma == 0:
        raise ConfigError(f"drive needs Gamma(omega_-={basis.omega_minus}) > 0 for a unique steady state")
    denominator = 1j * gamma / 2.0 - detuning  # the predicted coherent amplitude is Omega_p / denominator

    rows = []
    for amp in pump_amps:
        me = driven_rotating_dme(basis, rates, float(amp), pump_freq)
        ss = steady_state_nullspace(me)
        obs = observables(ss.rho, basis)
        alpha = amp / denominator
        ket = coherent_dressed_ket(basis, alpha, "-")
        fid = float(np.real(ket.conj() @ ss.rho @ ket))
        rows.append([
            float(amp), detuning, obs["n_minus"], obs["n_plus"], obs["n_total"],
            float(abs(alpha) ** 2), fid, obs["sector_plus"], ss.residual,
        ])
    table = (["pump_amp", "detuning_minus", "n_minus", "n_plus", "n_total",
              "predicted_n", "fidelity_coherent", "sector_plus", "residual"], rows, [])
    return {"files": {"drive.csv": table}, "meta": {"pump_freq": pump_freq}}


# the scan metadata that differs from pump to pump: each pump's summary holds it, the shared record does not
_PER_PUMP_KEYS = ("pump_amp", "label_n_ss", "baseline_residual", "point_solver")


def _point_solve_summary(result) -> dict:
    """What one pump's point solves did: its pump, the count per path, the largest residual and
    clipped weight, and the points that left the path every point tries first."""
    solved = [(idx, rec) for idx, rec in enumerate(result.metadata["point_solves"]) if rec is not None]
    paths = [rec["solve"] for _, rec in solved]
    return {
        **{key: result.metadata[key] for key in _PER_PUMP_KEYS},
        "paths": {path: paths.count(path) for path in sorted(set(paths))},
        "residual_max": max((rec["residual"] for _, rec in solved), default=None),
        "clipped_weight_max": max((rec["clipped_weight"] for _, rec in solved), default=None),
        "fallback_points": [idx for idx, rec in solved if rec["solve"] != result.metadata["point_solver"]],
    }


def cmd_spectroscopy(cfg: dict) -> dict:
    p = _params(cfg)
    dims = SpaceDims(cfg["n_cut"])
    rates = _build_rates(cfg)
    sc = cfg["spectroscopy"]
    spec_amp = sc["spec_amp"]
    if spec_amp is None:
        # default probe strength: the cross-ladder transfer rate kappa(omega_tilde_0)
        spec_amp = rates.cross_rate(p.beta, float(p.omega_tilde(1)[0]))
    # the rate pump_family labels with: Gamma at the pump, locked to omega_-
    gamma = rates.oscillator_rate(p.omega_minus)
    pump_amps = [gamma / 2.0 * float(np.sqrt(b)) for b in sc["baselines"]]

    grid = default_scan_grid(p, sc["grid_points"], tuple(sc["span"]))
    scan_cfg = SpectroscopyConfig(
        params=p,
        rates=rates,
        pump_amp=float(pump_amps[0]),
        spec_amp=float(spec_amp),
        omega_s_grid=grid,
        n_levels=cfg["n_levels"],
        dims=dims,
        solver=sc["solver"],
    )
    # kept as keys so that configs and their digests stay valid; no solver reads them
    ignored = [key for key in ("t_start", "window", "dt") if sc[key] is not None]
    if ignored:
        warnings.warn(f"spectroscopy keys {ignored} are ignored: no solver has a burn-in, window or step")
    if len(set(sc["baselines"])) < len(sc["baselines"]):
        raise ConfigError(f"spectroscopy.baselines {sc['baselines']} repeats a pump: give each pump once")
    results = pump_family(scan_cfg, pump_amps)

    rows = []
    failures = []
    norm = 2.0 * p.omega0 * p.beta**2
    for result in results:
        label = result.metadata["label_n_ss"]
        for i in range(len(result.omega_s)):
            u = (p.omega0 - result.omega_s[i]) / norm
            rows.append([label, result.omega_s[i], u, result.n_ss[i], result.percent_reduction[i]])
        failures.extend(
            {"label": label, "index": i, "error": err} for i, err in result.failures
        )
    files = {"spectroscopy_combined.csv": (
        ["label_n_ss", "omega_s", "normalized_detuning", "n_ss", "percent_reduction"], rows, [],
    )}
    meta = {
        "failures": failures,
        "scan_metadata": {key: val for key, val in results[0].metadata.items()
                          if key not in _PER_PUMP_KEYS and key != "point_solves"},
        "point_solves": [_point_solve_summary(result) for result in results],
        "baselines": [r.baseline_n_ss for r in results],
        "predicted_resonances": results[0].predicted_resonances,
        "ignored_keys": ignored,
    }
    return {"files": files, "meta": meta}


def cmd_validate(cfg: dict) -> dict:
    """Run no experiment: ``main`` prints the run's one validity report, which the sidecar holds."""
    return {"files": {}, "meta": {}}


def _describe_validity(rep: ValidityReport) -> str:
    lines = [
        f"quasi-degenerate qubit: {rep.quasi_degenerate} (margin {rep.qubit_margin:+.4g} omega)",
        f"coupling within O(beta^4) window: {rep.beta_ok} (margin {rep.beta_margin:+.4g})",
        f"ladder bound n_max = {rep.n_max}; n_levels ok: {rep.n_levels_ok}",
        f"secular approximation ok: {rep.secular_ok} (margin {rep.secular_margin})",
    ]
    return "\n".join(lines + [f"note: {note}" for note in rep.warnings])


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "fidelity": cmd_fidelity,
    "relax": cmd_relax,
    "drive": cmd_drive,
    "spectroscopy": cmd_spectroscopy,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dressedrabi",
        description="Dressed-state master equation experiments for the quasi-degenerate Rabi model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--n-cut", type=int, default=None, dest="n_cut")
        sp.add_argument("--n-levels", type=int, default=None, dest="n_levels")
    return parser


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with the OpenBLAS bundled in numpy's and scipy's wheels at one thread each.

    Every dense matrix here is small (an 80 x 80 state, a 24-rung basis): a
    second OpenBLAS thread only makes each call wait for it, for milliseconds at
    a time on a 2-core machine.  The old counts come back on the way out, so a
    process that calls ``main`` keeps its own.  Any other BLAS is left alone.
    """
    pools = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so")):
            lib = ctypes.CDLL(str(path))
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_threads is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                pools.append((set_threads, get()))
    for set_threads, _ in pools:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in pools:
            set_threads(count)


def main(argv=None) -> int:
    """Run one command, then write its tables and sidecar: a failed run writes no file."""
    args = build_parser().parse_args(argv)
    with _one_blas_thread():
        try:
            cfg = resolve_config(load_config(args.config), {"n_cut": args.n_cut, "n_levels": args.n_levels})
            out = Path(args.out)
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create the output directory {out}: {exc}") from exc
            started = time.perf_counter()
            result = _COMMANDS[args.command](cfg)
            files, meta = result["files"], result["meta"]
            # the regime is graded once per run, here, and never inside a command
            report = validity_report(_params(cfg), cfg["n_levels"], _build_rates(cfg))
            meta["validity"] = asdict(report)
            if args.command == "validate":
                print(_describe_validity(report))
            digest = config_digest(cfg)
            for name, (columns, rows, notes) in files.items():
                write_csv(out / name, columns, rows, digest, notes)
            wall = time.perf_counter() - started
            sidecar = f"{args.command}.meta.json"
            write_sidecar(
                out / sidecar,
                cfg,
                digest,
                {"command": args.command, "wall_time_s": wall, **meta, "files": list(files)},
            )
            print(f"{args.command}: wrote {', '.join([*files, sidecar])} (wall {wall:.2f}s)")
            return 0
        except (NumericsError, np.linalg.LinAlgError, FloatingPointError) as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            # ConfigError, and the input checks of the library (parameters, rates, sizes)
            print(f"config error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
