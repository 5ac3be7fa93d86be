"""Workload configs drawn from a seed, and the checks on their outputs.

Seed 0 is the paper point of each workload.  Any other seed draws the
physical parameters from inside the validity window (omega0 <= 0.3,
|beta| <= 0.2, n_levels under the ladder cap) while keeping every size that
sets the cost fixed (n_levels, n_cut, grid, step count, averaging window), so
that runs on different seeds measure the same amount of work.  The program
sees only the generated config.

A workload's config is the whole computation its reference outputs were
recorded from.  Its invocations split it where that gives a run several
samples: scan runs its pump family one pump per invocation, in the order
``SCAN_PUMPS``, so that every run holds the label-1 pump the dips are
checked on first.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

RELAX_T = 10.0          # simulated time per relax trajectory
PROBE_T_START = 200.0   # burn-in >= 10 / slowest rate for every drawn kappa >= 0.05
PROBE_WINDOW = 510.0    # >= 20 periods of the lowest probe frequency any seed draws
SCAN_PUMPS = (1.0, 0.5, 2.0, 4.0)  # the CLI's default baselines, label 1 first


@dataclass
class Spec:
    command: str
    config: dict
    primary: str  # the table whose rows count as the invocation's points
    invocations: list[dict] | None = None  # cycled through in a run; None: [config]

    def __post_init__(self):
        if self.invocations is None:
            self.invocations = [self.config]


def _rates(rng: random.Random, gamma_big: float) -> dict:
    return {"Gamma": gamma_big, "gamma": gamma_big * rng.uniform(0.08, 0.12)}


def _beta(rng: random.Random, low: float, high: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(low, high)


def make(workload: str, seed: int) -> Spec:
    rng = random.Random(f"{workload}:{seed}")
    paper = seed == 0
    if workload == "scan":
        # n_levels=12 needs |beta| <= 0.102 (ladder cap)
        omega0 = 0.3 if paper else rng.uniform(0.2, 0.3)
        beta = 0.1 if paper else _beta(rng, 0.07, 0.1)
        # Gamma = 0.36 omega0 beta^2 at the paper point keeps the dips resolved
        rates = ({"Gamma": 0.00108, "gamma": 0.000108} if paper
                 else _rates(rng, rng.uniform(0.3, 0.42) * omega0 * beta**2))
        config = {"params": {"omega": 1.0, "omega0": omega0, "beta": beta},
                  "rates": rates, "n_cut": 40, "n_levels": 12}
        pumps = [{**config, "spectroscopy": {"baselines": [b]}} for b in SCAN_PUMPS]
        return Spec("spectroscopy", config, "spectroscopy_combined.csv", pumps)
    if workload == "ladder":
        # n_levels=24 needs |beta| <= 0.072
        omega0 = 0.3 if paper else rng.uniform(0.2, 0.3)
        beta = 0.05 if paper else _beta(rng, 0.03, 0.07)
        rates = ({"Gamma": 0.00108, "gamma": 0.000108} if paper
                 else _rates(rng, rng.uniform(0.0008, 0.0014)))
        amps = None if paper else [rates["Gamma"] / 2.0 * math.sqrt(rng.uniform(0.5, 2.0))]
        config = {"params": {"omega": 1.0, "omega0": omega0, "beta": beta},
                  "rates": rates, "n_cut": 60, "n_levels": 24,
                  "drive": {"pump_amps": amps, "detuning": 0.0}}
        return Spec("drive", config, "drive.csv")
    if workload == "relax":
        omega0 = 0.3 if paper else rng.uniform(0.2, 0.3)
        beta = 0.1 if paper else _beta(rng, 0.06, 0.1)
        rates = ({"Gamma": 0.00108, "gamma": 0.000108} if paper
                 else _rates(rng, rng.uniform(0.0008, 0.0014)))
        # the horizon is t_end_over_rate / max(Gamma, gamma); fix it at RELAX_T
        config = {"params": {"omega": 1.0, "omega0": omega0, "beta": beta},
                  "rates": rates, "n_cut": 40, "n_levels": 12,
                  "relax": {"t_end_over_rate": RELAX_T * max(rates.values())}}
        return Spec("relax", config, "relax.csv")
    if workload == "probe_timeavg":
        # accelerated rates of the time-averaged solver test; n_levels=8 needs |beta| <= 0.125
        omega0 = 0.3 if paper else rng.uniform(0.27, 0.3)
        beta = 0.1 if paper else _beta(rng, 0.09, 0.11)
        gamma_big = 0.3 if paper else rng.uniform(0.25, 0.35)
        kappa = 0.05 if paper else rng.uniform(0.05, 0.06)
        gamma_f = 0.02 if paper else rng.uniform(0.015, 0.025)
        config = {"params": {"omega": 1.0, "omega0": omega0, "beta": beta},
                  "rates": {"Gamma": gamma_big, "gamma": kappa - 4.0 * beta**2 * gamma_big,
                            "gamma_f": gamma_f},
                  "n_cut": 40, "n_levels": 8,
                  "spectroscopy": {"solver": "timeaveraged", "dt": 0.05,
                                   "t_start": PROBE_T_START, "window": PROBE_WINDOW,
                                   "grid_points": 2, "span": [1.0, 3.0], "baselines": [1.0]}}
        return Spec("spectroscopy", config, "spectroscopy_combined.csv")
    raise KeyError(workload)


def corotating_config(spec: Spec) -> dict:
    """The probe_timeavg config solved with the co-rotating solver instead."""
    return {**spec.config, "spectroscopy": {**spec.config["spectroscopy"], "solver": "corotating"}}


# ---------------------------------------------------------------------------
# output checks


def read_table(path: Path) -> dict[str, list[float]]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    header = lines[0].split(",")
    columns: dict[str, list[float]] = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            columns[name].append(float(cell))
    return columns


def count_rows(path: Path) -> int:
    return len(next(iter(read_table(path).values())))


# Reference outputs recorded at seed 0: file -> column -> (rtol, atol).
# Tolerances admit an algorithm change with the same physics (sparse LU,
# exact propagation, a Floquet time average) and reject wrong physics: the
# scan dips are percent-level features of n_ss, the ladder occupations are
# O(1), the relax fidelity loss is ~7e-5 over the horizon, and the
# time-averaged solver is checked against the co-rotating one at 3e-3.
REFERENCE = {
    "scan": {"spectroscopy_combined.csv": {"label_n_ss": (1e-9, 0.0), "omega_s": (1e-12, 0.0),
                                           "n_ss": (1e-6, 1e-9)}},
    "ladder": {"drive.csv": {"pump_amp": (1e-12, 0.0), "n_minus": (1e-7, 1e-9), "n_plus": (1e-7, 1e-9),
                             "n_total": (1e-7, 1e-9), "fidelity_coherent": (1e-7, 1e-9),
                             "sector_plus": (0.0, 1e-9)}},
    "relax": {"relax.csv": {"time": (1e-9, 1e-12),
                            "fidelity_dme_from_dressed_ground": (0.0, 1e-9),
                            "fidelity_sme_from_exact_ground": (0.0, 1e-9)},
              "relax_distance.csv": {"distance": (1e-9, 1e-15)}},
    "probe_timeavg": {"spectroscopy_combined.csv": {"omega_s": (1e-12, 0.0), "n_ss": (1e-3, 0.0)}},
}

Check = tuple[str, bool, str]


def _same_labels(ref: dict, got: dict) -> dict:
    """The reference rows of the pumps an invocation ran (all of them if unlabelled)."""
    if "label_n_ss" not in ref or "label_n_ss" not in got:
        return ref
    keep = [i for i, label in enumerate(ref["label_n_ss"])
            if any(abs(label - x) < 1e-6 for x in set(got["label_n_ss"]))]
    return {name: [column[i] for i in keep] for name, column in ref.items()}


def _compare(name: str, got: dict, ref: dict, tolerances: dict) -> list[Check]:
    ref = _same_labels(ref, got)
    out = []
    for column, (rtol, atol) in tolerances.items():
        a, b = got.get(column), ref.get(column)
        if a is None or b is None or len(a) != len(b):
            out.append((f"reference {name}:{column}", False, "missing column or row count differs"))
            continue
        worst = max((abs(x - y) - (atol + rtol * abs(y)) for x, y in zip(a, b)), default=0.0)
        out.append((f"reference {name}:{column}", worst <= 0.0,
                    f"max excess over tolerance {worst:.3g}"))
    return out


def _local_maxima(x: list[float], y: list[float], threshold: float) -> list[float]:
    return [x[i] for i in range(1, len(y) - 1)
            if y[i] > y[i - 1] and y[i] >= y[i + 1] and y[i] > threshold]


def check(workload: str, spec: Spec, out: Path, reference: Path | None,
          corotating_out: Path | None = None) -> list[Check]:
    """Physics checks on one invocation's outputs, plus the reference comparison."""
    p = spec.config["params"]
    rates = spec.config["rates"]
    checks: list[Check] = []
    if reference is not None:
        for name, tolerances in REFERENCE[workload].items():
            checks += _compare(name, read_table(out / name), read_table(reference / name), tolerances)

    if workload == "scan":
        table = read_table(out / "spectroscopy_combined.csv")
        norm = 2.0 * p["omega0"] * p["beta"] ** 2
        half_width = rates["Gamma"] / 2.0 / norm
        for pump in sorted(set(table["label_n_ss"])):
            rows = [i for i, label in enumerate(table["label_n_ss"]) if label == pump]
            u = [table["normalized_detuning"][i] for i in rows]
            reduction = [table["percent_reduction"][i] for i in rows]
            peaks = _local_maxima(u, reduction, 0.05 * max(reduction, default=0.0))
            # below label 1 the u=5 dip falls under the 5% threshold
            for target in (1.0, 3.0, 5.0) if pump > 1.0 - 1e-6 else (1.0, 3.0):
                ok = any(abs(x - target) <= half_width for x in peaks)
                checks.append((f"label {pump:g}: dip within Gamma/2 of u={target:g}", ok,
                               f"maxima at {peaks[:5]}"))
    elif workload == "ladder":
        table = read_table(out / "drive.csv")
        # expected from the config, not from the program's predicted_n column:
        # a resonant pump of amplitude Omega (default Gamma/2) on a flat rate Gamma
        gamma_big = rates["Gamma"]
        amps = spec.config["drive"]["pump_amps"] or [gamma_big / 2.0]
        expected = [4.0 * amp**2 / gamma_big**2 for amp in amps]
        checks.append(("one drive row per pump amplitude", len(table["n_total"]) == len(amps),
                       f"{len(table['n_total'])} rows for {len(amps)} amplitudes"))
        for n_total, predicted in zip(table["n_total"], expected):
            ok = abs(n_total - predicted) <= 1e-4 * predicted
            checks.append(("n_total = 4 Omega^2 / Gamma^2", ok, f"{n_total!r} vs {predicted!r}"))
        # the solver accepts residual <= 1e-10 * (largest |H| entry or rate);
        # the half pair splitting is a lower bound on that scale
        scale = max(0.5 * p["omega0"] * (1.0 - 2.0 * p["beta"] ** 2), rates["Gamma"])
        worst = max(table["residual"])
        checks.append(("solver residual under 1e-10 * scale", worst <= 1e-10 * scale,
                       f"{worst:.3g} vs {1e-10 * scale:.3g}"))
    elif workload == "relax":
        table = read_table(out / "relax.csv")
        dme = table["fidelity_dme_from_dressed_ground"]
        sme = table["fidelity_sme_from_exact_ground"]
        worst = max(abs(f - 1.0) for f in dme)
        checks.append(("DME fidelity stays at 1", worst <= 1e-9, f"max |F - 1| = {worst:.3g}"))
        checks.append(("SME fidelity falls", sme[-1] < sme[0] - 1e-6, f"{sme[0]!r} -> {sme[-1]!r}"))
    elif workload == "probe_timeavg":
        if corotating_out is None:
            return checks + [("co-rotating solution available", False, "its CLI run failed")]
        slow = read_table(out / "spectroscopy_combined.csv")["n_ss"]
        fast = read_table(corotating_out / "spectroscopy_combined.csv")["n_ss"]
        worst = max(abs(s - f) / f for s, f in zip(slow, fast))
        checks.append(("time-averaged agrees with co-rotating within 3e-3",
                       len(slow) == len(fast) and worst < 3e-3, f"max relative gap {worst:.3g}"))
    return checks
