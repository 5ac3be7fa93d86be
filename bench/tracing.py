"""Span recorder and per-layer summaries for the dressedrabi benchmark.

Standard library only.  Spans are recorded from outside the program: the
public functions of ``dressedrabi`` are wrapped at the module attribute
through which their callers reach them (``spectroscopy.steady_state_nullspace``
is the name ``run_scan`` calls, not ``dynamics.steady_state_nullspace``).
A target that no longer exists is reported as absent and its metrics read
zero, so the benchmark keeps running after a refactor removes a function.

Each span is ``[name_index, start, end, parent_index]``, kept in memory and
exported once when the traced process ends; ``summarize`` derives self times,
counts and ratios from the exported spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time

# layer -> wrapped targets, as "module.attribute" (or "module.Class.method")
# relative to the dressedrabi package.  hilbert runs only inside rabi and
# adiabatic calls and is counted there; schrieffer_wolff is not reached by any
# workload.
LAYERS = {
    "adiabatic.build_basis": ["cli.build_basis", "spectroscopy.build_basis"],
    "rabi.diag": ["cli.ground_state", "rabi.diagonalize"],
    "lindblad.assemble": [
        "cli.standard_master_equation",
        "cli.zero_temperature_dme",
        "cli.driven_rotating_dme",
        "spectroscopy.driven_rotating_dme",
        "spectroscopy.two_tone_corotating_dme",
        "spectroscopy.add_spectroscopy_drive",
        "lindblad.driven_rotating_dme",
        "lindblad.add_dephasing",
    ],
    "lindblad.rhs": ["lindblad.MasterEquation.rhs"],
    "dynamics.superop": [
        "spectroscopy.build_superoperator",
        "spectroscopy.hamiltonian_superoperator",
        "dynamics.build_superoperator",
        "dynamics.hamiltonian_superoperator",
    ],
    "dynamics.solve": ["cli.steady_state_nullspace", "spectroscopy.steady_state_nullspace"],
    "dynamics.evolve": ["cli.evolve", "dynamics.evolve"],
    # the observables readout that evolve performs at every stored sample
    "dynamics.readout": ["dynamics.observables"],
    "dynamics.timeavg": ["spectroscopy.steady_state_timeaveraged"],
    "spectroscopy.scan": ["spectroscopy.run_scan"],
    "spectroscopy.point": ["spectroscopy._solve_point"],
    "cli.validity": ["cli.validity_report"],
    "cli.io": ["cli.write_csv", "cli.write_sidecar"],
}

# the calls that end set-up: the first steady-state solve or integrator step
FIRST_WORK = [
    "cli.steady_state_nullspace",
    "cli.evolve",
    "spectroscopy.steady_state_nullspace",
    "spectroscopy.steady_state_timeaveraged",
]

PACKAGE = "dressedrabi"


def _resolve(target: str):
    """Return (owner, attribute, current value) or None when the target is gone."""
    module_name, *attrs = target.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    value = getattr(owner, attrs[-1], None)
    if not callable(value):
        return None
    return owner, attrs[-1], value


def _superop_bytes(args, result, cached):
    """Computed size of the dense superoperator a call returned: 16 d^4 bytes."""
    if cached:
        return {"bytes": 0, "cached": True}
    shape = getattr(result, "shape", None)
    if not shape or len(shape) != 2:
        return None
    return {"bytes": 16 * shape[0] * shape[1]}


def _superop_cached(args):
    return args and getattr(args[0], "_superop", None) is not None


def _solve_attrs(args, result, _pre):
    meta = getattr(result, "metadata", None) or {}
    return {"residual": float(getattr(result, "residual", 0.0)),
            "clipped": float(meta.get("clipped_weight", 0.0))}


def _evolve_attrs(args, result, _pre):
    meta = getattr(result, "metadata", None) or {}
    return {"steps": int(meta.get("steps", 0))}


def _scan_attrs(args, result, _pre):
    return {"points": len(getattr(result, "omega_s", ())),
            "failed": len(getattr(result, "failures", ()))}


# target -> (attrs(args, result, pre), pre(args)) for spans that carry values
ATTRS = {
    "spectroscopy.build_superoperator": (_superop_bytes, _superop_cached),
    "dynamics.build_superoperator": (_superop_bytes, _superop_cached),
    "spectroscopy.hamiltonian_superoperator": (_superop_bytes, None),
    "dynamics.hamiltonian_superoperator": (_superop_bytes, None),
    "cli.steady_state_nullspace": (_solve_attrs, None),
    "spectroscopy.steady_state_nullspace": (_solve_attrs, None),
    "cli.evolve": (_evolve_attrs, None),
    "dynamics.evolve": (_evolve_attrs, None),
    "spectroscopy.run_scan": (_scan_attrs, None),
}


class Recorder:
    """In-memory span recorder: name, start, end and parent of every call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self._local = threading.local()

    def wrap(self, name: str, fn):
        name_index = len(self.names)
        self.names.append(name)
        spans, attrs, local = self.spans, self.attrs, self._local
        hooks = ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [-1])
            pre = hooks[1](args) if hooks and hooks[1] else None
            index = len(spans)
            span = [name_index, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hooks:
                extra = hooks[0](args, result, pre)
                if extra:
                    attrs[index] = extra
            return result

        return wrapper

    def export(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "attrs": {str(k): v for k, v in self.attrs.items()}}


class SetupReached(BaseException):
    """Raised at the first solve or step when only set-up is being timed.

    Derives from BaseException so that no handler in the program catches it.
    """


class FirstWork:
    """Records when the program first enters a solve or a step."""

    def __init__(self, stop: bool):
        self.time: float | None = None
        self.stop = stop

    def wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.time is None:
                self.time = time.perf_counter()
                if self.stop:
                    raise SetupReached
            return fn(*args, **kwargs)

        return wrapper


def install(recorder: Recorder | None, first: FirstWork) -> list[str]:
    """Wrap every layer target (when tracing) and the set-up boundary.

    Returns the targets that do not exist in the program.
    """
    absent = []
    if recorder is not None:
        for targets in LAYERS.values():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    absent.append(target)
                    continue
                owner, attr, fn = found
                setattr(owner, attr, recorder.wrap(target, fn))
    for target in FIRST_WORK:
        found = _resolve(target)
        if found is None:
            absent.append(target)
            continue
        owner, attr, fn = found
        setattr(owner, attr, first.wrap(fn))
    return sorted(set(absent))


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process from its exported spans."""
    layer_of = {t: layer for layer, targets in LAYERS.items() for t in targets}
    names = trace["names"]
    spans = trace["spans"]
    attrs = {int(k): v for k, v in trace["attrs"].items()}
    layers = [layer_of.get(names[s[0]], names[s[0]]) for s in spans]
    duration = [s[2] - s[1] for s in spans]
    self_time = list(duration)
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            self_time[s[3]] -= d

    def has_ancestor(index: int, layer: str) -> bool:
        parent = spans[index][3]
        while parent >= 0:
            if layers[parent] == layer:
                return True
            parent = spans[parent][3]
        return False

    def top_level(layer: str) -> list[int]:
        return [i for i, name in enumerate(layers) if name == layer and not has_ancestor(i, layer)]

    def self_sum(layer: str) -> float:
        return sum(t for t, name in zip(self_time, layers) if name == layer)

    def inclusive(layer: str) -> float:
        return sum(duration[i] for i in top_level(layer))

    def attr_values(layer: str, key: str) -> list[float]:
        return [attrs[i][key] for i, name in enumerate(layers)
                if name == layer and i in attrs and key in attrs[i]]

    rhs_calls = layers.count("lindblad.rhs")
    rhs_s = self_sum("lindblad.rhs")
    steps = sum(attr_values("dynamics.evolve", "steps"))
    evolve_total = inclusive("dynamics.evolve")
    readout = sum(duration[i] for i, name in enumerate(layers)
                  if name == "dynamics.readout" and has_ancestor(i, "dynamics.evolve"))
    rhs_in_evolve = sum(1 for i, name in enumerate(layers)
                        if name == "lindblad.rhs" and has_ancestor(i, "dynamics.evolve"))
    point_ms = [1e3 * duration[i] for i, name in enumerate(layers) if name == "spectroscopy.point"]
    return {
        "adiabatic.build_basis_s": inclusive("adiabatic.build_basis"),
        "adiabatic.build_basis_calls": len(top_level("adiabatic.build_basis")),
        "rabi.diag_s": inclusive("rabi.diag"),
        "rabi.diag_calls": len(top_level("rabi.diag")),
        "lindblad.assemble_s": self_sum("lindblad.assemble"),
        "lindblad.assemble_calls": len(top_level("lindblad.assemble")),
        "lindblad.rhs_s": rhs_s,
        "lindblad.rhs_calls": rhs_calls,
        "lindblad.rhs_us": 1e6 * rhs_s / rhs_calls if rhs_calls else 0.0,
        "dynamics.superop_s": self_sum("dynamics.superop"),
        "dynamics.superop_calls": len(top_level("dynamics.superop")),
        "dynamics.superop_bytes": sum(attrs.get(i, {}).get("bytes", 0)
                                      for i in top_level("dynamics.superop")),
        "dynamics.solve_s": self_sum("dynamics.solve"),
        "dynamics.solve_calls": len(top_level("dynamics.solve")),
        "dynamics.residual_max": max(attr_values("dynamics.solve", "residual"), default=0.0),
        "dynamics.clipped_max": max(attr_values("dynamics.solve", "clipped"), default=0.0),
        "dynamics.evolve_s": self_sum("dynamics.evolve"),
        "dynamics.steps": steps,
        "dynamics.step_us": 1e6 * (evolve_total - readout) / steps if steps else 0.0,
        "dynamics.rhs_per_step": rhs_in_evolve / steps if steps else 0.0,
        "dynamics.readout_s": readout,
        "dynamics.timeavg_s": inclusive("dynamics.timeavg"),
        "spectroscopy.scan_s": inclusive("spectroscopy.scan"),
        "spectroscopy.points": sum(attr_values("spectroscopy.scan", "points")),
        "spectroscopy.failed_points": sum(attr_values("spectroscopy.scan", "failed")),
        "spectroscopy.point_ms_p50": _percentile(point_ms, 50),
        "spectroscopy.point_ms_p95": _percentile(point_ms, 95),
        "spectroscopy.point_samples": len(point_ms),
        "cli.validity_s": inclusive("cli.validity"),
        "cli.io_s": inclusive("cli.io"),
    }
