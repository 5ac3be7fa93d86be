"""The seed-0 benchmark invocations, run in process through ``cli.main``.

Each output is held to the benchmark's own checks (``bench/workloads.py``
``check``): the physics checks of its workload and the comparison with the
tables recorded in ``bench/reference``.  So a table that drifts beyond the
recorded tolerances fails here, even where it stays inside the acceptance
bounds.  The bench files are only read.
"""

import contextlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dressedrabi import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _run(command: str, config: dict, out: Path) -> Path:
    path = out.with_suffix(".json")
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    return out


def _ignored_keys(workload: str):
    """probe_timeavg still passes spectroscopy keys the program ignores, and the program says so."""
    if workload == "probe_timeavg":
        return pytest.warns(UserWarning, match="are ignored")
    return contextlib.nullcontext()


@pytest.mark.parametrize("workload", ["scan", "ladder", "relax", "probe_timeavg"])
def test_seed0_invocations_pass_every_bench_check(workload, tmp_path):
    spec = workloads.make(workload, 0)
    corotating = None
    if workload == "probe_timeavg":
        with _ignored_keys(workload):
            corotating = _run(spec.command, workloads.corotating_config(spec), tmp_path / "corotating")
    checks = []
    for k, config in enumerate(spec.invocations):
        with _ignored_keys(workload):
            out = _run(spec.command, config, tmp_path / f"inv{k}")
        checks += workloads.check(workload, spec, out, BENCH / "reference" / workload, corotating)
    assert sum(name.startswith("reference ") for name, _, _ in checks) == len(spec.invocations) * sum(
        len(columns) for columns in workloads.REFERENCE[workload].values()
    )
    assert [(name, detail) for name, ok, detail in checks if not ok] == []
