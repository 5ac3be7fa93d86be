"""Branch arcs of ``src/dressedrabi`` that only the unit tests take.

Usage: python tools/trace_paths.py

Two processes run side by side, each under a ``sys.settrace`` tracer that
records every arc (file, from-line, to-line) executed in ``src/dressedrabi``;
a function's entry and exit arcs use minus its first line number, as
coverage.py does.

- The traffic: the default ``spectrum``, ``fidelity``, ``drive``,
  ``spectroscopy`` and ``validate`` commands, every seed-0 benchmark
  invocation (``bench/workloads.py``, the co-rotating run of
  ``probe_timeavg`` included), a short default ``relax``, the demos and
  ``tests/test_acceptance.py``.  The short ``relax`` and the benchmark's
  stand in for the default one, which takes about 11 s: the benchmark's
  horizon is a whole number of sample intervals, and the short one's, like
  the default's, is not.
- The unit tests: every other module under ``tests/``.

Both run in process (``cli.main``, ``runpy``, ``pytest.main``); code a test
starts in a subprocess is not traced.  The script prints, as JSON, the arc
counts of both sides and the arcs only the unit tests take, sorted.  An arc
there is a path that no command, demo or acceptance check reaches: a
deletion candidate unless it is a guard, a warning or a fallback kept on
purpose.

It also prints ``unset_keys``: the leaves of ``cli._SCHEMA`` that none of the
traffic's config files sets (the seed-0 benchmark configs; the default
commands set none).  The keys left there are the experiments' own parameters
(a grid, a step, a count, the probe strength), kept on purpose: their
defaults are the paper's experiments.  Any other key there is a second way to
give an input, and a deletion candidate.

Everything is written to a temporary directory.  It takes about 25 s on a
2-core x86 machine and needs only the standard library besides the
package's own dependencies and pytest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = str(REPO / "src" / "dressedrabi")
ACCEPTANCE = REPO / "tests" / "test_acceptance.py"


def _tracer(arcs: set):
    """A global trace function that records the arcs of every frame in the package."""

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        entry = last = -code.co_firstlineno

        def on_event(frame, event, arg):
            nonlocal last
            if event == "line":
                arcs.add((code.co_filename, last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "return":
                arcs.add((code.co_filename, last, entry))
            return on_event

        return on_event

    return on_call


def _pytest(paths: list[Path]) -> None:
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", *map(str, paths)])
    if code != 0:
        raise SystemExit(f"pytest exited {code} on {[p.name for p in paths]}")


def _bench_configs() -> list[tuple[str, str, dict]]:
    """(name, command, config) of every seed-0 benchmark invocation, the co-rotating probe run included."""
    sys.path.insert(0, str(REPO / "bench"))
    import workloads

    out = []
    for name in ("scan", "ladder", "relax", "probe_timeavg"):
        spec = workloads.make(name, 0)
        configs = list(spec.invocations)
        if name == "probe_timeavg":
            configs.append(workloads.corotating_config(spec))
        out.extend((f"seed0_{name}_{i}", spec.command, config) for i, config in enumerate(configs))
    return out


def _unset_keys() -> list[str]:
    """The ``cli._SCHEMA`` leaves that no benchmark config sets, as dotted paths."""
    sys.path.insert(0, str(REPO / "src"))
    from dressedrabi import cli

    def leaves(schema: dict, given: list[dict], path: str):
        for key, entry in schema.items():
            name = f"{path}{key}"
            if isinstance(entry, dict):
                yield from leaves(entry, [g[key] for g in given if key in g], f"{name}.")
            elif not any(key in g for g in given):
                yield name

    return sorted(leaves(cli._SCHEMA, [config for _, _, config in _bench_configs()], ""))


# the default relax to 24.3 sample intervals: its shortened last interval is the default run's branch
_SHORT_RELAX = ("short_relax", "relax", {"relax": {"t_end_over_rate": 0.0105}})


def _traffic(work: Path) -> None:
    from dressedrabi import cli

    runs = [([command], f"default_{command}")
            for command in ("spectrum", "fidelity", "drive", "spectroscopy", "validate")]
    for name, command, config in [*_bench_configs(), _SHORT_RELAX]:
        path = work / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        runs.append(([command, "--config", str(path)], name))
    for args, out in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*args, "--out", str(work / out)])
        if code != 0:
            raise SystemExit(f"{' '.join(args)} exited {code}")
    for demo in sorted((REPO / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    _pytest([ACCEPTANCE])


def _units() -> None:
    _pytest([path for path in sorted((REPO / "tests").glob("test_*.py")) if path != ACCEPTANCE])


def _child(side: str, record: Path) -> None:
    """Run one side under the tracer and write its arcs to ``record``."""
    arcs: set = set()
    sys.settrace(_tracer(arcs))
    try:
        _traffic(record.parent) if side == "traffic" else _units()
    finally:
        sys.settrace(None)
    record.write_text(json.dumps(sorted(arcs)), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="trace_paths_") as tmp:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
        children = {}
        for side in ("traffic", "units"):
            work = Path(tmp) / side
            work.mkdir()
            children[side] = subprocess.Popen(
                [sys.executable, __file__, "--child", side, str(work / "arcs.json")],
                cwd=work, env=env, stdout=subprocess.DEVNULL,
            )
        failed = [side for side, child in children.items() if child.wait() != 0]
        if failed:
            print(f"tracing failed on: {', '.join(failed)}", file=sys.stderr)
            return 1
        arcs = {side: {tuple(arc) for arc in json.loads((Path(tmp) / side / "arcs.json").read_text())}
                for side in children}
    only = sorted((os.path.relpath(f, REPO), a, b) for f, a, b in arcs["units"] - arcs["traffic"])
    # one arc a line
    lines = ",\n  ".join(json.dumps(arc) for arc in only)
    print(f'{{"traffic_arcs": {len(arcs["traffic"])}, "unit_arcs": {len(arcs["units"])},\n'
          f' "unset_keys": {json.dumps(_unset_keys())},\n'
          f' "unit_only": [\n  {lines}\n]}}')
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2], Path(sys.argv[3]))
    else:
        sys.exit(main())
