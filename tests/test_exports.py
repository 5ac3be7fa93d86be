import dataclasses
import functools
import importlib
import importlib.util
import inspect
import json
import pkgutil
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dressedrabi

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["hilbert", "rabi", "adiabatic", "schrieffer_wolff", "lindblad", "dynamics", "spectroscopy", "cli"]


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"dressedrabi.{module}" if module else "dressedrabi")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_lists_every_module():
    found = {info.name for info in pkgutil.iter_modules(dressedrabi.__path__)}
    assert found == set(MODULES)


def _caller_lines() -> list[str]:
    """Lines that may call a public name: the package without its __all__ lists and
    without __init__ (which only re-exports), the demos, the bench and the acceptance suite."""
    package = sorted((ROOT / "src" / "dressedrabi").glob("*.py"))
    files = [path for path in package if path.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    lines = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        if path in package:
            text = re.sub(r"^__all__ = \[.*?\]", "", text, flags=re.S | re.M)
        lines += text.splitlines()
    return lines


def test_every_exported_name_has_a_caller():
    # a public name used only by its own unit test is dead weight
    lines = _caller_lines()
    uncalled = []
    for module in ["", *MODULES]:
        mod = importlib.import_module(f"dressedrabi.{module}" if module else "dressedrabi")
        for name in mod.__all__:
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
            if not any(word.search(line) and not own.match(line) for line in lines):
                uncalled.append(name)
    assert not uncalled, f"public names with no caller: {sorted(set(uncalled))}"


def test_every_public_method_has_a_caller():
    # the same for the methods and properties of exported classes: a method must be
    # called (".name("), a property read (".name")
    lines = _caller_lines()
    uncalled = set()
    for module in ["", *MODULES]:
        mod = importlib.import_module(f"dressedrabi.{module}" if module else "dressedrabi")
        classes = [getattr(mod, name) for name in mod.__all__ if isinstance(getattr(mod, name), type)]
        for cls in classes:
            for attr, value in vars(cls).items():
                if attr.startswith("_"):
                    continue
                if isinstance(value, (property, functools.cached_property)):
                    use = re.compile(rf"\.{re.escape(attr)}\b")
                elif callable(value) or isinstance(value, (classmethod, staticmethod)):
                    use = re.compile(rf"\.{re.escape(attr)}\(")
                else:
                    continue
                if not any(use.search(line) for line in lines):
                    uncalled.add(f"{cls.__name__}.{attr}")
    assert not uncalled, f"public methods with no caller: {sorted(uncalled)}"


def test_every_dataclass_field_is_read():
    # a result field that no caller reads is dead weight too: each must appear as ".name"
    lines = _caller_lines()
    unread = set()
    for module in ["", *MODULES]:
        mod = importlib.import_module(f"dressedrabi.{module}" if module else "dressedrabi")
        for cls in (getattr(mod, name) for name in mod.__all__):
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
                continue
            for attr in (f.name for f in dataclasses.fields(cls)):
                use = re.compile(rf"\.{re.escape(attr)}\b")
                if not any(use.search(line) for line in lines):
                    unread.add(f"{cls.__name__}.{attr}")
    assert not unread, f"dataclass fields with no reader: {sorted(unread)}"


def test_every_config_key_is_read():
    # a config key that no command reads is dead weight too: each leaf of the schema
    # must appear quoted in cli.py outside the _SCHEMA = {...} block that declares it
    from dressedrabi import cli

    lines = (ROOT / "src" / "dressedrabi" / "cli.py").read_text(encoding="utf-8").splitlines()
    start = lines.index("_SCHEMA = {")
    end = lines.index("}", start)
    source = "\n".join(lines[:start] + lines[end + 1:])

    def leaves(schema, path):
        for key, entry in schema.items():
            if isinstance(entry, dict):
                yield from leaves(entry, f"{path}{key}.")
            else:
                yield f"{path}{key}", key

    unread = [name for name, key in leaves(cli._SCHEMA, "") if f'"{key}"' not in source]
    assert not unread, f"config keys with no reader: {unread}"


def test_only_the_liouvillian_builds_superoperators():
    # MasterEquation.liouvillian is the one code that turns an operator into a
    # d^2 x d^2 matrix; a hand-built kron or diags superoperator must not come back
    hand_built = re.compile(r"\bsparse\.(kron|diags)\b")
    found = [
        f"{path.name}:{number}"
        for path in sorted((ROOT / "src" / "dressedrabi").glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if hand_built.search(line)
    ]
    assert found == []


def test_only_the_sector_map_reads_a_sector():
    # DressedBasis.sector_block is the one code that turns "-" or "+" into a ladder block;
    # a hand-written sector comparison elsewhere may read an unknown string as either ladder
    from dressedrabi.adiabatic import DressedBasis

    source, first = inspect.getsourcelines(DressedBasis.sector_block)
    the_map = range(first, first + len(source))
    compared = re.compile(r"\bsector\s*[!=]=|[!=]=\s*sector\b")
    found = [
        f"{path.name}:{number}"
        for path in sorted((ROOT / "src" / "dressedrabi").glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if compared.search(line) and not (path.name == "adiabatic.py" and number in the_map)
    ]
    assert found == []


def test_bench_first_work_targets_resolve():
    # the bench ends set-up at the first call of one of these; a renamed target
    # would read as absent and silently move setup_s
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FIRST_WORK
    absent = [target for target in tracing.FIRST_WORK if tracing._resolve(target) is None]
    assert absent == []


def test_cli_import_leaves_heavy_scipy_unloaded():
    # every CLI run pays for what importing the package loads; these subpackages
    # cost ~0.2 s and ~17 MB together and only the state pairing needs one of them
    heavy = ["scipy.optimize", "scipy.special", "scipy.fft", "scipy.spatial", "scipy.sparse.csgraph"]
    probe = f"import sys, dressedrabi.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


_THREAD_PROBE = r"""
import ctypes, glob, json, os, sys, tempfile

import numpy, scipy, scipy.linalg

pools = []
for package, suffix in ((numpy, "64_"), (scipy, "")):
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir, package.__name__ + ".libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        pools.append((getattr(lib, "scipy_openblas_get_num_threads" + suffix),
                      getattr(lib, "scipy_openblas_set_num_threads" + suffix)))
if len(pools) != 2:
    print(json.dumps(None))
    sys.exit()
for _, set_threads in pools:
    set_threads(2)
counts = lambda: [get() for get, _ in pools]
record = {"before": counts()}
import dressedrabi.cli as cli
record["imported"] = counts()
record["runs"] = []
for error in (None, cli.ConfigError("probe"), cli.NumericsError("probe")):
    seen = []
    def command(cfg, error=error):
        seen.append(counts())
        if error is not None:
            raise error
        return {"files": {}, "meta": {}}
    cli._COMMANDS["validate"] = command
    with tempfile.TemporaryDirectory() as out:
        code = cli.main(["validate", "--out", out])
    record["runs"].append({"code": code, "during": seen[0], "after": counts()})
print(json.dumps(record))
"""


def test_cli_runs_blas_single_threaded_and_restores_the_counts(tmp_path):
    # the CLI's matrices are too small for a second BLAS thread; a process that
    # imports the package or calls main must get its own thread counts back
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    result = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True, check=True)
    assert list(tmp_path.iterdir()) == []  # the probe's output directories are gone
    record = json.loads(result.stdout.strip().splitlines()[-1])
    if record is None:
        pytest.skip("numpy or scipy does not bundle its own OpenBLAS")
    assert record["before"] == record["imported"] == [2, 2]
    assert [(run["code"], run["during"], run["after"]) for run in record["runs"]] == [
        (0, [1, 1], [2, 2]), (2, [1, 1], [2, 2]), (3, [1, 1], [2, 2])
    ]
