"""One dressedrabi CLI invocation in a fresh interpreter, with a timing record.

Usage: python3 child.py RECORD MODE [CLI ARGS...]

MODE is ``plain`` (time the run), ``setup`` (stop at the first solve or step),
``trace`` (also record spans of every layer) or ``env`` (only report the
numerical environment the CLI would run in).  The record is written to RECORD
as JSON; times are ``time.perf_counter`` readings, which share one clock
across the processes of a machine, so the parent can subtract its own spawn
time from them.
"""

import time

T_START = time.perf_counter()

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports in this environment, when it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
    }


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def main() -> int:
    record_path, mode, *cli_args = sys.argv[1:]
    record = {"mode": mode, "t_start": T_START}
    t0 = time.perf_counter()
    import dressedrabi
    import dressedrabi.cli as cli

    record["import_s"] = time.perf_counter() - t0
    record["package"] = os.path.dirname(dressedrabi.__file__)
    if mode == "env":
        record["environment"] = _environment()
    else:
        recorder = tracing.Recorder() if mode == "trace" else None
        first = tracing.FirstWork(stop=mode == "setup")
        record["absent"] = tracing.install(recorder, first)
        try:
            record["rc"] = cli.main(cli_args)
        except tracing.SetupReached:
            record["rc"] = 0
        record["t_return"] = time.perf_counter()
        record["t_first"] = first.time
        if "--out" in cli_args:
            record["bytes_written"] = _tree_bytes(cli_args[cli_args.index("--out") + 1])
        if recorder is not None:
            record["trace"] = recorder.export()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["maxrss_mb"] = usage.ru_maxrss / 1024.0
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
