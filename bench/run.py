"""Benchmark of the dressedrabi CLI: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Workloads: scan, ladder, relax, probe_timeavg (see ``BENCHMARK.json``).  Each
CLI invocation runs ``dressedrabi.cli.main`` in a fresh interpreter
(``child.py``) with the checkout's ``src`` first on the path, so nothing is
installed.  A run first times two set-up-only processes (stopped at the
first solve or step), then repeats full invocations until ``--seconds`` is
used up (at least one), and checks every output.  Scan invocations take the
pumps of its family in turn (``workloads.SCAN_PUMPS``), one per process, so
that a run holds several of them.

End-to-end metrics (``--trace 0``; medians over the run's samples):

- ``wall_s``: process start to CLI return, import included (for scan, one
  pump of the family);
- ``setup_s``: process start to the first solve or step (import, config,
  ``build_basis``, the first generator), from every process of the run;
- ``points_per_s``: rows of the workload's result table (probe points for
  scan and probe_timeavg, pump points for ladder, trajectory samples for
  relax) per second of non-set-up time;
- ``peak_rss_mb``: peak resident memory of the invocation's process.

``fail_frac`` (failed / attempted operations: result points, set-up
processes and output checks) and, for relax, ``sim_time_per_s`` are printed
with the others; ``fail_frac`` is carried by ``attempted`` and ``failed`` in
the result line.  ``--trace 1`` alternates traced and untraced invocations and
reports the per-layer metrics of ``tracing.summarize`` plus process figures and
the tracing overhead (traced minus untraced ``wall_s``).  A layer the workload
never reaches reads 0; a wrapped function missing from the program is listed
under ``absent`` in the provenance line.

The last line of standard output is the JSON result.  The exit code is 0 only
when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROCESSES = 2
RUN_LIMIT_S = 170.0  # every child is killed before a run exceeds this

# metric names and units, and the workload list, are those of BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def provenance(environment: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text(encoding="utf-8").strip()
    sources = [path.read_bytes() for path in sorted((ROOT / "src" / "dressedrabi").glob("*.py"))]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        **environment,
        "commit": commit,
        # a checkout without .git still identifies its code by this digest
        "src_sha256": hashlib.sha256(b"".join(sources)).hexdigest(),
        "src_lines": sum(text.count(b"\n") for text in sources),
    }


class Runner:
    """Spawns child processes for one run and keeps them inside its time limit."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.started = time.perf_counter()
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def spawn(self, mode: str, cli_args: list[str]) -> dict | None:
        self.count += 1
        record = self.run_dir / f"record{self.count}.json"
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(self.run_dir / "children.log", "ab") as log:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(record), mode, *cli_args],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return None
        if proc.returncode != 0 or not record.is_file():
            return None
        rec = json.loads(record.read_text(encoding="utf-8"))
        record.unlink()
        if Path(rec["package"]).resolve() != (ROOT / "src" / "dressedrabi").resolve():
            raise RuntimeError(f"imported dressedrabi from {rec['package']}, not this checkout")
        rec["t_spawn"] = t_spawn
        return rec


def setup_time(rec: dict) -> float:
    """Process start to the first solve or step; import end if none was reached."""
    first = rec.get("t_first")
    if first is None:
        first = rec["t_start"] + rec["import_s"]
    return first - rec["t_spawn"]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run_dir = ROOT / ".bench_runs" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = workloads.make(workload, seed)
    config_paths = []
    for k, config in enumerate(spec.invocations):
        config_paths.append(run_dir / f"config{k}.json")
        config_paths[-1].write_text(json.dumps(config, indent=1), encoding="utf-8")
    reference = BENCH / "reference" / workload if seed == 0 else None

    runner = Runner(run_dir)
    # untimed: reports the environment and fills the bytecode and page caches
    env_rec = runner.spawn("env", [])
    if env_rec is None:
        raise RuntimeError(f"the CLI cannot be imported; see {run_dir / 'children.log'}")
    info = provenance(env_rec["environment"])

    def cli_args(out: Path, config: Path = config_paths[0]) -> list[str]:
        return [spec.command, "--config", str(config), "--out", str(out)]

    attempted = failed = 0
    checks: list[workloads.Check] = []
    corotating = None
    if workload == "probe_timeavg":
        # untimed: the co-rotating solution the time-averaged one is checked against
        corotating = run_dir / "corotating"
        co_config = run_dir / "corotating.json"
        co_config.write_text(json.dumps(workloads.corotating_config(spec)), encoding="utf-8")
        if runner.spawn("plain", cli_args(corotating, co_config)) is None:
            corotating = None
    deadline = time.perf_counter() + seconds
    setups: list[float] = []
    for k in range(SETUP_PROCESSES):
        out = run_dir / f"setup{k}"
        rec = runner.spawn("setup", cli_args(out))
        attempted += 1
        if rec is None or rec.get("t_first") is None:
            failed += 1
        else:
            setups.append(setup_time(rec))
        shutil.rmtree(out, ignore_errors=True)

    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    while True:
        mode = "trace" if trace and len(traced) <= len(plain) else "plain"
        done_enough = plain and (traced or not trace)
        if done_enough and time.perf_counter() + median(durations) > deadline:
            break
        out = run_dir / f"inv{len(durations)}"
        t0 = time.perf_counter()
        rec = runner.spawn(mode, cli_args(out, config_paths[len(durations) % len(config_paths)]))
        durations.append(time.perf_counter() - t0)
        if rec is None or rec["rc"] != 0:
            checks.append((f"{out.name} exits with 0", False, "non-zero exit or no record"))
            if rec is None or time.perf_counter() > deadline:
                break
            continue
        try:
            rec["rows"] = workloads.count_rows(out / spec.primary)
            sidecar = json.loads((out / f"{spec.command}.meta.json").read_text(encoding="utf-8"))
            if workload == "relax":
                rec["sim_time"] = 2.0 * workloads.read_table(out / "relax.csv")["time"][-1]
            checks += workloads.check(workload, spec, out, reference, corotating)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks.append((f"{out.name} outputs readable", False, repr(exc)))
            if time.perf_counter() > deadline:
                break
            continue
        attempted += rec["rows"]
        failed += len(sidecar.get("failures", []))
        (traced if mode == "trace" else plain).append(rec)
        shutil.rmtree(out, ignore_errors=True)

    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)

    setups += [setup_time(r) for r in plain + traced]
    metrics: dict[str, float] = {}
    if plain:
        walls = [r["t_return"] - r["t_spawn"] for r in plain]
        work = [r["t_return"] - r["t_spawn"] - setup_time(r) for r in plain]
        metrics = {
            "wall_s": median(walls),
            "setup_s": median(setups),
            "points_per_s": median([r["rows"] / w for r, w in zip(plain, work)]),
            "peak_rss_mb": median([r["maxrss_mb"] for r in plain]),
        }
        if workload == "relax":
            metrics["sim_time_per_s"] = median([r["sim_time"] / w for r, w in zip(plain, work)])
        metrics["fail_frac"] = failed / max(attempted, 1)
    layers: dict[str, float] = {}
    if trace and traced and plain:
        summaries = [tracing.summarize(r["trace"]) for r in traced]
        layers = {key: median([s[key] for s in summaries]) for key in summaries[0]}
        layers["cli.bytes_written"] = median([r["bytes_written"] for r in plain])
        layers["proc.import_s"] = median([r["import_s"] for r in plain])
        layers["proc.cpu_s"] = median([r["cpu_s"] for r in plain])
        layers["proc.cpu_per_wall"] = median([r["cpu_s"] / (r["t_return"] - r["t_spawn"])
                                              for r in plain])
        layers["trace.overhead_s"] = (median([r["t_return"] - r["t_spawn"] for r in traced])
                                      - metrics["wall_s"])
    info["absent"] = sorted({a for r in plain + traced for a in r.get("absent", [])})
    info["invocations"] = {"setup": SETUP_PROCESSES, "plain": len(plain), "traced": len(traced)}
    result = {"attempted": attempted, "failed": failed, "checks": checks,
              "metrics": metrics, "layers": layers, "provenance": info}
    (run_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dressedrabi" / "cli.py").is_file():
        print(f"no dressedrabi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    metrics, layers, checks = result["metrics"], result["layers"], result["checks"]
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    for name, ok, detail in checks:
        if not ok:
            print(f"check FAIL {name}: {detail}")
    print(f"checks passed: {sum(ok for _, ok, _ in checks)} of {len(checks)}")
    units = {**E2E_UNITS, "sim_time_per_s": "t/s", "fail_frac": "ratio", **LAYER_UNITS}
    for name, value in {**metrics, **layers}.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    shown = layers if args.trace else metrics
    wanted = LAYER_UNITS if args.trace else E2E_UNITS
    if any(name not in shown for name in wanted):
        print("no complete measurement: every invocation failed", file=sys.stderr)
        return 1
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": shown[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
