"""Record the seed-0 reference outputs that run.py compares against.

Usage, from the root of a checkout: python3 bench/record_reference.py [WORKLOAD ...]

Copies each compared table of one plain invocation into
bench/reference/<workload>/.  Re-record only when a change is meant to alter
the physics output, and say so in the change that does it.
"""

import json
import shutil
import sys

import run
import workloads


def record(workload: str) -> None:
    run_dir = run.ROOT / ".bench_runs" / f"{workload}-reference"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = workloads.make(workload, 0)
    config = run_dir / "config.json"
    config.write_text(json.dumps(spec.config), encoding="utf-8")
    out = run_dir / "out"
    if run.Runner(run_dir).spawn("plain", [spec.command, "--config", str(config),
                                           "--out", str(out)]) is None:
        raise SystemExit(f"{workload}: the CLI failed; see {run_dir / 'children.log'}")
    target = run.BENCH / "reference" / workload
    target.mkdir(parents=True, exist_ok=True)
    for name in workloads.REFERENCE[workload]:
        shutil.copyfile(out / name, target / name)
    shutil.rmtree(run_dir)
    print(f"{workload}: recorded {', '.join(workloads.REFERENCE[workload])}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(workloads.REFERENCE):
        record(name)
