"""Every demo runs to its end in process, at the suite's one BLAS thread.

``test_exports`` counts the demos' calls as callers of the public API, so a
demo that no longer runs must fail here rather than keep dead API alive.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(path, capsys, monkeypatch):
    # a demo sets OPENBLAS_NUM_THREADS only when it is unset; set here, it is restored after the run
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip(), f"{path.name} printed nothing"
