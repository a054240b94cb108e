"""The benchmark harness in benchmarks/ is not collected here, yet its worker
calls the library's per-point API by name and signature. Building each
workload and warming it up runs every call a timed pass makes."""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.mark.parametrize("name", ["ensemble", "paths", "sweep"])
def test_benchmark_workload_builds_and_warms_up(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # benchmarks/ stays as committed
    import worker

    workload = worker.make_workload(name, 1, str(tmp_path / name))
    try:
        workload.warm_up()
    finally:
        workload.close()
