"""The benchmark harness in benchmarks/ is not collected here, yet its worker
calls the library's per-point API by name and signature, and checks each
timed pass's outputs against the library's own moment equations and CSV
rows. Building each workload, warming it up and checking one pass runs
every call a timed pass makes and every check a benchmark run applies."""

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
        _, outputs = worker.run_pass(workload, 0)
        assert not [out for out in outputs if isinstance(out, Exception)]
        results, _ = workload.check(0, outputs)
        assert results and all(results), results
    finally:
        workload.close()
