"""memlqg benchmark: run one workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload ensemble --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it records the software environment. See benchmarks/README.md.

This file imports no numerical library. It pins BLAS and OpenMP to one
thread for the processes it starts, then starts ``worker.py`` SETUP_SAMPLES
times in sequence. Each start is timed from launch to its ``ready`` line
(imports, fixtures and a warm-up pass): ``setup_s`` is the median. The last
start goes on to run the timed passes.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM = os.path.join(ROOT, "src", "memlqg")
OUT_DIR = os.path.join(ROOT, ".bench_run")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("ensemble", "paths", "sweep")
SETUP_SAMPLES = 5
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
RUN_BUDGET_S = 170  # a run must exit within 180 s, whatever its workers do


def fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def start_worker(args, setup_only: bool, deadline: float) -> tuple:
    """Run one worker; returns (setup seconds, its JSON lines) or raises."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT_DIR,
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    return lines[0]["ready"] - launched, lines


def end_to_end(setup_s: list, result: dict) -> dict:
    # A run has too few passes for any percentile above the median to have
    # ten passes beyond it, so the median is the only pass-time statistic
    # here. The slowest pass and the count are per-layer metrics.
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(result["walls"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict:
    walls = result["walls"]
    return dict(
        result["per_layer"],
        fail_frac=result["failed"] / result["attempted"],
        **{"wall_s.count": len(walls), "wall_s.max": max(walls)},
    )


def labelled(values: dict, kind: str) -> dict:
    """Attach units from BENCHMARK.json; every declared metric, and only those."""
    with open(SPEC, encoding="utf-8") as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)[kind]]
    names = {name for name, _ in declared}
    if set(values) != names:
        raise KeyError(f"{kind} metrics differ from {SPEC}: {sorted(set(values) ^ names)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="memlqg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PROGRAM, "__init__.py")):
        return fail(f"no program source at {PROGRAM}; run from a checkout of the repository")
    if args.seconds <= 0 or args.seed < 0:
        return fail("--seconds must be positive and --seed non-negative")

    os.makedirs(OUT_DIR, exist_ok=True)
    # Compile once so that every timed start reads the same cached bytecode.
    compileall.compile_dir(PROGRAM, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    deadline = time.monotonic() + RUN_BUDGET_S
    setup_s = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s.append(start_worker(args, True, deadline)[0])
        seconds, lines = start_worker(args, False, deadline)
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        return fail(str(exc))
    setup_s.append(seconds)
    env, result = lines[0]["env"], lines[-1]

    try:
        if args.trace:
            metrics = labelled(per_layer(result), "per_layer")
        else:
            metrics = labelled(end_to_end(setup_s, result), "end_to_end")
    except (OSError, KeyError) as exc:
        return fail(str(exc))
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "walls_s": result["walls"], "setup_samples_s": setup_s}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
