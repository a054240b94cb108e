"""One benchmark process: builds a workload, warms it up, then measures it.

``run.py`` starts this file several times per run. Each start prints one
``ready`` line (with the software environment) once imports, fixtures and a
warm-up pass are done; ``run.py`` times process start to that line as
``setup_s``. With ``--setup-only`` the process stops there. Otherwise it
runs timed passes of the workload for ``--seconds`` and prints one JSON
line of raw results.

Every workload enters the program only through public entry points
(``memlqg.cli.main``, ``memlqg.simulate.ensemble_moments``,
``memlqg.acceptance.run_check``), looked up at call time so that the traced
run sees the wrapped versions. The program sees only the generated inputs;
the workload seed never reaches it directly.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import memlqg  # noqa: E402
from memlqg import acceptance, cli, simulate  # noqa: E402
from memlqg import closedloop, control, estimation, model, numerics, openloop  # noqa: E402
from memlqg import (  # noqa: E402
    LqgConfig,
    SourceSpec,
    TrajectoryConfig,
    build_augmented,
    closed_loop_covariance,
    controlled_fidelity,
    fidelity,
    filter_view_noise,
    input_covariance,
    lambda_matrix,
    lqg_gains,
    measurement_model,
    noise_model,
    squeezed_vacuum,
    standard_encoding,
    stationary_filter,
    steady_state,
    vacuum,
)

import spans  # noqa: E402

if not os.path.abspath(memlqg.__file__).startswith(SRC + os.sep):
    raise ImportError(f"memlqg was loaded from {memlqg.__file__}, not from {SRC}")

LAYERS = {
    "model": model,
    "numerics": numerics,
    "openloop": openloop,
    "estimation": estimation,
    "control": control,
    "closedloop": closedloop,
    "simulate": simulate,
    "cli": cli,
    "acceptance": acceptance,
}

# Functions whose call count and median call time are per-layer metrics.
COUNTED = (
    "estimation.stationary_filter",
    "estimation.measurement_model",
    "numerics.solve_care",
    "numerics.solve_lyapunov_steady",
    "control.lqg_gains",
    "closedloop.build_augmented",
    "closedloop.closed_loop_covariance",
    "openloop.steady_state",
    "model.noise_model",
)

# Operating point shared with acceptance check 9 and the CLI defaults.
ALPHA_IN = -230.0
MU = -0.4
R_WEIGHT = 1e-9
ENSEMBLE_DT_RATE = 2e-3  # dt * (nu + gamma)
HORIZON_RATE = 30.0  # duration * (nu + gamma)
ENSEMBLE_TRAJ = 200
WARMUP_STEPS = 2 * simulate.CHUNK
WARMUP_INDEX = 2**31  # seed index no timed pass uses

# Gates, in standard errors of the pass's own samples. A run makes hundreds
# of such tests, so single-test false alarms must stay near 1e-6.
Z_BIAS = 5.0  # six bias z-scores per pass
Z_INNOVATION = 5.0  # white Gaussian innovations: exact standard error
Z_COVARIANCE = 3.0  # end-state standard error, itself >= the window's (see README)

SWEEP_CHECKS = tuple(index for index, _, _ in acceptance.ALL_CHECKS if index != 9)


def derived_seed(seed: int, index: int) -> int:
    """A program seed made from the workload seed; same inputs, same seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def stream_rng(seed: int, k: int) -> np.random.Generator:
    """The program's per-trajectory stream contract, rebuilt outside it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def noise_floor_ns(seed: int, n_traj: int, n_steps: int) -> float:
    """ns per step per trajectory to draw the program's noise blocks alone."""
    start = time.perf_counter_ns()
    rngs = [stream_rng(seed, k) for k in range(n_traj)]
    for rng in rngs:
        rng.standard_normal(6)
    block = np.empty((n_traj, simulate.CHUNK, 12))
    step = 0
    while step < n_steps:
        blen = min(simulate.CHUNK, n_steps - step)
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=block[k, :blen])
        step += blen
    return (time.perf_counter_ns() - start) / (n_traj * n_steps)


def _call_cli(argv: list) -> tuple:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    return code, captured.getvalue()


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _fro_se(var: np.ndarray, ref: np.ndarray) -> float:
    """Relative Frobenius standard error from per-element variances."""
    return float(np.sqrt(var.sum()) / np.linalg.norm(ref))


class Workload:
    """Fixtures are built in __init__; a pass is the list of calls from ops()."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def steps_per_pass(self) -> int:
        return 0

    def noise_floor(self) -> float:
        return 0.0

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


class EnsembleWorkload(Workload):
    """ensemble_moments at check 9's operating point over a batch of trajectories."""

    name = "ensemble"

    def __init__(self, seed: int, out_dir: str):
        super().__init__(out_dir)
        self.seed = seed
        self.params = acceptance.reference_params()
        self.enc = standard_encoding(ALPHA_IN)
        lam = lambda_matrix(vacuum(), squeezed_vacuum(MU), squeezed_vacuum(MU))
        self.noise = noise_model(lam, self.params.n_occ)
        self.mm = measurement_model("s1", self.enc, self.params, self.noise)
        self.sf = stationary_filter(self.mm, self.params, self.enc, self.noise)
        self.g = lqg_gains(LqgConfig(r=R_WEIGHT, mode="s1"), self.params, self.enc)
        am = build_augmented(self.params, self.enc, self.noise, self.mm, self.g, self.sf)
        self.vz, _ = closed_loop_covariance(am)
        self.source = SourceSpec(alpha_in=ALPHA_IN)
        rate = self.params.nu + self.params.gamma
        self.dt = ENSEMBLE_DT_RATE / rate
        self.duration = HORIZON_RATE / rate
        # Euler-Maruyama innovations carry C(x - pi) dt on top of the white
        # record noise, so their covariance rate is R + dt * M Vz M^T.
        m = self.mm.n_channels
        M = np.hstack([self.mm.C, -np.sqrt(2.0 * self.params.nu) * np.eye(m)])
        self.innovation_expected = self.mm.innovation_cov + self.dt * M @ self.vz @ M.T
        self.n_steps = self.config(0).n_steps
        self.window = max(1, int(round(0.2 * self.n_steps)))

    def config(self, index: int, duration: float | None = None) -> TrajectoryConfig:
        return TrajectoryConfig(
            dt=self.dt,
            duration=self.duration if duration is None else duration,
            seed=derived_seed(self.seed, index),
            control_enabled=True,
            mode="s1",
        )

    def inputs(self, index: int):
        return self.config(index)

    def _moments(self, cfg: TrajectoryConfig, n_traj: int):
        return simulate.ensemble_moments(
            cfg, self.params, self.enc, self.noise, self.mm, self.g, self.source,
            n_traj=n_traj, sf=self.sf,
        )

    def warm_up(self) -> None:
        self._moments(self.config(WARMUP_INDEX, duration=WARMUP_STEPS * self.dt), 2)

    def ops(self, index: int) -> list:
        cfg = self.config(index)
        return [lambda: self._moments(cfg, ENSEMBLE_TRAJ)]

    def steps_per_pass(self) -> int:
        return self.n_steps * ENSEMBLE_TRAJ

    def check(self, index: int, outputs: list) -> tuple:
        mom = outputs[0]
        dz = self.vz.shape[0]
        finite = all(
            np.all(np.isfinite(a))
            for a in (mom.z_cov, mom.innovation_cov_rate, mom.err_mean, mom.err_sem)
        )
        shape_ok = mom.n_traj == ENSEMBLE_TRAJ and mom.n_pooled == ENSEMBLE_TRAJ * self.window
        # End-state cross-section: n_traj independent draws of the stationary
        # law. Its fourth-moment standard error bounds the window estimate's.
        z_end = mom.final_states[:, :dz]
        centered = z_end - z_end.mean(axis=0)
        products = centered[:, :, None] * centered[:, None, :]
        cov_se = _fro_se(products.var(axis=0, ddof=1) / ENSEMBLE_TRAJ, self.vz)
        cov_err = _rel(mom.z_cov, self.vz)
        S = mom.innovation_cov_rate
        d = np.diag(S)
        inn_se = _fro_se((S * S + np.outer(d, d)) / (mom.n_pooled - 1), self.innovation_expected)
        inn_gate_err = _rel(S, self.innovation_expected)
        z_max = float(np.max(np.abs(mom.err_mean) / mom.err_sem))
        ok = (
            finite
            and shape_ok
            and cov_err <= Z_COVARIANCE * cov_se
            and inn_gate_err <= Z_INNOVATION * inn_se
            and z_max <= Z_BIAS
        )
        accuracy = {
            "simulate.ensemble_cov_rel_err": cov_err,
            "simulate.innovation_cov_rel_err": _rel(S, self.mm.innovation_cov),
            "simulate.bias_z_max": z_max,
        }
        return [ok], accuracy

    def noise_floor(self) -> float:
        return noise_floor_ns(derived_seed(self.seed, 0), ENSEMBLE_TRAJ, self.n_steps)


class PathsWorkload(Workload):
    """`memlqg trajectory --filter s2` through cli.main, control on and off."""

    name = "paths"
    CONTROLS = ("on", "off")

    def __init__(self, seed: int, out_dir: str):
        super().__init__(out_dir)
        self.cli_seed = derived_seed(seed, 0)
        self.stem = os.path.join(out_dir, "paths")
        settings = cli.RunSettings()
        self.dt = settings.resolved_dt()
        self.n_steps = TrajectoryConfig(
            dt=self.dt, duration=settings.resolved_duration(), seed=self.cli_seed
        ).n_steps
        x0 = stream_rng(self.cli_seed, 0).standard_normal(6) * np.sqrt(0.5)
        self.first_x = [format(float(v), ".12g").encode() for v in x0]
        self.digest = None

    def argv(self, stem: str) -> list:
        return ["trajectory", "--filter", "s2", "--seed", str(self.cli_seed), "--out", stem]

    def inputs(self, index: int):
        return self.argv(self.stem)

    def warm_up(self) -> None:
        stem = os.path.join(self.out_dir, "warmup")
        code, _ = _call_cli(self.argv(stem) + ["--duration", repr(WARMUP_STEPS * self.dt)])
        if code != 0:
            raise RuntimeError(f"warm-up trajectory exited with {code}")

    def ops(self, index: int) -> list:
        argv = self.argv(self.stem)
        return [lambda: _call_cli(argv)]

    def steps_per_pass(self) -> int:
        return self.n_steps * len(self.CONTROLS)

    def files(self) -> list:
        return [f"{self.stem}.{control}.000.csv" for control in self.CONTROLS]

    def _file_ok(self, data: bytes) -> bool:
        lines = data.split(b"\n")
        if lines[-1] != b"":
            return False
        lines = lines[:-1]
        body = 0
        while body < len(lines) and lines[body].startswith(b"#"):
            body += 1
        rows = lines[body + 1:]  # after the column header
        return len(rows) == self.n_steps + 1 and rows[0].split(b",")[1:7] == self.first_x

    def check(self, index: int, outputs: list) -> tuple:
        code, listing = outputs[0]
        ok = code == 0 and listing.splitlines() == self.files()
        digest = hashlib.sha256()
        csv_bytes = 0
        for path in self.files():
            if not ok:
                break
            with open(path, "rb") as fh:
                data = fh.read()
            ok = self._file_ok(data)
            digest.update(data)
            csv_bytes += len(data)
        if ok:
            if self.digest is None:
                self.digest = digest.hexdigest()
            ok = digest.hexdigest() == self.digest  # a rerun writes the same bytes
        return [ok], {"csv_bytes": csv_bytes}

    def noise_floor(self) -> float:
        return noise_floor_ns(self.cli_seed, 1, self.n_steps)


def _fidelity_point(params, enc, mu: float, mu1: float, r: float, mode: str):
    """Controlled and uncontrolled fidelity at one grid point, via the public API."""
    lam = lambda_matrix(squeezed_vacuum(mu1), squeezed_vacuum(mu), squeezed_vacuum(mu))
    noise = noise_model(lam, params.n_occ)
    source = SourceSpec(alpha_in=ALPHA_IN, mode=squeezed_vacuum(mu1), covariance_known=(mode == "s1"))
    noise_f = filter_view_noise(noise, source, params)
    mm = measurement_model(mode, enc, params, noise_f)
    sf = stationary_filter(mm, params, enc, noise_f)
    g = lqg_gains(LqgConfig(r=r, mode=mode), params, enc)
    _, vprime = closed_loop_covariance(build_augmented(params, enc, noise, mm, g, sf))
    v_in = input_covariance(lam)
    return controlled_fidelity(vprime, v_in), fidelity(steady_state(params, enc, noise).cov, v_in)


def _row(*values) -> bytes:
    return ",".join(format(float(v), ".12g") for v in values).encode()


class SweepWorkload(Workload):
    """Both CLI sweeps on their default grids plus every acceptance check but 9."""

    name = "sweep"
    SAMPLED_ROWS = (0, 22, 44)  # grid rows recomputed through the public API

    def __init__(self, seed: int, out_dir: str):
        del seed  # the sweep's inputs are fixed grids
        super().__init__(out_dir)
        self.fidelity_csv = os.path.join(out_dir, "sweep-fidelity.csv")
        self.squeezed_csv = os.path.join(out_dir, "sweep-squeezed.csv")
        self.digests: dict = {}
        params = cli.RunSettings().params
        enc = standard_encoding(ALPHA_IN)
        mus = np.linspace(-3.0, 0.5, 36)
        lgs = np.linspace(10.0, 40.0, 4)
        self.fidelity_rows = {}
        for row in self.SAMPLED_ROWS:
            mu, lg = mus[row // 4], lgs[row % 4]
            f_ctl, f_unc = _fidelity_point(params, enc, float(mu), 0.0, 2.0 ** (-float(lg)), "s1")
            self.fidelity_rows[row] = _row(mu, lg, f_ctl, f_unc)
        mus = np.linspace(-2.0, 0.0, 5)
        mu1s = np.linspace(-1.0, 1.0, 9)
        self.squeezed_rows = {}
        for row in self.SAMPLED_ROWS:
            mu, mu1 = float(mus[row // 9]), float(mu1s[row % 9])
            f1, _ = _fidelity_point(params, enc, mu, mu1, 2.0**-40, "s1")
            f2, _ = _fidelity_point(params, enc, mu, mu1, 2.0**-40, "s2")
            self.squeezed_rows[row] = _row(mu, mu1, f1, f2)

    def commands(self) -> list:
        """Both sweeps on their default grids."""
        return [
            ["sweep-fidelity", "--out", self.fidelity_csv],
            ["sweep-squeezed", "--out", self.squeezed_csv],
        ]

    def inputs(self, index: int):
        return self.commands(), SWEEP_CHECKS

    def warm_up(self) -> None:
        one_point = (["--mu=-0.4", "--log2r", "30"], ["--mu=-0.4", "--mu1=0"])
        for argv, grid in zip(self.commands(), one_point):
            code, _ = _call_cli(argv + grid)
            if code != 0:
                raise RuntimeError(f"warm-up {argv[0]} exited with {code}")
        for index in SWEEP_CHECKS:
            acceptance.run_check(index)

    def ops(self, index: int) -> list:
        sweeps = [lambda argv=argv: _call_cli(argv) for argv in self.commands()]
        checks = [lambda i=i: acceptance.run_check(i) for i in SWEEP_CHECKS]
        return sweeps + checks

    def _csv_ok(self, path: str, code: int, n_rows: int, sampled: dict) -> bool:
        if code != 0:
            return False
        with open(path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).digest()
        if self.digests.setdefault(path, digest) != digest:  # a rerun writes the same bytes
            return False
        rows = [line for line in data.split(b"\n")[:-1] if not line.startswith(b"#")][1:]
        return len(rows) == n_rows and all(rows[i] == line for i, line in sampled.items())

    def check(self, index: int, outputs: list) -> tuple:
        (f_code, _), (s_code, _) = outputs[:2]
        results = [
            self._csv_ok(self.fidelity_csv, f_code, 36 * 4, self.fidelity_rows),
            self._csv_ok(self.squeezed_csv, s_code, 5 * 9, self.squeezed_rows),
        ]
        results += [res.passed for res in outputs[2:]]
        runtimes = {f"acceptance.check{res.index:02d}.s": res.runtime_s for res in outputs[2:]}
        return results, runtimes


WORKLOADS = {cls.name: cls for cls in (EnsembleWorkload, PathsWorkload, SweepWorkload)}


def make_workload(name: str, seed: int, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    return WORKLOADS[name](seed, out_dir)


def run_pass(workload, index: int, tracer=None) -> tuple:
    """Time one pass of the workload's operations; returns (seconds, outputs)."""
    outputs = []
    start = time.perf_counter()
    for op, call in enumerate(workload.ops(index)):
        if tracer is not None:
            tracer.op = index * 1000 + op
        try:
            outputs.append(call())
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            traceback.print_exc()
            outputs.append(exc)
    return time.perf_counter() - start, outputs


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = sorted(k for k in os.environ if k.endswith(("_NUM_THREADS", "_MAX_THREADS")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ[k] for k in thread_vars},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure(workload, seconds: float, trace: bool, spans_path: str | None = None) -> dict:
    """Run passes for `seconds`; with `trace`, alternate untraced and traced passes."""
    tracer = spans.Tracer(LAYERS, binding_modules=(memlqg,)) if trace else None
    walls, traced_walls, extra = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() < deadline:
        if trace and index % 2 == 1:
            with tracer.active():
                wall, outputs = run_pass(workload, index, tracer)
            traced_walls.append(wall)
        else:
            wall, outputs = run_pass(workload, index)
            walls.append(wall)
        if any(isinstance(output, Exception) for output in outputs):
            results, info = [False] * len(outputs), {}
        else:
            results, info = workload.check(index, outputs)
        attempted += len(results)
        failed += sum(not ok for ok in results)
        extra.append(info)
        index += 1
    out = {
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        out["per_layer"] = layer_metrics(workload, tracer.spans, walls, traced_walls, extra)
        if spans_path:
            tracer.dump(spans_path)
    return out


def layer_metrics(workload, traced, walls, traced_walls, extra) -> dict:
    """Per-layer metrics from the spans of the traced passes and the pass checks."""
    n_traced = len(traced_walls)
    stats = spans.summarize(traced)
    layer_self = spans.layer_self_ns(traced)
    metrics = {}

    def total_ns(name):
        return sum(stats[name]["durations"]) if name in stats else 0

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    ens_calls = calls("simulate.ensemble_moments")
    metrics["simulate.ensemble_moments.ns_per_step_traj"] = (
        total_ns("simulate.ensemble_moments") / (ens_calls * workload.steps_per_pass())
        if ens_calls else 0.0
    )
    metrics["simulate.noise_floor.ns_per_step_traj"] = workload.noise_floor()
    traj_calls = calls("simulate.simulate_trajectory")
    metrics["simulate.simulate_trajectory.ns_per_step"] = (
        total_ns("simulate.simulate_trajectory") / (traj_calls * workload.n_steps)
        if traj_calls else 0.0
    )
    steps = workload.steps_per_pass()
    metrics["simulate.steps_per_s"] = steps * len(walls) / sum(walls) if steps else 0.0
    for key in ("simulate.ensemble_cov_rel_err", "simulate.innovation_cov_rel_err",
                "simulate.bias_z_max"):
        metrics[key] = _median([e[key] for e in extra if key in e])
    cli_self_s = layer_self.get("cli", 0) / 1e9
    csv_bytes = sum(e.get("csv_bytes", 0) for e in extra)
    metrics["cli.csv_mb_per_s"] = (
        csv_bytes / len(extra) / 1e6 / (cli_self_s / n_traced) if csv_bytes and cli_self_s else 0.0
    )
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self.get(layer, 0) / 1e9 / n_traced
    for name in COUNTED:
        metrics[f"{name}.calls"] = calls(name) / n_traced
        durations = stats[name]["durations"] if name in stats else []
        metrics[f"{name}.p50_us"] = _median(durations) / 1e3
    untraced = extra[::2]  # passes alternate, starting untraced
    for index in SWEEP_CHECKS:
        key = f"acceptance.check{index:02d}.s"
        metrics[key] = _median([e[key] for e in untraced if key in e])
    metrics["trace.overhead_frac"] = _median(traced_walls) / _median(walls) - 1.0
    top_level_ns = sum(s[4] - s[3] for s in traced if s[1] == spans.NO_PARENT)
    metrics["trace.covered_frac"] = top_level_ns / 1e9 / sum(traced_walls)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, os.path.join(args.out_dir, f"w{os.getpid()}"))
    try:
        workload.warm_up()
        print(json.dumps({"ready": time.monotonic(), "env": environment()}), flush=True)
        if args.setup_only:
            return 0
        spans_path = os.path.join(args.out_dir, f"spans-{args.workload}.csv.gz")
        result = measure(workload, args.seconds, bool(args.trace), spans_path)
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
