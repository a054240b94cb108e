"""Seeded Monte Carlo of the plant-filter-controller loop.

The linear quadratic dynamics admit a classical Gaussian surrogate whose
first and symmetrized second moments coincide with the quantum model's, so
trajectories are ordinary Euler-Maruyama paths of

    dx  = (A x + u - sqrt(nu) beta) dt + B dw,
    dy  = C x dt + D dw                      (same dw: shared vacuum noise),
    dpi_s = (-c pi_s + Btil u) dt + Ktil (dy - sqrt(2 nu) pi_s dt),

with dw a 12-dimensional Gaussian increment of covariance SigmaW dt. The
full-state estimate pi_x is advanced alongside with the stationary gain K
for evaluation purposes; the controller itself reads only pi_s, so blind
runs stay blind (see filter_view_noise).

Reproducibility: trajectory k draws from the stream
SeedSequence(entropy=seed, spawn_key=(k,)) — first the initial plant state
(6 normals), then noise in fixed blocks — so the batched ensemble engine
and single-trajectory runs consume identical noise values, and a given
(config, k) is deterministic regardless of ensemble size or scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import Gains, control_input
from .estimation import (
    MeasurementModel,
    StationaryFilter,
    filter_view_noise,
    stationary_filter,
)
from .model import Encoding, MemoryParams, NoiseModel, SourceSpec
from .openloop import SystemMatrices, system_matrices

CHUNK = 256  # noise block length; fixed so stream consumption never depends on batching


class SimulationUnstableError(RuntimeError):
    """Plant state grew beyond any physical scale."""

    def __init__(self, step: int, value: float):
        super().__init__(
            f"trajectory diverged by step {step} (max |x| = {value:.3e}); "
            "check loop stability and dt"
        )
        self.step = step


@dataclass(frozen=True)
class TrajectoryConfig:
    dt: float
    duration: float
    seed: int
    control_enabled: bool = True
    mode: str = "s1"
    record_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must cover at least one step")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.duration / self.dt)))


@dataclass(frozen=True)
class Trajectory:
    """Recorded sample paths; states are strided, innovations likewise."""

    cfg: TrajectoryConfig
    times: np.ndarray  # (n_rec,)
    x: np.ndarray  # (n_rec, 6)
    pi_s: np.ndarray  # (n_rec, m)
    pi_x: np.ndarray  # (n_rec, 6)
    u: np.ndarray  # (n_rec, 6), input applied over the following step
    innovations: np.ndarray  # (n_rec - 1, m)
    err_band: np.ndarray  # (n_rec, m), sqrt diag Btil Vc Btil^T
    expected_innovation_cov: np.ndarray  # m x m, the filter's R

    def __post_init__(self):
        n = len(self.times)
        for name in ("x", "pi_s", "pi_x", "u", "err_band"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"series {name!r} length mismatch")
        if len(self.innovations) != n - 1:
            raise ValueError("innovations must have one entry per recorded step")


def noise_factor(SigmaW: np.ndarray) -> np.ndarray:
    """Symmetric factor L with L L^T = SigmaW, by spectral decomposition.

    Eigenvalues in [-1e-12, 0) are clipped to zero (roundoff repair); more
    negative ones mean the matrix is not a covariance and raise.
    """
    w, U = np.linalg.eigh(np.asarray(SigmaW, dtype=float))
    if w.min() < -1e-12:
        raise ValueError(f"noise covariance not PSD (min eigenvalue {w.min():.3e})")
    return U * np.sqrt(np.clip(w, 0.0, None))


def _trajectory_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


@dataclass(frozen=True)
class _LoopMats:
    """Precomputed constants for the stepping kernel."""

    A: np.ndarray
    drive: np.ndarray
    Bn: np.ndarray  # B @ L, noise-to-plant map, 6 x 12
    Dn: np.ndarray  # D @ L, noise-to-record map, m x 12
    C: np.ndarray
    Btil: np.ndarray
    K: np.ndarray
    Ktil: np.ndarray
    Fgain: np.ndarray
    damping: float
    root2nu: float


def _loop_mats(
    params: MemoryParams,
    sys: SystemMatrices,
    noise: NoiseModel,
    mm: MeasurementModel,
    sf: StationaryFilter,
    g: Gains,
) -> _LoopMats:
    L = noise_factor(noise.SigmaW)
    return _LoopMats(
        A=sys.A,
        drive=sys.drive,
        Bn=sys.B @ L,
        Dn=mm.D @ L,
        C=mm.C,
        Btil=mm.Btil,
        K=sf.K,
        Ktil=sf.Ktil,
        Fgain=g.Fgain,
        damping=params.damping,
        root2nu=np.sqrt(2.0 * params.nu),
    )


def _check_dt(cfg: TrajectoryConfig, params: MemoryParams) -> None:
    if cfg.dt * (params.nu + params.gamma) >= 0.1:
        raise ValueError(
            f"dt*(nu+gamma) = {cfg.dt * (params.nu + params.gamma):.3g} too coarse "
            "(need < 0.1)"
        )


def simulate_trajectory(
    cfg: TrajectoryConfig,
    params: MemoryParams,
    enc: Encoding,
    noise: NoiseModel,
    mm: MeasurementModel,
    g: Gains,
    source: SourceSpec,
    sf: StationaryFilter | None = None,
    stream_index: int = 0,
    drive: np.ndarray | None = None,
) -> Trajectory:
    """Run one seeded trajectory and record strided sample paths.

    `noise` is the true plant statistics. `mm` and the stationary filter are
    whatever the controller is allowed to know — for a blind run build them
    from filter_view_noise(noise, source, params). The measurement record
    itself always uses the true plant and true noise.
    """
    _check_dt(cfg, params)
    if sf is None:
        sf = stationary_filter(mm, params, enc, filter_view_noise(noise, source, params))
    sys = system_matrices(params, enc, drive=drive)
    mats = _loop_mats(params, sys, noise, mm, sf, g)
    m = mm.n_channels
    dt = cfg.dt
    sq_dt = np.sqrt(dt)
    nsteps = cfg.n_steps

    rng = _trajectory_rng(cfg.seed, stream_index)
    x = rng.standard_normal(6) * np.sqrt(0.5)
    pi_s = np.zeros(m)
    pi_x = np.zeros(6)

    n_rec = nsteps // cfg.record_stride + 1
    times = np.arange(n_rec) * (dt * cfg.record_stride)
    rec_x = np.empty((n_rec, 6))
    rec_ps = np.empty((n_rec, m))
    rec_px = np.empty((n_rec, 6))
    rec_u = np.empty((n_rec, 6))
    rec_inn = np.empty((n_rec - 1, m))
    rec_x[0], rec_ps[0], rec_px[0] = x, pi_s, pi_x

    bound = 1e9 * max(
        1.0, float(np.max(np.abs(2.0 * sys.drive / (params.nu + params.gamma))))
    )
    u = control_input(g, pi_s) if cfg.control_enabled else np.zeros(6)
    rec_u[0] = u
    row = 0
    step = 0
    while step < nsteps:
        block = rng.standard_normal((min(CHUNK, nsteps - step), 12))
        for dwrow in block:
            dwp = sq_dt * (mats.Bn @ dwrow)  # plant noise increment
            dy = mats.C @ x * dt + sq_dt * (mats.Dn @ dwrow)
            innovation = dy - mats.root2nu * pi_s * dt
            x = x + dt * (mats.A @ x + u + mats.drive) + dwp
            pi_s = pi_s + dt * (-mats.damping * pi_s + mats.Btil @ u) + mats.Ktil @ innovation
            pi_x = pi_x + dt * (mats.A @ pi_x + u + mats.drive) + mats.K @ (dy - mats.C @ pi_x * dt)
            u = control_input(g, pi_s) if cfg.control_enabled else u
            step += 1
            if step % cfg.record_stride == 0:
                row += 1
                rec_x[row], rec_ps[row], rec_px[row], rec_u[row] = x, pi_s, pi_x, u
                rec_inn[row - 1] = innovation
        peak = float(np.max(np.abs(x)))
        if not peak <= bound:  # catches NaN from overflow, not just growth
            raise SimulationUnstableError(step, peak)

    band = np.sqrt(np.diag(mm.Btil @ sf.Vc @ mm.Btil.T))
    return Trajectory(
        cfg=cfg,
        times=times,
        x=rec_x,
        pi_s=rec_ps,
        pi_x=rec_px,
        u=rec_u,
        innovations=rec_inn,
        err_band=np.tile(band, (n_rec, 1)),
        expected_innovation_cov=mm.innovation_cov.copy(),
    )


@dataclass(frozen=True)
class EnsembleMoments:
    """Pooled steady-window moments from a batched ensemble run."""

    z_mean: np.ndarray  # (6+m,) pooled mean of (x, pi_s)
    z_cov: np.ndarray  # (6+m, 6+m) pooled covariance
    innovation_mean: np.ndarray  # (m,) pooled innovation mean per step
    innovation_cov_rate: np.ndarray  # (m, m) innovation covariance per unit time
    err_mean: np.ndarray  # (6,) mean of x - pi_x across trajectories
    err_sem: np.ndarray  # (6,) standard error of that mean
    final_states: np.ndarray  # (ntraj, 6+m+6) endpoint (x, pi_s, pi_x)
    n_traj: int
    n_pooled: int
    window_fraction: float


def ensemble_moments(
    cfg: TrajectoryConfig,
    params: MemoryParams,
    enc: Encoding,
    noise: NoiseModel,
    mm: MeasurementModel,
    g: Gains,
    source: SourceSpec,
    n_traj: int,
    window_fraction: float = 0.2,
    sf: StationaryFilter | None = None,
    drive: np.ndarray | None = None,
) -> EnsembleMoments:
    """Vectorized ensemble run accumulating steady-window moments.

    Trajectory k consumes exactly the stream simulate_trajectory(...,
    stream_index=k) would, so endpoints cross-check against single runs.
    Memory stays bounded: only moment accumulators and one noise block per
    batch are held.
    """
    _check_dt(cfg, params)
    if n_traj < 2:
        raise ValueError("need at least 2 trajectories")
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must lie in (0, 1]")
    if sf is None:
        sf = stationary_filter(mm, params, enc, filter_view_noise(noise, source, params))
    sys = system_matrices(params, enc, drive=drive)
    mats = _loop_mats(params, sys, noise, mm, sf, g)
    m = mm.n_channels
    dt = cfg.dt
    sq_dt = np.sqrt(dt)
    nsteps = cfg.n_steps
    window_start = nsteps - max(1, int(round(window_fraction * nsteps)))

    rngs = [_trajectory_rng(cfg.seed, k) for k in range(n_traj)]
    X = np.vstack([r.standard_normal(6) for r in rngs]) * np.sqrt(0.5)
    PS = np.zeros((n_traj, m))
    PX = np.zeros((n_traj, 6))

    dz = 6 + m
    s1 = np.zeros(dz)
    s2 = np.zeros((dz, dz))
    si1 = np.zeros(m)
    si2 = np.zeros((m, m))
    err_sum = np.zeros((n_traj, 6))
    n_pooled = 0
    n_inn = 0

    bound = 1e9 * max(
        1.0, float(np.max(np.abs(2.0 * sys.drive / (params.nu + params.gamma))))
    )
    U = PS @ mats.Fgain.T if cfg.control_enabled else np.zeros((n_traj, 6))
    step = 0
    while step < nsteps:
        blen = min(CHUNK, nsteps - step)
        W = np.empty((n_traj, blen, 12))
        for k, r in enumerate(rngs):
            W[k] = r.standard_normal((blen, 12))
        for t in range(blen):
            dwrow = W[:, t, :]
            DY = dt * X @ mats.C.T + sq_dt * dwrow @ mats.Dn.T
            INN = DY - (mats.root2nu * dt) * PS
            X = X + dt * (X @ mats.A.T + U + mats.drive) + sq_dt * dwrow @ mats.Bn.T
            PS = PS + dt * (-mats.damping * PS + U @ mats.Btil.T) + INN @ mats.Ktil.T
            PX = (
                PX
                + dt * (PX @ mats.A.T + U + mats.drive)
                + (DY - dt * PX @ mats.C.T) @ mats.K.T
            )
            if cfg.control_enabled:
                U = PS @ mats.Fgain.T
            step += 1
            if step > window_start:
                Z = np.hstack([X, PS])
                s1 += Z.sum(axis=0)
                s2 += Z.T @ Z
                si1 += INN.sum(axis=0)
                si2 += INN.T @ INN
                err_sum += X - PX
                n_pooled += n_traj
                n_inn += n_traj
        peak = float(np.max(np.abs(X)))
        if not peak <= bound:  # catches NaN from overflow, not just growth
            raise SimulationUnstableError(step, peak)

    z_mean = s1 / n_pooled
    z_cov = (s2 - n_pooled * np.outer(z_mean, z_mean)) / (n_pooled - 1)
    inn_mean = si1 / n_inn
    inn_cov = (si2 - n_inn * np.outer(inn_mean, inn_mean)) / (n_inn - 1)
    err_traj = err_sum / (n_pooled / n_traj)  # per-trajectory window averages
    err_mean = err_traj.mean(axis=0)
    err_sem = err_traj.std(axis=0, ddof=1) / np.sqrt(n_traj)
    return EnsembleMoments(
        z_mean=z_mean,
        z_cov=0.5 * (z_cov + z_cov.T),
        innovation_mean=inn_mean,
        innovation_cov_rate=0.5 * (inn_cov + inn_cov.T) / dt,
        err_mean=err_mean,
        err_sem=err_sem,
        final_states=np.hstack([X, PS, PX]),
        n_traj=n_traj,
        n_pooled=n_pooled,
        window_fraction=window_fraction,
    )


@dataclass(frozen=True)
class InnovationReport:
    cov_rate: np.ndarray  # (m, m) empirical innovation covariance per unit time
    expected_cov: np.ndarray  # (m, m)
    cov_rel_error: float
    lag1: np.ndarray  # (m,) lag-1 autocorrelation per channel
    standardized_mean: np.ndarray  # (m,) mean / (3-sigma denominator-free) z-score
    cov_pass: bool
    whiteness_pass: bool
    mean_pass: bool

    @property
    def all_pass(self) -> bool:
        return self.cov_pass and self.whiteness_pass and self.mean_pass


def innovation_diagnostics(traj: Trajectory) -> InnovationReport:
    """Whiteness, scale and bias checks on the recorded innovation sequence.

    Requires full-rate recording (record_stride == 1) so lag-1 correlation
    refers to consecutive integrator steps.
    """
    if traj.cfg.record_stride != 1:
        raise ValueError("innovation diagnostics need record_stride == 1")
    inn = traj.innovations
    n = len(inn)
    if n < 10:
        raise ValueError("too few innovation samples")
    dt = traj.cfg.dt
    mean = inn.mean(axis=0)
    centered = inn - mean
    cov_rate = (centered.T @ centered) / ((n - 1) * dt)
    expected = traj.expected_innovation_cov
    cov_rel = float(np.linalg.norm(cov_rate - expected) / np.linalg.norm(expected))
    var = centered.var(axis=0)
    lag1 = (centered[1:] * centered[:-1]).mean(axis=0) / var
    z = mean * np.sqrt(n) / np.sqrt(np.diag(expected) * dt)
    return InnovationReport(
        cov_rate=cov_rate,
        expected_cov=expected.copy(),
        cov_rel_error=cov_rel,
        lag1=lag1,
        standardized_mean=z,
        cov_pass=cov_rel < 0.05,
        whiteness_pass=bool(np.all(np.abs(lag1) < 0.05)),
        mean_pass=bool(np.all(np.abs(z) < 3.0)),
    )
