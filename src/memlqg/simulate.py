"""Seeded Monte Carlo of the plant-filter-controller loop.

The linear quadratic dynamics admit a classical Gaussian surrogate whose
first and symmetrized second moments coincide with the quantum model's, so
trajectories are ordinary Euler-Maruyama paths of

    dx  = (A x + u - sqrt(nu) beta) dt + B dw,
    dy  = C x dt + D dw                      (same dw: shared vacuum noise),
    dpi_s = (-c pi_s + Btil u) dt + Ktil (dy - sqrt(2 nu) pi_s dt),

with dw a 12-dimensional Gaussian increment of covariance SigmaW dt and
u = F pi_s under control, else 0. The full-state estimate pi_x is advanced
alongside with the stationary gain K for evaluation purposes; the
controller itself reads only pi_s, so blind runs stay blind (see
filter_view_noise).

The engine steps a closedloop.Loop: true noise for plant and record, mm, sf
and g for filter and controller. It never reads the loop's augmented model
or Vz, so sampled moments are checked against build_augmented, not built on it.

The step is written out once, on the rows s = (x, pi_s, pi_x) of a batch
(see _affine_step). Every term is linear in s, in the noise and in the
drive, so with dw = sqrt(dt) L w for standard normals w one step is the
affine map

    s <- s Phi^T + w Gamma^T + c,    innovation = s H^T + w J^T,

whose matrices are read off by evaluating the step once on unit inputs. A
single block loop applies it: a trajectory is a batch of one plus a
recorder, an ensemble the same loop plus a moment accumulator.

The loop applies the b-step lifted map (see _lift)

    [s_{t+1} .. s_{t+b}, inn_t .. inn_{t+b-1}] = [s_t, w_t .. w_{t+b-1}] M_b + c_b,

read off by composing the one-step map b times on unit rows, so the SDE
stays written once. Each lifted step costs two matrix products, like one
plain step, and hands b steps to the consumer. b follows from the batch
size alone: LIFT for a batch of one, where per-step Python overhead
dominates, and 1 for larger batches, where b > 1 would cost about b times
the arithmetic; there M_1 is exactly the one-step map. Steps left over at
the end of a run (its length modulo b) take the one-step map.

A consumer that reads only the end of a run, as ensemble_moments reads its
moment window, names the first step it reads. Every full noise block that
ends before that step is crossed by one state-only map (see _block_map),

    s_{t+CHUNK} = s_t Phi_B + [w_t .. w_{t+CHUNK-1}] G_B + c_B,

one matrix product over the block's noise, with nothing handed to the
consumer. It costs no more arithmetic than CHUNK plain steps and runs as
one product instead of CHUNK small ones. Partial blocks, the block that
holds the first read step and every step after it take the maps above.

Reproducibility: trajectory k draws from the stream
SeedSequence(entropy=seed, spawn_key=(k,)) — first the initial plant state
(6 normals), then noise in fixed blocks of CHUNK steps, skipped or not — so
single and batched runs consume identical noise values. A rerun is
bit-identical; a trajectory run alone and the same one inside a batch agree
to rounding, because they apply maps lifted by different b or crossed by a
block map, and a one-row and a many-row matrix product may sum in different
orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedloop import Loop
from .control import Gains
from .estimation import (
    MeasurementModel,
    StationaryFilter,
    filter_view_noise,
    stationary_filter,
)
from .model import Encoding, MemoryParams, NoiseModel, SourceSpec
from .openloop import SystemMatrices, system_matrices

CHUNK = 256  # noise block length; fixed so stream consumption never depends on batching
LIFT = 16  # steps per lifted map for a batch of one; divides CHUNK


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

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must cover at least one step")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.duration / self.dt)))


@dataclass(frozen=True)
class Trajectory:
    """Sample paths recorded at every step."""

    cfg: TrajectoryConfig
    times: np.ndarray  # (n_steps + 1,)
    x: np.ndarray  # (n_steps + 1, 6)
    pi_s: np.ndarray  # (n_steps + 1, m)
    pi_x: np.ndarray  # (n_steps + 1, 6)
    u: np.ndarray  # (n_steps + 1, 6), input applied over the following step
    innovations: np.ndarray  # (n_steps, m)
    err_band: np.ndarray  # (n_steps + 1, m), sqrt diag Btil Vc Btil^T
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


def _check_dt(cfg: TrajectoryConfig, params: MemoryParams) -> None:
    if cfg.dt * (params.nu + params.gamma) >= 0.1:
        raise ValueError(
            f"dt*(nu+gamma) = {cfg.dt * (params.nu + params.gamma):.3g} too coarse "
            "(need < 0.1)"
        )


def _affine_step(
    cfg: TrajectoryConfig, loop: Loop, sys: SystemMatrices
) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (M, c) of one Euler-Maruyama step on rows s = (x, pi_s, pi_x).

    `step` is the SDE of the module docstring written out literally, with
    the noise given as standard normals w (dw = sqrt(dt) L w) and the drive
    scaled by `one`. It is affine, so its values on unit rows give

        [s_next, innovation] = [s, w] M + c,

    with M = [[Phi^T, H^T], [Gamma^T, J^T]] and c = [c_s, 0].
    """
    params, mm, sf, g = loop.params, loop.mm, loop.sf, loop.g
    dt = cfg.dt
    m = mm.n_channels
    L = noise_factor(loop.noise.SigmaW)
    root2nu = np.sqrt(2.0 * params.nu)

    def step(s, w, one):
        x, pi_s, pi_x = s[:, :6], s[:, 6 : 6 + m], s[:, 6 + m :]
        u = pi_s @ g.Fgain.T if cfg.control_enabled else np.zeros_like(x)
        drive = np.outer(one, sys.drive)
        dw = np.sqrt(dt) * (w @ L.T)
        dy = dt * (x @ mm.C.T) + dw @ mm.D.T
        innovation = dy - root2nu * dt * pi_s
        x_next = x + dt * (x @ sys.A.T + u + drive) + dw @ sys.B.T
        pi_s_next = (
            pi_s + dt * (-params.damping * pi_s + u @ mm.Btil.T) + innovation @ sf.Ktil.T
        )
        pi_x_next = (
            pi_x + dt * (pi_x @ sys.A.T + u + drive) + (dy - dt * (pi_x @ mm.C.T)) @ sf.K.T
        )
        return np.hstack([x_next, pi_s_next, pi_x_next, innovation])

    n = 12 + m
    unit = np.eye(n + 13)
    rows = step(unit[:, :n], unit[:, n : n + 12], unit[:, -1])
    return rows[:-1], rows[-1]


def _lift(M: np.ndarray, c: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (M_b, c_b) of b steps of the map [s_next, innovation] = [s, w] M + c:

        [s_1 .. s_b, inn_0 .. inn_{b-1}] = [s_0, w_0 .. w_{b-1}] M_b + c_b,

    read off by composing the one-step map b times on unit rows (the lifted
    system of Khargonekar, Poolla & Tannenbaum, IEEE TAC 30, 1985). For
    b = 1 the result is (M, c) exactly.
    """
    n = M.shape[0] - 12
    unit = np.eye(n + 12 * b + 1)
    s, one = unit[:, :n], unit[:, -1:]
    states, innovations = [], []
    for j in range(b):
        out = s @ M[:n] + unit[:, n + 12 * j : n + 12 * (j + 1)] @ M[n:] + one * c
        s = out[:, :n]
        states.append(s)
        innovations.append(out[:, n:])
    rows = np.hstack(states + innovations)
    return rows[:-1], rows[-1]


def _block_map(
    M: np.ndarray, c: np.ndarray, b: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """State-only matrices (Phi_b, G_b, c_b) of b steps of the map
    [s_next, innovation] = [s, w] M + c:

        s_b = s_0 Phi_b + [w_0 .. w_{b-1}] G_b + c_b.

    Composed backward from the last step: if T maps s_{j+1} to s_b, the
    one-step map's state columns applied to T give s_j -> s_b (the next T),
    w_j -> s_b (G_j = M_ws Phi^(b-1-j)) and the drive's share of c_b. Unlike
    _lift it never forms the (12 b)-square identity of the noise rows.
    """
    n = M.shape[0] - 12
    one_step = np.vstack([M[:, :n], c[:n]])  # rows s, w, one -> s_next
    T = np.eye(n)
    G = np.empty((b, 12, n))
    cb = np.zeros(n)
    for j in reversed(range(b)):
        out = one_step @ T
        T, G[j] = out[:n], out[n:-1]
        cb += out[-1]
    return T, G.reshape(12 * b, n), cb


def _run_batch(
    cfg: TrajectoryConfig,
    loop: Loop,
    streams: range,
    consume,
    first_read: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Step one row s = (x, pi_s, pi_x) per stream; return the first and last rows.

    consume(step, s, innovation) receives k consecutive steps at a time:
    s of shape (batch, k, 12 + m) holds the rows after steps step ..
    step + k - 1 (counting from 1) and innovation of shape (batch, k, m)
    their innovations. Steps before first_read may be withheld: a full
    noise block that ends before it is crossed by one state-only map
    (_block_map) and handed to no consumer. Noise is drawn one CHUNK block
    per stream at a time, so each stream's values do not depend on the
    batch; divergence is checked once per block.
    """
    params = loop.params
    _check_dt(cfg, params)
    sys = system_matrices(params, loop.enc)
    M, c = _affine_step(cfg, loop, sys)
    m = loop.mm.n_channels
    n = 12 + m
    n_steps = cfg.n_steps
    bound = 1e9 * max(
        1.0, float(np.max(np.abs(2.0 * sys.drive / (params.nu + params.gamma))))
    )

    rngs = [_trajectory_rng(cfg.seed, k) for k in streams]
    b = LIFT if len(rngs) == 1 else 1
    Mb, cb = _lift(M, c, b)

    def advance(s, step, W, Mk, ck, k):
        """Apply the k-step map (Mk, ck) over the (batch, steps, 12) noise W."""
        Wk = W.reshape(len(rngs), W.shape[1] // k, 12 * k)  # a view: blocks are contiguous
        for j in range(Wk.shape[1]):
            out = s @ Mk[:n] + Wk[:, j] @ Mk[n:]
            out += ck
            rows = out[:, : k * n].reshape(-1, k, n)
            consume(step + 1, rows, out[:, k * n :].reshape(-1, k, m))
            step += k
            s = rows[:, -1]
        return s, step

    last_unread = min(first_read - 1, n_steps)
    if last_unread >= CHUNK:
        Phi_blk, G_blk, c_blk = _block_map(M, c, CHUNK)

    start = np.zeros((len(rngs), n))
    start[:, :6] = np.vstack([r.standard_normal(6) for r in rngs]) * np.sqrt(0.5)
    s = start
    step = 0
    block = np.empty((len(rngs), CHUNK, 12))  # refilled in place: one noise buffer per run
    while step < n_steps:
        blen = min(CHUNK, n_steps - step)
        for k, r in enumerate(rngs):
            r.standard_normal(out=block[k, :blen])
        if step + CHUNK <= last_unread:
            s = s @ Phi_blk + block.reshape(len(rngs), 12 * CHUNK) @ G_blk
            s += c_blk
            step += CHUNK
        else:
            head = blen - blen % b
            s, step = advance(s, step, block[:, :head], Mb, cb, b)
            s, step = advance(s, step, block[:, head:blen], M, c, 1)
        peak = float(np.max(np.abs(s[:, :6])))
        if not peak <= bound:  # catches NaN from overflow, not just growth
            raise SimulationUnstableError(step, peak)
    return start, s


def simulate_trajectory(cfg: TrajectoryConfig, loop: Loop, stream_index: int = 0) -> Trajectory:
    """Run one seeded trajectory of `loop` and record it at every step.

    The plant and the record use the loop's true noise; the controller reads
    only its filter and gains, so a blind loop stays blind.
    """
    mm, sf, g = loop.mm, loop.sf, loop.g
    m = mm.n_channels
    n_rec = cfg.n_steps + 1
    states = np.empty((n_rec, 12 + m))
    innovations = np.empty((n_rec - 1, m))

    def record(step, s, innovation):
        k = s.shape[1]
        states[step : step + k] = s[0]
        innovations[step - 1 : step - 1 + k] = innovation[0]

    streams = range(stream_index, stream_index + 1)
    start, _ = _run_batch(cfg, loop, streams, record)
    states[0] = start[0]
    pi_s = states[:, 6 : 6 + m]
    band = np.sqrt(np.diag(mm.Btil @ sf.Vc @ mm.Btil.T))
    return Trajectory(
        cfg=cfg,
        times=np.arange(n_rec) * cfg.dt,
        x=states[:, :6],
        pi_s=pi_s,
        pi_x=states[:, 6 + m :],
        u=pi_s @ g.Fgain.T if cfg.control_enabled else np.zeros((n_rec, 6)),
        innovations=innovations,
        err_band=np.tile(band, (n_rec, 1)),
        expected_innovation_cov=mm.innovation_cov.copy(),
    )


@dataclass(frozen=True)
class EnsembleMoments:
    """Pooled steady-window moments from a batched ensemble run."""

    z_mean: np.ndarray  # (6+m,) pooled mean of (x, pi_s)
    z_cov: np.ndarray  # (6+m, 6+m) pooled covariance
    innovation_cov_rate: np.ndarray  # (m, m) innovation covariance per unit time
    err_mean: np.ndarray  # (6,) mean of x - pi_x across trajectories
    err_sem: np.ndarray  # (6,) standard error of that mean
    final_states: np.ndarray  # (ntraj, 6+m+6) endpoint (x, pi_s, pi_x)
    n_traj: int
    n_pooled: int


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
) -> EnsembleMoments:
    """Vectorized ensemble run accumulating steady-window moments.

    The pieces form one Loop, stepped as simulate_trajectory steps it:
    trajectory k consumes exactly the stream simulate_trajectory(cfg, loop,
    stream_index=k) would, so endpoints cross-check against single runs.
    Only the window is read: every full noise block that ends before the
    window's first step is crossed by one state-only map, and the window's
    rows [s, innovation] go into one Gram matrix and one per-trajectory row
    sum. The moments and endpoints agree with step-by-step stepping to
    rounding. Memory stays bounded: only these accumulators and one noise
    block per batch are held.
    """
    if n_traj < 2:
        raise ValueError("need at least 2 trajectories")
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must lie in (0, 1]")
    if sf is None:
        sf = stationary_filter(mm, params, enc, filter_view_noise(noise, source, params))
    loop = Loop(params=params, enc=enc, noise=noise, mm=mm, sf=sf, g=g)
    m = mm.n_channels
    dz = 6 + m
    n_steps = cfg.n_steps
    window_start = n_steps - max(1, int(round(window_fraction * n_steps)))
    n = 12 + m
    gram = np.zeros((n + m, n + m))  # of the window's rows [s, innovation]
    row_sum = np.zeros((n_traj, n + m))  # the same rows summed per trajectory

    def accumulate(step, s, innovation):
        nonlocal gram, row_sum
        skip = max(0, window_start + 1 - step)  # leading steps before the window
        if skip < s.shape[1]:
            rows = np.concatenate([s[:, skip:], innovation[:, skip:]], axis=2)
            flat = rows.reshape(-1, n + m)
            gram += flat.T @ flat
            row_sum += rows.sum(axis=1)

    _, final = _run_batch(cfg, loop, range(n_traj), accumulate, first_read=window_start + 1)

    z1 = row_sum[:, :dz].sum(axis=0)
    z2 = gram[:dz, :dz]
    i1 = row_sum[:, n:].sum(axis=0)
    i2 = gram[n:, n:]
    err_sum = row_sum[:, :6] - row_sum[:, dz:n]
    n_pooled = n_traj * (n_steps - window_start)
    z_mean = z1 / n_pooled
    z_cov = (z2 - n_pooled * np.outer(z_mean, z_mean)) / (n_pooled - 1)
    inn_mean = i1 / n_pooled
    inn_cov = (i2 - n_pooled * np.outer(inn_mean, inn_mean)) / (n_pooled - 1)
    err_traj = err_sum / (n_steps - window_start)  # per-trajectory window averages
    err_mean = err_traj.mean(axis=0)
    err_sem = err_traj.std(axis=0, ddof=1) / np.sqrt(n_traj)
    return EnsembleMoments(
        z_mean=z_mean,
        z_cov=0.5 * (z_cov + z_cov.T),
        innovation_cov_rate=0.5 * (inn_cov + inn_cov.T) / cfg.dt,
        err_mean=err_mean,
        err_sem=err_sem,
        final_states=final,
        n_traj=n_traj,
        n_pooled=n_pooled,
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
    """Whiteness, scale and bias checks on the recorded innovation sequence."""
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
