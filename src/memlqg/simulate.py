"""Seeded Monte Carlo of the plant-filter-controller loop.

The linear quadratic dynamics admit a classical Gaussian surrogate whose
first and symmetrized second moments coincide with the quantum model's, so
trajectories are ordinary Euler-Maruyama paths of

    dx    = (A x + u - sqrt(nu) beta) dt + B dw,
    dy    = C x dt + D dw                    (same dw: shared vacuum noise),
    dpi_x = (A pi_x + u - sqrt(nu) beta) dt + K (dy - sqrt(2 nu) pi_s dt),

with dw a 12-dimensional Gaussian increment of covariance SigmaW dt,
pi_s = Btil pi_x and u = F pi_s under control, else 0. pi_x is the
memory's estimate under the stationary gain K. The controller reads only
its syndrome rows pi_s, the estimate of the syndrome filter: C =
sqrt(2 nu) Btil, Btil K = Ktil and Btil annihilates the drive, so pi_s
obeys that filter's recursion. K comes from the filter's view of the
noise, so blind runs stay blind (see filter_view_noise).

The engine steps a closedloop.Loop: true noise for plant and record, mm, sf
and g for filter and controller. It never reads the loop's Vz, so sampled
moments are checked against build_augmented, not built on it.

The step is written out once, on the rows s = (x, pi_x) of a batch
(see _affine_step). dw reaches the plant and the record only through
[dw B^T, dw D^T], whose covariance K SigmaW K^T dt (K = [B; D]) has rank
6 + m at most, so a step draws 6 + m standard normals w and takes that
increment as sqrt(dt) w L^T with L L^T = K SigmaW K^T: the same law from
fewer normals. Every term is linear in s, in w and in the drive, so one
step is the map

    [innovation, pi_s, s_next] = [s, w, 1] M,    M = [[H^T, Phi^T], [J^T, Gamma^T], [h, c]],

with pi_s read off s_next as an output column only. The matrix, constant
row last, is read off by evaluating the step once on unit rows. A single
block loop applies it: a trajectory is a batch of one plus a recorder, an
ensemble the same loop plus a moment accumulator.

The loop applies the b-step lifted map (see _lift)

    [out_t, s_{t+1} .. out_{t+b-1}, s_{t+b}] = [s_t, w_t .. w_{t+b-1}, 1] M_b,

read off by composing the one-step map b times on unit rows, so the SDE
stays written once. b follows from the batch size alone: LIFT for a batch
of one, where per-step Python overhead dominates, and 1 for larger
batches, where b > 1 would cost about b times the arithmetic; there M_1 is
exactly the one-step map. Steps left over at the end of a run (its length
modulo b) take the one-step map.

The kernel steps a sub-block of SUB_ROWS trajectory-steps at a time (at
most CHUNK steps) in a time-major buffer. The buffer's row for a (lifted)
step holds that step's rows [innovation, pi_s, s], then the noise and the
1 that the next step reads, so [s, w, 1] is one contiguous row and each
step is one matrix product from one row of the buffer into the next. A
consumer receives a whole sub-block: an ensemble's accumulator does one
Gram product and one row sum per sub-block, a trajectory's recorder one
slice copy.

The chain is linear and Gaussian, so its state after N steps has a closed
form (see _cross),

    s_N = s_0 Phi_N + c_N + e,    e ~ N(0, Q_N),    Phi_N = (Phi^T)^N,

with Phi_N by binary powering and Q_N by Smith's doubling (SIAM J. Appl.
Math. 16, 1968), in about log2 N small products. ensemble_moments reads only
the last WINDOW_FRACTION of a run. From the start law (x ~ N(0, I/2),
pi_x = 0) the window's first state is Gaussian with mean c_N and
covariance Phi_N^T V_0 Phi_N + Q_N, so each trajectory draws it at once
and steps only the window.

Reproducibility: trajectory k draws from the stream
SeedSequence(entropy=seed, spawn_key=(k,)). simulate_trajectory draws first
the initial plant state (6 normals), then 6 + m normals per step in fixed
blocks of CHUNK steps. ensemble_moments draws first the window's first
state (12 normals, times the law's symmetric square root), then the
window's 6 + m normals per step in blocks of CHUNK steps. Each stream's
values do not depend on the batch. A rerun is bit-identical, and a
trajectory agrees to rounding across batch sizes, because a one-row and a
many-row matrix product may sum in different orders. The ensemble's
trajectory k is the same Euler-Maruyama chain as simulate_trajectory's, in
law, but not the same realization.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .closedloop import Loop
from .control import Gains
from .estimation import MeasurementModel, StationaryFilter
from .model import Encoding, MemoryParams, NoiseModel, SourceSpec
from .numerics import symmetrize
from .openloop import SystemMatrices, system_matrices

CHUNK = 256  # noise block length; fixed so stream consumption never depends on batching
LIFT = 16  # steps per lifted map for a batch of one; divides CHUNK
SUB_ROWS = 4096  # trajectory-steps per sub-block, so the stepping buffer is small at any batch
WINDOW_FRACTION = 0.2  # trailing share of a run whose moments ensemble_moments pools


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
        for name in ("dt", "duration"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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

    times: np.ndarray  # (n_steps + 1,)
    x: np.ndarray  # (n_steps + 1, 6)
    pi_s: np.ndarray  # (n_steps + 1, m), Btil pi_x
    pi_x: np.ndarray  # (n_steps + 1, 6)
    u: np.ndarray  # (n_steps + 1, 6), input applied over the following step
    innovations: np.ndarray  # (n_steps, m)
    err_band: np.ndarray  # (n_steps + 1, m), sqrt diag Btil Vc Btil^T

    def __post_init__(self):
        n = len(self.times)
        for name in ("x", "pi_s", "pi_x", "u", "err_band"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"series {name!r} length mismatch")
        if len(self.innovations) != n - 1:
            raise ValueError("innovations must have one entry per recorded step")


def noise_factor(SigmaW: np.ndarray) -> np.ndarray:
    """Factor L = U sqrt(w) with L L^T = SigmaW, by spectral decomposition.

    Negative eigenvalues down to -1e-12 times the largest are clipped to zero
    (roundoff repair: eigh's error scales with the matrix norm); more negative
    ones mean the matrix is not a covariance and raise.
    """
    w, U = np.linalg.eigh(np.asarray(SigmaW, dtype=float))
    if w.min() < -1e-12 * max(w.max(), 0.0):
        raise ValueError(
            f"noise covariance not PSD (min eigenvalue {w.min():.3e}, max {w.max():.3e})"
        )
    return U * np.sqrt(np.clip(w, 0.0, None))


def _trajectory_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def _check_dt(cfg: TrajectoryConfig, params: MemoryParams) -> None:
    if cfg.dt * (params.nu + params.gamma) >= 0.1:
        raise ValueError(
            f"dt*(nu+gamma) = {cfg.dt * (params.nu + params.gamma):.3g} too coarse "
            "(need < 0.1)"
        )


def _affine_step(cfg: TrajectoryConfig, loop: Loop, sys: SystemMatrices) -> np.ndarray:
    """Matrix M of one Euler-Maruyama step on rows s = (x, pi_x).

    `step` is the SDE of the module docstring written out literally, with
    the drive scaled by `one`. The noise reaches the plant and the record
    only as the joint increment [dw B^T, dw D^T], of covariance
    K SigmaW K^T dt with K = [B; D], so the step takes it as
    sqrt(dt) w L^T for 6 + m standard normals w and L L^T = K SigmaW K^T:
    the law of the 12-dimensional dw's, from the normals a step can see.
    `step` is affine, so its values on unit rows give

        [innovation, pi_s, s_next] = [s, w, 1] M,

    the constant row last, pi_s = Btil pi_x after the step.
    """
    mm, sf, g = loop.mm, loop.sf, loop.g
    dt = cfg.dt
    K = np.vstack([sys.B, mm.D])
    L = noise_factor(K @ loop.noise.SigmaW @ K.T)
    root2nu = np.sqrt(2.0 * loop.params.nu)

    def step(s, w, one):
        x, pi_x = s[:, :6], s[:, 6:]
        pi_s = pi_x @ mm.Btil.T
        u = pi_s @ g.Fgain.T if cfg.control_enabled else np.zeros_like(x)
        drive = np.outer(one, sys.drive)
        dv = np.sqrt(dt) * (w @ L.T)  # [dw B^T, dw D^T]
        innovation = dt * (x @ mm.C.T) + dv[:, 6:] - root2nu * dt * pi_s
        x_next = x + dt * (x @ sys.A.T + u + drive) + dv[:, :6]
        pi_x_next = pi_x + dt * (pi_x @ sys.A.T + u + drive) + innovation @ sf.K.T
        return np.hstack([innovation, pi_x_next @ mm.Btil.T, x_next, pi_x_next])

    unit = np.eye(12 + len(K) + 1)  # rows [s, w, 1]: 12 state columns, 6 + m normals
    return step(unit[:, :12], unit[:, 12:-1], unit[:, -1])


def _lift(M: np.ndarray, n: int, b: int) -> np.ndarray:
    """Matrix M_b of b steps of the map [out, s_next] = [s, w, 1] M on
    states of width n:

        [out_0, s_1, .., out_{b-1}, s_b] = [s_0, w_0 .. w_{b-1}, 1] M_b,

    step by step, so one lifted row reshapes to b one-step rows. Read off by
    composing the one-step map b times on unit rows (the lifted system of
    Khargonekar, Poolla & Tannenbaum, IEEE TAC 30, 1985). For b = 1 the
    result is M exactly.
    """
    p = M.shape[0] - n - 1
    unit = np.eye(n + p * b + 1)
    s, one, steps = unit[:, :n], unit[:, -1:], []
    for j in range(b):
        out = np.hstack([s, unit[:, n + p * j : n + p * (j + 1)], one]) @ M
        s = out[:, -n:]
        steps.append(out)
    return np.hstack(steps)


def _cross(M: np.ndarray, n: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Law (Phi_N, Q_N, c_N) of N steps of the map [out, s_next] = [s, w, 1] M
    on states of width n:

        s_N = s_0 Phi_N + c_N + e,    e ~ N(0, Q_N),

    for standard normal noise rows w. One step has Phi = M[:n, -n:], noise
    map Gamma = M[n:-1, -n:] (so Q_1 = Gamma^T Gamma) and c_s = M[-1, -n:],
    the row-form transposes of the module docstring's Phi and Gamma. Joining
    a steps after b steps gives Phi_b Phi_a, Q = Phi_a^T Q_b Phi_a + Q_a and
    c = c_b Phi_a + c_a; the law of 2^i steps comes from that of 2^(i-1) by
    Smith's doubling, and N's binary digits pick which of them to join.
    """
    Phi_a, Gamma, c_a = M[:n, -n:], M[n:-1, -n:], M[-1, -n:]
    Q_a = Gamma.T @ Gamma
    Phi, Q, cN = np.eye(n), np.zeros((n, n)), np.zeros(n)
    while True:
        if N & 1:
            Phi, Q, cN = Phi @ Phi_a, symmetrize(Phi_a.T @ Q @ Phi_a + Q_a), cN @ Phi_a + c_a
        N >>= 1
        if not N:
            return Phi, Q, cN
        Phi_a, Q_a, c_a = (
            Phi_a @ Phi_a, symmetrize(Phi_a.T @ Q_a @ Phi_a + Q_a), c_a @ Phi_a + c_a
        )


def _mapped(*shape: int) -> np.ndarray:
    """A float64 array of `shape`, zero-filled, on an anonymous memory mapping of its own.

    It holds a run's large arrays: the noise block (3.7 MB for 200 streams
    of s1), the stepping buffer and a trajectory's record (3.8 MB for
    30 000 steps of s2).
    From the malloc heap, each would land wherever earlier allocations left
    room: once a long-lived allocation splits the hole a previous run's
    array left, the next one is placed past it and the process holds two
    such regions. Its own mapping is returned to the system when the array
    goes, so a run's peak memory does not depend on the heap's history.
    """
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


def _step_map(cfg: TrajectoryConfig, loop: Loop) -> tuple[np.ndarray, float]:
    """The run's one-step map M (see _affine_step), after the step-size
    check, and the bound on |x| past which a run has diverged."""
    params = loop.params
    _check_dt(cfg, params)
    sys = system_matrices(params, loop.enc)
    bound = 1e9 * max(
        1.0, float(np.max(np.abs(2.0 * sys.drive / (params.nu + params.gamma))))
    )
    return _affine_step(cfg, loop, sys), bound


def _check_bound(peak: float, bound: float, step: int) -> None:
    if not peak <= bound:  # catches NaN from overflow, not just growth
        raise SimulationUnstableError(step, peak)


def _run_batch(
    M: np.ndarray,
    bound: float,
    rngs: list,
    start: np.ndarray,
    first_step: int,
    n_steps: int,
    consume,
) -> np.ndarray:
    """Step the rows `start` (one per stream in rngs: s = (x, pi_x) after
    step first_step - 1) through step n_steps; return the last rows.

    consume(step, rows) receives a sub-block of consecutive steps at a time,
    rows of shape (k, batch, kb, 2m + n) for k (lifted) steps of kb steps
    each, in which rows[i, :, j] holds [innovation, pi_s, s] after step
    step + i kb + j (counting from 1). The rows are a view of the stepping
    buffer, valid until consume returns. Noise is drawn one CHUNK block per
    stream at a time, from first_step on, so each stream's values do not
    depend on the batch; divergence is checked once per block.
    """
    batch, n = start.shape
    width = M.shape[1]  # 2m + n: one step's row [innovation, pi_s, s]
    p = M.shape[0] - n - 1
    b = LIFT if batch == 1 else 1
    maps = {b: _lift(M, n, b), 1: M}
    span = min(CHUNK, max(b, SUB_ROWS // batch)) // b * b  # steps per sub-block
    noise = _mapped(batch, CHUNK, p)  # refilled in place: one noise block per run
    # Time-major stepping buffer: the row of (lifted) step i holds kb steps'
    # [innovation, pi_s, s], then the noise and the 1 that step i + 1 reads, so
    # [s, w, 1] is one contiguous row and a step is one product into the next.
    # span + b one-step rows per stream hold a sub-block for either map.
    buf = _mapped((span + b) * batch * (width + p + 1))

    def advance(s, step, W, kb):
        """Step s over the (batch, steps, p) noise W with the kb-step map."""
        Mk, cols = maps[kb], kb * width
        for i in range(0, W.shape[1], span):
            k = min(span, W.shape[1] - i) // kb
            G = buf[: (k + 1) * batch * (cols + kb * p + 1)].reshape(k + 1, batch, -1)
            G[0, :, cols - n : cols] = s
            G[:k, :, cols:-1] = W[:, i : i + k * kb].reshape(batch, k, -1).transpose(1, 0, 2)
            G[:k, :, -1] = 1.0
            for j in range(k):
                np.matmul(G[j, :, cols - n :], Mk, out=G[j + 1, :, :cols])
            consume(step + 1, G[1:, :, :cols].reshape(k, batch, kb, width))
            step += k * kb
            s = G[k, :, cols - n : cols]
        return s, step

    s, step = start, first_step - 1
    while step < n_steps:
        blen = min(CHUNK, n_steps - step)
        for k, r in enumerate(rngs):
            r.standard_normal(out=noise[k, :blen])
        head = blen - blen % b
        s, step = advance(s, step, noise[:, :head], b)
        s, step = advance(s, step, noise[:, head:blen], 1)
        _check_bound(float(np.max(np.abs(s[:, :6]))), bound, step)
    return s.copy()


def simulate_trajectory(cfg: TrajectoryConfig, loop: Loop, stream_index: int = 0) -> Trajectory:
    """Run one seeded trajectory of `loop` and record it at every step.

    The plant and the record use the loop's true noise; the controller reads
    only its filter and gains, so a blind loop stays blind.
    """
    mm, sf, g = loop.mm, loop.sf, loop.g
    m = mm.n_channels
    n_rec = cfg.n_steps + 1
    rows = _mapped(n_rec, 2 * m + 12)  # [innovation, pi_s, s] after each step; row 0 holds s_0

    def record(step, block):
        k, _, kb, width = block.shape
        rows[step : step + k * kb].reshape(k, kb, width)[...] = block[:, 0]

    M, bound = _step_map(cfg, loop)
    rng = _trajectory_rng(cfg.seed, stream_index)
    rows[0, 2 * m : 2 * m + 6] = rng.standard_normal(6) * np.sqrt(0.5)
    _run_batch(M, bound, [rng], rows[:1, 2 * m :].copy(), 1, cfg.n_steps, record)
    pi_s = rows[:, m : 2 * m]
    band = np.sqrt(np.diag(mm.Btil @ sf.Vc @ mm.Btil.T))
    return Trajectory(
        times=np.arange(n_rec) * cfg.dt,
        x=rows[:, 2 * m : 2 * m + 6],
        pi_s=pi_s,
        pi_x=rows[:, 2 * m + 6 :],
        u=pi_s @ g.Fgain.T if cfg.control_enabled else np.zeros((n_rec, 6)),
        innovations=rows[1:, :m],
        err_band=np.tile(band, (n_rec, 1)),
    )


@dataclass(frozen=True)
class EnsembleMoments:
    """Pooled steady-window moments from a batched ensemble run."""

    z_mean: np.ndarray  # (6+m,) pooled mean of (x, pi_s)
    z_cov: np.ndarray  # (6+m, 6+m) pooled covariance
    innovation_cov_rate: np.ndarray  # (m, m) innovation covariance per unit time
    err_mean: np.ndarray  # (6,) mean of x - pi_x across trajectories
    err_sem: np.ndarray  # (6,) standard error of that mean
    final_states: np.ndarray  # (ntraj, 6+m+6) endpoint (x, pi_s, pi_x), pi_s = Btil pi_x
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
    *,
    sf: StationaryFilter,
) -> EnsembleMoments:
    """Vectorized ensemble run accumulating steady-window moments.

    The pieces form one Loop, stepped by the Euler-Maruyama chain that
    simulate_trajectory steps. Only the window, the last WINDOW_FRACTION of
    the run, is read. The steps before it are crossed exactly (see _cross):
    trajectory k draws the window's first state from the chain's law after
    window_start steps, as the first 12 normals of its stream times the
    law's symmetric square root, then steps the window on that stream's
    next CHUNK blocks. So every returned
    moment has the law that step-by-step stepping from the start would give,
    though not its realization. The window's rows [innovation, pi_s, s] go
    into one Gram matrix and one per-trajectory row sum, a sub-block at a time.
    Memory stays bounded: only these accumulators, one noise block per batch
    and the stepping buffer are held. A chain that
    diverges before the window raises SimulationUnstableError at
    window_start, before its law is factorized. Nothing reads `source` until
    the signature takes the loop (ROADMAP item 1).
    """
    if n_traj < 2:
        raise ValueError("need at least 2 trajectories")
    loop = Loop(params=params, enc=enc, noise=noise, mm=mm, sf=sf, g=g)
    m = mm.n_channels
    dz = 6 + m
    n_steps = cfg.n_steps
    window_start = n_steps - max(1, int(round(WINDOW_FRACTION * n_steps)))

    M, bound = _step_map(cfg, loop)
    Phi, Q, mean = _cross(M, 12, window_start)
    cov = Q + 0.5 * Phi[:6].T @ Phi[:6]  # Phi^T V_0 Phi + Q with V_0 = diag(I/2, 0)
    spread = np.abs(mean[:6]) + np.sqrt(np.abs(np.diag(cov)[:6]))  # |x|'s scale at window_start
    _check_bound(float(np.max(spread)), bound, window_start)
    # The symmetric root U sqrt(w) U^T = L diag(1/|L_k|) L^T of L = U sqrt(w).
    # L alone depends on eigh's basis within each repeated eigenvalue's
    # eigenspace (the law has several), so a rounding-level change in cov
    # would redraw every start; the symmetric root moves by about sqrt(eps).
    L = noise_factor(cov)
    norms = np.linalg.norm(L, axis=0)
    keep = norms > 0.0
    root = (L[:, keep] / norms[keep]) @ L[:, keep].T
    rngs = [_trajectory_rng(cfg.seed, k) for k in range(n_traj)]
    start = np.vstack([r.standard_normal(12) for r in rngs]) @ root + mean

    gram = np.zeros((m + dz, m + dz))  # of the window's rows [innovation, pi_s, x]
    row_sum = np.zeros((n_traj, 2 * m + 12))  # the rows [innovation, pi_s, s] summed per trajectory

    def accumulate(step, rows):
        nonlocal gram, row_sum
        head = rows[..., : m + dz].reshape(-1, m + dz)  # a view: one row per step and stream
        gram += head.T @ head
        row_sum += rows.sum(axis=(0, 2))

    final = _run_batch(M, bound, rngs, start, window_start + 1, n_steps, accumulate)

    n_pooled = n_traj * (n_steps - window_start)
    mean = row_sum[:, : m + dz].sum(axis=0) / n_pooled  # of [innovation, pi_s, x]
    cov = symmetrize((gram - n_pooled * np.outer(mean, mean)) / (n_pooled - 1))
    z = np.r_[2 * m : m + dz, m : 2 * m]  # the columns of (x, pi_s)
    err_sum = row_sum[:, 2 * m : m + dz] - row_sum[:, m + dz :]
    err_traj = err_sum / (n_steps - window_start)  # per-trajectory window averages
    err_mean = err_traj.mean(axis=0)
    err_sem = err_traj.std(axis=0, ddof=1) / np.sqrt(n_traj)
    return EnsembleMoments(
        z_mean=mean[z],
        z_cov=cov[np.ix_(z, z)],
        innovation_cov_rate=cov[:m, :m] / cfg.dt,
        err_mean=err_mean,
        err_sem=err_sem,
        final_states=np.hstack([final[:, :6], final[:, 6:] @ mm.Btil.T, final[:, 6:]]),
        n_traj=n_traj,
        n_pooled=n_pooled,
    )
