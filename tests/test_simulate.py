import mmap
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_discrete_lyapunov

from memlqg import closedloop
from memlqg.acceptance import reference_params
from memlqg.closedloop import LoopBuilder
from memlqg.control import Gains
from memlqg.estimation import (
    StationaryFilter,
    filter_view_noise,
    measurement_model,
    stationary_filter,
)
from memlqg.model import (
    MemoryParams,
    SourceSpec,
    noise_model,
    lambda_matrix,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    vacuum,
)
from memlqg import simulate
from memlqg.numerics import symmetrize
from memlqg.openloop import steady_state, system_matrices
from memlqg.simulate import (
    CHUNK,
    LIFT,
    SimulationUnstableError,
    TrajectoryConfig,
    WINDOW_FRACTION,
    ensemble_moments,
    noise_factor,
    _affine_step,
    _cross,
    _lift,
    _mapped,
    simulate_trajectory,
)

ENC = standard_encoding(-3.0)
SRC = SourceSpec(alpha_in=-3.0)
P = MemoryParams(nu=4.0, gamma=1.0, n_occ=1.0)
NOISE = standard_noise(vacuum(), -1.0, P)


def make_loop(mode="s1", r=1e-3, params=P, noise=NOISE, enc=ENC):
    return LoopBuilder(params, enc)(noise, mode, r)


def ensemble(cfg, loop, n_traj):
    """ensemble_moments on the pieces of `loop`."""
    return ensemble_moments(
        cfg, loop.params, loop.enc, loop.noise, loop.mm, loop.g, SRC, n_traj=n_traj, sf=loop.sf
    )


def innovation_statistics(traj, dt, expected):
    """Covariance-rate relative error, lag-1 autocorrelation per channel and
    mean z-score per channel of a recorded innovation sequence whose
    covariance per unit time should be `expected`."""
    inn = traj.innovations
    n = len(inn)
    mean = inn.mean(axis=0)
    centered = inn - mean
    cov_rate = (centered.T @ centered) / ((n - 1) * dt)
    cov_rel = np.linalg.norm(cov_rate - expected) / np.linalg.norm(expected)
    lag1 = (centered[1:] * centered[:-1]).mean(axis=0) / centered.var(axis=0)
    z = mean * np.sqrt(n) / np.sqrt(np.diag(expected) * dt)
    return cov_rel, lag1, z


def test_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.0, duration=1.0, seed=1)
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.1, duration=0.05, seed=1)
    cfg = TrajectoryConfig(dt=0.1, duration=1.04, seed=1)
    assert cfg.n_steps == 10


@pytest.mark.parametrize("name", ["dt", "duration"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_config_refuses_non_finite_times(name, bad):
    values = dict(dt=0.1, duration=1.0) | {name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        TrajectoryConfig(seed=1, **values)


def test_repeat_run_is_bit_identical():
    loop = make_loop()
    cfg = TrajectoryConfig(dt=0.01, duration=2.0, seed=77)
    a = simulate_trajectory(cfg, loop)
    b = simulate_trajectory(cfg, loop)
    for name in ("x", "pi_s", "pi_x", "u", "innovations", "times"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert "am" not in vars(loop)  # stepping never assembles the augmented model


def test_streams_are_independent():
    loop = make_loop()
    cfg = TrajectoryConfig(dt=0.01, duration=2.0, seed=77)
    a = simulate_trajectory(cfg, loop, stream_index=0)
    b = simulate_trajectory(cfg, loop, stream_index=1)
    assert not np.allclose(a.x, b.x)
    # and a different seed moves stream 0
    cfg2 = TrajectoryConfig(dt=0.01, duration=2.0, seed=78)
    c = simulate_trajectory(cfg2, loop, stream_index=0)
    assert not np.allclose(a.x, c.x)


def test_ensemble_trajectory_does_not_depend_on_batch_size(monkeypatch):
    """Each stream's draws do not depend on the batch: trajectory k ends at
    the same state, to rounding, in an ensemble of 3 and one of 5. Neither
    run reads the augmented model, so both run with build_augmented
    unavailable."""

    def unavailable(*args, **kwargs):
        raise AssertionError("the Monte Carlo layer built the augmented model")

    monkeypatch.setattr(closedloop, "build_augmented", unavailable)
    loop = make_loop()
    cfg = TrajectoryConfig(dt=0.005, duration=3.0, seed=1234)
    three, five = ensemble(cfg, loop, 3), ensemble(cfg, loop, 5)
    assert np.abs(three.final_states - five.final_states[:3]).max() < 1e-12
    assert not np.allclose(five.final_states[3], five.final_states[4])


def test_ensemble_rerun_is_bit_identical():
    loop = make_loop()
    cfg = TrajectoryConfig(dt=0.005, duration=3.0, seed=1234)
    a, b = ensemble(cfg, loop, 4), ensemble(cfg, loop, 4)
    for name in ("z_mean", "z_cov", "innovation_cov_rate", "err_mean", "err_sem", "final_states"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def stream(seed, k):
    """Trajectory k's noise stream, as the stream contract states it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def reference_loop(cfg, loop, sysm, stream_index=0, crossed=None):
    """The SDE of `sysm` stepped one vector at a time, drawing the stream's
    noise blocks in order; returns rows (x, pi_s, pi_x), innovations and inputs.

    pi_s is the syndrome filter's own recursion, dpi_s = (-c pi_s + Btil (u +
    drive)) dt + Ktil (dy - sqrt(2 nu) pi_s dt), not read off pi_x (Btil
    annihilates the memory's own drive, not every test's); pi_x takes the
    full-state filter's innovation dy - C pi_x dt. The run starts from the
    stream's initial plant state, or, given crossed = (N, (x_N, pi_x_N)),
    from there after step N with pi_s = Btil pi_x_N: the stream's first 12
    normals are taken to have drawn it, and the remaining steps follow.
    Each step draws 6 + m normals w and takes the plant and record noise
    [B dw, D dw] as sqrt(dt) L w, from its own factor L L^T = K SigmaW K^T
    with K = [B; D].
    """
    mm, sf, g = loop.mm, loop.sf, loop.g
    m = mm.n_channels
    K = np.vstack([sysm.B, mm.D])
    L = noise_factor(K @ NOISE.SigmaW @ K.T)
    rng = stream(cfg.seed, stream_index)
    if crossed is None:
        first, s0 = 0, np.concatenate([rng.standard_normal(6) * np.sqrt(0.5), np.zeros(6)])
    else:
        first, s0 = crossed
        rng.standard_normal(12)
    x, pi_x = s0[:6], s0[6:]
    pi_s = mm.Btil @ pi_x
    n, dt = cfg.n_steps - first, cfg.dt
    noise = np.vstack(
        [rng.standard_normal((min(CHUNK, n - k), 6 + m)) for k in range(0, n, CHUNK)]
    )
    states, innovations, inputs = [np.concatenate([x, pi_s, pi_x])], [], []
    for w in noise:
        u = g.Fgain @ pi_s if cfg.control_enabled else np.zeros(6)
        dv = np.sqrt(dt) * (L @ w)  # (B dw, D dw)
        dy = mm.C @ x * dt + dv[6:]
        inn = dy - np.sqrt(2.0 * P.nu) * pi_s * dt
        x = x + dt * (sysm.A @ x + u + sysm.drive) + dv[:6]
        pi_s = pi_s + dt * (-P.damping * pi_s + mm.Btil @ (u + sysm.drive)) + sf.Ktil @ inn
        pi_x = pi_x + dt * (sysm.A @ pi_x + u + sysm.drive) + sf.K @ (dy - mm.C @ pi_x * dt)
        states.append(np.concatenate([x, pi_s, pi_x]))
        innovations.append(inn)
        inputs.append(u)
    return np.array(states), np.array(innovations), np.array(inputs)


@pytest.mark.parametrize("n_steps", [1, 1030, 1601])
def test_ensemble_window_matches_per_step_reference(monkeypatch, n_steps):
    """The window starts from the crossed law, drawn with each stream's first
    12 normals times the law's symmetric square root (N = 0 for a
    one-step run), and its moments and endpoints equal those of the literal
    per-step loop started from that state on the same stream: a window
    shorter than one noise block and one with a partial tail block."""
    starts = []

    def spy(M, bound, rngs, start, first_step, n, consume):
        starts.append((first_step, start.copy()))
        return run_batch(M, bound, rngs, start, first_step, n, consume)

    run_batch = simulate._run_batch
    monkeypatch.setattr(simulate, "_run_batch", spy)
    loop = make_loop()
    sysm = system_matrices(P, ENC)
    cfg = TrajectoryConfig(dt=0.005, duration=n_steps * 0.005, seed=99)
    window_start = n_steps - max(1, round(WINDOW_FRACTION * n_steps))
    em = ensemble(cfg, loop, 3)
    assert em.n_pooled == 3 * (n_steps - window_start)

    M = _affine_step(cfg, loop, sysm)
    Phi, Q, mean = _cross(M, 12, window_start)
    V0 = np.diag(np.r_[np.full(6, 0.5), np.zeros(6)])
    w, U = np.linalg.eigh(Phi.T @ V0 @ Phi + Q)
    root = (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T
    normals = [stream(cfg.seed, k).standard_normal(len(mean)) for k in range(3)]
    draws = np.vstack(normals) @ root
    (first_step, start), = starts
    assert first_step == window_start + 1
    # a singular law's root moves by ~sqrt(eps) when the law moves by rounding
    assert np.abs(start - mean - draws).max() <= 1e-7 * np.abs(draws).max()
    paths = [reference_loop(cfg, loop, sysm, k, (window_start, start[k])) for k in range(3)]

    m = loop.mm.n_channels
    z = np.vstack([states[1:, : 6 + m] for states, _, _ in paths])
    inn = np.vstack([innovations for _, innovations, _ in paths])
    err = [(states[1:, :6] - states[1:, 6 + m :]).mean(axis=0) for states, _, _ in paths]
    final = [states[-1] for states, _, _ in paths]
    for got, expected in (
        (em.z_mean, z.mean(axis=0)),
        (em.z_cov, np.cov(z.T)),
        (em.innovation_cov_rate, np.cov(inn.T) / cfg.dt),
        (em.err_mean, np.mean(err, axis=0)),
        (em.final_states, np.array(final)),
    ):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("n", [1, 15, 17, CHUNK + 19, 2 * CHUNK + 7])
@pytest.mark.parametrize("control", [True, False])
def test_affine_kernel_matches_per_step_reference(control, n, monkeypatch):
    """Runs shorter than, between and beyond lifted steps and noise blocks,
    stepped by the lifted affine kernel and by the literal per-step loop,
    agree to rounding. The engine is handed a drive the syndromes see, so
    the lifted map's constant reaches the innovations."""
    loop = make_loop()
    sysm = replace(system_matrices(P, ENC), drive=np.array([3.0, -1.0, 0.0, 2.0, 0.0, 0.0]))
    monkeypatch.setattr(simulate, "system_matrices", lambda params, enc: sysm)
    cfg = TrajectoryConfig(dt=0.01, duration=n * 0.01, seed=42, control_enabled=control)
    assert cfg.n_steps == n
    t = simulate_trajectory(cfg, loop, stream_index=3)
    states, innovations, inputs = reference_loop(cfg, loop, sysm, stream_index=3)
    assert_allclose(np.hstack([t.x, t.pi_s, t.pi_x]), states, rtol=0, atol=1e-12)
    assert_allclose(t.innovations, innovations, rtol=0, atol=1e-12)
    assert_allclose(t.u[:-1], inputs, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1030, 1601])
def test_sub_blocks_that_split_noise_blocks_match_per_step_reference(monkeypatch, n):
    """The same two reference checks with sub-blocks shorter than a noise
    block, as at large batches: 7 steps for an ensemble of 3 and two lifted
    steps (32 steps) for a single trajectory, so sub-blocks end inside a
    noise block and carry the state across."""
    monkeypatch.setattr(simulate, "SUB_ROWS", 21)
    test_ensemble_window_matches_per_step_reference(monkeypatch, n)
    monkeypatch.setattr(simulate, "SUB_ROWS", 40)
    test_affine_kernel_matches_per_step_reference(True, n, monkeypatch)


def test_euler_maruyama_bias_is_first_order_in_dt():
    """At check 9's point, the stationary covariance of the map the engine
    runs (a discrete Lyapunov solve) sits O(dt) from the continuous Vz, and
    its innovation rate carries the dt H Vz H^T term on top of R."""
    params = reference_params()
    enc = standard_encoding(-230.0)
    loop = LoopBuilder(params, enc)(standard_noise(vacuum(), -0.4, params), "s1", 1e-9)
    vz, k = loop.Vz, loop.Vz.shape[0]

    m, n = loop.mm.n_channels, 12
    E = np.zeros((k, n))  # (x, pi_x) -> (x, pi_s)
    E[:6, :6], E[6:, 6:] = np.eye(6), loop.mm.Btil

    def stationary(dt):
        cfg = TrajectoryConfig(dt=dt, duration=dt, seed=0)
        M = _affine_step(cfg, loop, system_matrices(params, enc))
        phi, gam, h, j = M[:n, -n:].T, M[n:-1, -n:].T, M[:n, :m].T, M[n:-1, :m].T
        S = solve_discrete_lyapunov(phi, gam @ gam.T)
        rel = np.linalg.norm(E @ S @ E.T - vz) / np.linalg.norm(vz)
        return rel, (h @ S @ h.T + j @ j.T) / dt

    dt = 2e-3 / (params.nu + params.gamma)
    rel, innovation_rate = stationary(dt)
    assert 1e-4 < rel < 1e-3
    assert rel / stationary(dt / 2)[0] == pytest.approx(2.0, abs=0.05)
    H = np.hstack([loop.mm.C, -np.sqrt(2.0 * params.nu) * np.eye(k - 6)])
    expected = loop.mm.innovation_cov + dt * H @ vz @ H.T
    assert np.linalg.norm(innovation_rate - expected) <= 1e-5 * np.linalg.norm(expected)


def test_lifted_map_composes_one_step_map():
    """M_b on random rows [s, w_0 .. w_{b-1}, 1] equals b one-step maps in
    turn, step by step: its columns reshape to b rows [inn_j, pi_s_{j+1},
    s_{j+1}]. For b = 1 the lifted map is the one-step map itself."""
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=1)
    loop = make_loop()
    M = _affine_step(cfg, loop, system_matrices(P, ENC))
    m = loop.mm.n_channels
    n, p = 12, 6 + m
    assert M.shape == (n + p + 1, 2 * m + n)
    assert np.array_equal(_lift(M, n, 1), M)

    b = LIFT
    Mb = _lift(M, n, b)
    assert Mb.shape == (n + p * b + 1, b * (2 * m + n))
    rows = np.random.default_rng(7).standard_normal((5, n + p * b + 1))
    rows[:, -1] = 1.0
    s, steps = rows[:, :n], []
    for j in range(b):
        out = np.hstack([s, rows[:, n + p * j : n + p * (j + 1)], rows[:, -1:]]) @ M
        s = out[:, 2 * m :]
        steps.append(out)
    expected = np.stack(steps, axis=1)  # (5, b, 2m + n): [inn_j, pi_s_{j+1}, s_{j+1}] per step
    lifted = (rows @ Mb).reshape(5, b, 2 * m + n)
    assert np.abs(lifted - expected).max() <= 1e-13 * np.abs(expected).max()


def check9_setting(mode, r, control=True, gamma_hz=1.0):
    """Loop, one-step config and system matrices at check 9's operating point and step."""
    params = reference_params(gamma_hz=gamma_hz)
    enc = standard_encoding(-230.0)
    loop = LoopBuilder(params, enc)(standard_noise(vacuum(), -0.4, params), mode, r)
    dt = 2e-3 / (params.nu + params.gamma)
    cfg = TrajectoryConfig(dt=dt, duration=dt, seed=0, control_enabled=control)
    return loop, cfg, system_matrices(params, enc)


@pytest.fixture(
    scope="module", params=[("s1", 1e-9), ("s2", 1e-9), ("s1", 1e-15)], ids=["s1", "s2", "cheap"]
)
def check9_step(request):
    """One-step map M and state width n at check 9's operating point and step."""
    loop, cfg, sysm = check9_setting(*request.param)
    return _affine_step(cfg, loop, sysm), 12


@pytest.mark.parametrize("N", [1, 2, 3, 255, 12000])
def test_cross_matches_step_composition_and_discrete_lyapunov(check9_step, N):
    """The law of N steps equals N one-step compositions of (Phi, Q, c), and
    Q_N equals X - Phi_N^T X Phi_N for the stationary covariance X of the
    one-step chain, both to 1e-12 relative."""
    M, n = check9_step
    Phi1, Gamma, c = M[:n, -n:], M[n:-1, -n:], M[-1, -n:]
    Phi, Q, cN = _cross(M, n, N)
    Phi_b, Q_b, c_b = np.eye(n), np.zeros((n, n)), np.zeros(n)
    for _ in range(N):
        Phi_b, Q_b, c_b = Phi_b @ Phi1, Phi1.T @ Q_b @ Phi1 + Gamma.T @ Gamma, c_b @ Phi1 + c
    X = solve_discrete_lyapunov(Phi1.T, Gamma.T @ Gamma)
    for got, expected in ((Phi, Phi_b), (Q, Q_b), (cN, c_b), (Q, X - Phi.T @ X @ Phi)):
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
    assert np.array_equal(Q, Q.T)
    assert np.array_equal(_cross(M, n, 0)[0], np.eye(n)) and not _cross(M, n, 0)[1].any()


def literal_step_map(cfg, loop, sysm):
    """The module docstring's SDE with the 12-dimensional increment
    dw = sqrt(dt) L w, L L^T = SigmaW, evaluated on unit rows [s, w, 1]:
    columns [innovation, pi_s_next, s_next]. pi_s_next is the syndrome
    filter's own recursion from pi_s = Btil pi_x, not read off pi_x_next."""
    params, mm, sf, g = loop.params, loop.mm, loop.sf, loop.g
    dt = cfg.dt
    L = noise_factor(loop.noise.SigmaW)
    unit = np.eye(12 + 13)
    x, pi_x, w, one = unit[:, :6], unit[:, 6:12], unit[:, 12:-1], unit[:, -1]
    pi_s = pi_x @ mm.Btil.T
    u = pi_s @ g.Fgain.T if cfg.control_enabled else np.zeros_like(x)
    drive = np.outer(one, sysm.drive)
    dw = np.sqrt(dt) * (w @ L.T)
    dy = dt * (x @ mm.C.T) + dw @ mm.D.T
    innovation = dy - np.sqrt(2.0 * params.nu) * dt * pi_s
    x_next = x + dt * (x @ sysm.A.T + u + drive) + dw @ sysm.B.T
    pi_s_next = pi_s + dt * (-params.damping * pi_s + u @ mm.Btil.T) + innovation @ sf.Ktil.T
    pi_x_next = pi_x + dt * (pi_x @ sysm.A.T + u + drive) + innovation @ sf.K.T
    return np.hstack([innovation, pi_s_next, x_next, pi_x_next])


@pytest.mark.parametrize("control", [True, False], ids=["on", "off"])
@pytest.mark.parametrize(
    "mode, r, gamma_hz",
    [("s1", 1e-9, 1.0), ("s2", 1e-9, 1.0), ("s1", 1e-15, 1.0), ("s1", 1e-9, 0.0)],
    ids=["s1", "s2", "cheap", "lossless"],
)
def test_reduced_noise_has_the_literal_step_law(mode, r, gamma_hz, control):
    """A step draws 6 + m normals, not the 12 of dw, and keeps the step's law:
    the map's deterministic part (Phi, c) is bit-identical to the literal
    SDE's in the innovation and state columns, and the one-step noise
    covariance Gamma^T Gamma of [innovation, pi_s_next, s_next] equals the
    literal one to 1e-11 relative. The pi_s column, Btil pi_x_next in the
    map and the syndrome filter's recursion in the literal SDE, agrees to
    rounding: 1e-14 relative, against a measured 3e-16 at most."""
    loop, cfg, sysm = check9_setting(mode, r, control, gamma_hz)
    M, literal = _affine_step(cfg, loop, sysm), literal_step_map(cfg, loop, sysm)
    m, n = loop.mm.n_channels, 12
    assert M.shape == (n + 6 + m + 1, 2 * m + n) and literal.shape == (n + 13, 2 * m + n)
    rows = np.r_[:n, -1]  # the deterministic part: state rows, constant row
    cols = np.r_[:m, 2 * m : 2 * m + n]  # innovation and state columns
    assert np.array_equal(M[np.ix_(rows, cols)], literal[np.ix_(rows, cols)])
    pi_s, expected = M[rows, m : 2 * m], literal[rows, m : 2 * m]
    assert np.linalg.norm(pi_s - expected) <= 1e-14 * np.linalg.norm(expected)
    Q, expected = M[n:-1].T @ M[n:-1], literal[n:-1].T @ literal[n:-1]
    assert np.linalg.norm(Q - expected) <= 1e-11 * np.linalg.norm(expected)


@pytest.mark.parametrize("known", [True, False], ids=["informed", "blind"])
@pytest.mark.parametrize("mode", ["s1", "s2"])
def test_syndrome_estimate_is_rows_of_the_full_estimate(mode, known):
    """The kernel steps pi_x alone and reads pi_s = Btil pi_x, which obeys
    the syndrome filter's recursion because C = sqrt(2 nu) Btil exactly and
    Btil K = Ktil to rounding: 1e-14 relative, against a measured 2.2e-16 at
    most over both modes and filter views, three memories, two encodings,
    three payloads and five squeezings. The gain also stays in the measured
    subspace, K = Btil^T Ktil (measured 0 over the same filters), which
    Btil K = Ktil alone misses for a gain K + (I - Btil^T Btil) E."""
    params = reference_params()
    enc = standard_encoding(-230.0)
    for mu in (-20.0, -0.4, 3.0):
        noise = standard_noise(squeezed_vacuum(1.0), mu, params)
        view = filter_view_noise(noise, SourceSpec(0.0, covariance_known=known), params)
        mm = measurement_model(mode, enc, params, view)
        sf = stationary_filter(mm, params, enc, view)
        assert np.array_equal(mm.C, np.sqrt(2.0 * params.nu) * mm.Btil)
        assert np.linalg.norm(mm.Btil @ sf.K - sf.Ktil) <= 1e-14 * np.linalg.norm(sf.Ktil)
        assert np.linalg.norm(sf.K - mm.Btil.T @ sf.Ktil) <= 1e-14 * np.linalg.norm(sf.Ktil)


def mapping_of(a):
    """The object at the bottom of a's chain of bases."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_mapped_arrays_have_their_own_mapping():
    """The helper's arrays, and a trajectory's record, sit on fresh page-aligned
    mappings, not in the heap."""
    buf = _mapped(3, CHUNK, 9)
    assert buf.shape == (3, CHUNK, 9) and buf.dtype == np.float64
    assert buf.flags.writeable and buf.flags.c_contiguous and not buf.any()
    assert isinstance(mapping_of(buf), mmap.mmap)
    assert buf.ctypes.data % mmap.PAGESIZE == 0
    t = simulate_trajectory(TrajectoryConfig(dt=0.01, duration=1.0, seed=3), make_loop())
    record = mapping_of(t.x)
    assert isinstance(record, mmap.mmap)
    for name in ("pi_s", "pi_x", "innovations"):
        assert mapping_of(getattr(t, name)) is record, name


def test_control_off_leaves_input_zero():
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=3, control_enabled=False)
    t = simulate_trajectory(cfg, make_loop())
    assert np.all(t.u == 0.0)
    # the filter still runs
    assert not np.allclose(t.pi_s, 0.0)


def test_error_band_is_filter_band():
    loop = make_loop()
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=3)
    t = simulate_trajectory(cfg, loop)
    mm = loop.mm
    band = np.sqrt(np.diag(mm.Btil @ loop.sf.Vc @ mm.Btil.T))
    assert_allclose(t.err_band, np.tile(band, (len(t.times), 1)))


def test_coarse_step_is_rejected():
    cfg = TrajectoryConfig(dt=0.05, duration=1.0, seed=3)  # dt*(nu+gamma)=0.25
    with pytest.raises(ValueError, match="too coarse"):
        simulate_trajectory(cfg, make_loop())


def test_unstable_loop_is_detected():
    loop = make_loop()
    g0 = loop.g
    runaway = Gains(P=g0.P.copy(), Fgain=-80.0 * g0.Fgain, f=-80.0 * g0.f)
    cfg = TrajectoryConfig(dt=0.01, duration=10.0, seed=5)
    with np.errstate(all="ignore"), pytest.raises(SimulationUnstableError):
        simulate_trajectory(cfg, replace(loop, g=runaway))


def test_unstable_ensemble_is_detected(monkeypatch):
    """A chain that diverges before the window stops at the window's first
    step, on the crossed law's check, before that law is factorized: with
    runaway feedback gains, and where the step passes _check_dt but a large
    filter gain makes the explicit step expand (spectral radius 22.3)."""
    factored = []

    def spy(cov):
        factored.append(cov.shape)
        return noise_factor(cov)

    monkeypatch.setattr(simulate, "noise_factor", spy)
    loop = make_loop()
    g0 = loop.g
    runaway = Gains(P=g0.P.copy(), Fgain=-0.1 * g0.Fgain, f=-0.1 * g0.f)
    hot = MemoryParams(nu=4.0, gamma=1.0, n_occ=1e6)
    coarse = make_loop(params=hot, noise=standard_noise(vacuum(), -1.0, hot))
    cfg = TrajectoryConfig(dt=0.01, duration=20.0, seed=5)  # window from step 1600
    M = _affine_step(cfg, coarse, system_matrices(hot, ENC))
    assert np.abs(np.linalg.eigvals(M[:12, -12:])).max() > 20.0
    for unstable, cfg, window_start in (
        (replace(loop, g=runaway), cfg, 1600),
        (coarse, TrajectoryConfig(dt=0.005, duration=3.0, seed=5), 480),
    ):
        factored.clear()
        with np.errstate(all="ignore"), pytest.raises(SimulationUnstableError) as err:
            ensemble(cfg, unstable, 3)
        assert err.value.step == window_start
        assert factored == [(9, 9)]  # K SigmaW K^T's factor only


def test_noise_factor_threshold_is_relative():
    """A law with a known null space and an eigenvalue -5e-13 of its
    largest, as rounding leaves on a singular crossed law, is accepted and
    reproduced; the same law at -2e-12 is refused. The hot point's crossed
    law, singular with its largest eigenvalue ~2e5, steps a finite
    ensemble."""
    U = np.linalg.qr(np.random.default_rng(7).standard_normal((12, 12)))[0]
    w = np.concatenate([np.geomspace(1.0, 2e5, 8), np.zeros(3), [-5e-13 * 2e5]])
    cov = symmetrize((U * w) @ U.T)
    assert np.linalg.eigvalsh(cov).min() < -1e-13 * 2e5  # far beyond eigh's rounding
    L = noise_factor(cov)
    assert np.linalg.norm(L @ L.T - cov) <= 1e-12 * np.linalg.norm(cov)
    w[-1] = -2e-12 * 2e5
    with pytest.raises(ValueError, match="not PSD"):
        noise_factor(symmetrize((U * w) @ U.T))
    noise_factor(np.diag([1e4, -1e-9]))
    hot = MemoryParams(nu=4.0, gamma=1.0, n_occ=1e6)
    loop = make_loop(params=hot, noise=standard_noise(vacuum(), -1.0, hot))
    cfg = TrajectoryConfig(dt=2e-4, duration=3.0, seed=5)
    assert np.all(np.isfinite(ensemble(cfg, loop, 2).z_cov))


def test_ensemble_argument_validation():
    loop = make_loop()
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=3)
    with pytest.raises(ValueError):
        ensemble(cfg, loop, 1)


def test_uncontrolled_lossless_vacuum_reaches_ground_state():
    """No loss, no drive, vacuum inputs: every quadrature variance settles
    at 1/2, up to the Euler-Maruyama chain's O(dt) bias, and the mean at
    zero. Both are gated in standard errors of the pooled window moments,
    taken from the chain's stationary autocovariances C(k) = (Phi^T)^k X:
    X solves the discrete Lyapunov equation of the literal SDE's one-step
    map, so the expectation does not come from the engine under test. A
    window's lag k occurs T - |k| times, so Var(mean) = sum (T - |k|) C(k)
    / (N T^2) and, for Gaussian rows, Var(variance) = 2 sum (T - |k|) C(k)^2
    / (N T^2). The multiplier keeps the false-alarm rate at 1e-3 for each
    gate over its six components (two-sided, Bonferroni)."""
    p = MemoryParams(nu=1.0, gamma=0.0, n_occ=0.0)
    enc = standard_encoding(0.0)
    loop = make_loop(r=1.0, params=p, noise=standard_noise(vacuum(), 0.0, p), enc=enc)
    cfg = TrajectoryConfig(dt=0.02, duration=240.0, seed=556, control_enabled=False)
    n_traj = 400
    em = ensemble(cfg, loop, n_traj)

    M = literal_step_map(cfg, loop, system_matrices(p, enc))
    Phi, Gamma = M[:12, -12:], M[12:-1, -12:]
    X = solve_discrete_lyapunov(Phi.T, Gamma.T @ Gamma)
    T = em.n_pooled // n_traj
    C, A = np.empty((T, 6)), X
    for k in range(T):
        C[k], A = np.diag(A)[:6], Phi.T @ A
    lags = np.r_[T, 2 * (T - np.arange(1, T))]  # how often lags 0, ±1, .. occur in a window
    se_mean = np.sqrt(lags @ C / (n_traj * T**2))
    se_var = np.sqrt(2.0 * lags @ C**2 / (n_traj * T**2))
    z = NormalDist().inv_cdf(1.0 - 1e-3 / 12)  # 3.76
    stationary = np.diag(X)[:6]
    assert np.all(np.abs(stationary / 0.5 - 1.0) <= cfg.dt * (p.nu + p.gamma))
    assert np.all(np.abs(em.z_mean[:6]) <= z * se_mean)
    assert np.all(np.abs(np.diag(em.z_cov)[:6] - stationary) <= z * se_var)


def test_feedback_squeezes_syndrome_variance():
    """Sampled syndrome variances must track the moment equations with and
    without control, and control must shrink every channel."""
    loop = make_loop(r=1e-4)
    mm = loop.mm
    theory_on = np.diag(mm.Btil @ loop.Vz[:6, :6] @ mm.Btil.T)
    theory_off = np.diag(mm.Btil @ steady_state(P, ENC, NOISE).cov @ mm.Btil.T)
    kw = dict(dt=0.005, duration=30.0, seed=777)
    em_on = ensemble(TrajectoryConfig(control_enabled=True, **kw), loop, 200)
    em_off = ensemble(TrajectoryConfig(control_enabled=False, **kw), loop, 200)
    s_on = np.diag(mm.Btil @ em_on.z_cov[:6, :6] @ mm.Btil.T)
    s_off = np.diag(mm.Btil @ em_off.z_cov[:6, :6] @ mm.Btil.T)
    assert np.abs(s_on / theory_on - 1.0).max() < 0.10
    assert np.abs(s_off / theory_off - 1.0).max() < 0.10
    assert np.all(s_on < s_off)


def test_innovations_are_white_and_scaled():
    p = MemoryParams(nu=1.0, gamma=1.0, n_occ=1.0)
    loop = make_loop(r=1.0, params=p, noise=standard_noise(vacuum(), -2.0, p))
    cfg = TrajectoryConfig(dt=0.005, duration=300.0, seed=901)
    traj = simulate_trajectory(cfg, loop)
    cov_rel, lag1, z = innovation_statistics(traj, cfg.dt, loop.mm.innovation_cov)
    assert cov_rel < 0.05
    assert np.all(np.abs(lag1) < 0.05)
    assert np.all(np.abs(z) < 3.0)


def test_wrong_gain_breaks_innovation_whiteness():
    """Doubling the filter gain leaves the loop stable but the innovation
    sequence visibly autocorrelated — the whiteness test must flag it."""
    p = MemoryParams(nu=1.0, gamma=1.0, n_occ=1.0)
    loop = make_loop(r=1.0, params=p, noise=standard_noise(vacuum(), -2.0, p))
    sf = loop.sf
    bad = StationaryFilter(Vc=sf.Vc.copy(), K=2.0 * sf.K, Ktil=2.0 * sf.Ktil)
    cfg = TrajectoryConfig(dt=0.025, duration=500.0, seed=901)
    traj = simulate_trajectory(cfg, replace(loop, sf=bad))
    _, lag1, _ = innovation_statistics(traj, cfg.dt, loop.mm.innovation_cov)
    assert not np.all(np.abs(lag1) < 0.05)


def test_plant_and_record_share_noise():
    """The record is driven by the same increments as the plant: the sampled
    cross covariance between plant noise and innovations recovers the
    model's plant/sensor coupling."""
    p = MemoryParams(nu=1.0, gamma=1.0, n_occ=1.0)
    loop = make_loop(r=1.0, params=p, noise=standard_noise(vacuum(), -2.0, p))
    cfg = TrajectoryConfig(dt=0.005, duration=200.0, seed=31)
    traj = simulate_trajectory(cfg, loop)
    sysm = system_matrices(p, ENC)
    dt = cfg.dt
    x, u = traj.x, traj.u
    dx_noise = x[1:] - x[:-1] - dt * (x[:-1] @ sysm.A.T + u[:-1] + sysm.drive)
    S_emp = dx_noise.T @ traj.innovations / (len(traj.innovations) * dt)
    S = sysm.B @ loop.noise.SigmaW @ loop.mm.D.T  # B Sw D^T
    assert np.linalg.norm(S_emp - S) / np.linalg.norm(S) < 0.10


def test_filter_view_noise_masks_unknown_source():
    informed = SourceSpec(alpha_in=0.0, mode=squeezed_vacuum(1.0))
    blind = SourceSpec(alpha_in=0.0, mode=squeezed_vacuum(1.0), covariance_known=False)
    lam = lambda_matrix(squeezed_vacuum(1.0), squeezed_vacuum(-1.0), squeezed_vacuum(-1.0))
    noise = noise_model(lam, P.n_occ)
    assert filter_view_noise(noise, informed, P) is noise
    masked = filter_view_noise(noise, blind, P)
    assert_allclose(masked.Lambda[0:2, 0:2], 0.5 * np.eye(2))
    assert_allclose(masked.Lambda[2:, 2:], lam[2:, 2:])


def test_noise_factor_roundtrip_and_guard():
    L = noise_factor(NOISE.SigmaW)
    assert_allclose(L @ L.T, NOISE.SigmaW, atol=1e-12)
    with pytest.raises(ValueError):
        noise_factor(np.diag([1.0, -0.5]))
