from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_discrete_lyapunov

from memlqg import closedloop
from memlqg.acceptance import reference_params
from memlqg.closedloop import LoopBuilder
from memlqg.control import Gains
from memlqg.estimation import StationaryFilter, filter_view_noise
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
from memlqg.openloop import steady_state, system_matrices
from memlqg.simulate import (
    CHUNK,
    LIFT,
    SimulationUnstableError,
    TrajectoryConfig,
    ensemble_moments,
    innovation_diagnostics,
    noise_factor,
    _affine_step,
    _block_map,
    _lift,
    simulate_trajectory,
)

ENC = standard_encoding(-3.0)
SRC = SourceSpec(alpha_in=-3.0)
P = MemoryParams(nu=4.0, gamma=1.0, n_occ=1.0)
NOISE = standard_noise(vacuum(), -1.0, P)


def make_loop(mode="s1", r=1e-3, params=P, noise=NOISE, enc=ENC):
    return LoopBuilder(params, enc)(noise, mode, r)


def ensemble(cfg, loop, n_traj, **kwargs):
    """ensemble_moments on the pieces of `loop`."""
    return ensemble_moments(
        cfg, loop.params, loop.enc, loop.noise, loop.mm, loop.g, SRC,
        n_traj=n_traj, sf=loop.sf, **kwargs,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.0, duration=1.0, seed=1)
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.1, duration=0.05, seed=1)
    cfg = TrajectoryConfig(dt=0.1, duration=1.04, seed=1)
    assert cfg.n_steps == 10


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


def test_batched_ensemble_matches_single_runs_exactly(monkeypatch):
    """The batch kernel must consume per-trajectory noise streams identical
    to the one-at-a-time kernel; endpoints agree to rounding. Neither reads
    the augmented model, so both run with build_augmented unavailable."""

    def unavailable(*args, **kwargs):
        raise AssertionError("the Monte Carlo layer built the augmented model")

    monkeypatch.setattr(closedloop, "build_augmented", unavailable)
    loop = make_loop()
    cfg = TrajectoryConfig(dt=0.005, duration=3.0, seed=1234)
    em = ensemble(cfg, loop, 3)
    for k in range(3):
        t = simulate_trajectory(cfg, loop, stream_index=k)
        single = np.concatenate([t.x[-1], t.pi_s[-1], t.pi_x[-1]])
        assert np.abs(single - em.final_states[k]).max() < 1e-12


@pytest.mark.parametrize("window_start", [3 * CHUNK + 56, 3 * CHUNK - 1])
def test_ensemble_moments_match_recorded_paths(monkeypatch, window_start):
    """Skipped noise blocks, a window that starts mid-block (or on the last
    step of a block) and a partial tail block: the moments pooled by the
    ensemble (skip-ahead plus Gram accumulation) equal those pooled from the
    recorded single paths."""
    maps = []

    def spy(M, c, b):
        maps.append(b)
        return _block_map(M, c, b)

    monkeypatch.setattr(simulate, "_block_map", spy)
    loop = make_loop()
    n_steps = 4 * CHUNK + 100
    window = n_steps - window_start
    cfg = TrajectoryConfig(dt=0.005, duration=n_steps * 0.005, seed=99)
    assert cfg.n_steps == n_steps
    em = ensemble(cfg, loop, 3, window_fraction=window / n_steps)
    assert maps == [CHUNK] and em.n_pooled == 3 * window

    paths = [simulate_trajectory(cfg, loop, stream_index=k) for k in range(3)]
    z = np.vstack([np.hstack([t.x, t.pi_s])[window_start + 1 :] for t in paths])
    inn = np.vstack([t.innovations[window_start:] for t in paths])
    err = [(t.x - t.pi_x)[window_start + 1 :].mean(axis=0) for t in paths]
    final = [np.concatenate([t.x[-1], t.pi_s[-1], t.pi_x[-1]]) for t in paths]
    for got, expected in (
        (em.z_cov, np.cov(z.T)),
        (em.innovation_cov_rate, np.cov(inn.T) / cfg.dt),
        (em.err_mean, np.mean(err, axis=0)),
        (em.final_states, np.array(final)),
    ):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def reference_loop(cfg, loop, sysm, stream_index=0):
    """The SDE of `sysm` stepped one vector at a time, drawing the stream's
    noise blocks in order; returns rows (x, pi_s, pi_x), innovations and inputs."""
    mm, sf, g = loop.mm, loop.sf, loop.g
    L = noise_factor(NOISE.SigmaW)
    stream = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(stream_index,))
    rng = np.random.default_rng(stream)
    x, pi_s, pi_x = rng.standard_normal(6) * np.sqrt(0.5), np.zeros(mm.n_channels), np.zeros(6)
    n, dt = cfg.n_steps, cfg.dt
    noise = np.vstack([rng.standard_normal((min(CHUNK, n - k), 12)) for k in range(0, n, CHUNK)])
    states, innovations, inputs = [np.concatenate([x, pi_s, pi_x])], [], []
    for w in noise:
        u = g.Fgain @ pi_s if cfg.control_enabled else np.zeros(6)
        dw = np.sqrt(dt) * (L @ w)
        dy = mm.C @ x * dt + mm.D @ dw
        inn = dy - np.sqrt(2.0 * P.nu) * pi_s * dt
        x = x + dt * (sysm.A @ x + u + sysm.drive) + sysm.B @ dw
        pi_s = pi_s + dt * (-P.damping * pi_s + mm.Btil @ u) + sf.Ktil @ inn
        pi_x = pi_x + dt * (sysm.A @ pi_x + u + sysm.drive) + sf.K @ (dy - mm.C @ pi_x * dt)
        states.append(np.concatenate([x, pi_s, pi_x]))
        innovations.append(inn)
        inputs.append(u)
    return np.array(states), np.array(innovations), np.array(inputs)


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


def test_euler_maruyama_bias_is_first_order_in_dt():
    """At check 9's point, the stationary covariance of the map the engine
    runs (a discrete Lyapunov solve) sits O(dt) from the continuous Vz, and
    its innovation rate carries the dt H Vz H^T term on top of R."""
    params = reference_params()
    enc = standard_encoding(-230.0)
    loop = LoopBuilder(params, enc)(standard_noise(vacuum(), -0.4, params), "s1", 1e-9)
    vz, k = loop.Vz, loop.Vz.shape[0]

    def stationary(dt):
        cfg = TrajectoryConfig(dt=dt, duration=dt, seed=0)
        M, _ = _affine_step(cfg, loop, system_matrices(params, enc))
        n = M.shape[0] - 12
        phi, gam, h, j = M[:n, :n].T, M[n:, :n].T, M[:n, n:].T, M[n:, n:].T
        S = solve_discrete_lyapunov(phi, gam @ gam.T)
        rel = np.linalg.norm(S[:k, :k] - vz) / np.linalg.norm(vz)
        return rel, (h @ S @ h.T + j @ j.T) / dt

    dt = 2e-3 / (params.nu + params.gamma)
    rel, innovation_rate = stationary(dt)
    assert 1e-4 < rel < 1e-3
    assert rel / stationary(dt / 2)[0] == pytest.approx(2.0, abs=0.05)
    H = np.hstack([loop.mm.C, -np.sqrt(2.0 * params.nu) * np.eye(k - 6)])
    expected = loop.mm.innovation_cov + dt * H @ vz @ H.T
    assert np.linalg.norm(innovation_rate - expected) <= 1e-5 * np.linalg.norm(expected)


def test_lifted_map_composes_one_step_map():
    """M_b on random rows [s, w_0 .. w_{b-1}] equals b one-step maps in turn;
    for b = 1 the lifted map is the one-step map itself."""
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=1)
    M, c = _affine_step(cfg, make_loop(), system_matrices(P, ENC))
    M1, c1 = _lift(M, c, 1)
    assert np.array_equal(M1, M) and np.array_equal(c1, c)

    b, n = LIFT, M.shape[0] - 12
    Mb, cb = _lift(M, c, b)
    assert Mb.shape == (n + 12 * b, b * len(c))
    rows = np.random.default_rng(7).standard_normal((5, n + 12 * b))
    s, states, innovations = rows[:, :n], [], []
    for j in range(b):
        out = np.hstack([s, rows[:, n + 12 * j : n + 12 * (j + 1)]]) @ M + c
        s = out[:, :n]
        states.append(s)
        innovations.append(out[:, n:])
    expected = np.hstack(states + innovations)
    lifted = rows @ Mb + cb
    assert np.abs(lifted - expected).max() <= 1e-13 * np.abs(expected).max()


def test_block_map_composes_one_step_map():
    """(Phi_b, G_b, c_b) on random rows [s, w_0 .. w_{b-1}] equals b one-step
    maps in turn; for b = 1 it is the state part of the one-step map itself."""
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=1)
    M, c = _affine_step(cfg, make_loop(), system_matrices(P, ENC))
    n = M.shape[0] - 12
    Phi1, G1, c1 = _block_map(M, c, 1)
    assert np.array_equal(Phi1, M[:n, :n]) and np.array_equal(G1, M[n:, :n])
    assert np.array_equal(c1, c[:n])

    b = CHUNK
    Phi, G, cb = _block_map(M, c, b)
    assert Phi.shape == (n, n) and G.shape == (12 * b, n)
    rows = np.random.default_rng(7).standard_normal((5, n + 12 * b))
    s = rows[:, :n]
    for j in range(b):
        s = (np.hstack([s, rows[:, n + 12 * j : n + 12 * (j + 1)]]) @ M + c)[:, :n]
    crossed = rows[:, :n] @ Phi + rows[:, n:] @ G + cb
    assert np.abs(crossed - s).max() <= 1e-13 * np.abs(s).max()


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
    assert_allclose(t.expected_innovation_cov, mm.innovation_cov)


def test_coarse_step_is_rejected():
    cfg = TrajectoryConfig(dt=0.05, duration=1.0, seed=3)  # dt*(nu+gamma)=0.25
    with pytest.raises(ValueError, match="too coarse"):
        simulate_trajectory(cfg, make_loop())


def test_unstable_loop_is_detected():
    loop = make_loop()
    g0 = loop.g
    runaway = Gains(P=g0.P.copy(), Fgain=-80.0 * g0.Fgain, f1=g0.f1, f2=g0.f2)
    cfg = TrajectoryConfig(dt=0.01, duration=10.0, seed=5)
    with np.errstate(all="ignore"), pytest.raises(SimulationUnstableError):
        simulate_trajectory(cfg, replace(loop, g=runaway))


def test_unstable_ensemble_is_detected():
    """The batched path crosses each noise block before its window with one
    state-only map; a loop that diverges inside such a block (here the
    second, with a finite block map) must stop at that block's end."""
    loop = make_loop()
    g0 = loop.g
    runaway = Gains(P=g0.P.copy(), Fgain=-0.1 * g0.Fgain, f1=g0.f1, f2=g0.f2)
    cfg = TrajectoryConfig(dt=0.01, duration=20.0, seed=5)  # window from step 1600
    with np.errstate(all="ignore"), pytest.raises(SimulationUnstableError) as err:
        ensemble(cfg, replace(loop, g=runaway), 3)
    assert err.value.step % CHUNK == 0 and CHUNK < err.value.step <= 1600


def test_ensemble_argument_validation():
    loop = make_loop()
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=3)
    with pytest.raises(ValueError):
        ensemble(cfg, loop, 1)
    with pytest.raises(ValueError):
        ensemble(cfg, loop, 4, window_fraction=0.0)


def test_uncontrolled_lossless_vacuum_reaches_ground_state():
    """No loss, no drive, vacuum inputs: every quadrature variance settles
    at 1/2 and the mean at zero."""
    p = MemoryParams(nu=1.0, gamma=0.0, n_occ=0.0)
    noise0 = standard_noise(vacuum(), 0.0, p)
    loop = make_loop(r=1.0, params=p, noise=noise0, enc=standard_encoding(0.0))
    cfg = TrajectoryConfig(dt=0.01, duration=60.0, seed=556, control_enabled=False)
    em = ensemble(cfg, loop, 400)
    d = np.diag(em.z_cov[:6, :6])
    assert np.abs(d - 0.5).max() / 0.5 < 0.06
    assert np.abs(em.z_mean[:6]).max() < 0.05


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
    rep = innovation_diagnostics(traj)
    assert rep.cov_pass and rep.whiteness_pass and rep.mean_pass
    assert rep.all_pass


def test_wrong_gain_breaks_innovation_whiteness():
    """Doubling the filter gain leaves the loop stable but the innovation
    sequence visibly autocorrelated — the diagnostics must flag it."""
    p = MemoryParams(nu=1.0, gamma=1.0, n_occ=1.0)
    loop = make_loop(r=1.0, params=p, noise=standard_noise(vacuum(), -2.0, p))
    sf = loop.sf
    bad = StationaryFilter(Vc=sf.Vc.copy(), K=2.0 * sf.K, Ktil=2.0 * sf.Ktil)
    cfg = TrajectoryConfig(dt=0.025, duration=500.0, seed=901)
    traj = simulate_trajectory(cfg, replace(loop, sf=bad))
    rep = innovation_diagnostics(traj)
    assert not rep.whiteness_pass
    assert not rep.all_pass


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
    S = loop.mm.cross_cov
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


def test_innovation_diagnostics_guards():
    short = simulate_trajectory(TrajectoryConfig(dt=0.01, duration=0.05, seed=10), make_loop())
    with pytest.raises(ValueError, match="few"):
        innovation_diagnostics(short)
