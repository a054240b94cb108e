import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg.closedloop import build_augmented, closed_loop_covariance
from memlqg.control import Gains, LqgConfig, lqg_gains
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
from memlqg.openloop import steady_state, system_matrices
from memlqg.simulate import (
    SimulationUnstableError,
    Trajectory,
    TrajectoryConfig,
    ensemble_moments,
    innovation_diagnostics,
    noise_factor,
    simulate_trajectory,
)

ENC = standard_encoding(-3.0)
SRC = SourceSpec(alpha_in=-3.0)
P = MemoryParams(nu=4.0, gamma=1.0, n_occ=1.0)
NOISE = standard_noise(vacuum(), -1.0, P)


def pieces(mode="s1", r=1e-3, params=P, noise=NOISE):
    mm = measurement_model(mode, ENC, params, noise)
    sf = stationary_filter(mm, params, ENC, noise)
    g = lqg_gains(LqgConfig(r=r, mode=mode), params, ENC)
    return mm, sf, g


def test_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.0, duration=1.0, seed=1)
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.1, duration=0.05, seed=1)
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.1, duration=1.0, seed=1, record_stride=0)
    cfg = TrajectoryConfig(dt=0.1, duration=1.04, seed=1)
    assert cfg.n_steps == 10


def test_repeat_run_is_bit_identical():
    mm, sf, g = pieces()
    cfg = TrajectoryConfig(dt=0.01, duration=2.0, seed=77)
    a = simulate_trajectory(cfg, P, ENC, NOISE, mm, g, SRC, sf=sf)
    b = simulate_trajectory(cfg, P, ENC, NOISE, mm, g, SRC, sf=sf)
    for name in ("x", "pi_s", "pi_x", "u", "innovations", "times"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_streams_are_independent():
    mm, sf, g = pieces()
    cfg = TrajectoryConfig(dt=0.01, duration=2.0, seed=77)
    a = simulate_trajectory(cfg, P, ENC, NOISE, mm, g, SRC, sf=sf, stream_index=0)
    b = simulate_trajectory(cfg, P, ENC, NOISE, mm, g, SRC, sf=sf, stream_index=1)
    assert not np.allclose(a.x, b.x)
    # and a different seed moves stream 0
    cfg2 = TrajectoryConfig(dt=0.01, duration=2.0, seed=78)
    c = simulate_trajectory(cfg2, P, ENC, NOISE, mm, g, SRC, sf=sf, stream_index=0)
    assert not np.allclose(a.x, c.x)


def test_batched_ensemble_matches_single_runs_exactly():
    """The batch kernel must consume per-trajectory noise streams identical
    to the one-at-a-time kernel; endpoints agree to rounding."""
    mm, sf, g = pieces()
    cfg = TrajectoryConfig(dt=0.005, duration=3.0, seed=1234)
    em = ensemble_moments(cfg, P, ENC, NOISE, mm, g, SRC, n_traj=3, sf=sf)
    for k in range(3):
        t = simulate_trajectory(cfg, P, ENC, NOISE, mm, g, SRC, sf=sf, stream_index=k)
        single = np.concatenate([t.x[-1], t.pi_s[-1], t.pi_x[-1]])
        assert np.abs(single - em.final_states[k]).max() < 1e-12


def test_record_stride_shapes():
    mm, sf, g = pieces()
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=5, record_stride=7)
    t = simulate_trajectory(cfg, P, ENC, NOISE, mm, g, SRC, sf=sf)
    n_rec = 100 // 7 + 1
    assert t.times.shape == (n_rec,)
    assert t.x.shape == (n_rec, 6)
    assert t.pi_s.shape == (n_rec, 3)
    assert t.innovations.shape == (n_rec - 1, 3)
    assert t.times[1] == pytest.approx(0.07)
    # strided recording must subsample the full-rate path, not change it
    cfg1 = TrajectoryConfig(dt=0.01, duration=1.0, seed=5, record_stride=1)
    full = simulate_trajectory(cfg1, P, ENC, NOISE, mm, g, SRC, sf=sf)
    assert_allclose(t.x, full.x[::7][: n_rec], atol=0)


def test_control_off_leaves_input_zero():
    mm, sf, g = pieces()
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=3, control_enabled=False)
    t = simulate_trajectory(cfg, P, ENC, NOISE, mm, g, SRC, sf=sf)
    assert np.all(t.u == 0.0)
    # the filter still runs
    assert not np.allclose(t.pi_s, 0.0)


def test_error_band_is_filter_band():
    mm, sf, g = pieces()
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=3)
    t = simulate_trajectory(cfg, P, ENC, NOISE, mm, g, SRC, sf=sf)
    band = np.sqrt(np.diag(mm.Btil @ sf.Vc @ mm.Btil.T))
    assert_allclose(t.err_band, np.tile(band, (len(t.times), 1)))
    assert_allclose(t.expected_innovation_cov, mm.innovation_cov)


def test_coarse_step_is_rejected():
    mm, sf, g = pieces()
    cfg = TrajectoryConfig(dt=0.05, duration=1.0, seed=3)  # dt*(nu+gamma)=0.25
    with pytest.raises(ValueError, match="too coarse"):
        simulate_trajectory(cfg, P, ENC, NOISE, mm, g, SRC, sf=sf)


def test_unstable_loop_is_detected():
    mm, sf, g0 = pieces()
    runaway = Gains(P=g0.P.copy(), Fgain=-80.0 * g0.Fgain, f1=g0.f1, f2=g0.f2)
    cfg = TrajectoryConfig(dt=0.01, duration=10.0, seed=5)
    with np.errstate(all="ignore"), pytest.raises(SimulationUnstableError):
        simulate_trajectory(cfg, P, ENC, NOISE, mm, runaway, SRC, sf=sf)


def test_ensemble_argument_validation():
    mm, sf, g = pieces()
    cfg = TrajectoryConfig(dt=0.01, duration=1.0, seed=3)
    with pytest.raises(ValueError):
        ensemble_moments(cfg, P, ENC, NOISE, mm, g, SRC, n_traj=1, sf=sf)
    with pytest.raises(ValueError):
        ensemble_moments(cfg, P, ENC, NOISE, mm, g, SRC, n_traj=4, window_fraction=0.0, sf=sf)


def test_uncontrolled_lossless_vacuum_reaches_ground_state():
    """No loss, no drive, vacuum inputs: every quadrature variance settles
    at 1/2 and the mean at zero."""
    p = MemoryParams(nu=1.0, gamma=0.0, n_occ=0.0)
    enc0 = standard_encoding(0.0)
    noise0 = standard_noise(vacuum(), 0.0, p)
    mm = measurement_model("s1", enc0, p, noise0)
    sf = stationary_filter(mm, p, enc0, noise0)
    g = lqg_gains(LqgConfig(r=1.0, mode="s1"), p, enc0)
    src0 = SourceSpec(alpha_in=0.0)
    cfg = TrajectoryConfig(dt=0.01, duration=60.0, seed=556, control_enabled=False)
    em = ensemble_moments(cfg, p, enc0, noise0, mm, g, src0, n_traj=400, sf=sf)
    d = np.diag(em.z_cov[:6, :6])
    assert np.abs(d - 0.5).max() / 0.5 < 0.06
    assert np.abs(em.z_mean[:6]).max() < 0.05


def test_feedback_squeezes_syndrome_variance():
    """Sampled syndrome variances must track the moment equations with and
    without control, and control must shrink every channel."""
    mm, sf, g = pieces(r=1e-4)
    am = build_augmented(P, ENC, NOISE, mm, g, sf)
    _, Vp = closed_loop_covariance(am)
    theory_on = np.diag(mm.Btil @ Vp @ mm.Btil.T)
    theory_off = np.diag(mm.Btil @ steady_state(P, ENC, NOISE).cov @ mm.Btil.T)
    kw = dict(dt=0.005, duration=30.0, seed=777)
    em_on = ensemble_moments(
        TrajectoryConfig(control_enabled=True, **kw), P, ENC, NOISE, mm, g, SRC, n_traj=200, sf=sf
    )
    em_off = ensemble_moments(
        TrajectoryConfig(control_enabled=False, **kw), P, ENC, NOISE, mm, g, SRC, n_traj=200, sf=sf
    )
    s_on = np.diag(mm.Btil @ em_on.z_cov[:6, :6] @ mm.Btil.T)
    s_off = np.diag(mm.Btil @ em_off.z_cov[:6, :6] @ mm.Btil.T)
    assert np.abs(s_on / theory_on - 1.0).max() < 0.10
    assert np.abs(s_off / theory_off - 1.0).max() < 0.10
    assert np.all(s_on < s_off)


def test_innovations_are_white_and_scaled():
    p = MemoryParams(nu=1.0, gamma=1.0, n_occ=1.0)
    noise = standard_noise(vacuum(), -2.0, p)
    mm, sf, g = pieces(params=p, noise=noise, r=1.0)
    cfg = TrajectoryConfig(dt=0.005, duration=300.0, seed=901)
    traj = simulate_trajectory(cfg, p, ENC, noise, mm, g, SRC, sf=sf)
    rep = innovation_diagnostics(traj)
    assert rep.cov_pass and rep.whiteness_pass and rep.mean_pass
    assert rep.all_pass


def test_wrong_gain_breaks_innovation_whiteness():
    """Doubling the filter gain leaves the loop stable but the innovation
    sequence visibly autocorrelated — the diagnostics must flag it."""
    p = MemoryParams(nu=1.0, gamma=1.0, n_occ=1.0)
    noise = standard_noise(vacuum(), -2.0, p)
    mm, sf, g = pieces(params=p, noise=noise, r=1.0)
    bad = StationaryFilter(Vc=sf.Vc.copy(), K=2.0 * sf.K, Ktil=2.0 * sf.Ktil)
    cfg = TrajectoryConfig(dt=0.025, duration=500.0, seed=901)
    traj = simulate_trajectory(cfg, p, ENC, noise, mm, g, SRC, sf=bad)
    rep = innovation_diagnostics(traj)
    assert not rep.whiteness_pass
    assert not rep.all_pass


def test_plant_and_record_share_noise():
    """The record is driven by the same increments as the plant: the sampled
    cross covariance between plant noise and innovations recovers the
    model's plant/sensor coupling."""
    p = MemoryParams(nu=1.0, gamma=1.0, n_occ=1.0)
    noise = standard_noise(vacuum(), -2.0, p)
    mm, sf, g = pieces(params=p, noise=noise, r=1.0)
    cfg = TrajectoryConfig(dt=0.005, duration=200.0, seed=31)
    traj = simulate_trajectory(cfg, p, ENC, noise, mm, g, SRC, sf=sf)
    sysm = system_matrices(p, ENC)
    dt = cfg.dt
    x, u = traj.x, traj.u
    dx_noise = x[1:] - x[:-1] - dt * (x[:-1] @ sysm.A.T + u[:-1] + sysm.drive)
    S_emp = dx_noise.T @ traj.innovations / (len(traj.innovations) * dt)
    S = mm.cross_cov
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
    mm, sf, g = pieces()
    cfg = TrajectoryConfig(dt=0.01, duration=2.0, seed=10, record_stride=5)
    t = simulate_trajectory(cfg, P, ENC, NOISE, mm, g, SRC, sf=sf)
    with pytest.raises(ValueError, match="record_stride"):
        innovation_diagnostics(t)
    short = simulate_trajectory(
        TrajectoryConfig(dt=0.01, duration=0.05, seed=10), P, ENC, NOISE, mm, g, SRC, sf=sf
    )
    with pytest.raises(ValueError, match="few"):
        innovation_diagnostics(short)
