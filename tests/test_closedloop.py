import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg.closedloop import (
    GAIN_READINGS,
    LoopBuilder,
    build_augmented,
    closed_loop_covariance,
    closed_loop_mean,
    controlled_fidelity,
    explicit_formula_report,
    vprime_explicit,
)
from memlqg.control import Gains, LqgConfig, cost_rate, feedback_rates, lqg_gains
from memlqg.estimation import filter_view_noise, measurement_model, stationary_filter
from memlqg.model import (
    FieldMode,
    MemoryParams,
    SourceSpec,
    input_covariance,
    lambda_matrix,
    noise_model,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    tritter,
    vacuum,
)
from memlqg.numerics import min_eigenvalue
from memlqg.openloop import fidelity, steady_state, system_matrices

PARAMS = MemoryParams(nu=3.0, gamma=1.0, n_occ=2.0)
ENC = standard_encoding(-230.0)
MU = -0.8
NOISE = standard_noise(vacuum(), MU, PARAMS)


def loop_pieces(mode="s1", r=1e-2, params=PARAMS, noise=NOISE):
    mm = measurement_model(mode, ENC, params, noise)
    sf = stationary_filter(mm, params, ENC, noise)
    g = lqg_gains(LqgConfig(r=r, mode=mode), params, ENC)
    return mm, sf, g


def test_augmented_assembly():
    mm, sf, g = loop_pieces()
    am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
    assert am.Az.shape == (9, 9)
    assert am.Bz.shape == (9, 12)
    assert am.n_channels == 3
    sys = system_matrices(PARAMS, ENC)
    assert_allclose(am.Az[:6, :6], sys.A)
    assert_allclose(am.Az[:6, 6:], g.Fgain)
    assert_allclose(am.Az[6:, :6], sf.Ktil @ mm.C)
    assert_allclose(
        am.Az[6:, 6:],
        -PARAMS.damping * np.eye(3)
        - np.sqrt(2 * PARAMS.nu) * sf.Ktil
        + mm.Btil @ g.Fgain,
    )
    assert_allclose(am.Bz[:6], sys.B)
    assert_allclose(am.Bz[6:], sf.Ktil @ mm.D)
    assert_allclose(am.drive_z[6:], 0.0)


def test_joint_covariance_solves_lyapunov():
    mm, sf, g = loop_pieces()
    am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
    Vz, Vp = closed_loop_covariance(am)
    res = am.Az @ Vz + Vz @ am.Az.T + am.Bz @ am.Sigma @ am.Bz.T
    assert np.abs(res).max() < 1e-10 * max(1.0, np.linalg.norm(Vz))
    assert_allclose(Vp, Vz[:6, :6])
    assert min_eigenvalue(Vz) > -1e-12


def test_feedback_does_not_shift_written_word():
    """The syndrome maps annihilate the drive, so the controlled mean is the
    open-loop one and the filter holds zero on average."""
    mm, sf, g = loop_pieces()
    am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
    mean_z = closed_loop_mean(am)
    open_mean = steady_state(PARAMS, ENC, NOISE).mean
    assert_allclose(mean_z[:6], open_mean, atol=1e-12 * np.abs(open_mean).max())
    assert_allclose(mean_z[6:], 0.0, atol=1e-10)


def scalar_open(a, p):
    return (p.nu * a + p.gamma * (p.n_occ + 0.5)) / (p.nu + p.gamma)


def scalar_conditional(a, p):
    d = (p.nu - p.gamma) * a
    return (d + np.sqrt(d * d + 4 * p.nu * p.gamma * (p.n_occ + 0.5) * a)) / (2 * p.nu)


def scalar_controlled(a, f, p):
    c = 0.5 * (p.nu + p.gamma)
    vc = scalar_conditional(a, p)
    return vc + (scalar_open(a, p) - vc) * c / (c + f)


@pytest.mark.parametrize("mode,measured", [("s1", (1, 2, 4)), ("s2", (2, 4))])
def test_per_channel_closed_loop_oracle(mode, measured):
    """Every rotated coordinate relaxes independently, so the 6x6 machinery
    must reproduce three scalar results: open-loop variance on unmeasured
    coordinates, and the interpolation vc + (v_ol - vc) c/(c+f) on measured
    ones. Derived by solving the 1-d Riccati/Lyapunov pair by hand."""
    r = 1e-2
    mm, sf, g = loop_pieces(mode=mode, r=r)
    am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
    _, Vp = closed_loop_covariance(am)
    T = tritter()
    rotated = T.T @ Vp @ T
    a = np.diag(NOISE.Lambda)
    f = feedback_rates(LqgConfig(r=r, mode=mode), PARAMS)
    expected = np.array([scalar_open(aj, PARAMS) for aj in a])
    for k, j in enumerate(measured):
        expected[j] = scalar_controlled(a[j], f[k], PARAMS)
    assert_allclose(np.diag(rotated), expected, rtol=1e-9)
    assert np.abs(rotated - np.diag(np.diag(rotated))).max() < 1e-9


def test_controlled_covariance_bounded_by_conditional():
    mm, sf, g = loop_pieces(r=1e-6)
    am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
    _, Vp = closed_loop_covariance(am)
    assert min_eigenvalue(Vp - sf.Vc) > -1e-10


def test_stronger_control_shrinks_variance():
    traces = []
    for r in (1e-1, 1e-3, 1e-5, 1e-7):
        mm, sf, g = loop_pieces(r=r)
        am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
        _, Vp = closed_loop_covariance(am)
        traces.append(np.trace(Vp))
    assert all(t1 > t2 for t1, t2 in zip(traces, traces[1:]))


def test_weak_control_approaches_open_loop():
    mm, sf, g = loop_pieces(r=1e12)
    am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
    _, Vp = closed_loop_covariance(am)
    V_inf = steady_state(PARAMS, ENC, NOISE).cov
    assert np.abs(Vp - V_inf).max() < 1e-5


@pytest.mark.parametrize("reading", GAIN_READINGS)
def test_explicit_formula_matches_lyapunov(reading):
    # phase-aligned squeezing: the optimal gain stays inside the measured
    # subspace and the closed form is exact under either gain reading
    mm, sf, g = loop_pieces(r=1e-4)
    am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
    _, Vp = closed_loop_covariance(am)
    cand = vprime_explicit(PARAMS, ENC, NOISE, mm, g, sf, gain_reading=reading)
    assert np.linalg.norm(cand - Vp) / np.linalg.norm(Vp) < 1e-10


def test_explicit_formula_report_structure_on_agreement():
    mm, sf, g = loop_pieces(r=1e-4)
    rep = explicit_formula_report(PARAMS, ENC, NOISE, mm, g, sf)
    assert rep.matches
    assert rep.matching_reading == "full"  # preference order on a tie
    assert set(rep.errors) == set(GAIN_READINGS)
    assert all(len(rep.mismatched_blocks[k]) == 0 for k in GAIN_READINGS)
    assert rep.lines()[0].startswith("explicit formula matches")


def test_explicit_formula_report_flags_phase_squeezed_source():
    """A source squeezed along a rotated axis (complex M) drags the optimal
    gain out of the measured subspace; the closed form then fails under both
    readings and the report must say so block by block."""
    nh = np.sinh(0.5) ** 2
    tilted = FieldMode(N=nh, M=1j * np.sqrt(nh * (nh + 1.0)))
    noise = noise_model(
        lambda_matrix(tilted, squeezed_vacuum(MU), squeezed_vacuum(MU)), PARAMS.n_occ
    )
    mm = measurement_model("s1", ENC, PARAMS, noise)
    sf = stationary_filter(mm, PARAMS, ENC, noise)
    g = lqg_gains(LqgConfig(r=1e-4, mode="s1"), PARAMS, ENC)
    rep = explicit_formula_report(PARAMS, ENC, noise, mm, g, sf)
    assert not rep.matches
    assert all(rep.errors[k] > rep.tol for k in GAIN_READINGS)
    assert any(len(rep.mismatched_blocks[k]) > 0 for k in GAIN_READINGS)
    assert set(rep.candidates) == set(GAIN_READINGS)
    assert "DISAGREES" in rep.lines()[0]
    # the authoritative result is still a fine covariance
    assert min_eigenvalue(rep.vprime) > 0


def test_optimal_gain_minimizes_steady_cost():
    """Detuning the feedback in either direction must raise the stationary
    LQG cost computed from each loop's own covariance."""
    cfg = LqgConfig(r=1e-3, mode="s1")
    mm, sf, _ = loop_pieces(r=cfg.r)
    costs = {}
    for scale in (0.5, 1.0, 2.0):
        g0 = lqg_gains(cfg, PARAMS, ENC)
        g = Gains(
            P=g0.P.copy(),
            Fgain=scale * g0.Fgain,
            f1=scale * g0.f1,
            f2=scale * g0.f2,
        )
        am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
        Vz, _ = closed_loop_covariance(am)
        costs[scale] = cost_rate(Vz, g, ENC, cfg)
    assert costs[1.0] < costs[0.5]
    assert costs[1.0] < costs[2.0]


def test_controlled_fidelity_beats_uncontrolled():
    p = MemoryParams(nu=2 * np.pi * 30e3, gamma=2 * np.pi, n_occ=8.8e3)
    noise = standard_noise(vacuum(), -0.4, p)
    mm = measurement_model("s1", ENC, p, noise)
    sf = stationary_filter(mm, p, ENC, noise)
    g = lqg_gains(LqgConfig(r=1e-9, mode="s1"), p, ENC)
    am = build_augmented(p, ENC, noise, mm, g, sf)
    _, Vp = closed_loop_covariance(am)
    lam = lambda_matrix(vacuum(), squeezed_vacuum(-0.4), squeezed_vacuum(-0.4))
    V_in = input_covariance(lam)
    f_ctl = controlled_fidelity(Vp, V_in)
    f_unc = fidelity(steady_state(p, ENC, noise).cov, V_in)
    assert f_ctl > f_unc


def test_build_augmented_rejects_unstable_loop():
    mm, sf, g0 = loop_pieces(r=1e-4)
    runaway = Gains(
        P=g0.P.copy(),
        Fgain=-10.0 * g0.Fgain,  # positive feedback well past the damping
        f1=g0.f1,
        f2=g0.f2,
    )
    with pytest.raises(ValueError, match="unstable"):
        build_augmented(PARAMS, ENC, NOISE, mm, runaway, sf)


def test_build_augmented_rejects_mode_mismatch():
    mm, sf, _ = loop_pieces(mode="s1")
    g2 = lqg_gains(LqgConfig(r=1e-4, mode="s2"), PARAMS, ENC)
    with pytest.raises(ValueError):
        build_augmented(PARAMS, ENC, NOISE, mm, g2, sf)


def test_blind_loop_ignores_true_source():
    """A blind (s2) loop's filter and feedback are bit-identical for any true
    source and equal those built by hand from the filter's view of the noise;
    the true noise still drives the augmented model and the fidelity."""
    noise_b = standard_noise(squeezed_vacuum(1.3), MU, PARAMS)
    loop_a = LoopBuilder(PARAMS, ENC)(NOISE, "s2", 1e-2)
    loop_b = LoopBuilder(PARAMS, ENC)(noise_b, "s2", 1e-2)
    view = filter_view_noise(noise_b, SourceSpec(-230.0, covariance_known=False), PARAMS)
    mm = measurement_model("s2", ENC, PARAMS, view)
    sf = stationary_filter(mm, PARAMS, ENC, view)
    g = lqg_gains(LqgConfig(r=1e-2, mode="s2"), PARAMS, ENC)
    for loop in (loop_a, loop_b):
        assert np.array_equal(loop.sf.K, sf.K)
        assert np.array_equal(loop.sf.Ktil, sf.Ktil)
        assert np.array_equal(loop.g.Fgain, g.Fgain)
    assert loop_b.noise is noise_b
    _, Vp = closed_loop_covariance(build_augmented(PARAMS, ENC, noise_b, mm, g, sf))
    assert loop_b.fidelity() == controlled_fidelity(Vp, input_covariance(noise_b.Lambda))
    assert loop_a.fidelity() != loop_b.fidelity()
