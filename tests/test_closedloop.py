from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg import closedloop
from memlqg.acceptance import reference_params
from memlqg.closedloop import (
    LoopBuilder,
    build_augmented,
    closed_loop_covariance,
    controlled_channel_variances,
    controlled_fidelity,
)
from memlqg.control import Gains, LqgConfig, feedback_rates, lqg_gains
from memlqg.estimation import (
    filter_view_noise,
    measurement_model,
    stationary_filter,
    stationary_filters,
)
from memlqg.model import (
    _TRITTER,
    FILTER_MODES,
    MU_FLOOR,
    FieldMode,
    MemoryParams,
    SourceSpec,
    input_covariance,
    lambda_matrix,
    noise_model,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    standard_noises,
    vacuum,
)
from memlqg.numerics import ConvergenceError, UnstableDriftError, min_eigenvalue
from memlqg.openloop import (
    fidelity,
    fidelity_closed_form,
    steady_state,
    system_matrices,
    uncontrolled_fidelities,
)

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
    """In x' = T^T x every block is a row selection by Z, and rotated back
    by diag(T, I) each equals the memory-frame map it stands for."""
    mm, sf, g = loop_pieces()
    am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
    assert am.Az.shape == (9, 9)
    assert am.Bz.shape == (9, 12)
    Z, c, rate = ENC.selector("s1"), PARAMS.damping, np.sqrt(2 * PARAMS.nu)
    assert np.array_equal(am.Az[:6, :6], -c * np.eye(6))
    assert np.array_equal(am.Az[:6, 6:], -Z.T @ np.diag(g.f))
    assert np.array_equal(am.Az[6:, :6], sf.Ktil @ (rate * Z))
    assert np.array_equal(am.Az[6:, 6:], -c * np.eye(3) - rate * sf.Ktil - np.diag(g.f))
    assert np.array_equal(am.Bz[:6, :6], -np.sqrt(PARAMS.nu) * np.eye(6))
    assert np.array_equal(am.Bz[:6, 6:], -np.sqrt(PARAMS.gamma) * np.eye(6))
    assert np.array_equal(am.Bz[6:], sf.Ktil @ mm.D)
    T = _TRITTER
    assert_allclose(T @ am.Az[:6, 6:], g.Fgain, atol=1e-12)
    assert_allclose(am.Az[6:, :6] @ T.T, sf.Ktil @ mm.C, atol=1e-12)
    assert_allclose(-np.diag(g.f), mm.Btil @ g.Fgain, atol=1e-12)


def memory_frame_model(mm, sf, g, params=PARAMS):
    """The augmented drift and noise map of z = (x, pi_s), written from the
    memory-frame pieces: [[A, F], [Ktil C, -c I - sqrt(2 nu) Ktil + Btil F]]
    and [[B], [Ktil D]]."""
    sys = system_matrices(params, ENC)
    m = mm.n_channels
    Az = np.block([
        [sys.A, g.Fgain],
        [sf.Ktil @ mm.C,
         -params.damping * np.eye(m) - np.sqrt(2 * params.nu) * sf.Ktil + mm.Btil @ g.Fgain],
    ])
    return Az, np.vstack([sys.B, sf.Ktil @ mm.D])


def test_joint_covariance_solves_lyapunov():
    """The memory-frame Vz, a rotation of the solve in x', zeroes the
    Lyapunov equation of the loop written in x."""
    mm, sf, g = loop_pieces()
    am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
    Vz, Vp = closed_loop_covariance(am)
    Az, Bz = memory_frame_model(mm, sf, g)
    res = Az @ Vz + Vz @ Az.T + Bz @ NOISE.SigmaW @ Bz.T
    assert np.abs(res).max() < 1e-10 * max(1.0, np.linalg.norm(Vz))
    assert_allclose(Vp, Vz[:6, :6])
    assert min_eigenvalue(Vz) > -1e-12


def test_feedback_does_not_shift_written_word():
    """The syndrome maps annihilate the drive, so the controlled mean is the
    open-loop one and the filter holds zero on average."""
    mm, sf, g = loop_pieces()
    Az, _ = memory_frame_model(mm, sf, g)
    drive_z = np.concatenate([system_matrices(PARAMS, ENC).drive, np.zeros(3)])
    mean_z = np.linalg.solve(Az, -drive_z)
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
    T = _TRITTER
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


@pytest.mark.parametrize("mode", FILTER_MODES)
def test_channel_closed_form_refuses_a_tilted_source(mode):
    """A source squeezed along a rotated axis (a q-p covariance c) couples
    its channels, so the per-channel closed form refuses it, while the
    dense loop still solves it to a fine covariance."""
    tilted = FieldMode(vq=0.5 * np.cosh(1.0), vp=0.5 * np.cosh(1.0), c=0.5 * np.sinh(1.0))
    noise = noise_model(
        lambda_matrix(tilted, squeezed_vacuum(MU), squeezed_vacuum(MU)), PARAMS.n_occ
    )
    with pytest.raises(ValueError, match="diagonal Lambda"):
        controlled_channel_variances(PARAMS, noise.Lambda, mode, 1e-4)
    loop = LoopBuilder(PARAMS, ENC)(noise, mode, 1e-4)
    assert min_eigenvalue(loop.Vz[:6, :6]) > 0


def test_optimal_gain_minimizes_steady_cost():
    """Detuning the feedback in either direction must raise the stationary
    LQG cost tr(Q Btil V_x Btil^T) + r tr(F^T F V_pipi) computed from each
    loop's own covariance."""
    cfg = LqgConfig(r=1e-3, mode="s1")
    mm, sf, _ = loop_pieces(r=cfg.r)
    Q = np.diag([9.0, 3.0, 3.0])
    costs = {}
    for scale in (0.5, 1.0, 2.0):
        g0 = lqg_gains(cfg, PARAMS, ENC)
        g = Gains(P=g0.P.copy(), Fgain=scale * g0.Fgain, f=scale * g0.f)
        am = build_augmented(PARAMS, ENC, NOISE, mm, g, sf)
        Vz, _ = closed_loop_covariance(am)
        state = np.trace(Q @ mm.Btil @ Vz[:6, :6] @ mm.Btil.T)
        effort = cfg.r * np.trace(g.Fgain.T @ g.Fgain @ Vz[6:, 6:])
        costs[scale] = state + effort
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


@pytest.mark.parametrize("mode", FILTER_MODES)
def test_loop_builds_at_mu_floor(mode):
    """MU_FLOOR is the clamp that the singular-innovation error recommends,
    so the loop must accept it: the squeezed variance e^MU_FLOOR/2 is stored
    exactly, not rounded to 0."""
    p = reference_params()
    loop = LoopBuilder(p, ENC)(standard_noise(vacuum(), MU_FLOOR, p), mode, 1e-9)
    assert 0.0 < loop.fidelity() < 1.0


LOSSLESS = MemoryParams(nu=2 * np.pi * 30e3, gamma=0.0, n_occ=8.8e3)  # check 1's point
LOSSLESS_SOURCES = (0.0, -1.0, 1.5)  # payload exponents mu1
LOSSLESS_RS = (1e-6, 1e-9, 1e-12, 1e-15)
EPS = np.finfo(float).eps


def assert_lossless_loops_transfer(mu, modes):
    """With no loss the open-loop fidelity and every controlled fidelity are
    1, for each payload of LOSSLESS_SOURCES and each r of LOSSLESS_RS: both
    are solved in the input-mode coordinates, where the squeezed and
    anti-squeezed channels do not mix, so no reading rises above 1 and none
    falls by more than a few rounding units."""
    for mu1 in LOSSLESS_SOURCES:
        noise = standard_noise(squeezed_vacuum(mu1), mu, LOSSLESS)
        F = uncontrolled_fidelities(LOSSLESS, [noise])[0]
        assert 1.0 - 4 * EPS <= F <= 1.0, (mu1, F)
        for mode in modes:
            builder = LoopBuilder(LOSSLESS, ENC)
            for r in LOSSLESS_RS:
                F = builder(noise, mode, r).fidelity()
                assert 1.0 - 4 * EPS <= F <= 1.0, (mu1, mode, r, F)


@pytest.mark.parametrize("mu", [-10.0, -14.0, -16.0])
def test_lossless_transfer_at_strong_squeezing(mu):
    """Check 1's lossless point under strong ancilla squeezing: with no loss
    the open-loop and the controlled fidelity of both filters are 1."""
    assert_lossless_loops_transfer(mu, FILTER_MODES)


@pytest.mark.parametrize("mode", FILTER_MODES)
@pytest.mark.parametrize("mu", [-17.0, -18.0, -19.0, MU_FLOOR])
def test_lossless_loop_builds_down_to_mu_floor(mu, mode):
    """Down to MU_FLOOR the lossless loop builds, and its fidelity and the
    open loop's stay 1."""
    assert_lossless_loops_transfer(mu, [mode])


def test_build_augmented_rejects_unstable_loop():
    mm, sf, g0 = loop_pieces(r=1e-4)
    # positive feedback well past the damping
    runaway = Gains(P=g0.P.copy(), Fgain=-10.0 * g0.Fgain, f=-10.0 * g0.f)
    with pytest.raises(UnstableDriftError, match="unstable drift"):
        closed_loop_covariance(build_augmented(PARAMS, ENC, NOISE, mm, runaway, sf))


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
    am = build_augmented(PARAMS, ENC, noise_b, mm, g, sf)
    assert loop_b.fidelity() == controlled_fidelity(am.Vz_inmode[:6, :6], noise_b.Lambda)
    _, Vp = closed_loop_covariance(am)
    V_in = input_covariance(noise_b.Lambda)
    assert loop_b.fidelity() == pytest.approx(controlled_fidelity(Vp, V_in), rel=1e-14)
    assert loop_a.fidelity() != loop_b.fidelity()


def test_loop_builds_augmented_model_once_on_first_read(monkeypatch):
    """Building a loop assembles and solves nothing; the first read of
    `fidelity()` assembles the augmented model once and solves it once in
    x', and `Vz` is the rotation of that solve: later reads of either
    neither assemble nor solve."""
    builds, solves = [], []

    def counting(*args, **kwargs):
        builds.append(1)
        return build_augmented(*args, **kwargs)

    def counting_solve(A, Qn):
        solves.append(1)
        return solve(A, Qn)

    solve = closedloop.solve_lyapunov_steady
    monkeypatch.setattr(closedloop, "build_augmented", counting)
    monkeypatch.setattr(closedloop, "solve_lyapunov_steady", counting_solve)
    loop = LoopBuilder(PARAMS, ENC)(NOISE, "s1", 1e-2)
    assert builds == [] and solves == []
    F = loop.fidelity()
    assert builds == [1] and solves == [1]
    Vz = loop.Vz
    assert loop.fidelity() == F and loop.Vz is Vz and builds == [1] and solves == [1]
    ref = build_augmented(PARAMS, ENC, NOISE, loop.mm, loop.g, loop.sf)
    assert np.array_equal(Vz, closed_loop_covariance(ref)[0])


def test_grid_entry_equals_per_point_loops_bit_for_bit(monkeypatch):
    """builder.fidelities on a mixed grid (both modes, squeezed sources,
    r from 1e-6 to 2^-40) holds what builder(noise, mode, r).fidelity()
    returns, bit for bit; its stacked Lyapunov solves hold one r and at
    most LOOP_STACK loops."""
    p = reference_params()
    noises = [
        standard_noise(squeezed_vacuum(mu1), mu, p)
        for mu in np.linspace(-2.0, 0.5, 12)
        for mu1 in (0.0, -0.7, 0.4)
    ]
    rs = [1e-6, 1e-9, 2.0**-30, 2.0**-40]
    stacks = []
    solve = closedloop.solve_lyapunov_steady

    def recording(A, Qn):
        stacks.append(A.shape)
        return solve(A, Qn)

    monkeypatch.setattr(closedloop, "solve_lyapunov_steady", recording)
    for mode in FILTER_MODES:
        stacks.clear()
        grid = LoopBuilder(p, ENC).fidelities(noises, mode, rs)
        assert [shape[0] for shape in stacks] == [32, 4] * len(rs)
        assert closedloop.LOOP_STACK == 32
        builder = LoopBuilder(p, ENC)
        alone = [[builder(noise, mode, r).fidelity() for r in rs] for noise in noises]
        assert np.array_equal(grid, alone), mode
    assert np.array_equal(
        uncontrolled_fidelities(p, noises), [uncontrolled_fidelities(p, [n])[0] for n in noises]
    )


def test_filter_stack_error_names_the_failing_item():
    """A singular innovation covariance fails a stack of filters with the
    error its filter raises alone, its index in `exc.index`; the grid entry
    raises the failing point's own error, its grid point in `exc.index`
    with None for r, on which a filter does not depend."""
    p = reference_params()
    mm, _, _ = loop_pieces(params=p)
    bad = replace(mm, innovation_cov=np.zeros_like(mm.innovation_cov))
    with pytest.raises(ValueError, match="^singular innovation covariance") as alone:
        stationary_filter(bad, p, ENC, NOISE)
    with pytest.raises(ValueError) as exc:
        stationary_filters([mm, bad, mm], p, ENC, [NOISE] * 3)
    assert str(exc.value) == str(alone.value) and exc.value.index == 1
    noises = [standard_noise(squeezed_vacuum(mu1), -0.4, p) for mu1 in (0.0, -60.0)]
    with pytest.raises(ConvergenceError, match="^CARE solver failed") as alone:
        LoopBuilder(p, ENC)(noises[1], "s1", 1e-9)
    with pytest.raises(ConvergenceError) as exc:
        LoopBuilder(p, ENC).fidelities(noises, "s1", [1e-9, 1e-6])
    assert str(exc.value) == str(alone.value) and exc.value.index == (1, None)


def test_gains_error_names_only_its_r():
    """An r whose gains fail raises at every noise, so the grid entry names
    its column alone: `exc.index` is (None, j)."""
    noises = [standard_noise(vacuum(), mu, PARAMS) for mu in (-0.4, -0.8)]
    with pytest.raises(ValueError, match="^control penalty r must be positive$") as exc:
        LoopBuilder(PARAMS, ENC).fidelities(noises, "s1", [1e-2, -1.0])
    assert exc.value.index == (None, 1)


@pytest.mark.parametrize("mode", FILTER_MODES)
def test_filter_cache_tells_apart_noises_that_share_lambda(mode):
    """Two noises with one Lambda and different bath occupations need
    different informed filters: a builder shared between them, alone or
    through its grid entry, reads what fresh builders read."""
    p = MemoryParams(nu=1.0, gamma=1e-4, n_occ=8800.0)
    Lam = standard_noise(vacuum(), -0.4, p).Lambda
    noises = [noise_model(Lam, 8800.0), noise_model(Lam, 0.0)]
    fresh = [LoopBuilder(p, ENC)(noise, mode, 1e-9).fidelity() for noise in noises]
    shared = LoopBuilder(p, ENC)
    assert [shared(noise, mode, 1e-9).fidelity() for noise in noises] == fresh
    assert LoopBuilder(p, ENC).fidelities(noises, mode, [1e-9])[:, 0].tolist() == fresh


def box_point(rng):
    """One point of the parameter box: nu/2pi from 1e2 to 1e6 Hz, gamma/nu
    in {0} and [1e-6, 1], n_occ in {0} and [1e-2, 1e6], four ancilla
    exponents in [-20, 2] of which one is MU_FLOOR, mu1 in [-2, 2] and r in
    [1e-15, 1e-3], the ranges log-uniform."""
    nu = 2 * np.pi * 10.0 ** rng.uniform(2.0, 6.0)
    gamma = nu * (0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-6.0, 0.0))
    n_occ = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-2.0, 6.0)
    mus = [MU_FLOOR, *rng.uniform(-20.0, 2.0, 3)]
    return nu, gamma, n_occ, mus, rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-15.0, -3.0)


def box_fidelities(nu, gamma, n_occ, mus, mu1, r):
    """The open-loop fidelities of the four noises, then per mode their
    controlled fidelities from the grid entry and from per-point loops."""
    p = MemoryParams(nu=nu, gamma=gamma, n_occ=n_occ)
    noises = standard_noises([squeezed_vacuum(mu1)] * len(mus), mus, p)
    readings = [uncontrolled_fidelities(p, noises)]
    for mode in FILTER_MODES:
        readings.append(LoopBuilder(p, ENC).fidelities(noises, mode, [r])[:, 0])
        readings.append([LoopBuilder(p, ENC)(noise, mode, r).fidelity() for noise in noises])
    return np.array(readings)


def test_open_loop_matches_the_closed_form_over_the_box():
    """Over 300 seeded box points, four ancilla exponents each (1200
    readings), the open-loop fidelity det(V' + Lambda)^-1/2 matches the
    per-channel product of fidelity_closed_form, and no reading rises above
    1 by more than two rounding units. The gates sit above the largest
    errors measured here (6.9e-15 relative, F - 1 at most 2.2e-16)."""
    rng = np.random.default_rng(30)
    for _ in range(300):
        nu, gamma, n_occ, mus, mu1, _ = box_point(rng)
        p = MemoryParams(nu=nu, gamma=gamma, n_occ=n_occ)
        noises = standard_noises([squeezed_vacuum(mu1)] * len(mus), mus, p)
        F = uncontrolled_fidelities(p, noises)
        closed = fidelity_closed_form(p, np.stack([noise.Lambda for noise in noises]))
        point = (nu, gamma, n_occ, mus, mu1)
        assert np.all(np.abs(F - closed) <= 1e-14 * closed), point
        assert np.all(F <= 1.0 + 2 * EPS), point


def test_time_rescaling_leaves_every_fidelity_bit_identical():
    """nu, gamma -> s nu, s gamma with r -> r / s^2 scales every rate of the
    loop by s and leaves each fidelity unchanged. For s a power of two every
    factor is exact, so the open loop, the grid entry and a per-point loop
    read the same bits at s = 4 and s = 1/16, at 12 seeded box points."""
    rng = np.random.default_rng(9)
    for _ in range(12):
        nu, gamma, n_occ, mus, mu1, r = box_point(rng)
        F = box_fidelities(nu, gamma, n_occ, mus, mu1, r)
        for s in (4.0, 1 / 16):
            rescaled = box_fidelities(s * nu, s * gamma, n_occ, mus, mu1, r / s**2)
            assert np.array_equal(rescaled, F), (nu, gamma, n_occ, mus, mu1, r, s)


def test_per_channel_closed_form_is_the_oracle_over_the_box():
    """Over 60 seeded box points, four ancilla exponents each and both modes
    (480 loops), the loop's fidelity and its controlled covariance in x'
    match the per-channel closed form: F relative, each variance relative,
    and each off-diagonal entry against its channels' scale. Each gate sits
    above the largest error the x' assembly reads here (F 6.2e-15, variances
    9.8e-16, off-diagonal entries 6.5e-13)."""
    rng = np.random.default_rng(29)
    for _ in range(60):
        nu, gamma, n_occ, mus, mu1, r = box_point(rng)
        p = MemoryParams(nu=nu, gamma=gamma, n_occ=n_occ)
        noises = standard_noises([squeezed_vacuum(mu1)] * len(mus), mus, p)
        for mode in FILTER_MODES:
            builder = LoopBuilder(p, ENC)
            builder.fidelities(noises, mode, [r])  # solves the four filters as one stack
            for noise in noises:
                loop = builder(noise, mode, r)
                v = controlled_channel_variances(p, noise.Lambda, mode, r)
                F = np.prod(v + np.diag(noise.Lambda)) ** -0.5
                Vp = loop._augmented.Vz_inmode[:6, :6]  # the solve F is read from
                point = (nu, gamma, n_occ, mu1, r, mode, noise.Lambda[2, 2])
                assert abs(loop.fidelity() - F) <= 1e-14 * F, point
                assert np.all(np.abs(np.diag(Vp) - v) <= 2e-15 * v), point
                off = Vp - np.diag(np.diag(Vp))
                assert np.all(np.abs(off) <= 2e-12 * np.sqrt(np.outer(v, v))), point
