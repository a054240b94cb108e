from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg import closedloop
from memlqg.acceptance import reference_params
from memlqg.closedloop import (
    GAIN_READINGS,
    LoopBuilder,
    build_augmented,
    closed_loop_covariance,
    controlled_fidelity,
    explicit_formula_report,
    vprime_explicit,
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
    vacuum,
)
from memlqg.numerics import ConvergenceError, UnstableDriftError, min_eigenvalue
from memlqg.openloop import fidelity, steady_state, system_matrices, uncontrolled_fidelities

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
    drive_z = np.concatenate([system_matrices(PARAMS, ENC).drive, np.zeros(3)])
    mean_z = np.linalg.solve(am.Az, -drive_z)
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


@pytest.mark.parametrize("reading", GAIN_READINGS)
def test_explicit_formula_matches_lyapunov(reading):
    # phase-aligned squeezing: the optimal gain stays inside the measured
    # subspace and the closed form is exact under either gain reading
    loop = LoopBuilder(PARAMS, ENC)(NOISE, "s1", 1e-4)
    Vp = loop.Vz[:6, :6]
    cand = vprime_explicit(loop, gain_reading=reading)
    assert np.linalg.norm(cand - Vp) / np.linalg.norm(Vp) < 1e-10


def test_explicit_formula_report_structure_on_agreement():
    rep = explicit_formula_report(LoopBuilder(PARAMS, ENC)(NOISE, "s1", 1e-4))
    assert rep.matches
    assert rep.matching_reading == "full"  # preference order on a tie
    assert set(rep.errors) == set(GAIN_READINGS)
    assert all(len(rep.mismatched_blocks[k]) == 0 for k in GAIN_READINGS)
    assert rep.lines()[0].startswith("explicit formula matches")


def test_explicit_formula_report_flags_phase_squeezed_source():
    """A source squeezed along a rotated axis (a q-p covariance c) drags the
    optimal gain out of the measured subspace; the closed form then fails
    under both readings and the report must say so block by block."""
    tilted = FieldMode(vq=0.5 * np.cosh(1.0), vp=0.5 * np.cosh(1.0), c=0.5 * np.sinh(1.0))
    noise = noise_model(
        lambda_matrix(tilted, squeezed_vacuum(MU), squeezed_vacuum(MU)), PARAMS.n_occ
    )
    loop = LoopBuilder(PARAMS, ENC)(noise, "s1", 1e-4)
    rep = explicit_formula_report(loop)
    assert not rep.matches
    assert all(rep.errors[k] > rep.tol for k in GAIN_READINGS)
    assert any(len(rep.mismatched_blocks[k]) > 0 for k in GAIN_READINGS)
    assert set(rep.mismatched_blocks) == set(GAIN_READINGS)
    assert "DISAGREES" in rep.lines()[0]
    # the authoritative result is still a fine covariance
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
        g = Gains(
            P=g0.P.copy(),
            Fgain=scale * g0.Fgain,
            f1=scale * g0.f1,
            f2=scale * g0.f2,
        )
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


@pytest.mark.parametrize("mu", [-10.0, -14.0, -16.0])
def test_lossless_transfer_at_strong_squeezing(mu):
    """Check 1's lossless point under strong ancilla squeezing: with no loss
    the open-loop and the controlled fidelity of both filters are 1."""
    noise = standard_noise(vacuum(), mu, LOSSLESS)
    V_in = input_covariance(noise.Lambda)
    assert fidelity(steady_state(LOSSLESS, ENC, noise).cov, V_in) == pytest.approx(1.0, abs=1e-9)
    builder = LoopBuilder(LOSSLESS, ENC)
    for mode in FILTER_MODES:
        assert builder(noise, mode, 1e-9).fidelity() == pytest.approx(1.0, abs=1e-9), mode


@pytest.mark.parametrize("mode", FILTER_MODES)
@pytest.mark.parametrize("mu", [-17.0, -18.0, -19.0, MU_FLOOR])
def test_lossless_loop_builds_down_to_mu_floor(mu, mode):
    """Down to MU_FLOOR the lossless loop builds, and its fidelity stays 1:
    the filter's CARE is solved in the input-mode coordinates, where the
    squeezed and anti-squeezed channels do not mix."""
    noise = standard_noise(vacuum(), mu, LOSSLESS)
    assert LoopBuilder(LOSSLESS, ENC)(noise, mode, 1e-9).fidelity() == pytest.approx(1.0, abs=1e-7)


def test_build_augmented_rejects_unstable_loop():
    mm, sf, g0 = loop_pieces(r=1e-4)
    runaway = Gains(
        P=g0.P.copy(),
        Fgain=-10.0 * g0.Fgain,  # positive feedback well past the damping
        f1=g0.f1,
        f2=g0.f2,
    )
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
    _, Vp = closed_loop_covariance(build_augmented(PARAMS, ENC, noise_b, mm, g, sf))
    assert loop_b.fidelity() == controlled_fidelity(Vp, input_covariance(noise_b.Lambda))
    assert loop_a.fidelity() != loop_b.fidelity()


def test_loop_builds_augmented_model_once_on_first_read(monkeypatch):
    """Building a loop assembles and solves nothing; the first read of `Vz`
    assembles the augmented model once and solves it once, and later reads
    and `fidelity()` calls do neither."""
    builds, solves = [], []

    def counting(*args, **kwargs):
        builds.append(1)
        return build_augmented(*args, **kwargs)

    def counting_solve(am):
        solves.append(1)
        return closed_loop_covariance(am)

    monkeypatch.setattr(closedloop, "build_augmented", counting)
    monkeypatch.setattr(closedloop, "closed_loop_covariance", counting_solve)
    loop = LoopBuilder(PARAMS, ENC)(NOISE, "s1", 1e-2)
    assert builds == [] and solves == []
    Vz = loop.Vz
    assert builds == [1] and solves == [1]
    assert loop.fidelity() == loop.fidelity()
    assert loop.Vz is Vz and builds == [1] and solves == [1]
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
        uncontrolled_fidelities(p, noises),
        [fidelity(steady_state(p, ENC, n).cov, input_covariance(n.Lambda)) for n in noises],
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
