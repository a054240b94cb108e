import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg import estimation
from memlqg.acceptance import reference_params
from memlqg.closedloop import LoopBuilder
from memlqg.estimation import (
    conditional_channel_variances,
    measurement_model,
    measurement_models,
    stationary_filter,
)
from memlqg.model import (
    _TRITTER,
    FILTER_MODES,
    MemoryParams,
    input_covariance,
    noise_model,
    lambda_matrix,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    vacuum,
)
from memlqg.numerics import ConvergenceError, min_eigenvalue
from memlqg.openloop import steady_state, system_matrices
from memlqg.simulate import TrajectoryConfig, simulate_trajectory

PARAMS = MemoryParams(nu=3.0, gamma=1.0, n_occ=2.0)
ENC = standard_encoding(-230.0)
NOISE = standard_noise(vacuum(), -0.8, PARAMS)


@pytest.mark.parametrize("mode,m", [("s1", 3), ("s2", 2)])
def test_measurement_model_shapes(mode, m):
    mm = measurement_model(mode, ENC, PARAMS, NOISE)
    assert mm.n_channels == m
    assert mm.C.shape == (m, 6)
    assert mm.D.shape == (m, 12)
    assert mm.innovation_cov.shape == (m, m)
    assert_allclose(mm.C, np.sqrt(2.0 * PARAMS.nu) * mm.Btil)
    # record map: sqrt(2) Z on the field block, nothing on the bath block
    assert_allclose(mm.D[:, 6:], 0.0)
    assert_allclose(mm.D[:, :6], np.sqrt(2.0) * ENC.selector(mode))


def test_measurement_model_rejects_unknown_mode():
    with pytest.raises(ValueError):
        measurement_model("s3", ENC, PARAMS, NOISE)
    assert tuple(FILTER_MODES) == ("s1", "s2")


def test_innovation_cov_vacuum_is_identity():
    noise0 = standard_noise(vacuum(), 0.0, PARAMS)
    mm = measurement_model("s1", ENC, PARAMS, noise0)
    # 2 Z Lambda Z^T with Lambda = I/2
    assert_allclose(mm.innovation_cov, np.eye(3), atol=1e-14)


def test_blind_channels_ignore_source_statistics():
    """The two-channel model must be bit-identical for any source covariance."""
    lam_a = lambda_matrix(vacuum(), squeezed_vacuum(-0.8), squeezed_vacuum(-0.8))
    lam_b = lambda_matrix(squeezed_vacuum(1.3), squeezed_vacuum(-0.8), squeezed_vacuum(-0.8))
    mm_a = measurement_model("s2", ENC, PARAMS, noise_model(lam_a, PARAMS.n_occ))
    mm_b = measurement_model("s2", ENC, PARAMS, noise_model(lam_b, PARAMS.n_occ))
    assert np.array_equal(mm_a.innovation_cov, mm_b.innovation_cov)
    assert np.array_equal(mm_a.C, mm_b.C)
    # the three-channel model does see the source
    mm3_a = measurement_model("s1", ENC, PARAMS, noise_model(lam_a, PARAMS.n_occ))
    mm3_b = measurement_model("s1", ENC, PARAMS, noise_model(lam_b, PARAMS.n_occ))
    assert not np.allclose(mm3_a.innovation_cov, mm3_b.innovation_cov)


def cross_cov(mm, noise):
    """The plant/sensor noise correlation S = B Sw D^T in the memory frame."""
    return system_matrices(PARAMS, ENC).B @ noise.SigmaW @ mm.D.T


@pytest.mark.parametrize("mode", FILTER_MODES)
def test_stationary_filter_zeroes_riccati_flow(mode):
    """The memory-frame Vc, a rotation of the solve in x', zeroes the
    Riccati flow written in x."""
    mm = measurement_model(mode, ENC, PARAMS, NOISE)
    sf = stationary_filter(mm, PARAMS, ENC, NOISE)
    sys = system_matrices(PARAMS, ENC)
    Vc, R = sf.Vc, mm.innovation_cov
    K = (Vc @ mm.C.T + cross_cov(mm, NOISE)) @ np.linalg.inv(R)
    flow = sys.A @ Vc + Vc @ sys.A.T + sys.B @ NOISE.SigmaW @ sys.B.T - K @ R @ K.T
    assert np.abs(flow).max() < 1e-9
    assert min_eigenvalue(sf.Vc) >= -1e-10
    assert_allclose(sf.Ktil, mm.Btil @ sf.K, atol=1e-14)


FILTER_POINTS = {
    "toy": (MemoryParams(nu=1.0, gamma=1.0, n_occ=1.0), -1.0, 0.0),
    "reference": (reference_params(), -0.4, 0.0),
    "lossy": (reference_params(gamma_hz=100.0), -3.0, -1.0),
}


@pytest.mark.parametrize("point", FILTER_POINTS)
@pytest.mark.parametrize("mode", FILTER_MODES)
def test_care_filter_matches_channel_closed_form(mode, point):
    """The memory is three independent linear systems: in the input-mode
    coordinates T^T x the stationary filter is diagonal, channel by channel."""
    p, mu, mu1 = FILTER_POINTS[point]
    noise = standard_noise(squeezed_vacuum(mu1), mu, p)
    mm = measurement_model(mode, ENC, p, noise)
    Vc = stationary_filter(mm, p, ENC, noise).Vc
    v = conditional_channel_variances(p, noise.Lambda, mode)
    expected = _TRITTER @ np.diag(v) @ _TRITTER.T
    assert np.linalg.norm(Vc - expected) <= 1e-12 * np.linalg.norm(expected)
    # entrywise in the T^T basis, each entry against its channels' scale
    rotated = _TRITTER.T @ Vc @ _TRITTER
    assert np.all(np.abs(rotated - np.diag(v)) <= 1e-12 * np.sqrt(np.outer(v, v)))


def test_stationary_filter_reports_riccati_residual(monkeypatch):
    mm = measurement_model("s1", ENC, PARAMS, NOISE)
    Vc = stationary_filter(mm, PARAMS, ENC, NOISE).Vc
    monkeypatch.setattr(estimation, "solve_care", lambda *args: Vc + 1e-3 * np.eye(6))
    with pytest.raises(ConvergenceError) as exc:
        stationary_filter(mm, PARAMS, ENC, NOISE)
    assert exc.value.residual > 1e-8


def test_conditioning_never_increases_uncertainty():
    st = steady_state(PARAMS, ENC, NOISE)
    for mode in FILTER_MODES:
        mm = measurement_model(mode, ENC, PARAMS, NOISE)
        sf = stationary_filter(mm, PARAMS, ENC, NOISE)
        gap = st.cov - sf.Vc
        assert min_eigenvalue(gap) > -1e-10
        assert np.trace(sf.Vc) < np.trace(st.cov)
    # and the richer record conditions harder
    mm1 = measurement_model("s1", ENC, PARAMS, NOISE)
    mm2 = measurement_model("s2", ENC, PARAMS, NOISE)
    v1 = stationary_filter(mm1, PARAMS, ENC, NOISE).Vc
    v2 = stationary_filter(mm2, PARAMS, ENC, NOISE).Vc
    assert np.trace(v1) < np.trace(v2)


def test_lossless_memory_needs_no_correction():
    """With no loss the conditional covariance equals the written input and
    the gain vanishes identically — there is nothing left to learn."""
    p = MemoryParams(nu=3.0, gamma=0.0, n_occ=0.0)
    noise = standard_noise(vacuum(), -0.6, p)
    mm = measurement_model("s1", ENC, p, noise)
    sf = stationary_filter(mm, p, ENC, noise)
    assert_allclose(sf.Vc, input_covariance(noise.Lambda), atol=1e-10)
    assert np.abs(sf.K).max() < 1e-10


def test_kalman_gain_definition():
    mm = measurement_model("s2", ENC, PARAMS, NOISE)
    sf = stationary_filter(mm, PARAMS, ENC, NOISE)
    expected = (sf.Vc @ mm.C.T + cross_cov(mm, NOISE)) @ np.linalg.inv(mm.innovation_cov)
    assert_allclose(sf.K, expected, atol=1e-12)


def test_stationary_filter_rejects_noiseless_record():
    noise = noise_model(np.zeros((6, 6)), PARAMS.n_occ)
    mm = measurement_model("s1", ENC, PARAMS, noise)
    with pytest.raises(ValueError, match="MU_FLOOR"):
        stationary_filter(mm, PARAMS, ENC, noise)


def test_syndrome_filter_tracks_projected_full_filter():
    """B_tilde maps the full-state update onto the reduced update exactly:
    same record, same input, stationary gain. The trajectory engine runs both
    filters side by side; `reference_loop` in test_simulate steps the reduced
    update literally."""
    loop = LoopBuilder(PARAMS, ENC)(NOISE, "s1", 1e-2)
    cfg = TrajectoryConfig(dt=1e-3, duration=0.5, seed=7)
    traj = simulate_trajectory(cfg, loop)
    assert_allclose(traj.pi_s, traj.pi_x @ loop.mm.Btil.T, atol=1e-12)


@pytest.mark.parametrize("mode", FILTER_MODES)
def test_measurement_models_equal_each_view_bit_for_bit(mode):
    """The models of a list of views share C, D and Btil, and each equals
    measurement_model of its view bit for bit."""
    noises = [
        standard_noise(squeezed_vacuum(mu1), mu, PARAMS)
        for mu in (-2.0, 0.3)
        for mu1 in (0.0, -1.1, 0.7)
    ]
    grid = measurement_models(mode, ENC, PARAMS, noises)
    for mm, noise in zip(grid, noises):
        alone = measurement_model(mode, ENC, PARAMS, noise)
        for name in ("C", "D", "Btil", "innovation_cov"):
            assert np.array_equal(getattr(mm, name), getattr(alone, name)), name
            assert not getattr(mm, name).flags.writeable
        assert mm.C is grid[0].C and mm.mode == mode
