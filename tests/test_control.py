import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg.control import LqgConfig, feedback_rates, lqg_gains
from memlqg.model import MemoryParams, standard_encoding
from memlqg.numerics import solve_care

PARAMS = MemoryParams(nu=3.0, gamma=1.0, n_occ=2.0)  # damping c = 2
ENC = standard_encoding(-230.0)


def test_config_validation():
    with pytest.raises(ValueError):
        LqgConfig(r=0.0)
    with pytest.raises(ValueError):
        LqgConfig(r=-1.0)
    with pytest.raises(ValueError):
        LqgConfig(r=1.0, mode="s9")


def test_feedback_rates_scalar_oracle():
    # c = 2, q = 9, r = 1: f = -2 + sqrt(4 + 9)
    f = feedback_rates(LqgConfig(r=1.0, mode="s1"), PARAMS)
    assert f[0] == pytest.approx(np.sqrt(13.0) - 2.0, rel=1e-14)
    assert f[1] == pytest.approx(np.sqrt(7.0) - 2.0, rel=1e-14)
    assert f[1] == f[2]


def test_overflowing_rate_is_refused():
    """An r so small that q/r overflows is refused by the gains, before any
    infinite rate reaches a feedback map (tier-1 turns a warning into an
    error, so none is raised on the way)."""
    message = "^control penalty r is too small: the feedback rate overflows$"
    with pytest.raises(ValueError, match=message):
        lqg_gains(LqgConfig(r=2.0**-1030, mode="s1"), PARAMS, ENC)


def test_riccati_identity_per_coordinate():
    # -2 c p - p^2 / r + q = 0 for each diagonal entry
    cfg = LqgConfig(r=1e-4, mode="s1")
    g = lqg_gains(cfg, PARAMS, ENC)
    c = PARAMS.damping
    q = np.array([9.0, 3.0, 3.0])
    p = np.diag(g.P)
    assert_allclose(-2 * c * p - p * p / cfg.r + q, 0.0, atol=1e-9)


@pytest.mark.parametrize("mode", ["s1", "s2"])
@pytest.mark.parametrize("r", [1e-2, 1e-6, 1e-10])
def test_closed_form_matches_dense_care(mode, r):
    g = lqg_gains(LqgConfig(r=r, mode=mode), PARAMS, ENC)
    m = 3 if mode == "s1" else 2
    assert g.P.shape == (m, m)
    assert g.Fgain.shape == (6, m)
    Btil = ENC.syndrome_map(mode)
    Q = np.diag([9.0, 3.0, 3.0] if mode == "s1" else [3.0, 3.0])
    P_dense = solve_care(-PARAMS.damping * np.eye(m), Btil, Q, r * np.eye(6))
    assert np.linalg.norm(P_dense - g.P) <= 1e-8 * np.linalg.norm(g.P)


def test_s2_rates_are_uniform():
    g = lqg_gains(LqgConfig(r=1e-6, mode="s2"), PARAMS, ENC)
    assert g.f.shape == (2,) and g.f[0] == g.f[1]


def test_cheap_control_rate_scaling():
    # f ~ sqrt(q/r) as r -> 0
    f_a = feedback_rates(LqgConfig(r=1e-12, mode="s1"), PARAMS)
    assert f_a[0] == pytest.approx(np.sqrt(9.0 / 1e-12), rel=1e-5)


def test_control_input_direction():
    """Feedback on the first mode-difference coordinate pushes mode 1 against
    modes 2 and 3 in the 2:-1:-1 pattern, scaled by the shared rate."""
    g = lqg_gains(LqgConfig(r=1e-9, mode="s1"), PARAMS, ENC)
    u = g.Fgain @ np.array([0.0, np.sqrt(6.0), 0.0])
    assert_allclose(u, g.f[-1] * np.array([2.0, 0.0, -1.0, 0.0, -1.0, 0.0]), rtol=1e-12)


def test_control_input_acts_only_in_syndrome_span():
    g = lqg_gains(LqgConfig(r=1e-9, mode="s2"), PARAMS, ENC)
    rng = np.random.default_rng(3)
    pi_s = rng.standard_normal(2)
    u = g.Fgain @ pi_s
    # u lies in the row space of Btil2: projecting there loses nothing
    B = ENC.syndrome_map("s2")
    assert_allclose(B.T @ (B @ u), u, atol=1e-12)
    # and it drives the syndrome estimate downhill
    assert float(pi_s @ (B @ u)) < 0.0


def test_feedback_stabilizes_each_coordinate():
    g = lqg_gains(LqgConfig(r=1e-6, mode="s1"), PARAMS, ENC)
    # syndrome drift under feedback: -c - f_i on the diagonal
    Acl = -PARAMS.damping * np.eye(3) + ENC.syndrome_map("s1") @ g.Fgain
    eig = np.linalg.eigvals(Acl).real
    assert eig.max() < -PARAMS.damping  # strictly faster than open loop


def test_gains_arrays_frozen():
    g = lqg_gains(LqgConfig(r=1e-6, mode="s1"), PARAMS, ENC)
    with pytest.raises(ValueError):
        g.Fgain[0, 0] = 1.0
