import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg.model import (
    _TRITTER,
    MU_FLOOR,
    FieldMode,
    MemoryParams,
    input_covariance,
    lambda_matrix,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    vacuum,
)
from memlqg.numerics import solve_lyapunov_steady
from memlqg.openloop import (
    CLASSICAL_LIMIT_RATE,
    ENTANGLEMENT_BOUND,
    GaussianState,
    _steady_covariances,
    channel_variances,
    fidelity,
    fidelity_closed_form,
    occupation_threshold,
    pfd_rate,
    psys,
    psys_closed_form,
    single_mode_check,
    steady_state,
    syndrome_statistics,
    syndrome_variance_ideal,
    system_matrices,
    uncontrolled_fidelities,
)

PARAMS = MemoryParams(nu=3.0, gamma=1.0, n_occ=2.0)
ENC = standard_encoding(-230.0)


def test_system_matrices_shapes_and_drift():
    sys = system_matrices(PARAMS, ENC)
    assert_allclose(sys.A, -2.0 * np.eye(6))  # -(nu+gamma)/2
    assert sys.B.shape == (6, 12)
    # noise map columns: input-field part scaled by sqrt(nu), bath by sqrt(gamma)
    assert_allclose(sys.B[:, :6], -np.sqrt(3.0) * _TRITTER)
    assert_allclose(sys.B[:, 6:], -1.0 * np.eye(6))
    assert_allclose(sys.drive, -np.sqrt(3.0) * ENC.beta)


def test_steady_mean_balances_drive():
    noise = standard_noise(vacuum(), 0.0, PARAMS)
    st = steady_state(PARAMS, ENC, noise)
    # A mean + drive = 0  ->  mean = 2 drive / (nu+gamma)
    sys = system_matrices(PARAMS, ENC)
    assert_allclose(st.mean, -np.linalg.solve(sys.A, sys.drive), rtol=1e-12)
    assert_allclose(st.mean, 2.0 * sys.drive / (PARAMS.nu + PARAMS.gamma), rtol=1e-12)


def test_steady_covariance_channelwise_oracle():
    """In the rotated frame each channel relaxes independently:
    v = (nu * a + gamma * (n + 1/2)) / (nu + gamma), a the input variance."""
    mu = -0.7
    noise = standard_noise(vacuum(), mu, PARAMS)
    st = steady_state(PARAMS, ENC, noise)
    T = _TRITTER
    rotated = T.T @ st.cov @ T
    a = np.diag(noise.Lambda)
    expected = (PARAMS.nu * a + PARAMS.gamma * (PARAMS.n_occ + 0.5)) / (
        PARAMS.nu + PARAMS.gamma
    )
    assert_allclose(np.diag(rotated), expected, rtol=1e-10)
    # and the off-diagonal part vanishes for diagonal Lambda
    assert np.abs(rotated - np.diag(np.diag(rotated))).max() < 1e-10


def test_steady_state_zeroes_covariance_flow():
    noise = standard_noise(squeezed_vacuum(0.4), -1.2, PARAMS)
    st = steady_state(PARAMS, ENC, noise)
    sys = system_matrices(PARAMS, ENC)
    V = st.cov
    flow = sys.A @ V + V @ sys.A.T + sys.B @ noise.SigmaW @ sys.B.T
    assert np.abs(flow).max() < 1e-10


def test_gaussian_state_validates_physicality():
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(6), cov=-np.eye(6))
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(3), cov=np.eye(6))
    # 0.9 x a pure state's covariance is positive definite but breaks the
    # uncertainty relation
    lossless = MemoryParams(nu=2.0, gamma=0.0, n_occ=0.0)
    pure = steady_state(lossless, ENC, standard_noise(vacuum(), -1.0, lossless)).cov
    with pytest.raises(ValueError, match="uncertainty relation"):
        GaussianState(mean=np.zeros(6), cov=0.9 * pure)


def test_single_mode_check_values():
    mean, var = single_mode_check(PARAMS, alpha_in=-5.0)
    assert mean.real == pytest.approx(2.0 * np.sqrt(3.0) * 5.0 / 4.0)
    assert var == pytest.approx(0.5 + 1.0 * 2.0 / 4.0)


def test_channel_variances_oracle():
    lam = lambda_matrix(vacuum(), squeezed_vacuum(-1.0), squeezed_vacuum(-1.0))
    v = channel_variances(PARAMS, lam)
    # q and p of mode 2: [nu e^(-/+1) + gamma(1+2n)] / (2(nu+gamma))
    assert v[2] == pytest.approx((3.0 * np.exp(-1.0) + 1.0 * 5.0) / 8.0, rel=1e-12)
    assert v[3] == pytest.approx((3.0 * np.exp(1.0) + 1.0 * 5.0) / 8.0, rel=1e-12)
    # vacuum payload: q and p agree, and the twin ancillas agree
    assert v[0] == v[1]
    assert_allclose(v[4:], v[2:4], rtol=0.0)
    # a q-p correlation couples the channels: refused
    tilted = FieldMode(vq=1.0, vp=1.0, c=0.5)
    with pytest.raises(ValueError, match="diagonal Lambda"):
        channel_variances(PARAMS, lambda_matrix(tilted, vacuum(), vacuum()))


def test_fidelity_vacuum_against_vacuum():
    assert fidelity(0.5 * np.eye(6), 0.5 * np.eye(6)) == pytest.approx(1.0)


def test_fidelity_closed_form_hand_value():
    # nu=3, gamma=1, n=2, vacuum inputs: each channel has v = (3/2 + 5/2)/4 = 1,
    # so v + 1/2 = 3/2 and F = (2/3)^(6/2)
    p = MemoryParams(nu=3.0, gamma=1.0, n_occ=2.0)
    lam = lambda_matrix(vacuum(), vacuum(), vacuum())
    assert fidelity_closed_form(p, lam) == pytest.approx((2.0 / 3.0) ** 3, rel=1e-15)


@pytest.mark.parametrize("mu", [0.0, -0.4, -1.5])
def test_fidelity_det_matches_closed_form(mu):
    noise = standard_noise(vacuum(), mu, PARAMS)
    st = steady_state(PARAMS, ENC, noise)
    lam = lambda_matrix(vacuum(), squeezed_vacuum(mu), squeezed_vacuum(mu))
    f_det = fidelity(st.cov, input_covariance(lam))
    assert f_det == pytest.approx(fidelity_closed_form(PARAMS, lam), rel=1e-10)
    # any diagonal Lambda, a squeezed payload included
    noise = standard_noise(squeezed_vacuum(0.6), mu, PARAMS)
    f_det = fidelity(steady_state(PARAMS, ENC, noise).cov, input_covariance(noise.Lambda))
    assert f_det == pytest.approx(fidelity_closed_form(PARAMS, noise.Lambda), rel=1e-10)


def test_fidelity_rejects_bad_inputs():
    with pytest.raises(ValueError, match="shape mismatch"):
        fidelity(np.eye(6), np.eye(4))
    with pytest.raises(ValueError, match=r"^det\(V \+ V_in\) = 0 is not positive$"):
        fidelity(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^det\(V \+ V_in\) = -1 is not positive$"):
        fidelity(np.diag([1.0, -1.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"^det\(V \+ V_in\) overflows$") as err:
        fidelity(np.stack([np.eye(2), 1e200 * np.eye(2)]), np.zeros((2, 2, 2)))
    assert err.value.index == 1


def test_pfd_rate_anchors():
    assert pfd_rate(0.0, vacuum()) == pytest.approx(CLASSICAL_LIMIT_RATE)
    # deep ancilla squeezing with vacuum payload -> 4.5 from the payload term
    assert pfd_rate(-30.0, vacuum()) == pytest.approx(4.5, rel=1e-9)
    # momentum-squeezed payload (M > 0) lowers the payload term;
    # position-squeezed (M < 0) raises it
    assert pfd_rate(0.0, squeezed_vacuum(1.0)) < CLASSICAL_LIMIT_RATE
    assert pfd_rate(0.0, squeezed_vacuum(-1.0)) > CLASSICAL_LIMIT_RATE


def test_psys_quadratic_form_by_hand():
    # On V = c*I: each pairwise position difference has variance 2c, the
    # total momentum 3c, so psys = 3*2c + 3*3c = 15c.
    c = 0.7
    assert psys(c * np.eye(6)) == pytest.approx(15.0 * c, rel=1e-12)


def test_psys_matches_closed_form_at_steady_state():
    for mu in (0.0, -0.5, -2.0):
        noise = standard_noise(vacuum(), mu, PARAMS)
        st = steady_state(PARAMS, ENC, noise)
        assert psys(st.cov) == pytest.approx(psys_closed_form(mu, PARAMS), rel=1e-10)


def test_entanglement_bound_and_threshold():
    assert ENTANGLEMENT_BOUND == 6.0
    p = MemoryParams(nu=100.0, gamma=1.0, n_occ=0.0)
    n_star = occupation_threshold(p)
    assert n_star == pytest.approx(0.1 * 100.0 - 0.1)
    # at the threshold occupation and ideal squeezing psys crosses the bound
    below = MemoryParams(nu=100.0, gamma=1.0, n_occ=0.9 * n_star)
    above = MemoryParams(nu=100.0, gamma=1.0, n_occ=1.1 * n_star)
    assert psys_closed_form(-30.0, below) < ENTANGLEMENT_BOUND
    assert psys_closed_form(-30.0, above) > ENTANGLEMENT_BOUND
    assert occupation_threshold(MemoryParams(nu=1.0, gamma=0.0, n_occ=0.0)) == np.inf


def test_syndrome_statistics_and_ideal_limit():
    mu = -18.0  # near-ideal ancillas
    noise = standard_noise(vacuum(), mu, PARAMS)
    st = steady_state(PARAMS, ENC, noise)
    stats = syndrome_statistics(st.cov)
    assert stats.shape == (3,)
    ideal = syndrome_variance_ideal(PARAMS)
    assert_allclose(stats, ideal, rtol=1e-6)
    # vacuum ancillas sit well above the ideal residual
    noise0 = standard_noise(vacuum(), 0.0, PARAMS)
    st0 = steady_state(PARAMS, ENC, noise0)
    assert syndrome_statistics(st0.cov).min() > ideal


def test_lossless_memory_reproduces_input():
    p = MemoryParams(nu=2.0, gamma=0.0, n_occ=0.0)
    enc = standard_encoding(7.0)
    for mu in (0.0, -1.0):
        noise = standard_noise(vacuum(), mu, p)
        st = steady_state(p, enc, noise)
        lam = lambda_matrix(vacuum(), squeezed_vacuum(mu), squeezed_vacuum(mu))
        assert_allclose(st.cov, input_covariance(lam), atol=1e-12)
        assert fidelity(st.cov, input_covariance(lam)) == pytest.approx(
            fidelity(input_covariance(lam), input_covariance(lam))
        )


def test_closed_form_of_a_lambda_stack_equals_each_lambda_bit_for_bit():
    """channel_variances and fidelity_closed_form on a stack of Lambdas give
    each item's own value bit for bit (a float alone), and refuse a stack
    with one correlated (tilted) source."""
    p = MemoryParams(nu=3.0, gamma=0.7, n_occ=12.5)
    lams = np.stack(
        [
            standard_noise(squeezed_vacuum(mu1), mu, p).Lambda
            for mu in np.linspace(-20.0, 3.0, 47)
            for mu1 in (0.0, 1.5)
        ]
    )
    F = fidelity_closed_form(p, lams)
    V = channel_variances(p, lams)
    for lam, f, v in zip(lams, F, V):
        alone = fidelity_closed_form(p, lam)
        assert isinstance(alone, float) and f == alone
        assert np.array_equal(v, channel_variances(p, lam))
    tilted = lams.copy()
    tilted[5] = lambda_matrix(FieldMode(vq=2.0, vp=1.0, c=0.5), vacuum(), vacuum())
    with pytest.raises(ValueError, match="diagonal Lambda"):
        fidelity_closed_form(p, tilted)


def test_closed_form_covariance_matches_the_lyapunov_solver_over_the_box(monkeypatch):
    """V' = (nu Lambda + gamma (n + 1/2) I)/(2c) against the general Lyapunov
    solver in x' (drift -cI, noise B' SigmaW B'^T with B' = (-sqrt(nu) I,
    -sqrt(gamma) I)), and the steady state's T V' T^T against it in x (A
    and B from system_matrices), one point and stacked, over seeded points
    of the parameter box: nu/2pi in [1e2, 1e6] Hz, gamma/nu in {0} u
    [1e-6, 1], n in {0} u [1e-2, 1e6], mu in [MU_FLOOR, 2] (MU_FLOOR at
    every point) and mu1 in [-2, 2]. The largest entrywise differences
    measured are 3.9e-16 (x') and 5.2e-16 (x) of max|X|."""
    rng = np.random.default_rng(23)
    points = []
    for k in range(40):
        nu = 2.0 * np.pi * 10.0 ** rng.uniform(2.0, 6.0)
        gamma = 0.0 if k % 4 == 0 else nu * 10.0 ** rng.uniform(-6.0, 0.0)
        n_occ = 0.0 if k % 3 == 0 else 10.0 ** rng.uniform(-2.0, 6.0)
        p = MemoryParams(nu=nu, gamma=gamma, n_occ=n_occ)
        mus = [MU_FLOOR, *rng.uniform(MU_FLOOR, 2.0, 3)]
        noises = [standard_noise(squeezed_vacuum(rng.uniform(-2.0, 2.0)), mu, p) for mu in mus]
        sysm = system_matrices(p, ENC)
        Bp = np.hstack([-np.sqrt(nu) * np.eye(6), -np.sqrt(gamma) * np.eye(6)])
        X = []
        for B in (Bp, sysm.B):
            Qn = np.stack([B @ noise.SigmaW @ B.T for noise in noises])
            X.append(solve_lyapunov_steady(np.broadcast_to(sysm.A, Qn.shape), Qn))
        points.append((p, noises, *X))

    def refuse(*args):
        raise AssertionError("the open loop called the Lyapunov solver")

    for module in [m for name, m in sys.modules.items() if name.startswith("memlqg")]:
        if hasattr(module, "solve_lyapunov_steady"):
            monkeypatch.setattr(module, "solve_lyapunov_steady", refuse)
    for p, noises, Xp, X in points:
        one = np.stack([steady_state(p, ENC, noise).cov for noise in noises])
        for V, ref in [(_steady_covariances(p, noises), Xp), (one, X)]:
            scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
            assert (np.abs(V - ref) <= 1e-15 * scale).all()
        uncontrolled_fidelities(p, noises)


def test_overflowing_noise_covariance_names_its_inputs():
    """A stack whose item 1 has a noise covariance past the float range is
    refused at that item, with a message that names the settings feeding
    it rather than a drift the open loop never forms."""
    p = MemoryParams(nu=1e6, gamma=1.0, n_occ=2.0)  # nu e^700 / 2 overflows
    noises = [standard_noise(squeezed_vacuum(mu1), -0.4, p) for mu1 in (0.0, 700.0, 1.0)]
    with pytest.raises(ValueError) as exc:
        _steady_covariances(p, noises)
    assert str(exc.value) == "noise covariance overflowed: |mu|, |mu1| or n_occ is too large"
    assert exc.value.index == 1
