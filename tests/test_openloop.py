import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg.model import (
    MemoryParams,
    input_covariance,
    lambda_matrix,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    tritter,
    vacuum,
)
from memlqg.openloop import (
    CLASSICAL_LIMIT_RATE,
    ENTANGLEMENT_BOUND,
    GaussianState,
    fidelity,
    fidelity_closed_form,
    occupation_threshold,
    pfd_rate,
    psys,
    psys_closed_form,
    single_mode_check,
    steady_mode_variances,
    steady_state,
    syndrome_statistics,
    syndrome_variance_ideal,
    system_matrices,
)

PARAMS = MemoryParams(nu=3.0, gamma=1.0, n_occ=2.0)
ENC = standard_encoding(-230.0)


def test_system_matrices_shapes_and_drift():
    sys = system_matrices(PARAMS, ENC)
    assert_allclose(sys.A, -2.0 * np.eye(6))  # -(nu+gamma)/2
    assert sys.B.shape == (6, 12)
    # noise map columns: input-field part scaled by sqrt(nu), bath by sqrt(gamma)
    assert_allclose(sys.B[:, :6], -np.sqrt(3.0) * ENC.T)
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
    T = tritter()
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


def test_single_mode_check_values():
    mean, var = single_mode_check(PARAMS, alpha_in=-5.0)
    assert mean.real == pytest.approx(2.0 * np.sqrt(3.0) * 5.0 / 4.0)
    assert var == pytest.approx(0.5 + 1.0 * 2.0 / 4.0)


def test_steady_mode_variances_oracle():
    modes = (vacuum(), squeezed_vacuum(-1.0), squeezed_vacuum(-1.0))
    vp, vm = steady_mode_variances(PARAMS, modes)
    # v_plus for mode 2: [nu e^mu + gamma(1+2n)] / (2(nu+gamma))
    expected_p2 = (3.0 * np.exp(-1.0) + 1.0 * 5.0) / 8.0
    expected_m2 = (3.0 * np.exp(1.0) + 1.0 * 5.0) / 8.0
    assert vp[1] == pytest.approx(expected_p2, rel=1e-12)
    assert vm[1] == pytest.approx(expected_m2, rel=1e-12)
    # vacuum payload: plus and minus agree
    assert vp[0] == pytest.approx(vm[0])


def test_fidelity_vacuum_against_vacuum():
    assert fidelity(0.5 * np.eye(6), 0.5 * np.eye(6)) == pytest.approx(1.0)


def test_fidelity_closed_form_hand_value():
    # nu=3, gamma=1, n=2, mu=0: each factor 2*4/(6+1+1+4) = 8/12 -> F=(2/3)^3
    p = MemoryParams(nu=3.0, gamma=1.0, n_occ=2.0)
    assert fidelity_closed_form(0.0, p) == pytest.approx((2.0 / 3.0) ** 3, rel=1e-12)


@pytest.mark.parametrize("mu", [0.0, -0.4, -1.5])
def test_fidelity_det_matches_closed_form(mu):
    noise = standard_noise(vacuum(), mu, PARAMS)
    st = steady_state(PARAMS, ENC, noise)
    lam = lambda_matrix(vacuum(), squeezed_vacuum(mu), squeezed_vacuum(mu))
    f_det = fidelity(st.cov, input_covariance(lam))
    assert f_det == pytest.approx(fidelity_closed_form(mu, PARAMS), rel=1e-10)


def test_fidelity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fidelity(np.eye(6), np.eye(4))
    with pytest.raises(ValueError):
        fidelity(np.zeros((2, 2)), np.zeros((2, 2)))  # det = 0


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
