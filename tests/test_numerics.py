import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg.numerics import (
    UnstableDriftError,
    min_eigenvalue,
    newton_kleinman,
    solve_care,
    solve_lyapunov_steady,
    symmetrize,
)

RNG = np.random.default_rng(41)


def random_stable(n, rng):
    """Random Hurwitz drift: skew part plus a negative-definite shift."""
    M = rng.standard_normal((n, n))
    return 0.5 * (M - M.T) - (1.0 + np.abs(rng.standard_normal())) * np.eye(n)


def test_symmetrize_and_psd_helpers():
    M = np.array([[1.0, 2.0], [0.0, 3.0]])
    S = symmetrize(M)
    assert_allclose(S, S.T)
    assert_allclose(S, [[1.0, 1.0], [1.0, 3.0]])
    assert min_eigenvalue(np.eye(3)) >= -1e-10
    assert not min_eigenvalue(np.diag([1.0, -0.5])) >= -1e-10
    assert min_eigenvalue(np.diag([4.0, -0.5, 2.0])) == pytest.approx(-0.5)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_lyapunov_solution_satisfies_equation(n):
    A = random_stable(n, RNG)
    G = RNG.standard_normal((n, n))
    Qn = G @ G.T + 0.1 * np.eye(n)
    X = solve_lyapunov_steady(A, Qn)
    assert_allclose(A @ X + X @ A.T + Qn, np.zeros((n, n)), atol=1e-10 * np.linalg.norm(Qn))
    assert min_eigenvalue(X) >= -1e-10


def test_lyapunov_scalar_oracle():
    # dx = -a x dt + sqrt(q) dW  ->  steady var q / (2a)
    a, q = 3.0, 5.0
    X = solve_lyapunov_steady(np.array([[-a]]), np.array([[q]]))
    assert X[0, 0] == pytest.approx(q / (2 * a), rel=1e-12)


def test_lyapunov_rejects_unstable_drift():
    with pytest.raises(UnstableDriftError):
        solve_lyapunov_steady(np.array([[1e-3]]), np.array([[1.0]]))


def test_lyapunov_rejects_marginal_drift():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # purely oscillatory
    with pytest.raises(UnstableDriftError):
        solve_lyapunov_steady(A, np.eye(2))


def random_care_problem(n, m, rng):
    """Hurwitz A with random B, positive-definite Q and a scaled-identity R."""
    A = random_stable(n, rng)
    B = rng.standard_normal((n, m))
    G = rng.standard_normal((n, n))
    Q = G @ G.T + 0.1 * np.eye(n)
    R = np.eye(m) * (1.0 + rng.random())
    return A, B, Q, R


@pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (6, 3)])
def test_care_solution_satisfies_residual(n, m):
    A, B, Q, R = random_care_problem(n, m, RNG)
    P = solve_care(A, B, Q, R)
    res = A.T @ P + P @ A - P @ B @ np.linalg.solve(R, B.T @ P) + Q
    assert np.linalg.norm(res) <= 1e-8 * max(1.0, np.linalg.norm(Q))
    assert min_eigenvalue(P) >= -1e-10
    # closed loop must be stable
    K = np.linalg.solve(R, B.T @ P)
    assert np.linalg.eigvals(A - B @ K).real.max() < 0


@pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (6, 3)])
def test_newton_kleinman_from_zero_gain_matches_care(n, m):
    A, B, Q, R = random_care_problem(n, m, RNG)
    P = newton_kleinman(A, B, Q, R, np.zeros((m, n)))
    assert_allclose(P, solve_care(A, B, Q, R), rtol=0, atol=1e-10 * np.linalg.norm(P))


def test_newton_kleinman_rejects_destabilizing_gain():
    A = random_stable(3, RNG)
    shift = 1.0 + np.abs(A).sum()  # A + shift I has every eigenvalue in the right half plane
    with pytest.raises(UnstableDriftError):
        newton_kleinman(A, np.eye(3), np.eye(3), np.eye(3), -shift * np.eye(3))


def test_care_scalar_oracle():
    # a=0, b=1, q=1, r=1: p solves p^2 = q r -> p = 1, but with a=-1:
    # -2p - p^2 + 1 = 0 -> p = sqrt(2) - 1
    P = solve_care(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    assert P[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)
