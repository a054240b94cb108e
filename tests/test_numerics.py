import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from memlqg import estimation, numerics
from memlqg.acceptance import reference_params
from memlqg.estimation import measurement_model, stationary_filter
from memlqg.model import squeezed_vacuum, standard_encoding, standard_noise
from memlqg.numerics import (
    ConvergenceError,
    UnstableDriftError,
    min_eigenvalue,
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


@pytest.mark.parametrize("n", [2, 6, 9])
def test_lyapunov_matches_scipy(n):
    """The symmetric-unknowns solve agrees with scipy's Bartels-Stewart
    solver on non-normal drifts and their transposes."""
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        A = random_stable(n, rng) + 0.3 * rng.standard_normal((n, n))  # not normal
        A -= max(0.0, np.linalg.eigvals(A).real.max() + 0.1) * np.eye(n)
        G = rng.standard_normal((n, n))
        Q = G @ G.T
        for drift in (A, A.T):  # a transposed view as well as the array
            X = solve_lyapunov_steady(drift, Q)
            oracle = scipy.linalg.solve_continuous_lyapunov(drift, -Q)
            assert np.array_equal(X, X.T)
            assert np.linalg.norm(X - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_lyapunov_matches_the_closed_form_on_a_diagonal_drift():
    """A diagonal drift decouples the entries: X_ij = -Q_ij/(a_i + a_j)."""
    a = np.array([-0.5, -2.0, -3.0])
    G = RNG.standard_normal((3, 3))
    Q = G @ G.T
    X = solve_lyapunov_steady(np.diag(a), Q)
    assert np.array_equal(X, X.T)
    assert_allclose(X, -Q / (a[:, None] + a), rtol=1e-15)


@pytest.mark.parametrize("certificate", ["kept", "failed"])
def test_lyapunov_accepts_non_normal_drift_near_the_imaginary_axis(certificate, monkeypatch):
    """A Hurwitz drift whose eigenvalues sit 1e-3 left of the axis, with a
    large off-diagonal coupling, is solved to the gate, not refused, also
    when its Hurwitz certificate fails: then the eigenvalues decide."""
    if certificate == "failed":
        monkeypatch.setattr(numerics, "_positive_definite", lambda M: False)
    A = np.array([[-1e-3, 50.0, 0.0], [-1.0, -1e-3, 30.0], [0.0, 0.0, -1e-3]])
    assert np.linalg.eigvals(A).real.max() < 0
    Q = np.eye(3)
    for drift in (A, A.T):
        X = solve_lyapunov_steady(drift, Q)
        oracle = scipy.linalg.solve_continuous_lyapunov(drift, -Q)
        assert np.linalg.norm(drift @ X + X @ drift.T + Q) <= 1e-10 * np.linalg.norm(Q)
        assert np.linalg.norm(X - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_unstable_drift_error_names_the_eigenvalue():
    """A dense unstable drift is refused with its rightmost eigenvalue."""
    A = np.array([[0.25, 1.0, 0.0], [-1.0, 0.25, 0.0], [0.0, 0.3, -2.0]])
    complex_pair = r"eigenvalue \(0\.25[0-9]*[+-][0-9.e-]+j\) has Re >= 0"
    with pytest.raises(UnstableDriftError, match=complex_pair):
        solve_lyapunov_steady(A, np.eye(3))
    B = np.array([[0.5, 2.0], [0.0, -1.0]])
    with pytest.raises(UnstableDriftError, match=r"eigenvalue 0\.5 has Re >= 0"):
        solve_lyapunov_steady(B, np.eye(2))


@pytest.mark.parametrize("where", ["A", "Qn"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lyapunov_rejects_non_finite_input(where, bad):
    A, Qn = -np.eye(3), np.eye(3)
    (A if where == "A" else Qn)[1, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_lyapunov_steady(A, Qn)


def test_lyapunov_scalar_oracle():
    # dx = -a x dt + sqrt(q) dW  ->  steady var q / (2a)
    a, q = 3.0, 5.0
    X = solve_lyapunov_steady(np.array([[-a]]), np.array([[q]]))
    assert X[0, 0] == pytest.approx(q / (2 * a), rel=1e-12)


def test_lyapunov_rejects_unstable_drift():
    with pytest.raises(UnstableDriftError, match=r"eigenvalue 0\.001 has Re >= 0"):
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


def test_care_scalar_oracle():
    # a=0, b=1, q=1, r=1: p solves p^2 = q r -> p = 1, but with a=-1:
    # -2p - p^2 + 1 = 0 -> p = sqrt(2) - 1
    P = solve_care(np.array([[-1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1))
    assert P[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)


def assert_care_matches_scipy(A, B, Q, R, balanced=True):
    oracle = scipy.linalg.solve_continuous_are(A, B, Q, R, balanced=balanced)
    P = solve_care(A, B, Q, R)
    assert np.linalg.norm(P - oracle) <= 1e-10 * np.linalg.norm(oracle)


@pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (6, 3)])
def test_care_matches_scipy_on_random_problems(n, m):
    assert_care_matches_scipy(*random_care_problem(n, m, np.random.default_rng(200 + n)))


def filter_care_problem(mode, mu1=0.0):
    """The arguments of the stationary filter's one CARE at the reference
    point, as one problem: the filter solves it as a stack of one."""
    problems = []
    solve = estimation.solve_care

    def capture(*args):
        problems.append(args)
        return solve(*args)

    params = reference_params()
    enc = standard_encoding(-230.0)
    noise = standard_noise(squeezed_vacuum(mu1), -0.4, params)
    mm = measurement_model(mode, enc, params, noise)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "solve_care", capture)
        stationary_filter(mm, params, enc, noise)
    assert len(problems) == 1 and all(len(M) == 1 for M in problems[0])
    return tuple(M[0] for M in problems[0])


@pytest.mark.parametrize("mode", ["s1", "s2"])
def test_care_matches_scipy_on_filter_problem(mode):
    """The stationary filter's shifted CARE at the reference point."""
    # on this problem, solved in the input-mode coordinates, scipy's default
    # balancing is itself off the closed form by 2e-6 (s1) and 2.4 (s2)
    assert_care_matches_scipy(*filter_care_problem(mode), balanced=False)


@pytest.mark.parametrize("where", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_care_rejects_non_finite_input(where, bad):
    args = [-np.eye(2), np.eye(2), np.eye(2), np.eye(2)]
    args[where][0, 0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_care(*args)


def test_care_rejects_unstabilizable_problem():
    # A = 1 with no input: no gain stabilizes it, so no stabilizing P exists
    with pytest.raises(ConvergenceError, match="CARE solver failed"):
        solve_care(np.array([[1.0]]), np.array([[0.0]]), np.eye(1), np.eye(1))


def inaccurate_care_problem():
    """A badly scaled 4 x 4 CARE whose eigenvector solution misses the 1e-8
    residual bound (its residual is ~3e-6)."""
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4))
    G = rng.standard_normal((4, 4))
    A = 0.5 * (M - M.T) - 1e-3 * np.eye(4)
    return A, rng.standard_normal((4, 2)), 1e5 * G @ G.T + 1e-3 * np.eye(4), 1e-5 * np.eye(2)


def assert_items_solved_alone(solve, problems):
    """solve() on the stack of the problems equals each problem solved alone,
    bit for bit."""
    stacked = solve(*(np.stack(args) for args in zip(*problems)))
    assert stacked.shape[0] == len(problems)
    for item, args in zip(stacked, problems):
        assert np.array_equal(item, solve(*args))


def test_lyapunov_stack_items_equal_each_item_solved_alone():
    """Dense and diagonal drifts, alone and in one stack."""
    rng = np.random.default_rng(7)
    problems = []
    for k in range(5):
        G = rng.standard_normal((6, 6))
        A = random_stable(6, rng) if k % 2 else np.diag(-rng.uniform(0.5, 3.0, 6))
        problems.append((A, G @ G.T))
    assert_items_solved_alone(solve_lyapunov_steady, problems)
    assert_items_solved_alone(solve_lyapunov_steady, problems[1::2])  # dense only
    assert_items_solved_alone(solve_lyapunov_steady, problems[0::2])  # diagonal only


def test_care_stack_items_equal_each_item_solved_alone():
    """The s1 and s2 filter CAREs (with and without a squeezed source) and
    random problems, stacked by shape. The filter CAREs meet the equation
    to 1e-12, far inside solve_care's 1e-8 bound."""
    s1 = [filter_care_problem("s1", mu1) for mu1 in (0.0, -1.0, 0.5)]
    s2 = [filter_care_problem("s2", mu1) for mu1 in (0.0, -1.0)]
    assert_items_solved_alone(solve_care, s1)
    assert_items_solved_alone(solve_care, s2)
    for A, B, Q, R in s1 + s2:
        P = solve_care(A, B, Q, R)
        assert numerics._care_residual(A, B, Q, R, P) <= 1e-12
    rng = np.random.default_rng(5)
    assert_items_solved_alone(solve_care, [random_care_problem(4, 2, rng) for _ in range(4)])


def gate_failures():
    """(gate, solve, problems, index, error, message) for every gate: the
    problems stacked fail at item `index`, with the error type and the
    start of the message that item raises alone."""
    rng = np.random.default_rng(11)
    lyap = [(random_stable(2, rng), np.eye(2)) for _ in range(3)]
    care = [(-np.eye(2), np.eye(2), np.eye(2), np.eye(2))] * 3
    care4 = [random_care_problem(4, 2, rng) for _ in range(3)]
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def one(problems, index, **bad):
        names = ("A", "Qn") if len(problems[0]) == 2 else ("A", "B", "Q", "R")
        problems = list(problems)
        problems[index] = tuple(bad.get(name, M) for name, M in zip(names, problems[index]))
        return problems

    nan = np.array([[np.nan, 0.0], [0.0, -1.0]])
    return [
        ("finite", solve_lyapunov_steady, one(lyap, 1, A=nan), 1, ValueError, "A and Qn must not"),
        ("symmetric", solve_lyapunov_steady, one(lyap, 2, Qn=skew), 2, ValueError, "Qn must be"),
        # an earlier gate fails first, at any item: finiteness before symmetry
        ("gate order", solve_lyapunov_steady, one(one(lyap, 1, Qn=skew), 2, A=nan), 2,
         ValueError, "A and Qn must not"),
        ("Hurwitz, dense", solve_lyapunov_steady,
         one(lyap, 1, A=np.array([[0.5, 2.0], [0.0, -1.0]])), 1,
         UnstableDriftError, "unstable drift: eigenvalue 0.5 "),
        # a diagonal drift takes the same route: its certificate fails, and
        # its eigenvalues name the offending one
        ("Hurwitz, diagonal", solve_lyapunov_steady, one(lyap, 2, A=np.diag([-1.0, 1e-3])), 2,
         UnstableDriftError, "unstable drift: eigenvalue 0.001 "),
        ("Lyapunov residual", solve_lyapunov_steady,
         one(lyap, 1, A=np.array([[-1e-3, 1e6], [0.0, -1e-3]])), 1,
         ConvergenceError, "Lyapunov solve inaccurate"),
        ("CARE finite", solve_care, one(care, 1, B=nan), 1, ValueError, "Atil, Btil, Q and R"),
        ("Q symmetric", solve_care, one(care, 1, Q=skew), 1, ValueError, "Q must be symmetric"),
        ("R symmetric", solve_care, one(care, 2, R=skew), 2, ValueError, "R must be symmetric"),
        ("R > 0", solve_care, one(care, 1, R=-np.eye(2)), 1, ValueError, "R must be positive"),
        ("Q >= 0", solve_care, one(care, 1, Q=-np.eye(2)), 1, ValueError, "Q must be positive"),
        ("sdim", solve_care, one(care, 1, A=rotation, B=np.zeros((2, 2)), Q=np.zeros((2, 2))), 1,
         ConvergenceError, "CARE solver failed: 0 of 4 Hamiltonian eigenvalues"),
        ("U11", solve_care, one(care, 2, A=np.eye(2), B=np.zeros((2, 2))), 2,
         ConvergenceError, "CARE solver failed: U11 is singular"),
        # the other items' Hamiltonians have complex eigenvalues, so the
        # failing item is alone in the group solved in real arithmetic
        ("U11, real group", solve_care,
         one([(rotation, np.eye(2), np.eye(2), np.eye(2))] * 3, 2, A=np.eye(2),
             B=np.zeros((2, 2))), 2,
         ConvergenceError, "CARE solver failed: U11 is singular"),
        ("CARE residual", solve_care, care4[:2] + [inaccurate_care_problem()] + care4[2:], 2,
         ConvergenceError, "CARE residual above tolerance"),
    ]


def test_stack_error_names_the_failing_item():
    """At every gate, a stack fails at its first failing item with the error
    that item raises alone, the same type and message; the error's `index`
    names the item's place in the stack (0 for one problem alone)."""
    for gate, solve, problems, index, error, message in gate_failures():
        with pytest.raises(error) as alone:
            solve(*problems[index])
        assert str(alone.value).startswith(message), gate
        assert alone.value.index == 0, gate
        with pytest.raises(error) as stacked:
            solve(*(np.stack(args) for args in zip(*problems)))
        assert type(stacked.value) is type(alone.value), gate
        assert str(stacked.value) == str(alone.value), gate
        assert stacked.value.index == index, gate


def test_convergence_error_states_only_a_measured_residual():
    """A ConvergenceError's message ends with its residual only when one was
    measured: the factorization gates (sdim, singular U11) state none and
    carry residual None, the Lyapunov and CARE residual gates state their
    own, above their bounds."""
    assert str(ConvergenceError("singular operator")) == "singular operator"
    assert ConvergenceError("singular operator").residual is None
    measured = ConvergenceError("inaccurate", 2.5e-9)
    assert str(measured) == "inaccurate (residual 2.500e-09)" and measured.residual == 2.5e-9
    bounds = {"Lyapunov residual": 1e-10, "CARE residual": 1e-8}
    for gate, solve, problems, index, error, message in gate_failures():
        if error is not ConvergenceError:
            continue
        with pytest.raises(ConvergenceError) as exc:
            solve(*problems[index])
        if gate in bounds:
            assert exc.value.residual > bounds[gate], gate
            assert str(exc.value).endswith(f" (residual {exc.value.residual:.3e})"), gate
        else:
            assert exc.value.residual is None, gate
            assert "residual" not in str(exc.value), gate


@pytest.mark.parametrize("scale", [0.0, 1e-300])
def test_care_with_zero_state_weight_returns_the_stabilizing_solution(scale):
    """Q = 0 (or so small that its norm underflows) still has a unique
    stabilizing solution: 2 for a = +1 (the closed loop a - p = -1), 0 for a
    stable a, and scipy's on a 2 x 2 with one unstable mode."""
    one = np.eye(1)
    assert solve_care(one, one, scale * one, one)[0, 0] == pytest.approx(2.0, rel=1e-12)
    assert np.array_equal(solve_care(-one, one, scale * one, one), np.zeros((1, 1)))
    A = np.array([[0.5, 1.0], [0.0, -2.0]])
    B, R = np.array([[1.0], [0.3]]), np.eye(1)
    P = solve_care(A, B, scale * np.eye(2), R)
    oracle = scipy.linalg.solve_continuous_are(A, B, np.zeros((2, 2)), R)
    assert_allclose(P, oracle, rtol=1e-12, atol=1e-14)
    assert np.linalg.eigvals(A - B @ np.linalg.solve(R, B.T @ P)).real.max() < 0


def test_lyapunov_gates_are_scale_safe():
    """The residual gate takes its norms of the matrices divided by Qn's
    largest entry, so no square overflows or underflows: a dense problem
    solves at Qn ~ 1e200 (where the residual's squares overflow), an item
    with Qn = 1e-300 I is not taken for Qn = 0, and at 1e200 a bad residual
    still fails the gate, with a finite relative residual."""
    rng = np.random.default_rng(21)
    A = random_stable(3, rng)
    G = rng.standard_normal((3, 3))
    Q = G @ G.T + np.eye(3)
    X = solve_lyapunov_steady(A, 1e200 * Q)
    assert_allclose(X, 1e200 * solve_lyapunov_steady(A, Q), rtol=1e-13)
    X = solve_lyapunov_steady(np.diag([-1.0, -2.0]), 1e-300 * np.eye(2))
    assert_allclose(X, np.diag([5e-301, 2.5e-301]), rtol=1e-15)
    X = solve_lyapunov_steady(np.diag([-1.0, -2.0]), 1e200 * np.eye(2))
    assert_allclose(X, np.diag([5e199, 2.5e199]), rtol=1e-15)
    Qn = 1e200 * np.eye(2)[None]
    residual = 1e191 * np.eye(2)[None]  # 1e-9 of ||Qn||
    with pytest.raises(ConvergenceError) as exc:
        numerics._checked_lyapunov(residual, X[None].copy(), Qn, np.array([1e200]))
    assert exc.value.residual == pytest.approx(1e-9, rel=1e-12)
    # Condition ~1e12: unless Qn's scale is a power of two, the rounding of
    # this problem's own residual is ~1e-5 of ||Qn||, at 1e160 as at 0.1,
    # and the gate reports that finite relative residual.
    B = np.array([[-1.0, 1e6], [0.0, -1.0]])
    for scale in (0.1, 1e160):
        with pytest.raises(ConvergenceError) as exc:
            solve_lyapunov_steady(B, scale * np.eye(2))
        assert 1e-6 < exc.value.residual < 1e-4
    assert_allclose(solve_lyapunov_steady(B, 2.0**531 * np.eye(2))[1, 1], 2.0**530, rtol=0)
