"""Dense real-matrix kernels: steady Lyapunov, CARE, Newton-Kleinman.

Matrices are plain float64 numpy arrays throughout, and numpy is the only
dependency. The Lyapunov equation is solved entry by entry for a diagonal
drift, else as one linear system on the n(n+1)/2 unknowns of a symmetric
solution (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
2002, ch. 16), whose second right-hand side certifies that the drift is
Hurwitz. The CARE is solved by the eigenvector method (Potter, SIAM J.
Appl. Math. 14, 1966): the stable eigenvectors of the Hamiltonian matrix
span the graph of the solution, which Newton-Kleinman polishes when needed.
Covariance-like results are symmetric and verified against their defining
equation before being returned, so callers can rely on the residual bounds
stated in each docstring.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class UnstableDriftError(ValueError):
    """The drift matrix has an eigenvalue with a nonnegative real part."""


class ConvergenceError(RuntimeError):
    """An iterative or factorization-based solve missed its tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def symmetrize(M: np.ndarray) -> np.ndarray:
    """(M + M.T)/2 — covariance hygiene after any linear-algebra step."""
    return 0.5 * (M + M.T)


def min_eigenvalue(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(symmetrize(M)).min())


def _check_square(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    return M


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    """M, once it is square and symmetric to 1e-10 of its largest entry;
    each solver symmetrizes what it uses of M itself."""
    M = _check_square(M, name)
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise ValueError(f"{name} must be symmetric")
    return M


@lru_cache(maxsize=None)
def _lyapunov_operator_index(n: int) -> tuple:
    """Index arrays of the Lyapunov operator X -> A X + X A^T on symmetric
    n x n X, written on its N = n(n+1)/2 upper-triangle unknowns.

    Row e = (i, j), i <= j, of the N x N operator matrix collects A[i, k]
    at the column of X[k, j] and A[j, k] at the column of X[i, k], for every
    k; `np.bincount` sums the 2 N n terms into place. Returns (target, source,
    rows, cols, rhs, unpack): target the flat N x N positions, source the
    flat positions in A, (rows, cols) the upper triangle, rhs an N x 2
    right-hand side whose second column is -vech(I), and unpack the flat
    positions of [X | Y] (n x 2n) in the N x 2 solution. Asked once per n.
    """
    rows, cols = np.triu_indices(n)
    N = rows.size
    vech = np.empty((n, n), dtype=np.intp)
    vech[rows, cols] = vech[cols, rows] = np.arange(N)
    k = np.arange(n)
    e = np.arange(N)[:, None] * N
    target = np.hstack([e + vech[k, cols[:, None]], e + vech[rows[:, None], k]])
    source = np.hstack([rows[:, None] * n + k, cols[:, None] * n + k])
    rhs = np.zeros((N, 2))
    rhs[rows == cols, 1] = -1.0
    unpack = np.hstack([2 * vech, 2 * vech + 1])
    return target.ravel(), source.ravel(), rows, cols, rhs, unpack


def _unstable_drift(A: np.ndarray) -> UnstableDriftError | None:
    """The error naming A's rightmost eigenvalue when its real part is >= 0."""
    w = np.linalg.eigvals(A)
    worst = w[np.argmax(w.real)]
    if worst.real < 0.0:
        return None
    worst = complex(worst) if np.iscomplexobj(w) else float(worst)
    return UnstableDriftError(f"unstable drift: eigenvalue {worst} has Re >= 0")


def solve_lyapunov_steady(A: np.ndarray, Qn: np.ndarray) -> np.ndarray:
    """Solve A X + X A^T + Qn = 0 for symmetric X, A strictly Hurwitz.

    A diagonal A is solved entry by entry, X_ij = -Qn_ij/(a_i + a_j), and is
    Hurwitz when every a_i < 0. Any other A is solved on the n(n+1)/2
    unknowns of a symmetric X (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 16): one `np.linalg.solve` of that
    operator takes a second right-hand side, A Y + Y A^T = -I, and a Y that
    passes a Cholesky factorization with a residual below 1/2 proves every
    eigenvalue of A to have Re < 0 (Lyapunov's theorem). Only when that
    certificate fails are A's eigenvalues computed, to name the offending
    one; a Hurwitz A whose certificate fails (non-normal, near the imaginary
    axis) is still solved, and the residual gate decides. The result is
    symmetric and checked to satisfy the equation to 1e-10 relative to
    ||Qn||. Raises ValueError on NaN or inf entries, UnstableDriftError
    unless every eigenvalue of A has Re < 0, and ConvergenceError on a
    singular operator or an inaccurate solve.
    """
    A = _check_square(A, "A")
    Qn = _check_square(Qn, "Qn")
    if not (np.isfinite(A).all() and np.isfinite(Qn).all()):
        raise ValueError("A and Qn must not contain infs or NaNs")
    Qn = _check_symmetric(Qn, "Qn")
    if A.shape != Qn.shape:
        raise ValueError(f"shape mismatch: A {A.shape} vs Qn {Qn.shape}")
    a = np.diagonal(A)
    if np.count_nonzero(A) == np.count_nonzero(a):  # diagonal drift
        if a.max() >= 0.0:
            raise UnstableDriftError(f"unstable drift: eigenvalue {float(a.max())} has Re >= 0")
        X = (Qn + Qn.T) / (-2.0 * (a[:, None] + a))
        AX = a[:, None] * X
        return _checked_lyapunov(AX + AX.T + Qn, X, Qn)

    n = A.shape[0]
    target, source, rows, cols, rhs, unpack = _lyapunov_operator_index(n)
    N = rows.size
    L = np.bincount(target, A.ravel()[source], N * N).reshape(N, N)
    rhs = rhs.copy()
    rhs[:, 0] = -0.5 * (Qn[rows, cols] + Qn[cols, rows])
    try:
        XY = np.linalg.solve(L, rhs).ravel()[unpack]  # [X | Y], both symmetric
    except np.linalg.LinAlgError:
        singular = ConvergenceError("Lyapunov solve failed: singular operator")
        raise _unstable_drift(A) or singular from None
    AXY = A @ XY
    AX, AY = AXY[:, :n], AXY[:, n:]
    RY = AY + AY.T
    RY.flat[:: n + 1] += 1.0
    if not (np.linalg.norm(RY) <= 0.5 and _positive_definite(XY[:, n:])):
        error = _unstable_drift(A)
        if error is not None:
            raise error
    return _checked_lyapunov(AX + AX.T + Qn, XY[:, :n].copy(), Qn)


def _positive_definite(M: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def _checked_lyapunov(residual: np.ndarray, X: np.ndarray, Qn: np.ndarray) -> np.ndarray:
    """X, once its residual A X + X A^T + Qn is below 1e-10 relative to ||Qn||."""
    qscale = float(np.linalg.norm(Qn))
    if qscale == 0.0:
        return np.zeros_like(Qn)
    residual = float(np.linalg.norm(residual)) / qscale
    if residual > 1e-10:
        raise ConvergenceError("Lyapunov solve inaccurate", residual)
    return X


def _care_residual(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray, P: np.ndarray, qscale: float
) -> float:
    """||A^T P + P A + Q - P B R^-1 B^T P|| / qscale."""
    residual = A.T @ P + P @ A + Q - P @ B @ np.linalg.solve(R, B.T @ P)
    return float(np.linalg.norm(residual)) / qscale


NEWTON_KLEINMAN_MAX_STEPS = 20


def newton_kleinman(
    Atil: np.ndarray, Btil: np.ndarray, Q: np.ndarray, R: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """Stabilizing solution of the `solve_care` equation by Newton-Kleinman
    iteration (Kleinman, IEEE TAC 13, 1968) from the gain G.

    Each step solves the closed-loop Lyapunov equation
    (Atil - Btil G)^T P + P (Atil - Btil G) + Q + G^T R G = 0 and sets
    G = R^-1 Btil^T P. The loop stops when the residual falls below 1e-12
    relative to ||Q|| (absolute when Q = 0), when the next closed loop is not stable, or after
    NEWTON_KLEINMAN_MAX_STEPS steps. Raises UnstableDriftError when the given
    G does not stabilize Atil - Btil G, and ConvergenceError unless the last P
    satisfies the equation to 1e-8 relative to ||Q||.
    """
    qscale = float(np.linalg.norm(Q)) or 1.0
    P = None
    for _ in range(NEWTON_KLEINMAN_MAX_STEPS):
        try:
            P_next = solve_lyapunov_steady((Atil - Btil @ G).T, Q + G.T @ R @ G)
        except UnstableDriftError:
            if P is None:  # the given gain does not stabilize
                raise
            break  # keep the last stable iterate
        P = P_next
        residual = _care_residual(Atil, Btil, Q, R, P, qscale)
        if residual < 1e-12:
            break
        G = np.linalg.solve(R, Btil.T @ P)
    if residual > 1e-8:
        raise ConvergenceError("CARE residual above tolerance", residual)
    return P


def solve_care(Atil: np.ndarray, Btil: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of Atil^T P + P Atil + Q - P Btil R^-1 Btil^T P = 0.

    R must be symmetric positive definite; Q symmetric PSD. Potter's
    eigenvector method: the eigenvectors [U11; U21] of the Hamiltonian
    H = [[Atil, -Btil R^-1 Btil^T], [-Q, -Atil^T]] that belong to its n
    left-half-plane eigenvalues span its stable invariant subspace, and
    P = U21 U11^-1. That seed is polished by
    `newton_kleinman` unless its residual is already below 1e-12; the
    returned P satisfies the equation to 1e-8 relative to ||Q||. Raises
    ValueError on NaN or inf entries, and ConvergenceError when H has no
    n-dimensional stable subspace with an invertible U11 (no stabilizing
    solution).
    """
    Atil = _check_square(Atil, "Atil")
    Btil = np.asarray(Btil, dtype=float)
    Q = _check_square(Q, "Q")
    R = _check_square(R, "R")
    if not all(np.isfinite(M).all() for M in (Atil, Btil, Q, R)):
        raise ValueError("Atil, Btil, Q and R must not contain infs or NaNs")
    Q = symmetrize(_check_symmetric(Q, "Q"))
    R = symmetrize(_check_symmetric(R, "R"))
    if Btil.ndim != 2 or Btil.shape[0] != Atil.shape[0] or Btil.shape[1] != R.shape[0]:
        raise ValueError(
            f"shape mismatch: Atil {Atil.shape}, Btil {Btil.shape}, R {R.shape}"
        )
    if Atil.shape != Q.shape:
        raise ValueError(f"shape mismatch: Atil {Atil.shape} vs Q {Q.shape}")
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        raise ValueError("R must be positive definite") from None
    if min_eigenvalue(Q) < -1e-10 * max(1.0, float(np.abs(Q).max())):
        raise ValueError("Q must be positive semidefinite")

    qscale = float(np.linalg.norm(Q))
    if qscale == 0.0:
        return np.zeros_like(Q)

    n = Atil.shape[0]
    G = symmetrize(Btil @ np.linalg.solve(R, Btil.T))
    H = np.block([[Atil, -G], [-Q, -Atil.T]])
    w, V = np.linalg.eig(H)
    stable = w.real < 0.0
    sdim = int(np.count_nonzero(stable))
    if sdim != n:
        raise ConvergenceError(
            f"CARE solver failed: {sdim} of {2 * n} Hamiltonian eigenvalues "
            f"in the open left half plane, expected {n}"
        )
    U = V[:, stable]  # conjugate pairs share a real part, so P comes out real
    try:
        P = symmetrize(np.linalg.solve(U[:n].T, U[n:].T).T.real)
    except np.linalg.LinAlgError:
        raise ConvergenceError("CARE solver failed: U11 is singular") from None
    if not np.isfinite(P).all():
        raise ConvergenceError("CARE solver failed: solution is not finite")
    # For an orthonormal basis W of the subspace, sigma_min(W11)^-2 = 1 + ||P||^2:
    # W11 is singular to working precision once ||P|| reaches 1/(n eps)
    if np.linalg.norm(P) * n * np.finfo(float).eps >= 1.0:
        raise ConvergenceError("CARE solver failed: U11 is singular")

    # Newton-Kleinman polish: each step squares the error of the eigenvector seed.
    residual = _care_residual(Atil, Btil, Q, R, P, qscale)
    if residual < 1e-12:
        return P
    return newton_kleinman(Atil, Btil, Q, R, np.linalg.solve(R, Btil.T @ P))
