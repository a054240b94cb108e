"""Dense real-matrix kernels: steady Lyapunov, CARE, Newton-Kleinman.

Matrices are plain float64 numpy arrays throughout. Both equation solvers
call LAPACK's real Schur decomposition (dgees) directly: the Lyapunov
equation by Bartels & Stewart (CACM 15, 1972), with dtrsyl on the Schur
form, and the CARE by Laub's Schur method (IEEE TAC 24, 1979) on the
Hamiltonian matrix. Covariance-like results are re-symmetrized after every
update and verified against their defining equation before being returned,
so callers can rely on the residual bounds stated in each docstring.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgees, dtrsyl


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
    M = _check_square(M, name)
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise ValueError(f"{name} must be symmetric")
    return symmetrize(M)


def _no_sort(wr: float, wi: float) -> None:
    return None


@lru_cache(maxsize=None)
def _schur_lwork(n: int) -> int:
    """dgees' own lwork=-1 workspace query for an n x n matrix, as
    scipy.linalg.schur makes it. The answer depends on n alone (LAPACK sizes
    it from ilaenv block sizes and a query of dhseqr on rows 1..n), so it is
    asked once per n."""
    return int(dgees(_no_sort, np.zeros((n, n)), lwork=-1)[-2][0])


def _real_schur(A: np.ndarray, solver: str, select=None) -> tuple:
    """dgees on A: (T, U, sdim, wr, wi), with A = U T U^T and U orthogonal.

    `select(wr, wi)` moves the eigenvalues it accepts to the top left of T;
    sdim counts them. The workspace size is dgees' own query (_schur_lwork),
    as in scipy.linalg.schur, so T and U match that function's.
    Raises ConvergenceError("<solver> failed: ...") on any nonzero info.
    """
    lwork = _schur_lwork(A.shape[0])
    sort_t = 0 if select is None else 1
    T, sdim, wr, wi, U, _, info = dgees(select or _no_sort, A, lwork=lwork, sort_t=sort_t)
    if info != 0:
        raise ConvergenceError(f"{solver} failed: dgees info {info}")
    return T, U, sdim, wr, wi


def solve_lyapunov_steady(A: np.ndarray, Qn: np.ndarray) -> np.ndarray:
    """Solve A X + X A^T + Qn = 0 for symmetric X, A strictly Hurwitz.

    Bartels-Stewart: the real Schur form A = U T U^T, then dtrsyl solves
    T Y + Y T^T = -U^T Qn U and X = U Y U^T, the same calls and order of
    operations as scipy.linalg.solve_continuous_lyapunov. Stability is read
    off the Schur form's eigenvalues. The result is re-symmetrized and
    checked to satisfy the equation to 1e-10 relative to ||Qn||. Raises
    ValueError on NaN or inf entries, UnstableDriftError unless every
    eigenvalue of A has Re < 0, and ConvergenceError on a LAPACK failure or
    an inaccurate solve.
    """
    A = _check_square(A, "A")
    Qn = _check_square(Qn, "Qn")
    if not (np.isfinite(A).all() and np.isfinite(Qn).all()):
        raise ValueError("A and Qn must not contain infs or NaNs")
    Qn = _check_symmetric(Qn, "Qn")
    if A.shape != Qn.shape:
        raise ValueError(f"shape mismatch: A {A.shape} vs Qn {Qn.shape}")
    T, U, _, wr, wi = _real_schur(A, "Lyapunov solve")
    k = int(np.argmax(wr))
    if wr[k] >= 0.0:
        worst = complex(wr[k], wi[k]) if wi.any() else float(wr[k])  # as np.linalg.eigvals
        raise UnstableDriftError(f"unstable drift: eigenvalue {worst} has Re >= 0")

    qscale = float(np.linalg.norm(Qn))
    if qscale == 0.0:
        return np.zeros_like(Qn)
    Y, scale, info = dtrsyl(T, T, U.T.dot((-Qn).dot(U)), tranb="T")
    if info != 0:
        raise ConvergenceError(f"Lyapunov solve failed: dtrsyl info {info}")
    Y *= scale
    X = symmetrize(U.dot(Y).dot(U.T))
    residual = float(np.linalg.norm(A @ X + X @ A.T + Qn)) / qscale
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


def _left_half_plane(wr: float, wi: float) -> bool:
    return wr < 0.0


def solve_care(Atil: np.ndarray, Btil: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of Atil^T P + P Atil + Q - P Btil R^-1 Btil^T P = 0.

    R must be symmetric positive definite; Q symmetric PSD. Laub's Schur
    method: the real Schur form of the Hamiltonian
    H = [[Atil, -Btil R^-1 Btil^T], [-Q, -Atil^T]], sorted so that its n
    left-half-plane eigenvalues come first, spans the stable invariant
    subspace [U11; U21], and P = U21 U11^-1. That seed is polished by
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
    Q = _check_symmetric(Q, "Q")
    R = _check_symmetric(R, "R")
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
    _, U, sdim, _, _ = _real_schur(H, "CARE solver", _left_half_plane)
    if sdim != n:
        raise ConvergenceError(
            f"CARE solver failed: {sdim} of {2 * n} Hamiltonian eigenvalues "
            f"in the open left half plane, expected {n}"
        )
    U11, U21 = U[:n, :n], U[n:, :n]
    # U is orthogonal, so ||U11|| <= 1 and its smallest singular value is
    # its distance to the nearest singular matrix
    if np.linalg.svd(U11, compute_uv=False)[-1] <= n * np.finfo(float).eps:
        raise ConvergenceError("CARE solver failed: U11 is singular")
    P = symmetrize(np.linalg.solve(U11.T, U21.T).T)
    if not np.isfinite(P).all():
        raise ConvergenceError("CARE solver failed: solution is not finite")

    # Newton-Kleinman polish: each step squares the error of the Schur seed.
    residual = _care_residual(Atil, Btil, Q, R, P, qscale)
    if residual < 1e-12:
        return P
    return newton_kleinman(Atil, Btil, Q, R, np.linalg.solve(R, Btil.T @ P))
