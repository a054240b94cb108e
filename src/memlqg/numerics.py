"""Dense real-matrix kernels: steady Lyapunov, CARE, Newton-Kleinman.

Matrices are plain float64 numpy arrays throughout. Covariance-like results
are re-symmetrized after every update and verified against their defining
equation before being returned, so callers can rely on the residual bounds
stated in each docstring.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


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


def solve_lyapunov_steady(A: np.ndarray, Qn: np.ndarray) -> np.ndarray:
    """Solve A X + X A^T + Qn = 0 for symmetric X, A strictly Hurwitz.

    Backed by the dense Bartels-Stewart solver; the result is re-symmetrized
    and checked to satisfy the equation to 1e-10 relative to ||Qn||.
    """
    A = _check_square(A, "A")
    Qn = _check_symmetric(Qn, "Qn")
    if A.shape != Qn.shape:
        raise ValueError(f"shape mismatch: A {A.shape} vs Qn {Qn.shape}")
    eigs = np.linalg.eigvals(A)
    worst = eigs[np.argmax(eigs.real)]
    if worst.real >= 0.0:
        raise UnstableDriftError(f"unstable drift: eigenvalue {worst} has Re >= 0")

    qscale = float(np.linalg.norm(Qn))
    if qscale == 0.0:
        return np.zeros_like(Qn)
    X = symmetrize(scipy.linalg.solve_continuous_lyapunov(A, -Qn))
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


def solve_care(Atil: np.ndarray, Btil: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of Atil^T P + P Atil + Q - P Btil R^-1 Btil^T P = 0.

    R must be symmetric positive definite; Q symmetric PSD. Backed by the
    scipy CARE solver, polished by `newton_kleinman` unless its residual is
    already below 1e-12; the returned P satisfies the equation to 1e-8
    relative to ||Q||.
    """
    Atil = _check_square(Atil, "Atil")
    Q = _check_symmetric(Q, "Q")
    R = _check_symmetric(R, "R")
    Btil = np.asarray(Btil, dtype=float)
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

    try:
        P = symmetrize(scipy.linalg.solve_continuous_are(Atil, Btil, Q, R))
    except Exception as exc:  # scipy raises LinAlgError or ValueError
        raise ConvergenceError(f"CARE solver failed: {exc}") from exc

    # Newton-Kleinman polish: each step squares the error of the QZ-based seed.
    residual = _care_residual(Atil, Btil, Q, R, P, qscale)
    if residual < 1e-12:
        return P
    return newton_kleinman(Atil, Btil, Q, R, np.linalg.solve(R, Btil.T @ P))
