"""Dense real-matrix kernels: the steady Lyapunov equation and the CARE.

Matrices are plain float64 numpy arrays throughout, and numpy is the only
dependency. The Lyapunov equation is solved as one linear system on the
n(n+1)/2 unknowns of a symmetric solution (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., 2002, ch. 16), whose second right-hand
side certifies that the drift is Hurwitz. The CARE is solved by the
eigenvector method (Potter, SIAM J. Appl. Math. 14, 1966): the stable
eigenvectors of the Hamiltonian matrix span the graph of the solution.
Covariance-like results are symmetric and verified against their defining
equation before being returned, so callers can rely on the residual bounds
stated in each docstring.

Both solvers take a stack of problems along a leading axis, (k, n, n), as
well as one problem, (n, n), which they solve as the stack of one: there is
one kernel, and each item of a stack comes out bit for bit as it would
alone (numpy's linalg routines and matmul work item by item). A sweep's
cost is per-call overhead, not arithmetic, so one call per stack is what
makes it fast (the batched small-matrix pattern; Dongarra et al., Procedia
Comput. Sci. 108, 2017). Every gate runs per item, and the first item that
fails raises the error it raises alone; `exc.index` holds its place in the
stack it was given (0 for one problem). A caller maps that index to its own
items with `items_renamed`, and only the command line labels it with text.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np


class UnstableDriftError(ValueError):
    """The drift matrix has an eigenvalue with a nonnegative real part."""


class ConvergenceError(RuntimeError):
    """A factorization failed or a solution missed its residual bound."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message if residual is None else f"{message} (residual {residual:.3e})")
        self.residual = residual


@contextmanager
def items_renamed(label=None, point=None):
    """Pass on an error raised inside that carries the index k of a failing
    item (`exc.index`) as the failure of item point(k) of the caller's own
    (k itself when point is None), its message prefixed 'label(point(k)): '
    unless label is None; any other error passes unchanged."""
    try:
        yield
    except (ValueError, RuntimeError) as exc:
        if getattr(exc, "index", None) is None:
            raise
        if point is not None:
            exc.index = point(exc.index)
        if label is not None:
            exc.args = (f"{label(exc.index)}: {exc}",)
        raise


def check_items(ok: np.ndarray, error) -> None:
    """Raise error(i) for the first i whose flag in `ok` is False, its
    `index` set to i, the item's place in the stack the flags describe."""
    if not ok.all():
        i = int(np.argmin(ok))
        exc = error(i)
        exc.index = i
        raise exc


def _refuses(fn, *args) -> bool:
    try:
        fn(*args)
    except np.linalg.LinAlgError:
        return True
    return False


def lapack_items(fn, error, *stacks: np.ndarray) -> np.ndarray:
    """fn(*stacks) for a numpy.linalg routine, which refuses a whole stack
    when it refuses one item; then check_items raises error(i) for the
    first item i of the stacks that it refuses alone."""
    try:
        return fn(*stacks)
    except np.linalg.LinAlgError:
        ok = [not _refuses(fn, *(s[i] for s in stacks)) for i in range(len(stacks[0]))]
    check_items(np.array(ok), error)
    return fn(*stacks)


def stack(arrays: list) -> np.ndarray:
    """np.stack(arrays), or a view of the one array as the stack of one."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def symmetrize(M: np.ndarray) -> np.ndarray:
    """(M + M^T)/2 of a matrix or of each item of a stack — covariance
    hygiene after any linear-algebra step."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def min_eigenvalue(M: np.ndarray):
    """Smallest eigenvalue of symmetrize(M): a float, or one per item of a stack."""
    w = np.linalg.eigvalsh(symmetrize(M)).min(axis=-1)
    return float(w) if w.ndim == 0 else w


def _norms(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each item of a stack."""
    return np.sqrt(np.square(M).sum(axis=(-2, -1)))


def _square_stack(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, got shape {M.shape}")
    return M


def _check_symmetric(M: np.ndarray, name: str) -> np.ndarray:
    """Refuse an item of the stack M that is not symmetric to 1e-10 of
    max(1, its largest |entry|); return each item's largest |entry|. Each
    solver symmetrizes what it uses of M itself."""
    largest = np.abs(M).max(axis=(1, 2))
    skew = np.abs(M - M.swapaxes(1, 2)).max(axis=(1, 2))
    ok = skew <= 1e-10 * np.maximum(1.0, largest)
    check_items(ok, lambda i: ValueError(f"{name} must be symmetric"))
    return largest


@lru_cache(maxsize=None)
def _lyapunov_operator_index(n: int) -> tuple:
    """Index arrays of the Lyapunov operator X -> A X + X A^T on symmetric
    n x n X, written on its N = n(n+1)/2 upper-triangle unknowns.

    Row e = (i, j), i <= j, of the N x N operator matrix collects A[i, k]
    at the column of X[k, j] (the first term group) and A[j, k] at the
    column of X[i, k] (the second), for every k. Within a group a row's n
    columns are distinct, so the operator is one scatter of the first group
    and one scatter-add of the second: an entry holds at most one term of
    each, summed in that order. Returns (targets, sources, rows, cols, rhs,
    unpack): targets and sources the flat N x N and flat A positions of the
    two groups, (rows, cols) the upper triangle, rhs an N x 2 right-hand
    side whose second column is -vech(I), and unpack the flat positions of
    [X | Y] (n x 2n) in the N x 2 solution. Asked once per n.
    """
    rows, cols = np.triu_indices(n)
    N = rows.size
    vech = np.empty((n, n), dtype=np.intp)
    vech[rows, cols] = vech[cols, rows] = np.arange(N)
    k = np.arange(n)
    e = np.arange(N)[:, None] * N
    targets = (e + vech[k, cols[:, None]]).ravel(), (e + vech[rows[:, None], k]).ravel()
    sources = (rows[:, None] * n + k).ravel(), (cols[:, None] * n + k).ravel()
    rhs = np.zeros((N, 2))
    rhs[rows == cols, 1] = -1.0
    unpack = np.hstack([2 * vech, 2 * vech + 1])
    return targets, sources, rows, cols, rhs, unpack


def _unstable_drift(A: np.ndarray) -> UnstableDriftError | None:
    """The error naming A's rightmost eigenvalue when its real part is >= 0."""
    w = np.linalg.eigvals(A)
    worst = w[np.argmax(w.real)]
    if worst.real < 0.0:
        return None
    worst = complex(worst) if np.iscomplexobj(w) else float(worst)
    return UnstableDriftError(f"unstable drift: eigenvalue {worst} has Re >= 0")


def solve_lyapunov_steady(A: np.ndarray, Qn: np.ndarray) -> np.ndarray:
    """Solve A X + X A^T + Qn = 0 for symmetric X, A strictly Hurwitz; A and
    Qn are n x n, or k x n x n stacks solved item by item.

    The equation is solved on the n(n+1)/2 unknowns of a symmetric X
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    ch. 16): one `np.linalg.solve` of that operator takes a second
    right-hand side, A Y + Y A^T = -I, and a Y that passes a Cholesky
    factorization with a residual below 1/2 proves every eigenvalue of A to
    have Re < 0 (Lyapunov's theorem). Only when that certificate fails are
    A's eigenvalues computed, to name the offending one; a Hurwitz A whose
    certificate fails (non-normal, near the imaginary axis) is still solved,
    and the residual gate decides. The result is symmetric and checked to
    satisfy the equation to 1e-10 relative to ||Qn||, both norms taken of
    the matrix divided by Qn's largest entry, so that the gate holds at any
    scale a float reaches. Raises ValueError on NaN or inf entries,
    UnstableDriftError unless every eigenvalue of A has Re < 0, and
    ConvergenceError on a singular operator or an inaccurate solve; on a
    stack, for the first item that fails a gate, as alone, with `exc.index`
    its place in it.
    """
    A = _square_stack(A, "A")
    Qn = _square_stack(Qn, "Qn")
    if A.shape != Qn.shape:
        raise ValueError(f"shape mismatch: A {A.shape} vs Qn {Qn.shape}")
    stacked = A.ndim == 3
    if not stacked:  # the stack of one
        A, Qn = A[None], Qn[None]
    if not (np.isfinite(A).all() and np.isfinite(Qn).all()):
        finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(Qn).all(axis=(1, 2))
        check_items(finite, lambda i: ValueError("A and Qn must not contain infs or NaNs"))
    qmax = _check_symmetric(Qn, "Qn")
    X = _lyapunov_dense(A, Qn, qmax)
    return X if stacked else X[0]


def _lyapunov_dense(A: np.ndarray, Qn: np.ndarray, qmax) -> np.ndarray:
    """Stacked symmetric-unknowns route: one block of k operators, one solve."""
    k, n = A.shape[:2]
    (t1, t2), (s1, s2), rows, cols, rhs0, unpack = _lyapunov_operator_index(n)
    N = rows.size
    A2 = A.reshape(k, n * n)
    L = np.zeros((k, N * N))
    L[:, t1] = A2[:, s1] + 0.0  # + 0.0 keeps the sign of zero a sum from 0 gives
    L[:, t2] += A2[:, s2]
    rhs = np.empty((k, N, 2))
    rhs[:, :, 0] = -0.5 * (Qn[:, rows, cols] + Qn[:, cols, rows])
    rhs[:, :, 1] = rhs0[:, 1]

    def singular(i):
        error = ConvergenceError("Lyapunov solve failed: singular operator")
        return _unstable_drift(A[i]) or error

    XY = lapack_items(np.linalg.solve, singular, L.reshape(k, N, N), rhs)
    XY = XY.reshape(k, 2 * N)[:, unpack]  # [X | Y], both symmetric
    AXY = A @ XY
    AX, AY = AXY[:, :, :n], AXY[:, :, n:]
    RY = AY + AY.swapaxes(1, 2)
    RY.reshape(k, n * n)[:, :: n + 1] += 1.0
    # A bound on an absolute scale: a norm whose squares overflow (or
    # underflow) is far above (or below) it, so it still compares right.
    certified = (_norms(RY) <= 0.5) & _positive_definite(XY[:, :, n:])
    if not certified.all():
        unstable = [None if ok else _unstable_drift(a) for ok, a in zip(certified, A)]
        check_items(np.array([error is None for error in unstable]), unstable.__getitem__)
    return _checked_lyapunov(AX + AX.swapaxes(1, 2) + Qn, XY[:, :, :n].copy(), Qn, qmax)


def _positive_definite(M: np.ndarray) -> np.ndarray:
    """Whether each item of the stack M passes a Cholesky factorization."""
    if not _refuses(np.linalg.cholesky, M):
        return np.ones(len(M), dtype=bool)
    return np.array([not _refuses(np.linalg.cholesky, m) for m in M])


def _checked_lyapunov(residual: np.ndarray, X: np.ndarray, Qn: np.ndarray, qmax):
    """X, once each item's residual A X + X A^T + Qn is below 1e-10 relative
    to its ||Qn||; an item whose Qn has no nonzero entry is X = 0. Both
    Frobenius norms are taken of the matrix divided by qmax, Qn's largest
    |entry|, so that no square overflows or underflows where it matters:
    ||Qn / qmax|| >= 1, and a residual whose squares overflow is far off."""
    zero = qmax == 0.0
    both = np.concatenate([residual[:, None], Qn[:, None]], axis=1)
    norms = _norms(both / (qmax + zero)[:, None, None, None])  # zero: divided by 1
    relative = norms[:, 0] / np.maximum(norms[:, 1], 1.0)  # 1: no nonzero entry
    check_items(
        zero | (relative <= 1e-10),
        lambda i: ConvergenceError("Lyapunov solve inaccurate", float(relative[i])),
    )
    if zero.any():
        X[zero] = 0.0
    return X


def _care_residual(A, B, Q, R, P) -> np.ndarray:
    """||A^T P + P A + Q - P B R^-1 B^T P|| relative to ||Q|| (absolute where
    Q = 0), per item of a stack."""
    BT = B.swapaxes(-1, -2)
    residual = A.swapaxes(-1, -2) @ P + P @ A + Q - P @ B @ np.linalg.solve(R, BT @ P)
    qscale = _norms(Q)
    return _norms(residual) / np.where(qscale == 0.0, 1.0, qscale)


def solve_care(Atil: np.ndarray, Btil: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of Atil^T P + P Atil + Q - P Btil R^-1 Btil^T P = 0;
    one problem (Atil n x n, Btil n x m), or k stacked along a leading axis.

    R must be symmetric positive definite; Q symmetric PSD. Potter's
    eigenvector method: the eigenvectors [U11; U21] of the Hamiltonian
    H = [[Atil, -Btil R^-1 Btil^T], [-Q, -Atil^T]] that belong to its n
    left-half-plane eigenvalues span its stable invariant subspace, and
    P = U21 U11^-1 is returned once it satisfies the equation to 1e-8
    relative to ||Q||, item by item. Q = 0 is no special case (P = 0 only
    for a Hurwitz Atil); its residual is absolute. Raises ValueError on NaN
    or inf entries, and ConvergenceError when H has no n-dimensional stable
    subspace with an invertible U11 (no stabilizing solution), or with the
    residual when P misses its bound; on a stack, for the first item that
    fails a gate, as alone, with `exc.index` its place in the stack.
    """
    Atil = _square_stack(Atil, "Atil")
    Btil = np.asarray(Btil, dtype=float)
    Q = _square_stack(Q, "Q")
    R = _square_stack(R, "R")
    stacked = Atil.ndim == 3
    k = len(Atil) if stacked else 1
    if not stacked:  # the stack of one
        Atil, Btil, Q, R = Atil[None], Btil[None], Q[None], R[None]
    if any(M.ndim != 3 or len(M) != k for M in (Btil, Q, R)):
        raise ValueError("Atil, Btil, Q and R must all be one problem or stacks of equal length")
    finite = np.all([np.isfinite(M).all(axis=(1, 2)) for M in (Atil, Btil, Q, R)], axis=0)
    check_items(finite, lambda i: ValueError("Atil, Btil, Q and R must not contain infs or NaNs"))
    _check_symmetric(Q, "Q")
    _check_symmetric(R, "R")
    Q, R = symmetrize(Q), symmetrize(R)
    n = Atil.shape[1]
    if Btil.shape[1] != n or Btil.shape[2] != R.shape[1]:
        raise ValueError(
            f"shape mismatch: Atil {Atil.shape}, Btil {Btil.shape}, R {R.shape}"
        )
    if Atil.shape != Q.shape:
        raise ValueError(f"shape mismatch: Atil {Atil.shape} vs Q {Q.shape}")
    lapack_items(np.linalg.cholesky, lambda i: ValueError("R must be positive definite"), R)
    floor = -1e-10 * np.maximum(1.0, np.abs(Q).max(axis=(1, 2)))
    psd = min_eigenvalue(Q) >= floor
    check_items(psd, lambda i: ValueError("Q must be positive semidefinite"))

    P = _potter(Atil, Btil, Q, R)
    residual = _care_residual(Atil, Btil, Q, R, P)
    check_items(
        residual <= 1e-8,
        lambda i: ConvergenceError("CARE residual above tolerance", float(residual[i])),
    )
    return P if stacked else P[0]


def _potter(Atil, Btil, Q, R) -> np.ndarray:
    """Potter's solution U21 U11^-1 for each item of the stacks, with the sdim,
    singular-U11 and finiteness gates."""
    k, n = Atil.shape[:2]
    BT = Btil.swapaxes(1, 2)
    G = symmetrize(Btil @ np.linalg.solve(R, BT))
    H = np.empty((k, 2 * n, 2 * n))
    H[:, :n, :n], H[:, :n, n:] = Atil, -G
    H[:, n:, :n], H[:, n:, n:] = -Q, -Atil.swapaxes(1, 2)
    w, V = np.linalg.eig(H)
    stable = w.real < 0.0
    sdim = np.count_nonzero(stable, axis=1)
    check_items(
        sdim == n,
        lambda i: ConvergenceError(
            f"CARE solver failed: {sdim[i]} of {2 * n} Hamiltonian eigenvalues "
            f"in the open left half plane, expected {n}"
        ),
    )
    # the stable columns in their order, as V[:, stable] takes them alone
    columns = np.argsort(~stable, axis=1, kind="stable")[:, None, :n]
    U = np.take_along_axis(V, columns, axis=2)
    singular = lambda i: ConvergenceError("CARE solver failed: U11 is singular")  # noqa: E731
    # np.linalg.eig returns real arrays only when every item's eigenvalues
    # are real; an item alone would get real ones whenever its own are, so
    # such items are solved in real arithmetic here too.
    real = ~np.iscomplex(w).any(axis=1)
    P = np.empty((k, n, n))
    for group in (real, ~real):
        if group.any():
            Ug = U if group.all() else U[group]
            Ug = Ug.real if group is real else Ug
            with items_renamed(point=lambda i: int(np.flatnonzero(group)[i])):
                X = lapack_items(
                    np.linalg.solve, singular, Ug[:, :n].swapaxes(1, 2), Ug[:, n:].swapaxes(1, 2)
                )
            P[group] = X.swapaxes(1, 2).real  # conjugate pairs share a real part
    P = symmetrize(P)
    check_items(
        np.isfinite(P).all(axis=(1, 2)),
        lambda i: ConvergenceError("CARE solver failed: solution is not finite"),
    )
    # For an orthonormal basis W of the subspace, sigma_min(W11)^-2 = 1 + ||P||^2:
    # W11 is singular to working precision once ||P|| reaches 1/(n eps)
    check_items(_norms(P) * n * np.finfo(float).eps < 1.0, singular)
    return P
