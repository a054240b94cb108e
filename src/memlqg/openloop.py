"""Uncontrolled memory dynamics and figure-of-merit evaluation.

Every quadrature decays at the common rate c = (nu+gamma)/2. In the
memory's coordinates x the moments obey

    d<x>/dt = A <x> + drive,          A = -c I6
    dV/dt   = A V + V A^T + B Sw B^T, B = (-sqrt(nu) T, -sqrt(gamma) I6)

with Sw = diag{Lambda, (n_occ + 1/2) I6} the twelve-channel noise
covariance. In the input-mode coordinates x' = T^T x the noise map is
(-sqrt(nu) I6, -sqrt(gamma) I6), so each channel relaxes on its own and the
steady covariance needs no solver: V' = (nu Lambda + gamma (n_occ + 1/2) I6)/(2c).
The squeezed and anti-squeezed variances, e^mu apart, never mix there, so
the fidelity det(V' + Lambda)^-1/2 is exact at the lossless point. T enters
the open loop only where an output is in x: the steady state's covariance
T V' T^T. `system_matrices` is the x-frame model that the Monte Carlo steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _TRITTER, Encoding, FieldMode, MemoryParams, NoiseModel, input_covariance
from .numerics import check_items, stack, symmetrize

#: Collective-variance rate of a classical (measure-and-prepare) write-in.
CLASSICAL_LIMIT_RATE = 7.5
#: Below this the three-mode state is inseparable.
ENTANGLEMENT_BOUND = 6.0

_PI = (1, 3, 5)  # momentum indices
_PAIRS = ((0, 2), (2, 4), (4, 0))  # position-difference pairs (q_i - q_j)


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and symmetrized covariance of the three-mode memory."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.mean.shape != (6,) or self.cov.shape != (6, 6):
            raise ValueError("GaussianState expects a 6-vector mean and 6x6 cov")
        _check_physical(self.cov[None])
        self.mean.setflags(write=False)
        self.cov.setflags(write=False)


@dataclass(frozen=True)
class SystemMatrices:
    """Drift A, noise input map B (6x12), and constant drive (-sqrt(nu) beta)."""

    A: np.ndarray
    B: np.ndarray
    drive: np.ndarray

    def __post_init__(self):
        for arr in (self.A, self.B, self.drive):
            arr.setflags(write=False)


def system_matrices(params: MemoryParams, enc: Encoding) -> SystemMatrices:
    """The linear model in x: the drift A = -c I, the noise map B = (-sqrt(nu) T,
    -sqrt(gamma) I) and the drive -sqrt(nu) beta of the encoding."""
    A = -params.damping * np.eye(6)
    B = np.hstack([-np.sqrt(params.nu) * _TRITTER, -np.sqrt(params.gamma) * np.eye(6)])
    return SystemMatrices(A=A, B=B, drive=-np.sqrt(params.nu) * enc.beta)


# The symplectic form in the (q1, p1, q2, p2, q3, p3) layout.
_OMEGA = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]])


def _check_physical(cov: np.ndarray) -> None:
    """Refuse a covariance of the stack that breaks the uncertainty relation
    V + i Omega/2 >= 0 (Simon, Mukunda and Dutta, PRA 49, 1567, 1994) by more
    than 1e-10 max(1, its largest |entry|). T is passive (T^T Omega T =
    Omega), so the one gate serves a covariance in x and in x'."""
    floor = -1e-10 * np.maximum(1.0, np.abs(cov).max(axis=(1, 2)))
    check_items(
        np.linalg.eigvalsh(symmetrize(cov) + 0.5j * _OMEGA).min(axis=-1) >= floor,
        lambda i: ValueError("covariance is not physical (breaks the uncertainty relation)"),
    )


def _steady_covariances(params: MemoryParams, noises: list) -> np.ndarray:
    """The steady covariance V' = (nu Lambda + gamma (n_occ + 1/2) I)/(2c) in
    x' of each noise model, as one stack, from SigmaW's two diagonal blocks.
    A noise whose covariance overflows is refused, `exc.index` its place in
    the list, with no floating-point warning before it."""
    SigmaW = stack([noise.SigmaW for noise in noises])
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        Q = params.nu * SigmaW[:, :6, :6] + params.gamma * SigmaW[:, 6:, 6:]
    check_items(
        np.isfinite(Q).all(axis=(1, 2)),
        lambda i: ValueError("noise covariance overflowed: |mu|, |mu1| or n_occ is too large"),
    )
    return Q / (2.0 * params.damping)


def steady_state(params: MemoryParams, enc: Encoding, noise: NoiseModel) -> GaussianState:
    """Stationary mean and covariance in x of the uncontrolled memory.

    The mean is -A^-1 drive = 2*drive/(nu+gamma); the covariance is the
    rotation T V' T^T of the closed-form steady covariance in x'.
    """
    sys = system_matrices(params, enc)
    mean = 2.0 * sys.drive / (params.nu + params.gamma)
    cov = input_covariance(_steady_covariances(params, [noise])[0])  # T V' T^T
    return GaussianState(mean=mean, cov=symmetrize(cov))


def uncontrolled_fidelities(params: MemoryParams, noises: list) -> np.ndarray:
    """The steady fidelity det(V' + Lambda)^-1/2 of each noise model, read
    in x' from one stack of covariances; the first noise that fails raises
    its own error, `exc.index` its place in the list. The fidelity is
    mean-matched, so no encoding is needed."""
    cov = _steady_covariances(params, noises)
    _check_physical(cov)
    return fidelity(cov, stack([noise.Lambda for noise in noises]))


def channel_variances(params: MemoryParams, Lambda: np.ndarray) -> np.ndarray:
    """Steady variances v_j = (nu lambda_j + gamma (n_occ + 1/2)) / (nu + gamma)
    of the six input-mode channels x' = T^T x, lambda_j = Lambda[j, j], or
    of each Lambda of a stack (k x 6), elementwise. Only a diagonal Lambda
    (no q-p correlation) makes the channels independent."""
    lam = _channel_inputs(Lambda)
    therm = params.gamma * (params.n_occ + 0.5)
    return (params.nu * lam + therm) / (params.nu + params.gamma)


def _channel_inputs(Lambda: np.ndarray) -> np.ndarray:
    """The diagonal of Lambda (or of each item of a stack), refusing an
    off-diagonal entry above 1e-12."""
    Lambda = np.asarray(Lambda, dtype=float)
    lam = np.diagonal(Lambda, axis1=-2, axis2=-1)
    off = Lambda.copy()
    off[..., np.arange(6), np.arange(6)] = 0.0
    if np.abs(off).max() > 1e-12:
        raise ValueError("closed-form channel variances require a diagonal Lambda")
    return lam


def single_mode_check(params: MemoryParams, alpha_in: float = 0.0) -> tuple[complex, float]:
    """Steady amplitude and quadrature variance of a single directly-driven mode.

    Reference point for the encoded protocol: mean -2 sqrt(nu) alpha_in/(nu+gamma),
    variance 1/2 + gamma*n_occ/(nu+gamma).
    """
    mean = complex(-2.0 * np.sqrt(params.nu) * alpha_in / (params.nu + params.gamma))
    var = 0.5 + params.gamma * params.n_occ / (params.nu + params.gamma)
    return mean, var


def fidelity(V: np.ndarray, V_in: np.ndarray):
    """Mean-matched Gaussian transfer fidelity 1/sqrt(det(V + V_in)): a
    float, or one per item when V and V_in are stacks of covariances (an
    error's `exc.index` is the first item whose determinant overflows or is
    not positive)."""
    V = np.asarray(V, dtype=float)
    V_in = np.asarray(V_in, dtype=float)
    if V.shape != V_in.shape or V.ndim not in (2, 3) or V.shape[-1] != V.shape[-2]:
        raise ValueError(f"shape mismatch: V {V.shape} vs V_in {V_in.shape}")
    with np.errstate(over="ignore"):  # refused just below
        det = np.linalg.det(V + V_in)
    dets = np.atleast_1d(det)
    check_items(
        np.isfinite(dets) & (dets > 0.0),
        lambda i: ValueError(
            "det(V + V_in) overflows"
            if np.isinf(dets[i])
            else f"det(V + V_in) = {dets[i]:.6g} is not positive"
        ),
    )
    return 1.0 / np.sqrt(det)


def fidelity_closed_form(params: MemoryParams, Lambda: np.ndarray):
    """Steady transfer fidelity of the input Lambda, prod_j (v_j + lambda_j)^-1/2
    over the channels of `channel_variances`: a float, or one per item of a
    stack of Lambdas, each bit for bit its own."""
    P = np.prod(channel_variances(params, Lambda) + _channel_inputs(Lambda), axis=-1)
    # C's pow value by value: numpy's vectorized power can differ in the last bit
    F = [x**-0.5 for x in np.atleast_1d(P).tolist()]
    return F[0] if P.ndim == 0 else np.array(F)


def pfd_rate(mu: float, source: FieldMode) -> float:
    """Growth rate 3 e^mu + 9 vp1 of the collective variance sum under
    feed-forward write-in, vp1 the payload's momentum variance. Equals 7.5 for
    vacuum inputs (the classical limit) and approaches 4.5 for ideal ancilla
    squeezing; below ENTANGLEMENT_BOUND the three written modes are inseparable."""
    return float(3.0 * np.exp(mu) + 9.0 * source.vp)


def psys(V: np.ndarray) -> float:
    """Collective variance sum of pairwise position differences plus 3x the
    total-momentum variance, evaluated on a memory covariance."""
    V = symmetrize(np.asarray(V, dtype=float))
    wp = np.zeros(6)
    wp[list(_PI)] = 1.0
    return float(syndrome_statistics(V).sum()) + 3.0 * float(wp @ V @ wp)


def psys_closed_form(mu: float, params: MemoryParams) -> float:
    """Steady-state value of psys for a coherent payload:
    (4.5 + 3 e^mu) nu/(nu+gamma) + (7.5 + 15 n_occ) gamma/(nu+gamma)."""
    w = params.nu / (params.nu + params.gamma)
    return float((4.5 + 3.0 * np.exp(mu)) * w + (7.5 + 15.0 * params.n_occ) * (1.0 - w))


def occupation_threshold(params: MemoryParams) -> float:
    """Largest bath occupation that still allows the steady state to witness
    entanglement at ideal squeezing: n < 0.1 nu/gamma - 0.1."""
    if params.gamma == 0.0:
        return float("inf")
    return 0.1 * params.nu / params.gamma - 0.1


def syndrome_statistics(V: np.ndarray) -> np.ndarray:
    """Variances of the three pairwise position differences (q_i - q_j)."""
    V = symmetrize(np.asarray(V, dtype=float))
    out = np.zeros(3)
    for k, (i, j) in enumerate(_PAIRS):
        w = np.zeros(6)
        w[i], w[j] = 1.0, -1.0
        out[k] = float(w @ V @ w)
    return out


def syndrome_variance_ideal(params: MemoryParams) -> float:
    """Residual pairwise-difference variance at ideal ancilla squeezing:
    gamma (2 n_occ + 1) / (nu + gamma)."""
    return params.gamma * (2.0 * params.n_occ + 1.0) / (params.nu + params.gamma)
