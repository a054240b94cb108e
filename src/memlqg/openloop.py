"""Uncontrolled memory dynamics and figure-of-merit evaluation.

Every quadrature decays at the common rate (nu+gamma)/2, so the first and
second moments obey

    d<x>/dt = A <x> + drive,          A = -(nu+gamma)/2 * I6
    dV/dt   = A V + V A^T + B Sw B^T, B = (-sqrt(nu) T, -sqrt(gamma) I6)

with Sw the twelve-channel noise covariance. The closed forms implemented
here (per-mode steady variances, transfer fidelity, the collective-variance
witnesses) all follow from A being a scalar multiple of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Encoding, FieldMode, MemoryParams, NoiseModel
from .numerics import min_eigenvalue, solve_lyapunov_steady, symmetrize

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
        floor = -1e-10 * max(1.0, float(np.linalg.norm(self.cov)))
        if min_eigenvalue(self.cov) < floor:
            raise ValueError("covariance is not physical (negative eigenvalue)")
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
    """Assemble the linear model; the drive is the encoding's -sqrt(nu)*beta."""
    A = -params.damping * np.eye(6)
    B = np.hstack([-np.sqrt(params.nu) * enc.T, -np.sqrt(params.gamma) * np.eye(6)])
    return SystemMatrices(A=A, B=B, drive=-np.sqrt(params.nu) * enc.beta)


def steady_state(params: MemoryParams, enc: Encoding, noise: NoiseModel) -> GaussianState:
    """Stationary mean and covariance of the uncontrolled memory.

    The mean is -A^-1 drive = 2*drive/(nu+gamma); the covariance solves the
    steady Lyapunov equation. Requires gamma > 0 or any damping at all, which
    A = -(nu+gamma)/2 I guarantees for physical parameters.
    """
    sys = system_matrices(params, enc)
    mean = 2.0 * sys.drive / (params.nu + params.gamma)
    cov = solve_lyapunov_steady(sys.A, sys.B @ noise.SigmaW @ sys.B.T)
    return GaussianState(mean=mean, cov=cov)


def steady_mode_variances(params: MemoryParams, modes: tuple[FieldMode, FieldMode, FieldMode]):
    """Per-mode steady variances (v_plus, v_minus) in the rotated frame.

    v_j(+/-) = [nu(2N_j +/- 2M_j + 1) + gamma(1 + 2 n_occ)] / (2(nu+gamma)).
    Only meaningful for real M (phase-aligned squeezing).
    """
    vp, vm = [], []
    denom = 2.0 * (params.nu + params.gamma)
    for m in modes:
        if abs(m.M.imag) > 1e-12:
            raise ValueError("closed-form mode variances require real M")
        therm = params.gamma * (1.0 + 2.0 * params.n_occ)
        vp.append((params.nu * (2.0 * m.N + 2.0 * m.M.real + 1.0) + therm) / denom)
        vm.append((params.nu * (2.0 * m.N - 2.0 * m.M.real + 1.0) + therm) / denom)
    return np.array(vp), np.array(vm)


def single_mode_check(params: MemoryParams, alpha_in: float = 0.0) -> tuple[complex, float]:
    """Steady amplitude and quadrature variance of a single directly-driven mode.

    Reference point for the encoded protocol: mean -2 sqrt(nu) alpha_in/(nu+gamma),
    variance 1/2 + gamma*n_occ/(nu+gamma).
    """
    mean = complex(-2.0 * np.sqrt(params.nu) * alpha_in / (params.nu + params.gamma))
    var = 0.5 + params.gamma * params.n_occ / (params.nu + params.gamma)
    return mean, var


def fidelity(V: np.ndarray, V_in: np.ndarray) -> float:
    """Mean-matched Gaussian transfer fidelity 1/sqrt(det(V + V_in))."""
    V = np.asarray(V, dtype=float)
    V_in = np.asarray(V_in, dtype=float)
    if V.shape != V_in.shape or V.shape[0] != V.shape[1]:
        raise ValueError(f"shape mismatch: V {V.shape} vs V_in {V_in.shape}")
    det = float(np.linalg.det(V + V_in))
    if not np.isfinite(det) or det <= 0.0:
        raise ValueError(f"det(V + V_in) = {det:.6g} is not positive")
    return 1.0 / np.sqrt(det)


def fidelity_closed_form(mu: float, params: MemoryParams) -> float:
    """Steady transfer fidelity for a coherent payload and ancilla squeezing mu.

    Product over sigma in {0, +mu, -mu} of
        2(nu+gamma) / (2 nu e^sigma + gamma(e^sigma + 1 + 2 n_occ)).
    """
    out = 1.0
    for sigma in (0.0, mu, -mu):
        es = np.exp(sigma)
        out *= (
            2.0
            * (params.nu + params.gamma)
            / (2.0 * params.nu * es + params.gamma * (es + 1.0 + 2.0 * params.n_occ))
        )
    return float(out)


def pfd_rate(mu: float, source: FieldMode) -> float:
    """Growth rate of the collective variance sum under feed-forward write-in.

    3 e^mu + (9/2)(2 N1 - 2 Re M1 + 1). Equals 7.5 for vacuum inputs
    (the classical limit) and approaches 4.5 for ideal ancilla squeezing;
    below ENTANGLEMENT_BOUND the three written modes are inseparable.
    """
    return float(3.0 * np.exp(mu) + 4.5 * (2.0 * source.N - 2.0 * source.M.real + 1.0))


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
