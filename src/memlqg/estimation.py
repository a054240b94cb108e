"""Continuous measurement and Kalman filtering of the syndrome channels.

The homodyne record is dy = C x dt + D dW with C = sqrt(2 nu) Btil and
D = sqrt(2) (Z, 0): the same input-field noise that drives the memory also
enters the record, so the filter gain carries a correlation correction,

    K = (Vc C^T + S) R^-1,   S = B Sw D^T = -sqrt(2 nu) T Lambda Z^T,
    R = D Sw D^T = 2 Z Lambda Z^T,

and the conditional covariance obeys the Riccati flow
dVc/dt = A Vc + Vc A^T + B Sw B^T - K R K^T.

Because the syndrome maps annihilate the drive, the filter can equivalently
be run directly on the m syndrome coordinates (pi_s = Btil pi_x), which
requires no knowledge of the written amplitude. With the two rows of mode
's2' the innovation covariance is e^mu I2 regardless of the payload
statistics, so that filter is completely source-blind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Encoding, MemoryParams, NoiseModel, SourceSpec, noise_model
from .numerics import ConvergenceError, newton_kleinman, solve_care, symmetrize
from .openloop import system_matrices


def filter_view_noise(
    noise: NoiseModel, source: SourceSpec, params: MemoryParams
) -> NoiseModel:
    """The noise statistics the filter is allowed to assume.

    When the source covariance is undisclosed, its block is replaced by the
    vacuum; the locally prepared ancilla blocks are always known.
    """
    if source.covariance_known:
        return noise
    Lam = noise.Lambda.copy()
    Lam[0:2, 0:2] = source.filter_view().block()
    return noise_model(Lam, params.n_occ)


@dataclass(frozen=True)
class MeasurementModel:
    """Output map and precomputed noise covariances for one syndrome set."""

    mode: str
    C: np.ndarray  # m x 6
    D: np.ndarray  # m x 12, sqrt(2) (Z, 0) for the selector Z
    Btil: np.ndarray  # m x 6 syndrome map
    innovation_cov: np.ndarray  # m x m, D Sw D^T = 2 Z Lambda Z^T
    cross_cov: np.ndarray  # 6 x m, B Sw D^T = -sqrt(2 nu) T Lambda Z^T

    def __post_init__(self):
        for arr in (self.C, self.D, self.Btil, self.innovation_cov, self.cross_cov):
            arr.setflags(write=False)

    @property
    def n_channels(self) -> int:
        return self.C.shape[0]


def measurement_model(
    mode: str, enc: Encoding, params: MemoryParams, noise: NoiseModel
) -> MeasurementModel:
    """Build the output model for one mode of model.FILTER_MODES."""
    Z = enc.selector(mode)
    Btil = enc.syndrome_map(mode)
    C = np.sqrt(2.0 * params.nu) * Btil
    D = np.hstack([np.sqrt(2.0) * Z, np.zeros_like(Z)])
    innovation_cov = 2.0 * Z @ noise.Lambda @ Z.T
    cross_cov = -np.sqrt(2.0 * params.nu) * enc.T @ noise.Lambda @ Z.T
    return MeasurementModel(
        mode=mode,
        C=C,
        D=D,
        Btil=Btil,
        innovation_cov=symmetrize(innovation_cov),
        cross_cov=cross_cov,
    )


@dataclass(frozen=True)
class StationaryFilter:
    """Steady conditional covariance with its frozen gains."""

    Vc: np.ndarray  # 6 x 6
    K: np.ndarray  # 6 x m
    Ktil: np.ndarray  # m x m projected gain Btil K

    def __post_init__(self):
        for arr in (self.Vc, self.K, self.Ktil):
            arr.setflags(write=False)


def stationary_filter(
    mm: MeasurementModel,
    params: MemoryParams,
    enc: Encoding,
    noise: NoiseModel,
    method: str = "care",
) -> StationaryFilter:
    """Solve the steady Riccati equation and freeze the gains.

    Both routes remove the plant/sensor correlation by the standard shift
    A -> A - S R^-1 C, Q -> Q - S R^-1 S^T and solve the resulting algebraic
    Riccati equation. method='care' uses the scipy QZ/Schur solver.
    method='newton' is the independent cross-check route: Newton-Kleinman
    from the open-loop gain -(S R^-1)^T, whose first closed-loop drift is the
    Hurwitz A = -(nu+gamma)/2 I, so it uses only Bartels-Stewart Lyapunov
    solves.
    Either result must zero the Riccati flow to 1e-8 relative to
    max(1, ||B Sw B^T||), else ConvergenceError carries that residual.
    """
    sys = system_matrices(params, enc)
    Q = sys.B @ noise.SigmaW @ sys.B.T
    try:  # R is factorized once per solve
        chol = np.linalg.cholesky(mm.innovation_cov)
    except np.linalg.LinAlgError:
        raise ValueError(
            "singular innovation covariance; clamp the squeezing exponent "
            "at MU_FLOOR instead of taking the ideal limit"
        ) from None

    def times_Rinv(rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs.T)).T

    SRinv = times_Rinv(mm.cross_cov)  # S R^-1, 6 x m
    Ashift = sys.A - SRinv @ mm.C
    Qshift = symmetrize(Q - SRinv @ mm.cross_cov.T)
    if method == "care":
        Vc = solve_care(Ashift.T, mm.C.T, Qshift, mm.innovation_cov)
    elif method == "newton":
        Vc = newton_kleinman(Ashift.T, mm.C.T, Qshift, mm.innovation_cov, -SRinv.T)
    else:
        raise ValueError(f"unknown method {method!r} (expected 'care' or 'newton')")

    Vs = symmetrize(Vc)
    K = times_Rinv(Vs @ mm.C.T + mm.cross_cov)  # K = (Vc C^T + S) R^-1
    flow = sys.A @ Vs + Vs @ sys.A.T + Q - K @ mm.innovation_cov @ K.T
    residual = float(np.linalg.norm(flow)) / max(1.0, float(np.linalg.norm(Q)))
    if residual > 1e-8:
        raise ConvergenceError("stationary filter inconsistent: Riccati residual", residual)
    return StationaryFilter(Vc=Vc, K=K, Ktil=mm.Btil @ K)
