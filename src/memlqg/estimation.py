"""Continuous measurement and Kalman filtering of the syndrome channels.

The homodyne record is dy = C x dt + D dW with C = sqrt(2 nu) Btil and
D = sqrt(2) (Z, 0): the same input-field noise that drives the memory also
enters the record, so the filter gain carries a correlation correction,
K = (Vc C^T + S) R^-1 with S = B Sw D^T and R = D Sw D^T = 2 Z Lambda Z^T.
The filter is solved in the input-mode coordinates x' = T^T x, where each
map is a row selection (C' = sqrt(2 nu) Z, S' = -sqrt(2 nu) Lambda Z^T) and
the memory's noise is nu Lambda + gamma (n_occ + 1/2) I, so for diagonal
Lambda the squeezed and anti-squeezed channels, e^mu apart, never mix.
Vc = T P T^T and K = T K' are rotations of that solve, and Btil K = Z K'.

Because the syndrome maps annihilate the drive, the filter can equivalently
be run directly on the m syndrome coordinates (pi_s = Btil pi_x), which
requires no knowledge of the written amplitude. With the two rows of mode
's2' the innovation covariance is e^mu I2 regardless of the payload
statistics, so that filter is completely source-blind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _TRITTER, Encoding, MemoryParams, NoiseModel, SourceSpec, noise_model, vacuum
from .numerics import (
    ConvergenceError,
    check_items,
    lapack_items,
    solve_care,
    stack,
    symmetrize,
)


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
    Lam[0:2, 0:2] = vacuum().block()
    return noise_model(Lam, params.n_occ)


@dataclass(frozen=True)
class MeasurementModel:
    """Output map and innovation covariance for one syndrome set."""

    mode: str
    C: np.ndarray  # m x 6
    D: np.ndarray  # m x 12, sqrt(2) (Z, 0) for the selector Z
    Btil: np.ndarray  # m x 6 syndrome map
    innovation_cov: np.ndarray  # m x m, D Sw D^T = 2 Z Lambda Z^T

    def __post_init__(self):
        for arr in (self.C, self.D, self.Btil, self.innovation_cov):
            arr.setflags(write=False)

    @property
    def n_channels(self) -> int:
        return self.C.shape[0]


def measurement_model(
    mode: str, enc: Encoding, params: MemoryParams, noise: NoiseModel
) -> MeasurementModel:
    """Build the output model for one mode of model.FILTER_MODES:
    `measurement_models` of a list of one."""
    return measurement_models(mode, enc, params, [noise])[0]


def measurement_models(mode: str, enc: Encoding, params: MemoryParams, noises: list) -> list:
    """measurement_model(mode, enc, params, noise) of each noise, bit for
    bit. C, D and Btil depend on the mode alone, so the models share them;
    the innovation covariances are formed as one stack."""
    Z = enc.selector(mode)
    Btil = enc.syndrome_map(mode)
    C = np.sqrt(2.0 * params.nu) * Btil
    D = np.hstack([np.sqrt(2.0) * Z, np.zeros_like(Z)])
    Lambda = stack([noise.Lambda for noise in noises])
    innovation_cov = symmetrize(2.0 * Z @ Lambda @ Z.T)
    return [MeasurementModel(mode, C, D, Btil, R) for R in innovation_cov]


@dataclass(frozen=True)
class StationaryFilter:
    """Steady conditional covariance with its frozen gains."""

    Vc: np.ndarray  # 6 x 6, T P T^T
    K: np.ndarray  # 6 x m, T K'
    Ktil: np.ndarray  # m x m projected gain Btil K = Z K'

    def __post_init__(self):
        for arr in (self.Vc, self.K, self.Ktil):
            arr.setflags(write=False)


def stationary_filter(
    mm: MeasurementModel, params: MemoryParams, enc: Encoding, noise: NoiseModel
) -> StationaryFilter:
    """Solve the steady Riccati equation and freeze the gains.

    The plant/sensor correlation is removed by the standard shift
    A' -> A' - S' R^-1 C', Q' -> Q' - S' R^-1 S'^T, and `solve_care` solves
    the resulting algebraic Riccati equation for P = T^T Vc T. P must zero
    the flow -2c P + Q' - K' R K'^T to 1e-8 relative to max(1, ||Q'||),
    else ConvergenceError carries that residual. This is
    `stationary_filters` on a stack of one.
    """
    return stationary_filters([mm], params, enc, [noise])[0]


def stationary_filters(mms: list, params: MemoryParams, enc: Encoding, noises: list) -> list:
    """`stationary_filter` of each (mm, noise) pair, the measurement models
    of one filter mode, solved as one stacked CARE. Item i equals
    stationary_filter(mms[i], params, enc, noises[i]) bit for bit; the first
    item that fails raises its own error, `exc.index` its place in the list."""
    SigmaW = stack([noise.SigmaW for noise in noises])
    Lambda = SigmaW[:, :6, :6]
    Q = params.nu * Lambda + params.gamma * SigmaW[:, 6:, 6:]  # Q' = B' Sw B'^T
    R = stack([mm.innovation_cov for mm in mms])
    Z = stack([enc.selector(mm.mode) for mm in mms])
    C = np.sqrt(2.0 * params.nu) * Z  # C'
    S = -np.sqrt(2.0 * params.nu) * Lambda @ Z.swapaxes(1, 2)  # S' = B' Sw D^T, 6 x m
    chol = lapack_items(  # R is factorized once per solve
        np.linalg.cholesky,
        lambda i: ValueError(
            "singular innovation covariance; clamp the squeezing exponent "
            "at MU_FLOOR instead of taking the ideal limit"
        ),
        R,
    )

    def times_Rinv(rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(
            chol.swapaxes(1, 2), np.linalg.solve(chol, rhs.swapaxes(1, 2))
        ).swapaxes(1, 2)

    CT = C.swapaxes(1, 2)
    SRinv = times_Rinv(S)  # S' R^-1, 6 x m
    Ashift = -params.damping * np.eye(6) - SRinv @ C
    Qshift = symmetrize(Q - SRinv @ S.swapaxes(1, 2))
    P = solve_care(Ashift.swapaxes(1, 2), CT, Qshift, R)
    K = times_Rinv(P @ CT + S)  # K' = (P C'^T + S') R^-1
    flow = Q - 2.0 * params.damping * P - K @ R @ K.swapaxes(1, 2)
    residual = np.linalg.norm(flow, axis=(1, 2)) / np.maximum(1.0, np.linalg.norm(Q, axis=(1, 2)))
    check_items(
        residual <= 1e-8,
        lambda i: ConvergenceError(
            "stationary filter inconsistent: Riccati residual", float(residual[i])
        ),
    )
    Ktil = Z @ K
    Vc = symmetrize(_TRITTER @ P @ _TRITTER.T)
    K = _TRITTER @ K
    return [StationaryFilter(Vc=Vc[i], K=K[i], Ktil=Ktil[i]) for i in range(len(mms))]
