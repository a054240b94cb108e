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
requires no knowledge of the written amplitude. With Z2 the innovation
covariance is e^mu I2 regardless of the payload statistics, so that filter
is completely source-blind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Encoding, MemoryParams, NoiseModel, SourceSpec, noise_model
from .numerics import (
    SteadySolveOptions,
    integrate_to_steady,
    solve_care,
    symmetrize,
)
from .openloop import SystemMatrices, system_matrices

FILTER_MODES = ("s1", "s2")


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
    D: np.ndarray  # m x 12
    Z: np.ndarray  # m x 6 selector
    Btil: np.ndarray  # m x 6 syndrome map
    innovation_cov: np.ndarray  # m x m, D Sw D^T = 2 Z Lambda Z^T
    cross_cov: np.ndarray  # 6 x m, B Sw D^T = -sqrt(2 nu) T Lambda Z^T

    def __post_init__(self):
        for arr in (self.C, self.D, self.Z, self.Btil, self.innovation_cov, self.cross_cov):
            arr.setflags(write=False)

    @property
    def n_channels(self) -> int:
        return self.C.shape[0]


def measurement_model(
    mode: str, enc: Encoding, params: MemoryParams, noise: NoiseModel
) -> MeasurementModel:
    """Build the output model for filter mode 's1' (three channels, needs the
    payload covariance) or 's2' (two channels, source-blind)."""
    if mode not in FILTER_MODES:
        raise ValueError(f"unknown filter mode {mode!r} (expected 's1' or 's2')")
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
        Z=Z.copy(),
        Btil=Btil.copy(),
        innovation_cov=symmetrize(innovation_cov),
        cross_cov=cross_cov,
    )


def _solve_innovation(mm: MeasurementModel, rhs: np.ndarray) -> np.ndarray:
    """rhs @ R^-1 with a clear error when the record carries no noise."""
    try:
        c = np.linalg.cholesky(mm.innovation_cov)
    except np.linalg.LinAlgError:
        raise ValueError(
            "singular innovation covariance; clamp the squeezing exponent "
            "at MU_FLOOR instead of taking the ideal limit"
        ) from None
    y = np.linalg.solve(c, rhs.T)
    return np.linalg.solve(c.T, y).T


def kalman_gain(Vc: np.ndarray, mm: MeasurementModel) -> np.ndarray:
    """Stationary-form gain K = (Vc C^T + S) R^-1 for a given conditional cov."""
    Vc = symmetrize(np.asarray(Vc, dtype=float))
    return _solve_innovation(mm, Vc @ mm.C.T + mm.cross_cov)


def riccati_flow(
    Vc: np.ndarray, mm: MeasurementModel, sys: SystemMatrices, noise: NoiseModel
) -> np.ndarray:
    """Right-hand side of the conditional-covariance equation."""
    Vc = symmetrize(np.asarray(Vc, dtype=float))
    K = kalman_gain(Vc, mm)
    diffusion = sys.B @ noise.SigmaW @ sys.B.T
    return sys.A @ Vc + Vc @ sys.A.T + diffusion - K @ mm.innovation_cov @ K.T


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
    opts: SteadySolveOptions | None = None,
) -> StationaryFilter:
    """Solve the steady Riccati equation and freeze the gains.

    method='care' removes the plant/sensor correlation by the standard shift
    A -> A - S R^-1 C, Q -> Q - S R^-1 S^T and solves the resulting algebraic
    Riccati equation (robust at any squeezing). method='march' integrates the
    Riccati flow from the vacuum prior; it is the independent cross-check
    route and is only usable where the flow is not stiff.
    """
    sys = system_matrices(params, enc)
    Q = sys.B @ noise.SigmaW @ sys.B.T
    if method == "care":
        SRinv = _solve_innovation(mm, mm.cross_cov)  # S R^-1, 6 x m
        Ashift = sys.A - SRinv @ mm.C
        Qshift = symmetrize(Q - SRinv @ mm.cross_cov.T)
        Vc = solve_care(Ashift.T, mm.C.T, Qshift, mm.innovation_cov)
    elif method == "march":
        opts = opts or SteadySolveOptions.for_rate(params.nu + params.gamma)
        Vc = integrate_to_steady(
            lambda X: riccati_flow(X, mm, sys, noise), 0.5 * np.eye(6), opts
        )
    else:
        raise ValueError(f"unknown method {method!r} (expected 'care' or 'march')")

    flow = riccati_flow(Vc, mm, sys, noise)
    scale = max(1.0, float(np.linalg.norm(Q)))
    if float(np.linalg.norm(flow)) > 1e-8 * scale:
        raise RuntimeError(
            f"stationary filter inconsistent: Riccati residual {np.linalg.norm(flow):.3e}"
        )
    K = kalman_gain(Vc, mm)
    return StationaryFilter(Vc=Vc, K=K, Ktil=mm.Btil @ K)


@dataclass(frozen=True)
class SyndromeFilterState:
    """Conditional estimate of the m syndrome coordinates."""

    pi_s: np.ndarray


def syndrome_filter_step(
    ss: SyndromeFilterState,
    dy: np.ndarray,
    u: np.ndarray,
    dt: float,
    mm: MeasurementModel,
    params: MemoryParams,
    Ktil: np.ndarray,
) -> SyndromeFilterState:
    """One Euler update of the reduced, drive-free syndrome filter.

    d pi_s = -((nu+gamma)/2) pi_s dt + Btil u dt + Ktil (dy - sqrt(2 nu) pi_s dt).
    """
    innovation = dy - np.sqrt(2.0 * params.nu) * ss.pi_s * dt
    pi_s = (
        ss.pi_s
        + dt * (-params.damping * ss.pi_s + mm.Btil @ u)
        + Ktil @ innovation
    )
    return SyndromeFilterState(pi_s=pi_s)
