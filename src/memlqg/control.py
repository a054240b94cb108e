"""Optimal linear feedback on the syndrome coordinates.

The regulator penalises the syndrome quadratic form that upper-bounds the
logical error (weight 9 on the collective-momentum coordinate, 3 on each
mode-difference coordinate) plus an effort term r |u|^2. Because the
syndrome maps are isometric and the drift is a uniform decay -c I, the
algebraic Riccati equation decouples per coordinate and the solution is

    P = r diag{f_i},   f_i = -c + sqrt(c^2 + q_i / r),   c = (nu+gamma)/2,

with state feedback u = -Btil^T diag{f_i} pi_s. In the cheap-control limit
r -> 0 the rates f_i diverge like sqrt(q_i/r) and the controlled covariance
approaches the conditional one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Encoding, MemoryParams
from .numerics import symmetrize

_WEIGHTS = {"s1": (9.0, 3.0, 3.0), "s2": (3.0, 3.0)}


def syndrome_weights(mode: str) -> np.ndarray:
    """Diagonal cost matrix on the syndrome coordinates for the given mode."""
    try:
        return np.diag(_WEIGHTS[mode])
    except KeyError:
        raise ValueError(f"unknown filter mode {mode!r} (expected 's1' or 's2')") from None


@dataclass(frozen=True)
class LqgConfig:
    """Effort weight and which syndrome set the regulator acts on."""

    r: float
    mode: str = "s1"

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError("control penalty r must be positive")
        if self.mode not in _WEIGHTS:
            raise ValueError(f"unknown filter mode {self.mode!r}")


@dataclass(frozen=True)
class Gains:
    """Riccati solution and the feedback map it induces.

    f1 is the rate on the first syndrome coordinate (the collective momentum
    for mode 's1'); f2 is the rate shared by the remaining coordinates. For
    mode 's2' both weights are equal, so f1 == f2.
    """

    P: np.ndarray  # m x m Riccati solution
    Fgain: np.ndarray  # 6 x m feedback map, u = Fgain @ pi_s
    f1: float
    f2: float

    def __post_init__(self):
        self.P.setflags(write=False)
        self.Fgain.setflags(write=False)


def feedback_rates(config: LqgConfig, params: MemoryParams) -> np.ndarray:
    """Per-coordinate closed-form rates f_i = -c + sqrt(c^2 + q_i/r)."""
    c = params.damping
    q = np.asarray(_WEIGHTS[config.mode])
    return -c + np.sqrt(c * c + q / config.r)


def lqg_gains(config: LqgConfig, params: MemoryParams, enc: Encoding) -> Gains:
    """Solve the regulator Riccati equation in closed form and build the feedback map."""
    f = feedback_rates(config, params)
    P = config.r * np.diag(f)
    Btil = enc.syndrome_map(config.mode)
    Fgain = -Btil.T @ np.diag(f)
    return Gains(P=P, Fgain=Fgain, f1=float(f[0]), f2=float(f[-1]))


def control_input(gains: Gains, pi_s: np.ndarray) -> np.ndarray:
    """Feedback drive u = Fgain pi_s applied to all six quadratures."""
    return gains.Fgain @ np.asarray(pi_s, dtype=float)


def cost_rate(
    Vz: np.ndarray,
    gains: Gains,
    enc: Encoding,
    config: LqgConfig,
    mean_z: np.ndarray | None = None,
) -> float:
    """Stationary running cost E[s^T Q s + r |u|^2] under the closed loop.

    Vz is the augmented covariance of (x, pi_s); the optional mean adds the
    deterministic (transient) contribution of a nonzero augmented mean.
    """
    Btil = enc.syndrome_map(config.mode)
    m = Btil.shape[0]
    Vz = symmetrize(np.asarray(Vz, dtype=float))
    if Vz.shape != (6 + m, 6 + m):
        raise ValueError(f"augmented covariance must be {6 + m}x{6 + m}")
    Q = syndrome_weights(config.mode)
    Sss = Btil @ Vz[:6, :6] @ Btil.T
    Spp = Vz[6:, 6:]
    FtF = gains.Fgain.T @ gains.Fgain
    total = float(np.trace(Q @ Sss)) + config.r * float(np.trace(FtF @ Spp))
    if mean_z is not None:
        mean_z = np.asarray(mean_z, dtype=float)
        s_bar = Btil @ mean_z[:6]
        u_bar = gains.Fgain @ mean_z[6:]
        total += float(s_bar @ Q @ s_bar) + config.r * float(u_bar @ u_bar)
    return total
