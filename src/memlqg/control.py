"""Optimal linear feedback on the syndrome coordinates.

The regulator penalises the syndrome quadratic form that upper-bounds the
logical error, with the per-coordinate weights q_i of model.FILTER_MODES
(9 on the collective-momentum coordinate, 3 on each mode-difference
coordinate), plus an effort term r |u|^2. Because the syndrome maps are
isometric and the drift is a uniform decay -c I, the algebraic Riccati
equation decouples per coordinate and the solution is

    P = r diag{f_i},   f_i = -c + sqrt(c^2 + q_i / r),   c = (nu+gamma)/2,

with state feedback u = -Btil^T diag{f_i} pi_s. In the cheap-control limit
r -> 0 the rates f_i diverge like sqrt(q_i/r) and the controlled covariance
approaches the conditional one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Encoding, MemoryParams, syndrome_set


@dataclass(frozen=True)
class LqgConfig:
    """Effort weight and which syndrome set the regulator acts on."""

    r: float
    mode: str = "s1"

    def __post_init__(self):
        if not self.r > 0.0:
            raise ValueError("control penalty r must be positive")
        syndrome_set(self.mode)  # refuses an unknown mode


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
    q = np.asarray(syndrome_set(config.mode).weights)
    return -c + np.sqrt(c * c + q / config.r)


def lqg_gains(config: LqgConfig, params: MemoryParams, enc: Encoding) -> Gains:
    """Solve the regulator Riccati equation in closed form and build the feedback map."""
    f = feedback_rates(config, params)
    P = config.r * np.diag(f)
    Btil = enc.syndrome_map(config.mode)
    Fgain = -Btil.T @ np.diag(f)
    return Gains(P=P, Fgain=Fgain, f1=float(f[0]), f2=float(f[-1]))
