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

    f[i] is the rate on syndrome coordinate i: f[0] on the collective
    momentum for mode 's1', f[-1] the rate shared by the position
    differences. Fgain = T (-Z^T diag(f)) is the memory-frame feedback map.
    """

    P: np.ndarray  # m x m Riccati solution
    Fgain: np.ndarray  # 6 x m feedback map, u = Fgain @ pi_s
    f: np.ndarray  # m rates

    def __post_init__(self):
        for arr in (self.P, self.Fgain, self.f):
            arr.setflags(write=False)


def feedback_rates(config: LqgConfig, params: MemoryParams) -> np.ndarray:
    """Per-coordinate closed-form rates f_i = -c + sqrt(c^2 + q_i/r), refusing an overflow."""
    c = params.damping
    q = np.asarray(syndrome_set(config.mode).weights)
    with np.errstate(over="ignore"):  # refused just below
        f = -c + np.sqrt(c * c + q / config.r)
    if not np.isfinite(f).all():
        raise ValueError("control penalty r is too small: the feedback rate overflows")
    return f


def lqg_gains(config: LqgConfig, params: MemoryParams, enc: Encoding) -> Gains:
    """Solve the regulator Riccati equation in closed form and build the feedback map."""
    f = feedback_rates(config, params)
    P = config.r * np.diag(f)
    Btil = enc.syndrome_map(config.mode)
    Fgain = -Btil.T @ np.diag(f)
    return Gains(P=P, Fgain=Fgain, f=f)
