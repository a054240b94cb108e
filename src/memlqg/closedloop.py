"""Steady-state analysis of the estimator-feedback loop.

The joint state z = (x, pi_s) of memory and syndrome filter is linear and
Gaussian, so its covariance obeys an augmented Lyapunov equation whose
steady solution gives the controlled memory covariance V' as the leading
6x6 block. An explicit closed form for V' exists as well; it is exact
whenever the filter gain stays inside the measured syndrome subspace
(always the case for the two-channel filter, and for amplitude/phase-
aligned squeezing where the input correlation matrix is block-diagonal in
each mode with zero ImM). Both readings of its gain symbol — the full
6 x m gain and its projection onto the syndrome subspace — are evaluated
and compared against the Lyapunov solve, which is authoritative.

The feedback never disturbs the stored word: the syndrome maps annihilate
the drive direction, so the closed-loop steady mean equals the open-loop
one and fidelity changes only through the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .control import Gains, LqgConfig, lqg_gains
from .estimation import (
    MeasurementModel,
    StationaryFilter,
    filter_view_noise,
    measurement_model,
    stationary_filter,
)
from .model import Encoding, MemoryParams, NoiseModel, SourceSpec, input_covariance
from .numerics import solve_lyapunov_steady, symmetrize
from .openloop import fidelity, system_matrices

GAIN_READINGS = ("full", "projected")
_MODE_BLOCKS = ("m1", "m2", "m3")


@dataclass(frozen=True)
class AugmentedModel:
    """Joint drift/noise model for z = (x, pi_s), m syndrome channels."""

    Az: np.ndarray  # (6+m) x (6+m)
    Bz: np.ndarray  # (6+m) x 12
    Sigma: np.ndarray  # 12 x 12
    drive_z: np.ndarray  # (6+m,)

    def __post_init__(self):
        for arr in (self.Az, self.Bz, self.Sigma, self.drive_z):
            arr.setflags(write=False)

    @property
    def n_channels(self) -> int:
        return self.Az.shape[0] - 6


def build_augmented(
    params: MemoryParams,
    enc: Encoding,
    noise: NoiseModel,
    mm: MeasurementModel,
    g: Gains,
    sf: StationaryFilter,
    drive: np.ndarray | None = None,
) -> AugmentedModel:
    """Assemble the joint drift of memory and stationary syndrome filter.

    Blocks: [[A, F], [Ktil C, -c I - sqrt(2 nu) Ktil + Btil F]] with noise
    map [[B], [Ktil D]]. The loop must be stable; a non-negative eigenvalue
    raises immediately rather than letting the Lyapunov solve fail opaquely.
    """
    if g.Fgain.shape[1] != mm.n_channels:
        raise ValueError("gains and measurement model disagree on syndrome count")
    sys = system_matrices(params, enc, drive=drive)
    m = mm.n_channels
    Az = np.zeros((6 + m, 6 + m))
    Az[:6, :6] = sys.A
    Az[:6, 6:] = g.Fgain
    Az[6:, :6] = sf.Ktil @ mm.C
    Az[6:, 6:] = (
        -params.damping * np.eye(m)
        - np.sqrt(2.0 * params.nu) * sf.Ktil
        + mm.Btil @ g.Fgain
    )
    eigs = np.linalg.eigvals(Az)
    worst = eigs[np.argmax(eigs.real)]
    if worst.real >= 0.0:
        raise ValueError(f"closed loop unstable: drift eigenvalue {worst:.6g}")
    Bz = np.vstack([sys.B, sf.Ktil @ mm.D])
    drive_z = np.concatenate([sys.drive, np.zeros(m)])
    return AugmentedModel(Az=Az, Bz=Bz, Sigma=noise.SigmaW.copy(), drive_z=drive_z)


def closed_loop_covariance(am: AugmentedModel) -> tuple[np.ndarray, np.ndarray]:
    """Steady joint covariance Vz and the controlled memory block V'."""
    Vz = solve_lyapunov_steady(am.Az, am.Bz @ am.Sigma @ am.Bz.T)
    return Vz, Vz[:6, :6].copy()


def closed_loop_mean(am: AugmentedModel) -> np.ndarray:
    """Steady joint mean; its memory part equals the open-loop written word."""
    return np.linalg.solve(am.Az, -am.drive_z)


def _invert(M: np.ndarray, name: str) -> np.ndarray:
    try:
        out = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise ValueError(f"explicit formula factor ({name}) is singular") from None
    if not np.all(np.isfinite(out)):
        raise ValueError(f"explicit formula factor ({name}) is singular")
    return out


def vprime_explicit(
    params: MemoryParams,
    enc: Encoding,
    noise: NoiseModel,
    mm: MeasurementModel,
    g: Gains,
    sf: StationaryFilter,
    gain_reading: str = "full",
) -> np.ndarray:
    """Closed-form steady controlled covariance.

    gain_reading='full' uses the 6 x m filter gain directly; 'projected'
    replaces it by its projection Btil^T Ktil onto the measured syndrome
    subspace. The two coincide whenever the gain lies in that subspace.
    The filter block is lifted to six dimensions (e = Btil^T pi_s) so that
    all factors conform.
    """
    if gain_reading not in GAIN_READINGS:
        raise ValueError(f"unknown gain reading {gain_reading!r}")
    sys = system_matrices(params, enc)
    A = sys.A
    K6 = sf.K if gain_reading == "full" else mm.Btil.T @ sf.Ktil
    KC = K6 @ mm.C
    FB = g.Fgain @ mm.Btil
    Row = np.hstack([A - KC + FB, -FB])
    Bz12 = np.vstack([sys.B, mm.Btil.T @ (sf.Ktil @ mm.D)])
    X = Row @ (Bz12 @ noise.SigmaW @ Bz12.T) @ Row.T
    Q11 = sys.B @ noise.SigmaW @ sys.B.T
    inner = (
        X @ _invert(A - KC, "A - K C") @ _invert(FB + A, "F Btil + A") + Q11
    )
    return -0.5 * _invert(2.0 * A - KC + FB, "2A - K C + F Btil") @ inner


@dataclass(frozen=True)
class ExplicitFormulaReport:
    """Comparison of the closed form against the authoritative Lyapunov solve."""

    vprime: np.ndarray  # Lyapunov result (authoritative)
    tol: float
    errors: dict  # reading -> relative Frobenius error
    mismatched_blocks: dict  # reading -> tuple of mode-block labels
    matching_reading: str | None = None
    candidates: dict = field(default_factory=dict)  # reading -> 6x6 array

    @property
    def matches(self) -> bool:
        return self.matching_reading is not None

    def lines(self) -> list[str]:
        out = []
        if self.matches:
            out.append(
                f"explicit formula matches Lyapunov solve under the "
                f"'{self.matching_reading}' gain reading "
                f"(rel err {self.errors[self.matching_reading]:.3e} <= {self.tol:g})"
            )
        else:
            out.append(
                f"explicit formula DISAGREES with Lyapunov solve (tol {self.tol:g}); "
                "the Lyapunov result is authoritative"
            )
        for reading in GAIN_READINGS:
            blocks = self.mismatched_blocks[reading]
            detail = ", ".join(blocks) if blocks else "none"
            out.append(
                f"  reading '{reading}': rel err {self.errors[reading]:.3e}; "
                f"mismatched blocks: {detail}"
            )
        return out


def _block_labels(delta: np.ndarray, scale: float, tol: float) -> tuple[str, ...]:
    """Labels (mi, mj) of 2x2 mode blocks whose error exceeds tol."""
    bad = []
    for i in range(3):
        for j in range(3):
            blk = delta[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            if np.linalg.norm(blk) > tol * scale:
                bad.append(f"({_MODE_BLOCKS[i]},{_MODE_BLOCKS[j]})")
    return tuple(bad)


def explicit_formula_report(
    params: MemoryParams,
    enc: Encoding,
    noise: NoiseModel,
    mm: MeasurementModel,
    g: Gains,
    sf: StationaryFilter,
    tol: float = 1e-6,
) -> ExplicitFormulaReport:
    """Evaluate the explicit formula under both gain readings and compare
    each against the augmented Lyapunov solve. Preference order on a tie:
    'full' first."""
    am = build_augmented(params, enc, noise, mm, g, sf)
    _, vprime = closed_loop_covariance(am)
    scale = max(float(np.linalg.norm(vprime)), 1e-300)
    errors = {}
    blocks = {}
    candidates = {}
    matching = None
    for reading in GAIN_READINGS:
        cand = vprime_explicit(params, enc, noise, mm, g, sf, gain_reading=reading)
        candidates[reading] = cand
        delta = cand - vprime
        errors[reading] = float(np.linalg.norm(delta)) / scale
        blocks[reading] = _block_labels(delta, scale, tol)
        if matching is None and errors[reading] <= tol:
            matching = reading
    return ExplicitFormulaReport(
        vprime=vprime,
        tol=tol,
        errors=errors,
        mismatched_blocks=blocks,
        matching_reading=matching,
        candidates=candidates,
    )


def controlled_fidelity(Vprime: np.ndarray, V_in: np.ndarray) -> float:
    """Transfer fidelity of the controlled steady state against the input word."""
    return fidelity(symmetrize(np.asarray(Vprime, dtype=float)), V_in)


@dataclass(frozen=True)
class Loop:
    """One assembled feedback loop.

    `noise` is the true plant noise; `mm` and `sf` are built from the noise
    the filter is allowed to assume, `g` holds the regulator gains and `am`
    the augmented (x, pi_s) model driven by the true noise.
    """

    noise: NoiseModel
    mm: MeasurementModel
    sf: StationaryFilter
    g: Gains
    am: AugmentedModel

    def fidelity(self) -> float:
        """Controlled steady-state fidelity against the written input."""
        _, vprime = closed_loop_covariance(self.am)
        return controlled_fidelity(vprime, input_covariance(self.noise.Lambda))


class LoopBuilder:
    """Assembles loops for one memory and encoding: `builder(noise, mode, r)`.

    Mode 's1' is the informed filter and sees the true noise; mode 's2' is
    the blind one and sees the source block replaced by the vacuum. The
    stationary filter depends on neither r nor, when blind, the true source,
    so each builder solves it once per (mode, filter-view noise).
    """

    def __init__(self, params: MemoryParams, enc: Encoding):
        self.params = params
        self.enc = enc
        self._filters: dict = {}

    def __call__(self, noise: NoiseModel, mode: str, r: float) -> Loop:
        # the filter never knows the amplitude, so only covariance_known matters
        source = SourceSpec(alpha_in=0.0, covariance_known=(mode == "s1"))
        view = filter_view_noise(noise, source, self.params)
        key = (mode, view.Lambda.tobytes())
        if key not in self._filters:
            mm = measurement_model(mode, self.enc, self.params, view)
            sf = stationary_filter(mm, self.params, self.enc, view)
            self._filters[key] = (mm, sf)
        mm, sf = self._filters[key]
        g = lqg_gains(LqgConfig(r=r, mode=mode), self.params, self.enc)
        am = build_augmented(self.params, self.enc, noise, mm, g, sf)
        return Loop(noise=noise, mm=mm, sf=sf, g=g, am=am)
