"""Steady-state analysis of the estimator-feedback loop.

The joint state of memory and syndrome filter is linear and Gaussian, so
its covariance obeys an augmented Lyapunov equation whose steady solution
gives the controlled memory covariance V' as the leading 6x6 block. It is
built and solved in the input-mode coordinates x' = T^T x, where each loop
map is a row selection by Z (C' = sqrt(2 nu) Z, F' = -Z^T diag(f)) and T
takes no part, so the squeezed and anti-squeezed channels, e^mu apart,
never mix. The fidelity det(V' + Lambda)^-1/2 is read from that one solve,
and the covariance of z = (x, pi_s) is its rotation by diag(T, I). A closed
form for V' in x is exact whenever the filter gain stays inside the
measured syndrome subspace (always for the two-channel filter, and for
amplitude/phase-aligned squeezing); it is evaluated under two readings of
its gain, the full 6 x m gain and its projection onto the syndrome
subspace, against the authoritative Lyapunov solve.

The feedback never disturbs the stored word: the syndrome maps annihilate
the drive direction, so the closed-loop steady mean equals the open-loop
one and fidelity changes only through the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .control import Gains, LqgConfig, lqg_gains
from .estimation import (
    MeasurementModel,
    StationaryFilter,
    filter_view_noise,
    measurement_model,
    measurement_models,
    stationary_filter,
    stationary_filters,
)
from .model import _TRITTER, Encoding, MemoryParams, NoiseModel, SourceSpec, syndrome_set
from .numerics import items_renamed, solve_lyapunov_steady, stack, symmetrize
from .openloop import fidelity, system_matrices

GAIN_READINGS = ("full", "projected")
_MODE_BLOCKS = ("m1", "m2", "m3")


@dataclass(frozen=True)
class AugmentedModel:
    """Joint drift/noise model for z' = (x', pi_s), m syndrome channels."""

    Az: np.ndarray  # (6+m) x (6+m)
    Bz: np.ndarray  # (6+m) x 12
    Sigma: np.ndarray  # 12 x 12

    def __post_init__(self):
        for arr in (self.Az, self.Bz, self.Sigma):
            arr.setflags(write=False)

    @cached_property
    def Vz_inmode(self) -> np.ndarray:
        """Steady covariance of z'; its solve checks that the loop is stable."""
        Vz = solve_lyapunov_steady(self.Az, _joint_noises(self.Bz[None], self.Sigma[None])[0])
        Vz.setflags(write=False)
        return Vz


def build_augmented(
    params: MemoryParams,
    enc: Encoding,
    noise: NoiseModel,
    mm: MeasurementModel,
    g: Gains,
    sf: StationaryFilter,
) -> AugmentedModel:
    """Assemble the joint drift of memory and stationary syndrome filter in
    x'. Blocks: [[-c I, F'], [Ktil C', -c I - sqrt(2 nu) Ktil - diag(f)]]
    with noise map [[B'], [Ktil D]]; the stack of one of `_open_loops` and
    `_add_feedback`."""
    if len(g.f) != mm.n_channels:
        raise ValueError("gains and measurement model disagree on syndrome count")
    Az, Bz = _open_loops(params, enc, mm, sf.Ktil[None])
    _add_feedback(Az, g)
    return AugmentedModel(Az=Az[0], Bz=Bz[0], Sigma=noise.SigmaW.copy())


def _open_loops(params: MemoryParams, enc: Encoding, mm: MeasurementModel, Ktil: np.ndarray):
    """(Az, Bz) in x' of the augmented model of each filter gain of the
    stack Ktil (k x m x m), without the regulator's rates: Az's blocks
    [[-c I, -Z^T], [Ktil C', -c I - sqrt(2 nu) Ktil]] and Bz = [[B'],
    [Ktil D]], B' = (-sqrt(nu) I, -sqrt(gamma) I) as the bath's noise is
    isotropic. They do not depend on the control weight, so a grid builds
    them once per noise."""
    k, m = Ktil.shape[:2]
    Z, rate = enc.selector(mm.mode), np.sqrt(2.0 * params.nu)
    Az = np.zeros((k, 6 + m, 6 + m))
    Az[:, :6, :6] = -params.damping * np.eye(6)
    Az[:, :6, 6:] = -Z.T
    Az[:, 6:, :6] = Ktil @ (rate * Z)
    Az[:, 6:, 6:] = -params.damping * np.eye(m) - rate * Ktil
    Bz = np.empty((k, 6 + m, 12))
    Bz[:, :6] = np.hstack([-np.sqrt(params.nu) * np.eye(6), -np.sqrt(params.gamma) * np.eye(6)])
    Bz[:, 6:] = Ktil @ mm.D
    return Az, Bz


def _add_feedback(Az: np.ndarray, g: Gains) -> None:
    """Scale the stack of open-loop drifts Az's top right block to
    F' = -Z^T diag(f), and add Btil F = -diag(f) to the filter block."""
    Az[:, :6, 6:] *= g.f
    Az[:, 6:, 6:] -= np.diag(g.f)


def closed_loop_covariance(am: AugmentedModel) -> tuple[np.ndarray, np.ndarray]:
    """Steady covariance Vz of (x, pi_s) and V': rotations of the solve in x'."""
    rot = np.eye(len(am.Az))
    rot[:6, :6] = _TRITTER
    Vz = symmetrize(rot @ am.Vz_inmode @ rot.T)
    return Vz, Vz[:6, :6].copy()


def _joint_noises(Bz: np.ndarray, SigmaW: np.ndarray) -> np.ndarray:
    """The joint noise covariance Bz SigmaW Bz^T of each item of the stacks."""
    return Bz @ SigmaW @ Bz.swapaxes(1, 2)


def _invert(M: np.ndarray, name: str) -> np.ndarray:
    try:
        out = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise ValueError(f"explicit formula factor ({name}) is singular") from None
    if not np.all(np.isfinite(out)):
        raise ValueError(f"explicit formula factor ({name}) is singular")
    return out


def vprime_explicit(loop: Loop, gain_reading: str = "full") -> np.ndarray:
    """Closed-form steady controlled covariance.

    gain_reading='full' uses the 6 x m filter gain directly; 'projected'
    replaces it by its projection Btil^T Ktil onto the measured syndrome
    subspace. The two coincide whenever the gain lies in that subspace.
    The filter block is lifted to six dimensions (e = Btil^T pi_s) so that
    all factors conform.
    """
    if gain_reading not in GAIN_READINGS:
        raise ValueError(f"unknown gain reading {gain_reading!r}")
    mm, sf, g, SigmaW = loop.mm, loop.sf, loop.g, loop.noise.SigmaW
    sys = system_matrices(loop.params, loop.enc)
    A = sys.A
    K6 = sf.K if gain_reading == "full" else mm.Btil.T @ sf.Ktil
    KC = K6 @ mm.C
    FB = g.Fgain @ mm.Btil
    Row = np.hstack([A - KC + FB, -FB])
    Bz12 = np.vstack([sys.B, mm.Btil.T @ (sf.Ktil @ mm.D)])
    X = Row @ (Bz12 @ SigmaW @ Bz12.T) @ Row.T
    Q11 = sys.B @ SigmaW @ sys.B.T
    inner = (
        X @ _invert(A - KC, "A - K C") @ _invert(FB + A, "F Btil + A") + Q11
    )
    return -0.5 * _invert(2.0 * A - KC + FB, "2A - K C + F Btil") @ inner


@dataclass(frozen=True)
class ExplicitFormulaReport:
    """Comparison of the closed form against the authoritative Lyapunov solve."""

    tol: float
    errors: dict  # reading -> relative Frobenius error
    mismatched_blocks: dict  # reading -> tuple of mode-block labels
    matching_reading: str | None = None

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


def explicit_formula_report(loop: Loop, tol: float = 1e-6) -> ExplicitFormulaReport:
    """Evaluate the explicit formula under both gain readings and compare
    each against the Lyapunov solve of the loop's augmented model.
    Preference order on a tie: 'full' first."""
    vprime = loop.Vz[:6, :6]
    scale = max(float(np.linalg.norm(vprime)), 1e-300)
    errors = {}
    blocks = {}
    matching = None
    for reading in GAIN_READINGS:
        delta = vprime_explicit(loop, gain_reading=reading) - vprime
        errors[reading] = float(np.linalg.norm(delta)) / scale
        blocks[reading] = _block_labels(delta, scale, tol)
        if matching is None and errors[reading] <= tol:
            matching = reading
    return ExplicitFormulaReport(
        tol=tol, errors=errors, mismatched_blocks=blocks, matching_reading=matching
    )


def controlled_fidelity(Vprime: np.ndarray, V_in: np.ndarray) -> float:
    """Transfer fidelity of the controlled steady state against the input
    word, both in x or both in x' (where the input's covariance is Lambda)."""
    return fidelity(symmetrize(np.asarray(Vprime, dtype=float)), V_in)


@dataclass(frozen=True)
class Loop:
    """One assembled feedback loop.

    `noise` is the true plant noise; `mm` and `sf` are built from the noise
    the filter is allowed to assume and `g` holds the regulator gains. The
    augmented model driven by the true noise is assembled and solved on the
    first read of `Vz` or `fidelity()`, both read from that one solve, so a
    loop that is only simulated assembles nothing.
    """

    params: MemoryParams
    enc: Encoding
    noise: NoiseModel
    mm: MeasurementModel
    sf: StationaryFilter
    g: Gains

    @cached_property
    def _augmented(self) -> AugmentedModel:
        return build_augmented(self.params, self.enc, self.noise, self.mm, self.g, self.sf)

    @cached_property
    def Vz(self) -> np.ndarray:
        """Steady covariance of (x, pi_s); V' is its leading 6x6 block."""
        Vz = closed_loop_covariance(self._augmented)[0]
        Vz.setflags(write=False)
        return Vz

    def fidelity(self) -> float:
        """Controlled steady-state fidelity against the written input."""
        return controlled_fidelity(self._augmented.Vz_inmode[:6, :6], self.noise.Lambda)


#: Loops per stacked Lyapunov solve in LoopBuilder.fidelities. A loop's
#: dense operator is N x N, N = (6+m)(7+m)/2 = 45 for s1, so a stack of 32
#: holds 32 x 45 x 45 doubles (518 kB). Against two stacks of 16, one of 32
#: solves the sweep's s1 loops 11 % faster and its s2 loops 15 % faster
#: (alternating in one process), for ~0.4 MB of the sweep's peak RSS; one
#: stack of a whole 144-loop grid raised peak RSS by ~5 MB.
LOOP_STACK = 32


class LoopBuilder:
    """Assembles loops for one memory and encoding: `builder(noise, mode, r)`,
    or the fidelities of a whole grid: `builder.fidelities(noises, mode, rs)`.

    A filter that knows the source (model.FILTER_MODES) sees the true noise;
    a blind one sees the source block replaced by the vacuum. The stationary
    filter depends on neither r nor, when blind, the true source, so each
    builder solves it once per (mode, filter-view SigmaW). The regulator
    gains are a closed form of (mode, r) and are not cached.
    """

    def __init__(self, params: MemoryParams, enc: Encoding):
        self.params = params
        self.enc = enc
        self._filters: dict = {}

    def __call__(self, noise: NoiseModel, mode: str, r: float) -> Loop:
        ((mm, sf),) = self._filters_of([noise], mode)
        g = lqg_gains(LqgConfig(r=r, mode=mode), self.params, self.enc)
        return Loop(params=self.params, enc=self.enc, noise=noise, mm=mm, sf=sf, g=g)

    def fidelities(self, noises: list, mode: str, rs) -> np.ndarray:
        """F[i, j] = self(noises[i], mode, rs[j]).fidelity(), bit for bit.

        The filter views of the noises that are not yet cached are solved
        as one stacked CARE. The augmented models are assembled as stacks:
        the parts that do not depend on r once for all noises (`_open_loops`
        and the joint noise covariances), the drifts per r and stack. The
        loops are solved one r at a time, over the noises, in stacked
        Lyapunov solves of at most LOOP_STACK loops. An error is its point's
        own, unlabelled, with `exc.index` the grid point (i, j) and None for
        a free coordinate: j for a filter, i for an r's gains.
        """
        with items_renamed(point=lambda i: (i, None)):
            filters = self._filters_of(noises, mode)
        mm = filters[0][0]  # C, D and Btil are the mode's alone
        Ktil = stack([sf.Ktil for _, sf in filters])
        Az, Bz = _open_loops(self.params, self.enc, mm, Ktil)
        SigmaW = stack([noise.SigmaW for noise in noises])
        Qz = _joint_noises(Bz, SigmaW)
        F = np.empty((len(noises), len(rs)))
        for j, r in enumerate(rs):
            try:
                g = lqg_gains(LqgConfig(r=r, mode=mode), self.params, self.enc)
            except ValueError as exc:  # r fails at every noise
                exc.index = (None, j)
                raise
            for start in range(0, len(noises), LOOP_STACK):
                block = slice(start, min(start + LOOP_STACK, len(noises)))
                Azj = Az[block].copy()
                _add_feedback(Azj, g)
                with items_renamed(point=lambda k: (start + k, j)):
                    Vz = solve_lyapunov_steady(Azj, Qz[block])
                    F[block, j] = controlled_fidelity(Vz[:, :6, :6], SigmaW[block, :6, :6])
        return F

    def _filters_of(self, noises: list, mode: str) -> list:
        """(mm, sf) of each noise's filter view; the views not yet cached are
        solved together, and an error's `exc.index` is its noise's index."""
        # the filter never knows the amplitude, so only covariance_known matters
        source = SourceSpec(alpha_in=0.0, covariance_known=syndrome_set(mode).knows_source)
        views = [filter_view_noise(noise, source, self.params) for noise in noises]
        # the measurement model reads Lambda, the filter all of SigmaW
        keys = [(mode, view.SigmaW.tobytes()) for view in views]
        first = {}  # each uncached key, at the first noise that has it
        for i, key in enumerate(keys):
            if key not in self._filters:
                first.setdefault(key, i)
        if first:
            points = list(first.values())
            new = [views[i] for i in points]
            with items_renamed(point=points.__getitem__):
                if len(new) == 1:  # through the per-point entries, whose calls a trace counts
                    mms = [measurement_model(mode, self.enc, self.params, new[0])]
                    sfs = [stationary_filter(mms[0], self.params, self.enc, new[0])]
                else:
                    mms = measurement_models(mode, self.enc, self.params, new)
                    sfs = stationary_filters(mms, self.params, self.enc, new)
            self._filters.update(zip(first, zip(mms, sfs)))
        return [self._filters[key] for key in keys]
