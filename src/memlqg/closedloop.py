"""Steady-state analysis of the estimator-feedback loop.

The joint state of memory and syndrome filter is linear and Gaussian, so
its covariance obeys an augmented Lyapunov equation whose steady solution
gives the controlled memory covariance V' as the leading 6x6 block. It is
built and solved in the input-mode coordinates x' = T^T x, where each loop
map is a row selection by Z (C' = sqrt(2 nu) Z, F' = -Z^T diag(f)) and T
takes no part, so the squeezed and anti-squeezed channels, e^mu apart,
never mix. The fidelity det(V' + Lambda)^-1/2 is read from that one solve,
and the covariance of z = (x, pi_s) is its rotation by diag(T, I). For a
diagonal Lambda each measured channel is one 2x2 loop (x'_j, pi_j), so
V' in x' is diag(v'), and `controlled_channel_variances` gives v' from
scalar formulas alone (the separation principle), an oracle independent
of the dense solve.

The feedback never disturbs the stored word: the syndrome maps annihilate
the drive direction, so the closed-loop steady mean equals the open-loop
one and fidelity changes only through the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .control import Gains, LqgConfig, feedback_rates, lqg_gains
from .estimation import (
    MeasurementModel,
    StationaryFilter,
    conditional_channel_variances,
    filter_view_noise,
    measurement_model,
    measurement_models,
    stationary_filter,
    stationary_filters,
)
from .model import _TRITTER, Encoding, MemoryParams, NoiseModel, SourceSpec, syndrome_set
from .numerics import items_renamed, solve_lyapunov_steady, stack, symmetrize
from .openloop import channel_variances, fidelity


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


def controlled_channel_variances(
    params: MemoryParams, Lambda: np.ndarray, mode: str, r: float
) -> np.ndarray:
    """The controlled steady variances v'_j of the six x' channels from
    scalar formulas, never from the dense solve. By the separation principle
    a measured channel's v' is its filter variance v_c plus the variance of
    its estimate, which the rate f of `feedback_rates` damps at c + f in
    place of c: v' = v_c + (v - v_c) c / (c + f), v the open-loop variance
    (both from scalar formulas that refuse a non-diagonal Lambda)."""
    v = channel_variances(params, Lambda)
    vc = conditional_channel_variances(params, Lambda, mode)
    f = np.zeros(6)
    f[list(syndrome_set(mode).rows)] = feedback_rates(LqgConfig(r=r, mode=mode), params)
    c = params.damping
    return vc + (v - vc) * c / (c + f)


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
