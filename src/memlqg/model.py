"""Physical ingredients: rates, field statistics, encoding, noise covariances.

Conventions
-----------
* Quadratures are dimensionless with vacuum variance 1/2 per quadrature.
* All rates are angular frequencies (rad/s). The CLI accepts "per 2*pi in Hz"
  inputs and converts; library code never does.
* State ordering is (q1, p1, q2, p2, q3, p3): mode 1 holds the payload, modes
  2 and 3 the squeezed ancillas.
* A FieldMode is its quadrature block (vq, vp, c), physical when
  det = vq vp - c^2 >= 1/4, so a squeezed variance e^mu/2 is stored exactly.

The memory is written through a balanced three-way passive mixer ("tritter"),
an orthogonal 6x6 quadrature map T. Syndrome coordinates are rows of T^T.
FILTER_MODES states the two filters once: 's1' measures three rows (the
collective momentum sum and two position differences) and may assume the
payload covariance; 's2' measures the two position differences only and is
source-blind. Both selections annihilate the drive direction, which is what
makes the write-in amplitude invisible to the error-correction layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# CODATA 2018 exact SI values.
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J / K

#: The floor the loop is tested at and the singular-innovation error
#: recommends. Nothing clamps to it: further below, the measured covariances
#: lose conditioning until a determinant or a CARE fails.
MU_FLOOR = -20.0

_S13 = np.sqrt(1.0 / 3.0)
_S23 = np.sqrt(2.0 / 3.0)
_S16 = np.sqrt(1.0 / 6.0)
_S12 = np.sqrt(1.0 / 2.0)

# Quadrature-space tritter: orthogonal, mixes the three modes evenly and
# routes the two ancilla-difference directions to separate output ports.
# The one encoding matrix T: every layer reads this constant.
_TRITTER = np.array(
    [
        [_S13, 0.0, -_S23, 0.0, 0.0, 0.0],
        [0.0, _S13, 0.0, -_S23, 0.0, 0.0],
        [_S13, 0.0, _S16, 0.0, _S12, 0.0],
        [0.0, _S13, 0.0, _S16, 0.0, _S12],
        [_S13, 0.0, _S16, 0.0, -_S12, 0.0],
        [0.0, _S13, 0.0, _S16, 0.0, -_S12],
    ]
)
_TRITTER.setflags(write=False)
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)


@dataclass(frozen=True)
class MemoryParams:
    """Rates of the three-mode memory, all finite.

    nu     : write/readout coupling rate (rad/s), nu > 0
    gamma  : loss rate to the thermal bath (rad/s), gamma >= 0
    n_occ  : bath occupation number, n_occ >= 0
    """

    nu: float
    gamma: float
    n_occ: float

    def __post_init__(self):
        for name in ("nu", "gamma", "n_occ"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.nu > 0.0):
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.n_occ < 0.0:
            raise ValueError(f"n_occ must be nonnegative, got {self.n_occ}")

    @property
    def damping(self) -> float:
        """Amplitude decay rate (nu + gamma)/2 of every quadrature."""
        return 0.5 * (self.nu + self.gamma)


@dataclass(frozen=True)
class FieldMode:
    """One input field mode as its quadrature covariance [[vq, c], [c, vp]].

    Physical when vq, vp and c are finite, vq, vp > 0 and vq vp - c^2 >= 1/4
    (equality for a pure state), to 1e-12 relative to vq vp, the scale of the
    determinant's rounding.
    """

    vq: float
    vp: float
    c: float = 0.0

    def __post_init__(self):
        for name in ("vq", "vp", "c"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        det = self.vq * self.vp - self.c * self.c
        if not (self.vq > 0.0 and self.vp > 0.0 and det >= 0.25 - 1e-12 * self.vq * self.vp):
            raise ValueError(
                f"unphysical mode: block {self.block().tolist()} (det {det:.6g}) needs "
                "vq, vp > 0 and det >= 1/4"
            )

    def block(self) -> np.ndarray:
        """2x2 symmetrized quadrature covariance of the mode."""
        return np.array([[self.vq, self.c], [self.c, self.vp]])


def vacuum() -> FieldMode:
    return FieldMode(vq=0.5, vp=0.5)


def squeezed_vacuum(mu: float) -> FieldMode:
    """Pure squeezed vacuum with position variance e^mu / 2.

    mu < 0 squeezes position (used for the ancillas), mu > 0 squeezes
    momentum. mu = 0 is the vacuum.
    """
    return FieldMode(vq=0.5 * np.exp(mu), vp=0.5 * np.exp(-mu))


def thermal_occupation(temp_k: float, omega: float) -> float:
    """Planck occupation 1/(e^x - 1), x = hbar*omega/(kB*T); omega in rad/s.

    Returns inf, without a warning, when x underflows to 0."""
    if temp_k < 0.0 or omega <= 0.0:
        raise ValueError("temp_k must be >= 0 and omega > 0")
    if temp_k == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temp_k)
    if x > 700.0:  # exp overflow guard; occupation is indistinguishable from 0
        return 0.0
    with np.errstate(divide="ignore"):  # inf when x underflows to 0
        return 1.0 / np.expm1(x)


def drive_vector(alpha_in: float) -> np.ndarray:
    """Write-in drive direction beta = sqrt(2)*alpha_in/sqrt(3) * (1,0,1,0,1,0)."""
    beta = np.zeros(6)
    beta[0::2] = np.sqrt(2.0 / 3.0) * alpha_in
    return beta


def _isclose(a: float, b: float) -> bool:
    """np.isclose's rule with its default tolerances, for two scalars."""
    return abs(a - b) <= 1e-8 + 1e-5 * abs(b)


def lambda_matrix(m1: FieldMode, m2: FieldMode, m3: FieldMode) -> np.ndarray:
    """Block-diagonal 6x6 input-field covariance diag{L1, L2, L3}.

    The two ancilla modes must carry identical statistics; that symmetry is
    what decouples the syndrome channels.
    """
    if not (_isclose(m2.vq, m3.vq) and _isclose(m2.vp, m3.vp) and _isclose(m2.c, m3.c)):
        raise ValueError("ancilla modes m2 and m3 must have identical statistics")
    out = np.zeros((6, 6))
    for k, m in enumerate((m1, m2, m3)):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = m.block()
    return out


def input_covariance(Lambda: np.ndarray) -> np.ndarray:
    """Memory-frame covariance T Lambda T^T of the encoded input state, or
    of each item of a stack of Lambdas: the rotation of any covariance from
    x' = T^T x to x."""
    Lambda = np.asarray(Lambda, dtype=float)
    if Lambda.ndim not in (2, 3) or Lambda.shape[-2:] != (6, 6):
        raise ValueError(f"Lambda must be 6x6 or a stack of them, got {Lambda.shape}")
    return _TRITTER @ Lambda @ _TRITTER.T


@dataclass(frozen=True)
class SourceSpec:
    """What is assumed known about the payload mode.

    The mean amplitude alpha_in is never known to the controller.
    covariance_known distinguishes the fully-characterized source from the
    blind case, where estimation must run on the source-independent syndrome
    subset.
    """

    alpha_in: float
    mode: FieldMode = field(default_factory=vacuum)
    covariance_known: bool = True


@dataclass(frozen=True)
class SyndromeSet:
    """What one filter mode measures, penalises and may assume.

    rows         : rows of T^T measured, so the selector Z is I6[rows]
    weights      : regulator weight on each measured row
    knows_source : whether the filter may assume the payload covariance
    """

    rows: tuple[int, ...]
    weights: tuple[float, ...]
    knows_source: bool


# Rows 1, 2, 4 of T^T are (p1+p2+p3)/sqrt(3), (q2+q3-2q1)/sqrt(6) and
# (q2-q3)/sqrt(2). The weights bound the logical error: 9 on the collective
# momentum, 3 on each position difference.
FILTER_MODES = {
    "s1": SyndromeSet(rows=(1, 2, 4), weights=(9.0, 3.0, 3.0), knows_source=True),
    "s2": SyndromeSet(rows=(2, 4), weights=(3.0, 3.0), knows_source=False),
}


def syndrome_set(mode: str) -> SyndromeSet:
    """The FILTER_MODES entry of `mode`; every unknown mode is refused here."""
    try:
        return FILTER_MODES[mode]
    except KeyError:
        expected = " or ".join(repr(k) for k in FILTER_MODES)
        raise ValueError(f"unknown filter mode {mode!r} (expected {expected})") from None


@dataclass(frozen=True)
class Encoding:
    """Drive direction beta of the write-in through the tritter T.

    The syndrome map of each filter mode is Btil = Z T^T. It is isometric
    because T is orthogonal, and it must annihilate beta, so that syndromes
    carry no information about the written amplitude.
    """

    beta: np.ndarray

    def __post_init__(self):
        for mode in FILTER_MODES:
            leak = np.abs(self.syndrome_map(mode) @ self.beta).max()
            if leak > 1e-10 * max(1.0, np.abs(self.beta).max()):
                raise ValueError(f"syndrome map of {mode!r} does not annihilate the drive")
        self.beta.setflags(write=False)

    def selector(self, mode: str) -> np.ndarray:
        """Z, the m x 6 selector of the mode's rows (read-only)."""
        return _selector(mode)

    def syndrome_map(self, mode: str) -> np.ndarray:
        """Btil = Z T^T, the m x 6 isometric syndrome map (read-only)."""
        return _syndrome_map(mode)


@lru_cache(maxsize=None)
def _selector(mode: str) -> np.ndarray:
    Z = np.eye(6)[list(syndrome_set(mode).rows)]
    Z.setflags(write=False)
    return Z


@lru_cache(maxsize=None)
def _syndrome_map(mode: str) -> np.ndarray:
    Btil = _selector(mode) @ _TRITTER.T
    Btil.setflags(write=False)
    return Btil


def standard_encoding(alpha_in: float) -> Encoding:
    """The balanced encoding used throughout, with drive set by alpha_in."""
    return Encoding(beta=drive_vector(alpha_in))


@dataclass(frozen=True)
class NoiseModel:
    """Joint covariance of the twelve noise increments driving the memory.

    SigmaW = diag{Lambda, (n_occ + 1/2) I6}: the first six entries are the
    input-field quadratures, the last six the thermal bath.
    """

    Lambda: np.ndarray
    SigmaW: np.ndarray

    def __post_init__(self):
        if self.Lambda.shape != (6, 6) or self.SigmaW.shape != (12, 12):
            raise ValueError("NoiseModel expects Lambda 6x6 and SigmaW 12x12")
        self.Lambda.setflags(write=False)
        self.SigmaW.setflags(write=False)


def noise_model(Lambda: np.ndarray, n_occ: float) -> NoiseModel:
    """The noise model of the input covariance Lambda (6 x 6) and the bath
    occupation n_occ: `noise_models` of a stack of one."""
    return noise_models(np.asarray(Lambda, dtype=float)[None], n_occ)[0]


def noise_models(Lambdas, n_occ: float) -> list:
    """noise_model(Lambda, n_occ) of each Lambda of a k x 6 x 6 stack (or a
    list of 6 x 6 arrays), bit for bit, from one stack of SigmaW; each model
    holds read-only views."""
    if n_occ < 0.0:
        raise ValueError(f"n_occ must be nonnegative, got {n_occ}")
    if len(Lambdas) == 0:
        return []
    Lambdas = np.array(Lambdas, dtype=float)  # a copy the models own
    if Lambdas.ndim != 3 or Lambdas.shape[1:] != (6, 6):
        raise ValueError("NoiseModel expects Lambda 6x6 and SigmaW 12x12")
    SigmaW = np.zeros((len(Lambdas), 12, 12))
    SigmaW[:, :6, :6] = Lambdas
    SigmaW[:, 6:, 6:] = (n_occ + 0.5) * _EYE6
    return [NoiseModel(Lambda=Lam, SigmaW=S) for Lam, S in zip(Lambdas, SigmaW)]


def standard_noise(source_mode: FieldMode, mu: float, params: MemoryParams) -> NoiseModel:
    """Noise model for a given payload mode and ancilla squeezing exponent:
    `standard_noises` of a stack of one."""
    return standard_noises([source_mode], [mu], params)[0]


def standard_noises(sources, mus, params: MemoryParams) -> list:
    """The noise model of each pair of the sequences sources (FieldMode) and
    mus (ancilla squeezing exponents): each Lambda from `lambda_matrix`,
    and the models as one `noise_models` stack."""
    if len(mus) != len(sources):
        raise ValueError(f"{len(sources)} sources for {len(mus)} squeezing exponents")
    ancillas = map(squeezed_vacuum, mus)
    Lambdas = [lambda_matrix(source, anc, anc) for source, anc in zip(sources, ancillas)]
    return noise_models(Lambdas, params.n_occ)
