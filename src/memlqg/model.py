"""Physical ingredients: rates, field statistics, encoding, noise covariances.

Conventions
-----------
* Quadratures are dimensionless with vacuum variance 1/2 per quadrature.
* All rates are angular frequencies (rad/s). The CLI accepts "per 2*pi in Hz"
  inputs and converts; library code never does.
* State ordering is (q1, p1, q2, p2, q3, p3): mode 1 holds the payload, modes
  2 and 3 the squeezed ancillas.

The memory is written through a balanced three-way passive mixer ("tritter"),
an orthogonal 6x6 quadrature map T. Syndrome coordinates are rows of T^T
selected by the index matrices Z1 (three rows: the collective momentum sum
and two position differences) and Z2 (the two position differences only).
Both selections annihilate the drive direction, which is what makes the
write-in amplitude invisible to the error-correction layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# CODATA 2018 exact SI values.
HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J / K

#: Squeezing exponents below this are treated as the "infinite squeezing"
#: ideal; pushing further only degrades conditioning of measured covariances.
MU_FLOOR = -20.0

_S13 = np.sqrt(1.0 / 3.0)
_S23 = np.sqrt(2.0 / 3.0)
_S16 = np.sqrt(1.0 / 6.0)
_S12 = np.sqrt(1.0 / 2.0)

# Quadrature-space tritter: orthogonal, mixes the three modes evenly and
# routes the two ancilla-difference directions to separate output ports.
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

# Syndrome selectors: rows of T^T picked by index. Z1 keeps (p1+p2+p3)/sqrt(3),
# (q2+q3-2q1)/sqrt(6) and (q2-q3)/sqrt(2); Z2 keeps only the two position
# differences, which are the source-blind channels.
_Z1 = np.zeros((3, 6))
_Z1[0, 1] = _Z1[1, 2] = _Z1[2, 4] = 1.0
_Z2 = np.zeros((2, 6))
_Z2[0, 2] = _Z2[1, 4] = 1.0


def tritter() -> np.ndarray:
    """The 6x6 orthogonal encoding matrix (a fresh copy)."""
    return _TRITTER.copy()


@dataclass(frozen=True)
class MemoryParams:
    """Rates of the three-mode memory.

    nu     : write/readout coupling rate (rad/s), nu > 0
    gamma  : loss rate to the thermal bath (rad/s), gamma >= 0
    n_occ  : bath occupation number, n_occ >= 0
    """

    nu: float
    gamma: float
    n_occ: float

    def __post_init__(self):
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
    """Stationary Gaussian statistics (N, M) of one input field mode.

    N is the photon flux excess over vacuum, M the phase-sensitive moment.
    Physicality requires N(N+1) >= |M|^2 (equality for pure squeezed vacuum).
    """

    N: float
    M: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "M", complex(self.M))
        if self.N < 0.0:
            raise ValueError(f"N must be nonnegative, got {self.N}")
        bound = self.N * (self.N + 1.0)
        if abs(self.M) ** 2 > bound * (1.0 + 1e-12) + 1e-12:
            raise ValueError(
                f"unphysical mode: |M|^2 = {abs(self.M)**2:.6g} exceeds "
                f"N(N+1) = {self.N * (self.N + 1.0):.6g}"
            )

    @property
    def is_pure(self) -> bool:
        scale = max(1.0, self.N * (self.N + 1.0))
        return abs(self.N * (self.N + 1.0) - abs(self.M) ** 2) <= 1e-10 * scale

    def block(self) -> np.ndarray:
        """2x2 symmetrized quadrature covariance of the mode."""
        return np.array(
            [
                [self.N + self.M.real + 0.5, self.M.imag],
                [self.M.imag, self.N - self.M.real + 0.5],
            ]
        )


def vacuum() -> FieldMode:
    return FieldMode(N=0.0, M=0.0)


def squeezed_vacuum(mu: float) -> FieldMode:
    """Pure squeezed vacuum with position variance e^mu / 2.

    mu < 0 squeezes position (used for the ancillas), mu > 0 squeezes
    momentum. mu = 0 is the vacuum.
    """
    ep, em = np.exp(mu), np.exp(-mu)
    return FieldMode(N=(ep + em - 2.0) / 4.0, M=(ep - em) / 4.0)


def thermal_occupation(temp_k: float, omega: float) -> float:
    """Planck occupation 1/(e^x - 1), x = hbar*omega/(kB*T); omega in rad/s."""
    if temp_k < 0.0 or omega <= 0.0:
        raise ValueError("temp_k must be >= 0 and omega > 0")
    if temp_k == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temp_k)
    if x > 700.0:  # exp overflow guard; occupation is indistinguishable from 0
        return 0.0
    return 1.0 / np.expm1(x)


def drive_vector(alpha_in: float) -> np.ndarray:
    """Write-in drive direction beta = sqrt(2)*alpha_in/sqrt(3) * (1,0,1,0,1,0)."""
    beta = np.zeros(6)
    beta[0::2] = np.sqrt(2.0 / 3.0) * alpha_in
    return beta


def lambda_matrix(m1: FieldMode, m2: FieldMode, m3: FieldMode) -> np.ndarray:
    """Block-diagonal 6x6 input-field covariance diag{L1, L2, L3}.

    The two ancilla modes must carry identical statistics; that symmetry is
    what decouples the syndrome channels.
    """
    if not (np.isclose(m2.N, m3.N) and np.isclose(m2.M, m3.M)):
        raise ValueError("ancilla modes m2 and m3 must have identical statistics")
    out = np.zeros((6, 6))
    for k, m in enumerate((m1, m2, m3)):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = m.block()
    return out


def input_covariance(Lambda: np.ndarray) -> np.ndarray:
    """Memory-frame covariance T Lambda T^T of the encoded input state."""
    Lambda = np.asarray(Lambda, dtype=float)
    if Lambda.shape != (6, 6):
        raise ValueError(f"Lambda must be 6x6, got {Lambda.shape}")
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

    def filter_view(self) -> FieldMode:
        """Source statistics as seen by the estimation layer."""
        return self.mode if self.covariance_known else vacuum()


@dataclass(frozen=True)
class Encoding:
    """Tritter, drive direction, and the two syndrome maps.

    Btil1/Btil2 are the isometric syndrome maps Z_i T^T; both annihilate
    beta, so syndromes carry no information about the written amplitude.
    """

    T: np.ndarray
    beta: np.ndarray
    Z1: np.ndarray
    Z2: np.ndarray
    Btil1: np.ndarray
    Btil2: np.ndarray

    def __post_init__(self):
        if np.abs(self.T @ self.T.T - np.eye(6)).max() > 1e-12:
            raise ValueError("T is not orthogonal")
        for name, B in (("Btil1", self.Btil1), ("Btil2", self.Btil2)):
            if np.abs(B @ B.T - np.eye(B.shape[0])).max() > 1e-12:
                raise ValueError(f"{name} is not isometric")
            if np.abs(B @ self.beta).max() > 1e-10 * max(1.0, np.abs(self.beta).max()):
                raise ValueError(f"{name} does not annihilate the drive")
        for arr in (self.T, self.beta, self.Z1, self.Z2, self.Btil1, self.Btil2):
            arr.setflags(write=False)

    def syndrome_map(self, mode: str) -> np.ndarray:
        if mode == "s1":
            return self.Btil1
        if mode == "s2":
            return self.Btil2
        raise ValueError(f"unknown filter mode {mode!r} (expected 's1' or 's2')")

    def selector(self, mode: str) -> np.ndarray:
        if mode == "s1":
            return self.Z1
        if mode == "s2":
            return self.Z2
        raise ValueError(f"unknown filter mode {mode!r} (expected 's1' or 's2')")


def standard_encoding(alpha_in: float) -> Encoding:
    """The balanced encoding used throughout, with drive set by alpha_in."""
    T = tritter()
    return Encoding(
        T=T,
        beta=drive_vector(alpha_in),
        Z1=_Z1.copy(),
        Z2=_Z2.copy(),
        Btil1=_Z1 @ T.T,
        Btil2=_Z2 @ T.T,
    )


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
    Lambda = np.asarray(Lambda, dtype=float)
    if n_occ < 0.0:
        raise ValueError(f"n_occ must be nonnegative, got {n_occ}")
    SigmaW = np.zeros((12, 12))
    SigmaW[:6, :6] = Lambda
    SigmaW[6:, 6:] = (n_occ + 0.5) * np.eye(6)
    return NoiseModel(Lambda=Lambda.copy(), SigmaW=SigmaW)


def standard_noise(source_mode: FieldMode, mu: float, params: MemoryParams) -> NoiseModel:
    """Noise model for a given payload mode and ancilla squeezing exponent."""
    anc = squeezed_vacuum(mu)
    return noise_model(lambda_matrix(source_mode, anc, anc), params.n_occ)
