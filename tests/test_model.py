import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg.model import (
    _TRITTER,
    MU_FLOOR,
    Encoding,
    FieldMode,
    MemoryParams,
    drive_vector,
    input_covariance,
    lambda_matrix,
    noise_model,
    noise_models,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    standard_noises,
    thermal_occupation,
    vacuum,
)

HBAR = 1.054571817e-34
KB = 1.380649e-23


def test_tritter_is_orthogonal_and_balanced():
    T = _TRITTER
    assert_allclose(T @ T.T, np.eye(6), atol=1e-14)
    # balanced first column: the payload quadratures spread evenly over modes
    q_weights = T[0::2, 0]
    assert_allclose(np.abs(q_weights), np.sqrt(1.0 / 3.0), atol=1e-14)


def test_tritter_position_rows_orthonormal_by_hand():
    # Independently reconstructed rows: equal-weight plus two difference rows.
    T = _TRITTER
    expected_first_two = np.array(
        [
            [np.sqrt(1 / 3), 0, -np.sqrt(2 / 3), 0, 0, 0],
            [0, np.sqrt(1 / 3), 0, -np.sqrt(2 / 3), 0, 0],
        ]
    )
    assert_allclose(T[0:2], expected_first_two, atol=1e-15)


def test_memory_params_validation_and_damping():
    p = MemoryParams(nu=6.0, gamma=2.0, n_occ=1.0)
    assert p.damping == pytest.approx(4.0)  # (nu+gamma)/2
    with pytest.raises(ValueError):
        MemoryParams(nu=-1.0, gamma=1.0, n_occ=0.0)
    with pytest.raises(ValueError):
        MemoryParams(nu=1.0, gamma=1.0, n_occ=-2.0)


@pytest.mark.parametrize("name", ["nu", "gamma", "n_occ"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_memory_params_refuse_non_finite_rates(name, bad):
    values = dict(nu=1.0, gamma=1.0, n_occ=0.0) | {name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        MemoryParams(**values)


def test_vacuum_and_squeezed_blocks():
    v = vacuum()
    assert v == FieldMode(vq=0.5, vp=0.5, c=0.0)
    assert_allclose(v.block(), 0.5 * np.eye(2))
    s = squeezed_vacuum(-1.0)
    # diag(e^mu, e^-mu)/2 convention, stored exactly
    assert s == FieldMode(vq=0.5 * np.exp(-1.0), vp=0.5 * np.exp(1.0), c=0.0)
    assert np.array_equal(s.block(), 0.5 * np.diag([np.exp(-1.0), np.exp(1.0)]))
    # hashable and compared by value, as a frozen dataclass of floats
    assert len({s, squeezed_vacuum(-1.0), v}) == 2


def test_squeezed_vacuum_is_minimum_uncertainty():
    for mu in (MU_FLOOR, -3.0, -0.4, 0.0, 1.2, -MU_FLOOR):
        # det = 1/4 on the pure-state boundary
        assert np.linalg.det(squeezed_vacuum(mu).block()) == pytest.approx(0.25, rel=1e-15)


def test_field_mode_rejects_unphysical_correlation():
    for vq, vp, c in ((0.5, 0.5, 0.1), (0.4, 0.5, 0.0), (-1.0, -1.0, 0.0), (0.0, 1e300, 0.0)):
        with pytest.raises(ValueError, match="unphysical mode"):
            FieldMode(vq=vq, vp=vp, c=c)  # det < 1/4, or a variance not positive


@pytest.mark.parametrize("name", ["vq", "vp", "c"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_mode_refuses_non_finite_entries(name, bad):
    """An infinite variance passes det >= 1/4, so finiteness is its own gate."""
    values = dict(vq=0.5, vp=0.5, c=0.0) | {name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        FieldMode(**values)


def test_field_mode_accepts_boundary_at_large_scale():
    # the uncertainty bound must be checked relative to vq vp: a pure mode
    # squeezed along a tilted axis has vq vp ~ c^2 ~ 1e16 at s = 20, and the
    # determinant's rounding alone then exceeds any epsilon on 1/4
    s = 20.0
    tilted = FieldMode(vq=0.5 * np.cosh(s), vp=0.5 * np.cosh(s), c=0.5 * np.sinh(s))
    assert tilted.vq * tilted.vp - tilted.c**2 != 0.25  # rounding, not physics
    with pytest.raises(ValueError, match="unphysical mode"):
        FieldMode(vq=tilted.vq, vp=tilted.vp, c=tilted.c * (1.0 + 1e-9))


def test_squeezed_vacuum_at_floor_still_constructs():
    floor = squeezed_vacuum(MU_FLOOR)
    assert floor.block()[0, 0] == pytest.approx(0.5 * np.exp(MU_FLOOR), rel=1e-15)
    assert floor.block()[1, 1] == pytest.approx(0.5 * np.exp(-MU_FLOOR), rel=1e-15)


def test_thermal_occupation_bose_einstein():
    omega = 2 * np.pi * 1.1e6
    t = 0.3
    expected = 1.0 / (np.exp(HBAR * omega / (KB * t)) - 1.0)
    assert thermal_occupation(t, omega) == pytest.approx(expected, rel=1e-9)
    assert thermal_occupation(0.0, omega) == 0.0


def test_drive_vector_structure():
    beta = drive_vector(-230.0)
    assert_allclose(beta[1::2], 0.0)
    assert_allclose(beta[0::2], np.sqrt(2.0 / 3.0) * -230.0)


def test_lambda_matrix_requires_twin_ancillas():
    with pytest.raises(ValueError):
        lambda_matrix(vacuum(), squeezed_vacuum(-1.0), squeezed_vacuum(-0.5))
    lam = lambda_matrix(squeezed_vacuum(0.3), vacuum(), vacuum())
    assert_allclose(lam[0:2, 0:2], squeezed_vacuum(0.3).block())
    assert_allclose(lam[2:4, 2:4], 0.5 * np.eye(2))


@pytest.mark.parametrize(
    "base,delta",
    [
        (FieldMode(vq=1.0, vp=1.0), FieldMode(vq=1.5, vp=1.5)),
        (FieldMode(vq=1.0, vp=1.0, c=0.3), FieldMode(vq=1.3, vp=0.7, c=0.6)),
    ],
    ids=["variances", "covariance"],
)
def test_lambda_matrix_twin_tolerance(base, delta):
    """The ancillas match within np.isclose's default tolerances: a 1e-9
    mismatch in the variances or in the covariance is accepted, a 1e-3
    mismatch refused."""

    def shifted(eps):
        return FieldMode(
            vq=base.vq + eps * (delta.vq - base.vq),
            vp=base.vp + eps * (delta.vp - base.vp),
            c=base.c + eps * (delta.c - base.c),
        )

    lam = lambda_matrix(vacuum(), base, shifted(1e-9))
    assert_allclose(lam[2:4, 2:4], base.block())
    with pytest.raises(ValueError, match="identical statistics"):
        lambda_matrix(vacuum(), base, shifted(1e-3))


def test_input_covariance_preserves_purity():
    # T is symplectic-orthogonal here, so det of each 2x2 mode block of a
    # pure product input stays 1/4 after encoding
    lam = lambda_matrix(vacuum(), squeezed_vacuum(-0.8), squeezed_vacuum(-0.8))
    V = input_covariance(lam)
    assert_allclose(V, V.T, atol=1e-15)
    assert np.linalg.det(V) == pytest.approx((0.25) ** 3, rel=1e-10)


def test_encoding_maps_annihilate_drive():
    enc = standard_encoding(-230.0)
    for mode, m in (("s1", 3), ("s2", 2)):
        B = enc.syndrome_map(mode)
        assert_allclose(B @ enc.beta, 0.0, atol=1e-10)
        assert B.shape == (m, 6)
        assert_allclose(B @ B.T, np.eye(m), atol=1e-13)  # isometry


def test_syndrome_coordinates_by_hand():
    """The three s1 coordinates evaluated on a raw memory vector."""
    enc = standard_encoding(0.0)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # (q1,p1,q2,p2,q3,p3)
    s = enc.syndrome_map("s1") @ x
    q1, p1, q2, p2, q3, p3 = x
    assert s[0] == pytest.approx(np.sqrt(1 / 3) * (p1 + p2 + p3))
    assert s[1] == pytest.approx(np.sqrt(1 / 6) * (q2 + q3 - 2 * q1))
    assert s[2] == pytest.approx(np.sqrt(1 / 2) * (q2 - q3))
    # s2 is the position-difference pair only
    s2 = enc.syndrome_map("s2") @ x
    assert_allclose(s2, s[1:])


def test_encoding_rejects_drive_along_p1():
    # the p1 direction is invisible to the s2 rows, but s1 reads it
    with pytest.raises(ValueError, match="syndrome map of 's1'"):
        Encoding(beta=np.eye(6)[1])


def test_noise_model_layout():
    lam = lambda_matrix(vacuum(), vacuum(), vacuum())
    nm = noise_model(lam, 3.0)
    assert_allclose(nm.SigmaW[:6, :6], lam)
    assert_allclose(nm.SigmaW[6:, 6:], 3.5 * np.eye(6))
    assert_allclose(nm.SigmaW[:6, 6:], 0.0)
    with pytest.raises(ValueError):
        noise_model(lam, -1.0)


def test_standard_noise_assembly():
    p = MemoryParams(nu=1.0, gamma=1.0, n_occ=2.0)
    nm = standard_noise(squeezed_vacuum(0.5), -0.4, p)
    assert_allclose(nm.Lambda[0:2, 0:2], squeezed_vacuum(0.5).block())
    assert_allclose(nm.Lambda[2:4, 2:4], squeezed_vacuum(-0.4).block())
    assert_allclose(nm.Lambda[4:6, 4:6], squeezed_vacuum(-0.4).block())


def test_noise_arrays_are_frozen():
    nm = standard_noise(vacuum(), 0.0, MemoryParams(nu=1.0, gamma=0.5, n_occ=0.0))
    with pytest.raises(ValueError):
        nm.SigmaW[0, 0] = 99.0
    with pytest.raises(ValueError):
        _TRITTER[0, 0] = 2.0
    enc = standard_encoding(1.0)
    with pytest.raises(ValueError):
        enc.beta[0] = 2.0


def test_grid_noise_models_equal_each_point_bit_for_bit():
    """standard_noises and noise_models hold, bit for bit, what
    lambda_matrix, squeezed_vacuum and noise_model build point by point:
    squeezed, tilted and anti-squeezed sources, mu from MU_FLOOR up, and a
    bath occupation."""
    p = MemoryParams(nu=3.0, gamma=0.7, n_occ=12.5)
    mus = np.concatenate([np.linspace(MU_FLOOR, 5.0, 251), [-0.4, 0.0, 1e-300]])
    sources = [
        (vacuum(), squeezed_vacuum(1.5), FieldMode(vq=2.0, vp=1.0, c=0.5))[k % 3]
        for k in range(len(mus))
    ]
    grid = standard_noises(sources, mus, p)
    alone = [
        noise_model(lambda_matrix(src, squeezed_vacuum(mu), squeezed_vacuum(mu)), p.n_occ)
        for src, mu in zip(sources, mus.tolist())
    ]
    for a, b in zip(grid, alone):
        assert np.array_equal(a.Lambda, b.Lambda) and np.array_equal(a.SigmaW, b.SigmaW)
        assert not a.SigmaW.flags.writeable and not a.Lambda.flags.writeable
    lams = np.stack([n.Lambda for n in alone])
    for a, lam in zip(noise_models(lams, 3.0), lams):
        b = noise_model(lam, 3.0)
        assert np.array_equal(a.Lambda, b.Lambda) and np.array_equal(a.SigmaW, b.SigmaW)
    with pytest.raises(ValueError) as alone_error:
        squeezed_vacuum(float("nan"))
    with pytest.raises(ValueError) as grid_error:
        standard_noises([vacuum()] * 3, [0.0, float("nan"), 1.0], p)
    assert str(grid_error.value) == str(alone_error.value)
    assert standard_noises([], [], p) == []
    with pytest.raises(ValueError, match="1 sources"):
        standard_noises([vacuum()], [0.0, -0.4], p)
