import numpy as np
import pytest
from numpy.testing import assert_allclose

from memlqg.model import (
    MU_FLOOR,
    Encoding,
    FieldMode,
    MemoryParams,
    SourceSpec,
    drive_vector,
    input_covariance,
    lambda_matrix,
    noise_model,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    thermal_occupation,
    tritter,
    vacuum,
)

HBAR = 1.054571817e-34
KB = 1.380649e-23


def test_tritter_is_orthogonal_and_balanced():
    T = tritter()
    assert_allclose(T @ T.T, np.eye(6), atol=1e-14)
    # balanced first column: the payload quadratures spread evenly over modes
    q_weights = T[0::2, 0]
    assert_allclose(np.abs(q_weights), np.sqrt(1.0 / 3.0), atol=1e-14)


def test_tritter_position_rows_orthonormal_by_hand():
    # Independently reconstructed rows: equal-weight plus two difference rows.
    T = tritter()
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


def test_vacuum_and_squeezed_blocks():
    v = vacuum()
    assert v.N == 0.0 and v.M == 0.0
    assert_allclose(v.block(), 0.5 * np.eye(2))
    s = squeezed_vacuum(-1.0)
    # diag(e^mu, e^-mu)/2 convention
    assert_allclose(s.block(), 0.5 * np.diag([np.exp(-1.0), np.exp(1.0)]), atol=1e-15)
    # N and M of a pure squeezed state: N = sinh^2(mu/2), M = real
    assert s.N == pytest.approx(np.sinh(0.5) ** 2, rel=1e-12)
    assert s.M.imag == 0.0


def test_squeezed_vacuum_is_minimum_uncertainty():
    for mu in (-3.0, -0.4, 0.0, 1.2):
        m = squeezed_vacuum(mu)
        # |M|^2 = N(N+1) exactly on the pure-state boundary
        assert abs(m.M) ** 2 == pytest.approx(m.N * (m.N + 1.0), rel=1e-10, abs=1e-12)


def test_field_mode_rejects_unphysical_correlation():
    with pytest.raises(ValueError):
        FieldMode(N=0.1, M=1.0)  # |M|^2 > N(N+1)


def test_field_mode_accepts_boundary_at_large_scale():
    # the purity bound must be checked in relative terms: at strong squeezing
    # N(N+1) is ~1e16 and an absolute epsilon would misfire
    m = squeezed_vacuum(MU_FLOOR)
    assert abs(m.M) ** 2 <= m.N * (m.N + 1.0) * (1.0 + 1e-10)


def test_squeezed_vacuum_at_floor_still_constructs():
    # MU_FLOOR marks where further squeezing is numerically pointless; the
    # constructor must still accept it without tripping the purity check
    floor = squeezed_vacuum(MU_FLOOR)
    # (N, M) cancellation leaves only absolute precision ~ulp(e^|mu|/4) here
    assert floor.block()[0, 0] == pytest.approx(0.5 * np.exp(MU_FLOOR), abs=1e-7)
    assert floor.block()[1, 1] == pytest.approx(0.5 * np.exp(-MU_FLOOR), rel=1e-12)
    assert floor.is_pure


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


def test_input_covariance_preserves_purity():
    # T is symplectic-orthogonal here, so det of each 2x2 mode block of a
    # pure product input stays 1/4 after encoding
    lam = lambda_matrix(vacuum(), squeezed_vacuum(-0.8), squeezed_vacuum(-0.8))
    V = input_covariance(lam)
    assert_allclose(V, V.T, atol=1e-15)
    assert np.linalg.det(V) == pytest.approx((0.25) ** 3, rel=1e-10)


def test_encoding_maps_annihilate_drive():
    enc = standard_encoding(-230.0)
    assert_allclose(enc.Btil1 @ enc.beta, 0.0, atol=1e-10)
    assert_allclose(enc.Btil2 @ enc.beta, 0.0, atol=1e-10)
    assert enc.Btil1.shape == (3, 6)
    assert enc.Btil2.shape == (2, 6)
    # isometries
    assert_allclose(enc.Btil1 @ enc.Btil1.T, np.eye(3), atol=1e-13)
    assert_allclose(enc.Btil2 @ enc.Btil2.T, np.eye(2), atol=1e-13)


def test_syndrome_coordinates_by_hand():
    """The three s1 coordinates evaluated on a raw memory vector."""
    enc = standard_encoding(0.0)
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])  # (q1,p1,q2,p2,q3,p3)
    s = enc.Btil1 @ x
    q1, p1, q2, p2, q3, p3 = x
    assert s[0] == pytest.approx(np.sqrt(1 / 3) * (p1 + p2 + p3))
    assert s[1] == pytest.approx(np.sqrt(1 / 6) * (q2 + q3 - 2 * q1))
    assert s[2] == pytest.approx(np.sqrt(1 / 2) * (q2 - q3))
    # s2 is the position-difference pair only
    s2 = enc.Btil2 @ x
    assert_allclose(s2, s[1:])


def test_encoding_rejects_nonorthogonal_tritter():
    T = tritter()
    bad = T.copy()
    bad[0, 0] += 0.01
    with pytest.raises(ValueError):
        Encoding(
            T=bad,
            beta=drive_vector(1.0),
            Z1=np.eye(6)[[1, 2, 4]],
            Z2=np.eye(6)[[2, 4]],
            Btil1=np.eye(6)[[1, 2, 4]] @ T.T,
            Btil2=np.eye(6)[[2, 4]] @ T.T,
        )


def test_source_spec_filter_view():
    informed = SourceSpec(alpha_in=-230.0, mode=squeezed_vacuum(-1.0))
    blind = SourceSpec(alpha_in=-230.0, mode=squeezed_vacuum(-1.0), covariance_known=False)
    assert informed.filter_view().M != 0.0
    assert blind.filter_view().N == 0.0  # vacuum stand-in


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
    enc = standard_encoding(1.0)
    with pytest.raises(ValueError):
        enc.T[0, 0] = 2.0
