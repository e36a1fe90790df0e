"""Rotation-primitive checks: hat map, Rodrigues exponential, polar projection."""

import numpy as np
import pytest

from recavg.geom3 import E1, E2, E3, hat, levi_civita, project_so3, rot_exp, rot_z


def test_hat_cross_product_basis():
    assert np.allclose(hat(E3) @ E1, E2)


def test_hat_cross_product_direct():
    v = np.array([1.0, 2.0, 3.0])
    w = np.array([4.0, 5.0, 6.0])
    assert np.allclose(hat(v) @ w, np.array([-3.0, 6.0, -3.0]))
    assert np.allclose(hat(v) @ w, np.cross(v, w))


def test_hat_zero():
    assert np.array_equal(hat(np.zeros(3)), np.zeros((3, 3)))


def test_hat_antisymmetric():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = hat(rng.normal(size=3))
        assert np.abs(k + k.T).max() == 0.0


def test_rot_exp_zero_is_identity():
    assert np.allclose(rot_exp(np.zeros(3)), np.eye(3))


def test_rot_exp_quarter_turn():
    r = rot_exp(0.5 * np.pi * E3)
    assert np.abs(r @ E1 - E2).max() < 1e-12


def test_rot_exp_full_turn():
    rng = np.random.default_rng(2)
    for _ in range(5):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        assert np.abs(rot_exp(2.0 * np.pi * axis) - np.eye(3)).max() < 1e-12


def test_rot_exp_small_angle_series():
    v = np.array([1e-9, -2e-9, 1e-9])
    r = rot_exp(v)
    # at this scale exp(hat(v)) == I + hat(v) to double precision
    assert np.abs(r - (np.eye(3) + hat(v))).max() < 1e-17


def test_rot_exp_matches_power_series():
    # independent oracle: truncated matrix power series of hat(v)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.normal(size=3)
        k = hat(v)
        term = np.eye(3)
        total = np.eye(3)
        for n in range(1, 30):
            term = term @ k / n
            total = total + term
        assert np.abs(rot_exp(v) - total).max() < 1e-12


def test_rot_exp_inverse():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.normal(size=3)
        assert np.abs(rot_exp(v) @ rot_exp(-v) - np.eye(3)).max() < 1e-12


def test_rot_z_agrees_with_rot_exp():
    for angle in (-2.0, 0.0, 0.3, np.pi):
        assert np.allclose(rot_z(angle), rot_exp(angle * E3), atol=1e-15)


def test_conjugation_identity():
    # rotating the axis equals conjugating the skew matrix
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=3)
        v = rng.normal(size=3)
        r = rot_exp(a)
        assert np.abs(r @ hat(v) @ r.T - hat(r @ v)).max() < 1e-12


def test_project_so3_fixed_point():
    rng = np.random.default_rng(6)
    for _ in range(10):
        r = rot_exp(rng.normal(size=3))
        assert np.abs(project_so3(r) - r).max() < 1e-14


def test_project_so3_scaling():
    rng = np.random.default_rng(7)
    r = rot_exp(rng.normal(size=3))
    assert np.abs(project_so3(1.01 * r) - r).max() < 1e-12


def test_project_so3_svd_oracle():
    # independent oracle: polar factor via singular value decomposition
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = rot_exp(rng.normal(size=3)) + 0.05 * rng.normal(size=(3, 3))
        u, _, vt = np.linalg.svd(m)
        expected = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt
        assert np.abs(project_so3(m) - expected).max() < 1e-10


def test_project_so3_orthogonality():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = rot_exp(rng.normal(size=3)) + 0.05 * rng.normal(size=(3, 3))
        x = project_so3(m)
        assert np.abs(x.T @ x - np.eye(3)).max() <= 1e-14


def test_project_so3_idempotent():
    rng = np.random.default_rng(10)
    for _ in range(10):
        m = rot_exp(rng.normal(size=3)) + 0.05 * rng.normal(size=(3, 3))
        once = project_so3(m)
        assert np.abs(project_so3(once) - once).max() < 1e-13


def test_project_so3_rejects_reflection():
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        project_so3(reflection)


def test_project_so3_rejects_rank_deficient():
    with pytest.raises(ValueError):
        project_so3(np.outer(E1, E1))


def reference_project_so3(m):
    """Test-only oracle: the polar factor by the eigh square root of m^T m."""
    w, vecs = np.linalg.eigh(m.T @ m)
    return m @ (vecs @ np.diag(1.0 / np.sqrt(w)) @ vecs.T)


def test_project_so3_matches_eigh_and_svd_factors():
    rng = np.random.default_rng(11)
    for exponent in range(-12, 0):
        for _ in range(20):
            e = rng.normal(size=(3, 3))
            m = rot_exp(rng.normal(size=3)) + 10.0**exponent * e / np.abs(e).max()
            x = project_so3(m)
            u, _, vt = np.linalg.svd(m)
            assert np.abs(x - u @ vt).max() < 1e-13
            assert np.abs(x - reference_project_so3(m)).max() < 1e-13
            assert np.abs(x.T @ x - np.eye(3)).max() <= 1e-14


def test_project_so3_ill_conditioned():
    # just above the rank threshold: sigma_min^2 = 4e-12 > 1e-12
    r = rot_exp(np.array([0.3, -0.2, 0.5]))
    assert np.abs(project_so3(np.diag([1.0, 1.0, 2e-6]) @ r) - r).max() < 1e-12
    m = np.diag([1e3, 1.0, 1e-4]) @ r
    u, _, vt = np.linalg.svd(m)
    assert np.abs(project_so3(m) - u @ vt).max() < 1e-12


def test_project_so3_rejects_near_singular():
    # sigma_min^2 = 1e-14 is below the 1e-12 rank threshold
    with pytest.raises(ValueError, match="rank-deficient"):
        project_so3(np.diag([1.0, 1.0, 1e-7]))


def test_levi_civita_values():
    assert levi_civita(1, 2, 3) == 1
    assert levi_civita(2, 1, 3) == -1
    assert levi_civita(1, 1, 2) == 0
    assert levi_civita(3, 1, 2) == 1
    assert levi_civita(1, 3, 2) == -1


def test_levi_civita_rejects_out_of_range():
    with pytest.raises(ValueError):
        levi_civita(0, 1, 2)
    with pytest.raises(ValueError):
        levi_civita(1, 2, 4)


def test_hat_rejects_bad_input():
    with pytest.raises(ValueError):
        hat(np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        hat(np.zeros(4))
