"""Exact 3D linear algebra and rotation-group primitives.

Vectors are numpy arrays of shape (3,), matrices of shape (3, 3). All
functions are pure and allocate fresh outputs.
"""

import numpy as np

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

# Below this angle the Rodrigues coefficients are evaluated by series to
# avoid 0/0; the truncation error is O(theta^4) < 1e-24.
_SMALL_ANGLE = 1e-6


def as_vec3(v) -> np.ndarray:
    """Coerce to a finite float vector of shape (3,)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected shape (3,), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite components")
    return v


def as_mat3(m) -> np.ndarray:
    """Coerce to a finite float matrix of shape (3, 3)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected shape (3, 3), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite components")
    return m


def hat(v) -> np.ndarray:
    """Skew-symmetric matrix of v, satisfying hat(v) @ w == cross(v, w)."""
    v = as_vec3(v)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def rot_exp(v) -> np.ndarray:
    """Rotation matrix exp(hat(v)) by the closed-form Rodrigues evaluation.

    v is an axis-angle vector (axis * angle). Falls back to the quadratic
    series for angles below 1e-6 where sin(t)/t is ill-conditioned.
    """
    v = as_vec3(v)
    theta = float(np.linalg.norm(v))
    k = hat(v)
    if theta < _SMALL_ANGLE:
        return np.eye(3) + k + 0.5 * (k @ k)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * k + b * (k @ k)


def rot_z(angle) -> np.ndarray:
    """Rotation by `angle` about the third axis (exp(angle * hat(E3))).

    Broadcasts: an array of angles of shape (...) gives shape (..., 3, 3).
    """
    c, s = np.cos(angle), np.sin(angle)
    out = np.zeros(np.shape(angle) + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


# The polar iteration stops once an update moves no entry by more than this:
# convergence is quadratic, so the next update would move entries by about
# its square, below rounding.
_POLAR_STEP_TOL = 1e-9
_POLAR_MAX_STEPS = 100
# sigma_min^2 >= det^2 / |cofactor|_F^2; below this bound the exact
# smallest singular value decides whether the input is rank-deficient
_RANK_SCREEN = 1e-10
_RANK_TOL = 1e-12


def project_so3(m) -> np.ndarray:
    """Nearest rotation matrix: the orthogonal factor of the polar decomposition.

    The factor is optimal in the Frobenius norm. Raises ValueError when the
    polar factor is a reflection (determinant -1) or m is rank-deficient
    (smallest singular value squared at most 1e-12).
    """
    m = as_mat3(m)
    return np.array(project_so3_unchecked(m.ravel().tolist())).reshape(3, 3)


def project_so3_unchecked(m):
    """project_so3 on 9 finite row-major floats, returned as a 9-tuple.

    Scaled Newton iteration X <- (zeta X + (zeta X)^{-T}) / 2 with
    zeta = det(X)^{-1/3} (Higham, SIAM J. Sci. Stat. Comput. 7, 1986).
    X^{-T} is the cofactor matrix over det(X), whose rows are b x c, c x a
    and a x b for the rows a, b, c of X. The caller guarantees the shape and
    finiteness that project_so3 checks.
    """
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = m
    for step in range(_POLAR_MAX_STEPS):
        x0, x1, x2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
        y0, y1, y2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
        w0, w1, w2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        det = a0 * x0 + a1 * x1 + a2 * x2
        if step == 0:
            cof2 = (
                x0 * x0 + x1 * x1 + x2 * x2 + y0 * y0 + y1 * y1 + y2 * y2
                + w0 * w0 + w1 * w1 + w2 * w2
            )
            if det * det <= _RANK_SCREEN * cof2 and _min_singular_sq(m) <= _RANK_TOL:
                raise ValueError("matrix is rank-deficient; no unique nearest rotation")
            if det < 0.0:
                raise ValueError("polar factor is a reflection (determinant -1)")
        zeta = det ** (-1.0 / 3.0)
        g = 0.5 * zeta
        h = 0.5 / (zeta * det)
        n = (
            g * a0 + h * x0, g * a1 + h * x1, g * a2 + h * x2,
            g * b0 + h * y0, g * b1 + h * y1, g * b2 + h * y2,
            g * c0 + h * w0, g * c1 + h * w1, g * c2 + h * w2,
        )
        moved = max(
            abs(n[0] - a0), abs(n[1] - a1), abs(n[2] - a2),
            abs(n[3] - b0), abs(n[4] - b1), abs(n[5] - b2),
            abs(n[6] - c0), abs(n[7] - c1), abs(n[8] - c2),
        )
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = n
        if moved <= _POLAR_STEP_TOL:
            break
    return n


def _min_singular_sq(m) -> float:
    m = np.reshape(m, (3, 3))
    return float(np.linalg.eigvalsh(m.T @ m)[0])


def levi_civita(i: int, j: int, k: int) -> int:
    """Sign of the permutation (i, j, k) of (1, 2, 3); 0 on repeated indices."""
    for idx in (i, j, k):
        if idx not in (1, 2, 3):
            raise ValueError(f"index {idx} out of range 1..3")
    return ((i - j) * (j - k) * (k - i)) // 2


def so3_defect(m) -> float:
    """Max-norm distance of m^T m from the identity."""
    m = as_mat3(m)
    return float(np.abs(m.T @ m - np.eye(3)).max())
