"""The column-layout embedded field, kept as the oracle of the rows layout.

The embedded state was once [p, q1, q2, q3] with q_j the columns of Q; it is
now [p, rows of Q], the transformed state without z. The kernels below are
the column layout's, as they stood, and COLUMNS maps one layout onto the
other: x_columns = x_rows[COLUMNS] and back, since the map is Q -> Q^T on
the rotation block and so its own inverse.
"""

import math

import numpy as np

from recavg.seek3d import _frame_vectors

COLUMNS = np.array([0, 1, 2, 3, 6, 9, 4, 7, 10, 5, 8, 11])


def embedded_rows(x, f, lam):
    """Column-layout field rows, shape (m, 12), for f and L of shape (3, m)."""
    q1, q2, q3 = x[3:6], x[6:9], x[9:12]
    l0, l1, l2 = lam[:, :, None]
    out = np.empty((f.shape[1], 12))
    out[:, 0:3] = f.T @ x[3:12].reshape(3, 3)
    out[:, 3:6] = l2 * q2 - l1 * q3
    out[:, 6:9] = l0 * q3 - l2 * q1
    out[:, 9:12] = l1 * q1 - l0 * q2
    return out


def embedded_rates(x, z, sigma, tau, alpha):
    """The 12 column-layout floats at one tau, for x given as 12 floats."""
    (f0, f1, f2), (l0, l1, l2) = _frame_vectors(math, z, sigma, tau, alpha)
    _, _, _, a0, a1, a2, b0, b1, b2, c0, c1, c2 = x
    return [
        f0 * a0 + f1 * b0 + f2 * c0,
        f0 * a1 + f1 * b1 + f2 * c1,
        f0 * a2 + f1 * b2 + f2 * c2,
        l2 * b0 - l1 * c0, l2 * b1 - l1 * c1, l2 * b2 - l1 * c2,
        l0 * c0 - l2 * a0, l0 * c1 - l2 * a1, l0 * c2 - l2 * a2,
        l1 * a0 - l0 * b0, l1 * a1 - l0 * b1, l1 * a2 - l0 * b2,
    ]


def jac_x(f, lam):
    """Column-layout state Jacobians, shape (m, 12, 12), for f and L of shape (3, m)."""
    jac = np.zeros((f.shape[1], 12, 12))
    eye = np.eye(3)
    for i in range(3):
        jac[:, 0:3, 3 + 3 * i : 6 + 3 * i] = f[i][:, None, None] * eye
    jac[:, 3:6, 6:9] = lam[2][:, None, None] * eye
    jac[:, 3:6, 9:12] = -lam[1][:, None, None] * eye
    jac[:, 6:9, 9:12] = lam[0][:, None, None] * eye
    jac[:, 6:9, 3:6] = -lam[2][:, None, None] * eye
    jac[:, 9:12, 3:6] = lam[1][:, None, None] * eye
    jac[:, 9:12, 6:9] = -lam[0][:, None, None] * eye
    return jac


def values_to_rows(values):
    """Column-layout values, embedded coordinates on the last axis, in the rows layout."""
    return np.asarray(values)[..., COLUMNS]

