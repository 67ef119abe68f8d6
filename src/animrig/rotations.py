"""Quaternion and rotation-vector algebra shared by the skeleton and fitting code.

Quaternions are scalar-first [w, x, y, z] float64 arrays. Rotation vectors
(axis times angle, in radians) are the three-parameter form used for joint
angles and for optimization.
"""

import numpy as np


def quat_normalize(q):
    q = np.asarray(q, dtype=np.float64)
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("cannot normalize a zero-norm quaternion")
    return q / n


def quat_to_matrix(q):
    w, x, y, z = q
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.array(
        [
            [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
            [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
            [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
        ]
    )


def quat_from_rotation_vector(v):
    v = np.asarray(v, dtype=np.float64)
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        # first-order expansion keeps the map smooth through zero
        return quat_normalize(np.array([1.0, 0.5 * v[0], 0.5 * v[1], 0.5 * v[2]]))
    axis = v / angle
    half = 0.5 * angle
    s = np.sin(half)
    return np.array([np.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def skew(v):
    """Cross-product matrices for one 3-vector or a batch (..., 3)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def rotation_matrices(rotvecs):
    """Batched Rodrigues formula: (..., 3) rotation vectors to (..., 3, 3) matrices.

    Exact identity at the zero vector; series expansion below 1e-8 radians.
    """
    rotvecs = np.asarray(rotvecs, dtype=np.float64)
    single = rotvecs.ndim == 1
    v = np.atleast_2d(rotvecs)
    theta2 = np.einsum("...i,...i->...", v, v)
    theta = np.sqrt(theta2)
    small = theta < 1e-8
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta2 / 6.0, np.sin(safe) / safe)
    b = np.where(small, 0.5 - theta2 / 24.0, (1.0 - np.cos(safe)) / np.where(small, 1.0, theta2))
    K = skew(v)
    KK = K @ K
    R = np.eye(3) + a[..., None, None] * K + b[..., None, None] * KK
    return R[0] if single else R


def rotation_matrix_derivatives(rotvecs, rotations):
    """Forward-mode Rodrigues derivative: dR/dv_c as (K, 3, 3, 3), indexed [k, c, i, j].

    rotvecs are (K, 3) and rotations their (K, 3, 3) matrices. Uses the closed
    form of Gallego & Yezzi (J. Math. Imaging Vis. 2015),
    dR/dv_c = (v_c [v]x + [v x (I - R) e_c]x) R / |v|^2; below 1e-4 radians the
    series of exp([v]x) to third order keeps it smooth: with E = [e_c]x and
    V = [v]x, E + (E V + V E) / 2 + (E V V + V E V + V V E) / 6.
    """
    v = np.asarray(rotvecs, dtype=np.float64)
    R = np.asarray(rotations, dtype=np.float64)
    theta2 = np.einsum("ki,ki->k", v, v)
    small = (theta2 < 1e-8)[:, None, None, None]
    V = skew(v)[:, None]
    E = skew(np.eye(3))
    series = E + 0.5 * (E @ V + V @ E) + (E @ V @ V + V @ E @ V + V @ V @ E) / 6.0
    # row c of (I - R)^T is (I - R) e_c
    u = np.cross(v[:, None], np.eye(3) - R.transpose(0, 2, 1))
    closed = (v[:, :, None, None] * V + skew(u)) @ R[:, None]
    return np.where(small, series, closed / np.where(small, 1.0, theta2[:, None, None, None]))


def rotation_vector_gradient(grads, rotvecs, rotations):
    """Pull dL/dR, (3, 3) or (K, 3, 3), back to dL/dv_c = sum_ij dL/dR_ij dR_ij/dv_c
    for rotation vectors v, (3,) or (K, 3), and their matrices rotation_matrices(v)."""
    # no fit path calls this, but perfbench/layertrace.py still binds
    # rotations.rotation_vector_gradient
    single = np.ndim(rotvecs) == 1
    dR = rotation_matrix_derivatives(np.reshape(rotvecs, (-1, 3)), np.reshape(rotations, (-1, 3, 3)))
    out = np.einsum("kij,kcij->kc", np.reshape(grads, (-1, 3, 3)), dR)
    return out[0] if single else out
