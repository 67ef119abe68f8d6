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


def rotation_matrix(rotvec):
    return rotation_matrices(np.asarray(rotvec, dtype=np.float64))


def rotation_vector_gradient(grads, rotvecs, rotations):
    """Pull a loss gradient back through the Rodrigues map.

    Given dL/dR as (..., 3, 3), the rotation vectors q as (..., 3) and their
    matrices rotation_matrices(q) as (..., 3, 3), returns dL/dq as (..., 3).
    Uses the closed-form derivative of the exponential map; below 1e-4
    radians a second-order series keeps the result smooth.
    """
    grads = np.asarray(grads, dtype=np.float64)
    rotvecs = np.asarray(rotvecs, dtype=np.float64)
    rotations = np.asarray(rotations, dtype=np.float64)
    single = rotvecs.ndim == 1
    G = grads if grads.ndim == 3 else grads[None]
    R = rotations if rotations.ndim == 3 else rotations[None]
    q = np.atleast_2d(rotvecs)

    theta2 = np.einsum("bi,bi->b", q, q)
    out = np.zeros_like(q)

    small = theta2 < 1e-8  # theta < 1e-4
    if np.any(~small):
        idx = ~small
        Gl, ql, Rl = G[idx], q[idx], R[idx]
        H = np.einsum("bij,bkj->bik", Gl, Rl)  # G R^T
        h = np.stack(
            [
                H[:, 2, 1] - H[:, 1, 2],
                H[:, 0, 2] - H[:, 2, 0],
                H[:, 1, 0] - H[:, 0, 1],
            ],
            axis=1,
        )
        hq = np.einsum("bi,bi->b", h, ql)
        I_minus_R = np.eye(3) - Rl
        hxq = np.cross(h, ql)
        out[idx] = (ql * hq[:, None] + np.einsum("bji,bj->bi", I_minus_R, hxq)) / theta2[
            idx, None
        ]
    if np.any(small):
        idx = small
        Gl, ql = G[idx], q[idx]
        g = np.stack(
            [
                Gl[:, 2, 1] - Gl[:, 1, 2],
                Gl[:, 0, 2] - Gl[:, 2, 0],
                Gl[:, 1, 0] - Gl[:, 0, 1],
            ],
            axis=1,
        )
        sym = Gl + np.transpose(Gl, (0, 2, 1))
        trace = np.einsum("bii->b", Gl)
        out[idx] = g + 0.5 * np.einsum("bij,bj->bi", sym, ql) - trace[:, None] * ql
    return out[0] if single else out


def rotation_matrix_derivatives(rotvecs, rotations):
    """Forward-mode Rodrigues derivative: dR/dq_c as (K, 3, 3, 3), indexed [k, c, i, j].

    rotvecs are (K, 3) and rotations their (K, 3, 3) matrices. Since
    rotation_vector_gradient is the adjoint of this map, pulling back each of
    the 9 basis matrices E_ij gives dR_ij/dq in one batched call.
    """
    K = len(rotvecs)
    basis = np.broadcast_to(np.eye(9).reshape(1, 9, 3, 3), (K, 9, 3, 3)).reshape(-1, 3, 3)
    d = rotation_vector_gradient(
        basis, np.repeat(rotvecs, 9, axis=0), np.repeat(rotations, 9, axis=0)
    )
    return d.reshape(K, 3, 3, 3).transpose(0, 3, 1, 2)
