"""Reference assembly of the Gauss-Newton normal equations from the full dX.

FrameObjective.normal_equations sums its isotropic Hessian blocks through
moments of the skin basis. This reference forms the vertex Jacobian dX
(N, 3, P) explicitly and assembles g = dX^T G and H = dX^T W dX term by
term: per-vertex 3x3 blocks for the point pairs and the damped
point-to-plane metric, L^T L for the Laplacian and, for the edge-vector
rigidity term, the sum over edges (i, j) of (dX[i] - dX[j])^T (dX[i] - dX[j]).
"""

import numpy as np

from animrig.fitting import PLANE_DAMPING


def deform_jacobian(rig, fw):
    """Forward-mode dX/dtheta of a FitRig's forward pass, as (N, 3, P): skin_basis @ A."""
    A = rig._basis_tangents(fw)
    return (rig.skin_basis @ A.reshape(len(A), -1)).reshape(len(fw["X"]), 3, rig.num_params)


def explicit_normal_equations(obj, theta, matches):
    """(H, g) of obj at theta for the frozen matches (the record of obj.match),
    from the explicit dX."""
    cfg, rig = obj.config, obj.rig
    fw = rig._forward(np.array(theta, dtype=np.float64))
    X = fw["X"]
    _, G = obj._loss(X, matches)
    dX = deform_jacobian(rig, fw)
    n, P = len(X), rig.num_params
    D = dX.reshape(3 * n, P)
    g = D.T @ G.ravel()

    weight = np.bincount(matches.vertex, matches.grad_coef, minlength=n)
    H = np.zeros((P, P))
    if matches.plane_normal is not None:
        c = 2.0 * cfg.lambda_global / n
        weight = weight + c * PLANE_DAMPING
        dn = np.einsum("nip,ni->np", dX, matches.plane_normal)
        H += c * (dn.T @ dn)
    H += D.T @ (np.repeat(weight, 3)[:, None] * D)
    if cfg.lambda_lap > 0:
        LD = (rig.lap_op @ dX.reshape(n, 3 * P)).reshape(3 * n, P)
        H += (2.0 * cfg.lambda_lap / n) * (LD.T @ LD)
    if cfg.lambda_rigid > 0 and obj.prev_edge_vectors is not None:
        i, j = rig.edges[:, 0], rig.edges[:, 1]
        dE = (dX[i] - dX[j]).reshape(3 * len(i), P)
        H += (2.0 * cfg.lambda_rigid / len(i)) * (dE.T @ dE)
    return H, g
