"""Per-frame motion fitting against a supervising mesh sequence.

Each frame's root transform, joint angles, and bone scales are optimized so
the blend-skinned canonical mesh matches the frame's supervision mesh under
the global-local chamfer plus regularizers. Frames are solved in temporal
order, each first aligned by one coarse point-to-plane solve. With the
nearest-neighbor correspondences frozen, every loss term is a sum of squared
residuals over the 6 + 4B parameters, so _minimize runs Levenberg-Marquardt:
FrameObjective._gauss_newton forms the Gauss-Newton normal equations from a
forward-mode dX/dtheta and the loss's Gauss-Newton Hessian in X, without
building the residual Jacobian. The point terms and both regularizers (the
Laplacian and the temporal edge-vector term, each linear in X) enter as small
moments of the fixed skin basis that dX/dtheta is linear in. _minimize works
in rounds of up to STEPS_PER_MATCH damped steps on frozen matches, then
re-matches and keeps the round only if the true objective did not increase.
Correspondences are therefore re-assigned between rounds, not inside them.
Each frame reports why its solve stopped: converged, budget or no-descent.

FrameObjective holds only a frame's constants (target trees, skin basis and
its moments) and computes each forward pass, matching, loss and (H, g) afresh
when asked. _minimize holds the solver state (the current and the round's
theta, forward pass, matching, loss and dLoss/dX), so it decides what is
reused and forwards each theta once.

The fitted frames are returned in one gauge: when the root joint has a single
child bone, that bone's rotation is folded into the root transform (see
fold_root_bone), so its returned angles are zero.
"""

from __future__ import annotations

import numbers
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from . import chamfer as ch
from . import rotations as rot
from .deform import blend_skin_arrays
from .geometry import TriMesh
from .skeleton import MotionClip, MotionFrame, RigidTransform, Skeleton, fk_arrays, posed_joints
from .skinning import SkinWeights, heat_diffusion_skinning, part_decompose


_LAMBDAS = ("lambda_global", "lambda_local", "lambda_lap", "lambda_rigid")
_NUMERIC_FIELDS = _LAMBDAS + ("max_iters", "convergence_tol")
# fraction of point-to-point distance blended into the point-to-plane metric;
# pure plane distance lets frozen-match solves slide far along the tangent
# planes and oscillate between re-matchings
PLANE_DAMPING = 0.03


class FitError(RuntimeError):
    """Fitting aborted (non-finite loss or invalid inputs)."""


@dataclass
class FitConfig:
    """Loss weights and optimizer settings for fit_motion.

    max_iters caps the Levenberg-Marquardt steps of a frame's final solve
    (each step is one damped normal-equation solve, kept or not); the coarse
    alignment before that solve adds at most max_iters // 2 more. A frame stops
    early once an accepted round lowers the objective by a relative amount
    below convergence_tol, or once no step lowers it (see _minimize);
    scale_bounds box-constrains bone scales at every iterate. The loss is
    pose-only: lambda_global and lambda_local weight the global-local
    chamfer, lambda_lap the Laplacian smoothness of the deformed mesh and
    lambda_rigid the dynamic rigidity: the mean squared change of each edge
    vector from the previous fitted frame. Every field must be a finite
    number and max_iters an integer. from_dict ignores keys it does not know,
    such as those of deleted fields.
    """

    lambda_global: float = 1.0
    lambda_local: float = 1.0
    lambda_lap: float = 0.1
    lambda_rigid: float = 0.1
    max_iters: int = 300
    convergence_tol: float = 1e-9
    scale_bounds: tuple = (0.8, 1.25)

    def __post_init__(self):
        lo, hi = self.scale_bounds
        values = [(name, getattr(self, name)) for name in _NUMERIC_FIELDS]
        for name, value in values + [("scale_min", lo), ("scale_max", hi)]:
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not np.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in _LAMBDAS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.convergence_tol < 0:
            raise ValueError("convergence_tol must be nonnegative")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (0 < lo <= 1.0 <= hi):
            raise ValueError("scale_bounds must satisfy 0 < min <= 1 <= max")

    def to_dict(self):
        out = {name: getattr(self, name) for name in _NUMERIC_FIELDS}
        out["scale_min"], out["scale_max"] = self.scale_bounds
        return out

    @classmethod
    def from_dict(cls, data):
        known = dict(data)
        lo = known.pop("scale_min", 0.8)
        hi = known.pop("scale_max", 1.25)
        fields = {k: known[k] for k in _NUMERIC_FIELDS if k in known}
        return cls(scale_bounds=(lo, hi), **fields)


@dataclass
class FitReport:
    """Per-frame final loss terms, iteration counts, stop reason and wall time.

    stop_reason is the final solve's: "converged", "budget" or "no-descent"
    (see _minimize).
    """

    frames: list = field(default_factory=list)

    def add_frame(self, index, terms, iterations, wall_time_s, stop_reason):
        for key, value in terms.items():
            if not np.isfinite(value) or value < -1e-12:
                raise FitError(f"frame {index}: non-finite or negative {key} loss ({value})")
        row = {"frame": index, "iterations": int(iterations), "stop_reason": stop_reason,
               "wall_time_s": float(wall_time_s)}
        row.update({k: float(v) for k, v in terms.items()})
        self.frames.append(row)

    def to_dict(self):
        totals = {
            "frame_count": len(self.frames),
            "total_iterations": int(sum(r["iterations"] for r in self.frames)),
            "unconverged_frames": [
                r["frame"] for r in self.frames if r["stop_reason"] != "converged"
            ],
            "final_total_max": max((r["total"] for r in self.frames), default=0.0),
            "final_glc_max": max((r["glc"] for r in self.frames), default=0.0),
        }
        return {"frames": self.frames, "totals": totals}


@dataclass(frozen=True)
class _PointPairs:
    """One frozen matching, as the loss and the normal equations read it.

    The global point-to-point and the part terms are sums of
    coef * |X[vertex] - target|^2; pairs [:n_global] make up the global term,
    the rest the part term. When the global term is point-to-plane,
    plane_target and plane_normal hold each deformed vertex's matched sample
    and its normal; otherwise they are None.
    """

    vertex: np.ndarray     # deformed-vertex index of each pair
    target: np.ndarray     # matched target point of each pair, (M, 3)
    coef: np.ndarray       # weight of the pair's squared distance in its term
    grad_coef: np.ndarray  # 2 * lambda * coef: the pair's dLoss/dX is grad_coef * difference
    n_global: int
    moments: np.ndarray    # S1^T diag(summed grad_coef per vertex) S1, for the Hessian
    plane_target: np.ndarray | None
    plane_normal: np.ndarray | None


class FrameObjective:
    """One frame's differentiable objective over (root, angles, scales).

    Parameters pack as [root rotation vector (3), root translation (3),
    per-bone rotation vectors (3B), bone scales (B)]. The part-level term
    (lambda_local > 0) needs target_weights. With target_normals the global
    term is the one-sided point-to-plane distance from the deformed vertices
    to target_points, damped by PLANE_DAMPING; without, it is the two-sided
    point-to-point chamfer. With prev_vertices and lambda_rigid > 0 the
    rigidity term is the mean over edges (i, j) of
    |(X[i] - X[j]) - (prev[i] - prev[j])|^2: linear in X, zero for a
    translation of the whole mesh, but not for a rotation of a bone.

    The deformed vertices and their Jacobian are linear in the fixed skin
    basis S1 = [weight x homogeneous vertex, 1] (N x (4B + 1)), so the
    objective keeps the moment S1^T S1 and the weighted sum of the
    regularizers' constant moments, (L S1)^T (L S1) for the Laplacian and
    (E S1)^T (E S1) for the edge differences E, for _gauss_newton. It holds
    no other state: _minimize keeps the passes, matchings and losses it reuses.
    """

    def __init__(
        self,
        canonical: TriMesh,
        skeleton: Skeleton,
        weights: SkinWeights,
        target: TriMesh,
        config: FitConfig,
        prev_vertices=None,
        target_weights: SkinWeights | None = None,
        frame_index: int = 0,
        target_points=None,
        target_normals=None,
    ):
        if weights.num_vertices != canonical.num_vertices:
            raise ValueError("weights rows must match the canonical vertex count")
        if weights.num_bones != skeleton.num_bones:
            raise ValueError("weights columns must match the skeleton bone count")
        if target.num_vertices == 0:
            raise ValueError("supervision mesh is empty")
        if config.lambda_local > 0 and target_weights is None:
            raise ValueError("lambda_local > 0 needs target_weights")
        self.canonical = canonical
        self.skeleton = skeleton
        self.weights = weights
        self.config = config
        self.frame_index = frame_index
        self.num_bones = skeleton.num_bones
        self.num_params = 6 + 4 * self.num_bones

        self.target_points = target.vertices if target_points is None else target_points
        self.target_normals = target_normals
        self.target_tree = cKDTree(self.target_points)
        self.pred_parts = part_decompose(weights)
        self.target_weights = target_weights
        self.target_parts = part_decompose(target_weights) if target_weights is not None else None
        # the target parts are fixed, so their trees serve every re-matching
        self.target_part_trees = None
        if config.lambda_local > 0:
            self.target_part_trees = {
                k: cKDTree(self.target_points[self.target_parts.indices_of(k)])
                for k in self.target_parts.present_parts
            }

        self.lap_op = canonical.uniform_laplacian
        self.edges = canonical.edges
        i, j = self.edges[:, 0], self.edges[:, 1]
        self.prev_edge_vectors = None
        if prev_vertices is not None and config.lambda_rigid > 0 and len(self.edges):
            prev = np.asarray(prev_vertices)
            self.prev_edge_vectors = prev[i] - prev[j]

        # weight x homogeneous canonical vertex, then a ones column, (N, 4B + 1):
        # the skinning blend is the first 4B columns times the stacked
        # [R_world^T; t_world] of the bones; the ones column carries the root
        # translation exactly even where weight rows do not sum to exactly 1
        n, b = weights.weights.shape
        homogeneous = np.hstack([canonical.vertices, np.ones((n, 1))])
        self.skin_basis = np.hstack([
            (weights.weights[:, :, None] * homogeneous[:, None, :]).reshape(n, 4 * b),
            np.ones((n, 1)),
        ])
        self.basis_moments = self.skin_basis.T @ self.skin_basis
        # the Gauss-Newton blocks of the linear regularizers do not depend on theta
        self.regularizer_moments = np.zeros_like(self.basis_moments)
        if config.lambda_lap > 0:
            lap_basis = self.lap_op @ self.skin_basis
            self.regularizer_moments += (2.0 * config.lambda_lap / n) * (lap_basis.T @ lap_basis)
        if self.prev_edge_vectors is not None:
            edge_basis = self.skin_basis[i] - self.skin_basis[j]
            self.regularizer_moments += (2.0 * config.lambda_rigid / len(i)) * (
                edge_basis.T @ edge_basis
            )

    # --- parameter packing ---------------------------------------------------

    def rest_parameters(self):
        theta = np.zeros(self.num_params)
        theta[6 + 3 * self.num_bones:] = 1.0
        return theta

    def unpack(self, theta):
        b = self.num_bones
        return (
            theta[:3],
            theta[3:6],
            theta[6:6 + 3 * b].reshape(b, 3),
            theta[6 + 3 * b:],
        )

    def frame_from_parameters(self, theta) -> MotionFrame:
        rv, t0, angles, scales = self.unpack(theta)
        root = RigidTransform(rot.quat_from_rotation_vector(rv), t0)
        return MotionFrame(root, angles.copy(), scales.copy())

    def project(self, theta):
        out = theta.copy()
        lo, hi = self.config.scale_bounds
        out[6 + 3 * self.num_bones:] = np.clip(out[6 + 3 * self.num_bones:], lo, hi)
        return out

    # --- forward pass ---------------------------------------------------------

    def _forward(self, theta):
        rv, t0, angles, scales = self.unpack(theta)
        R_local, R_world, t_world, t_local = fk_arrays(self.skeleton, angles, scales)
        blended = blend_skin_arrays(
            self.canonical.vertices, self.weights.weights, R_world, t_world
        )
        R0 = rot.rotation_matrix(rv)
        return {
            "rv": rv, "angles": angles, "scales": scales,
            "R_local": R_local, "R_world": R_world, "t_world": t_world, "t_local": t_local,
            "R0": R0, "X": blended @ R0.T + t0,
        }

    def deform(self, theta):
        return self._forward(np.asarray(theta, dtype=np.float64))["X"]

    # --- matching and loss values ----------------------------------------------

    def match(self, X):
        """Nearest-neighbor correspondences of the deformed vertices X, frozen
        as the _PointPairs record that the loss and normal equations read."""
        cfg = self.config
        T = self.target_points
        n_pred = len(X)
        plane = self.target_normals is not None
        vertex, target, coef, grad_coef = [], [], [], []
        plane_target = plane_normal = None
        if cfg.lambda_global > 0:
            # the point-to-plane metric reads only the pred -> target direction
            m = ch.match_global(X, T, self.target_tree, two_sided=not plane)
            if plane:
                plane_target, plane_normal = T[m.idx_pred], self.target_normals[m.idx_pred]
            else:
                vertex += [np.arange(n_pred), m.idx_target]
                target += [T[m.idx_pred], T]
                coef += [np.full(n_pred, 1.0 / n_pred), np.full(len(T), 1.0 / len(T))]
                grad_coef += [2.0 * cfg.lambda_global * c for c in coef]
        n_global = sum(len(v) for v in vertex)
        if cfg.lambda_local > 0:
            parts = ch.match_parts(
                X, T, self.weights, self.target_weights,
                self.pred_parts, self.target_parts, self.target_part_trees,
            )
            if not parts:
                warnings.warn(
                    f"frame {self.frame_index}: no part present in both clouds; "
                    "part-level chamfer is 0"
                )
            for pm in parts:
                scale = 1.0 / len(parts)
                vertex += [pm.pred_indices, pm.target_to_pred]
                target += [T[pm.pred_to_target], T[pm.target_indices]]
                part = [pm.pred_conf * (scale / len(pm.pred_indices)),
                        pm.target_conf * (scale / len(pm.target_indices))]
                coef += part
                grad_coef += [2.0 * cfg.lambda_local * c for c in part]
        vertex = np.concatenate(vertex + [np.zeros(0, dtype=np.intp)])
        grad_coef = np.concatenate(grad_coef + [np.zeros(0)])
        S1 = self.skin_basis
        weight = np.bincount(vertex, grad_coef, minlength=n_pred)
        moments = (S1 * weight[:, None]).T @ S1 if len(vertex) else np.zeros((S1.shape[1],) * 2)
        return _PointPairs(
            vertex=vertex,
            target=np.concatenate(target + [np.zeros((0, 3))]),
            coef=np.concatenate(coef + [np.zeros(0)]),
            grad_coef=grad_coef,
            n_global=n_global,
            moments=moments,
            plane_target=plane_target,
            plane_normal=plane_normal,
        )

    def _loss(self, X, pairs):
        """Loss terms and dLoss/dX for a frozen matching, each residual formed once."""
        cfg = self.config
        terms = {"global": 0.0, "local": 0.0, "lap": 0.0, "rigid": 0.0}
        G = np.zeros_like(X)
        n_pred = len(X)
        if len(pairs.vertex):
            diff = X[pairs.vertex] - pairs.target
            wd2 = pairs.coef * np.einsum("ni,ni->n", diff, diff)
            terms["global"] = float(np.sum(wd2[:pairs.n_global]))
            terms["local"] = float(np.sum(wd2[pairs.n_global:]))
            scaled = pairs.grad_coef[:, None] * diff
            for k in range(3):
                G[:, k] = np.bincount(pairs.vertex, scaled[:, k], minlength=n_pred)
        if pairs.plane_target is not None:
            # damped point-to-plane: tangential sliding is cheap, not free
            a = X - pairs.plane_target
            n = pairs.plane_normal
            dots = np.einsum("ni,ni->n", a, n)
            d2 = np.einsum("ni,ni->n", a, a)
            terms["global"] = float(np.mean(dots**2 + PLANE_DAMPING * d2))
            G += (2.0 * cfg.lambda_global / n_pred) * (dots[:, None] * n + PLANE_DAMPING * a)
        if cfg.lambda_lap > 0:
            residual = self.lap_op @ X
            terms["lap"] = float(np.mean(np.einsum("ni,ni->n", residual, residual)))
            G += (2.0 * cfg.lambda_lap / n_pred) * (self.lap_op.T @ residual)
        if self.prev_edge_vectors is not None:
            i, j = self.edges[:, 0], self.edges[:, 1]
            r = X[i] - X[j] - self.prev_edge_vectors
            terms["rigid"] = float(np.mean(np.einsum("ni,ni->n", r, r)))
            contrib = (2.0 * cfg.lambda_rigid / len(r)) * r
            for k in range(3):
                G[:, k] += np.bincount(i, contrib[:, k], minlength=n_pred)
                G[:, k] -= np.bincount(j, contrib[:, k], minlength=n_pred)
        terms["glc"] = cfg.lambda_global * terms["global"] + cfg.lambda_local * terms["local"]
        terms["total"] = (
            terms["glc"]
            + cfg.lambda_lap * terms["lap"]
            + cfg.lambda_rigid * terms["rigid"]
        )
        if not np.isfinite(terms["total"]):
            bad = [k for k, v in terms.items() if not np.isfinite(v)]
            raise FitError(f"frame {self.frame_index}: non-finite loss in {bad}")
        return terms, G

    def _at(self, theta, matches):
        """Forward pass, matching (fresh at theta when matches is None), loss
        terms and dLoss/dX at theta."""
        fw = self._forward(np.asarray(theta, dtype=np.float64))
        if matches is None:
            matches = self.match(fw["X"])
        return (fw, matches) + self._loss(fw["X"], matches)

    def evaluate(self, theta, matches=None):
        """Objective at theta. Fresh correspondences unless matches is given."""
        _, matches, terms, _ = self._at(theta, matches)
        return terms["total"], terms, matches

    def value(self, theta, matches=None):
        return self.evaluate(theta, matches)[0]

    # --- gradient and Gauss-Newton normal equations ------------------------------

    def gradient(self, theta, matches=None):
        """(gradient, total, matches): the exact g of normal_equations."""
        _, g, terms, matches = self.normal_equations(theta, matches)
        return g, terms["total"], matches

    def normal_equations(self, theta, matches=None):
        """(H, g, terms, matches) of the frozen-match objective at theta; a
        fresh matching at theta unless matches is given (see _gauss_newton)."""
        fw, matches, terms, G = self._at(theta, matches)
        return self._gauss_newton(fw, matches, G) + (terms, matches)

    def _gauss_newton(self, fw, pairs, G):
        """(H, g) of a forward pass for a frozen matching, G = dLoss/dX there.

        Every column of dX/dtheta is the skin basis S1 (N x (4B + 1)) times a
        small coefficient matrix, dX = S1 A with A of shape (4B + 1, 3, P)
        from the FK chain (_basis_tangents). So the exact gradient is
        g = A^T vec(S1^T G), and the isotropic blocks of H = dX^T (Gauss-Newton
        Hessian of the loss in X) dX are sum_i A_i^T K A_i for one
        (4B + 1)-square K: the point pairs' per-vertex weights, the
        point-to-plane damping, the Laplacian and the edge-vector rigidity
        term enter as moments of S1 (see FrameObjective). dX itself is formed
        only for the point-to-plane normal term.
        """
        A = self._basis_tangents(fw)
        g = A.reshape(-1, self.num_params).T @ (self.skin_basis.T @ G).ravel()
        n, P, r = len(fw["X"]), self.num_params, len(A)
        A_rows = A.reshape(3 * r, P)

        K = pairs.moments + self.regularizer_moments
        if pairs.plane_normal is not None:
            c = 2.0 * self.config.lambda_global / n
            K += (c * PLANE_DAMPING) * self.basis_moments
        H = A_rows.T @ (K @ A.reshape(r, 3 * P)).reshape(3 * r, P)
        if pairs.plane_normal is not None:
            dX = (self.skin_basis @ A.reshape(r, 3 * P)).reshape(n, 3, P)
            dn = np.einsum("nip,ni->np", dX, pairs.plane_normal)
            H += c * (dn.T @ dn)
        return H, g

    def _basis_tangents(self, fw):
        """dX/dtheta of a forward pass as skin_basis @ A: returns A, (4B + 1, 3, P)."""
        B = self.num_bones
        dR = rot.rotation_matrix_derivatives(
            np.vstack([fw["rv"], fw["angles"]]),
            np.concatenate([fw["R0"][None], fw["R_local"]]),
        )
        A = np.zeros((4 * B + 1, 3, self.num_params))
        # blended = skin_basis[:, :4B] @ stacked, and X = R0 blended + t0, so
        # dX/drv_c = dR0/drv_c blended and dX/dt0 is the ones column
        stacked = np.concatenate([fw["R_world"].transpose(0, 2, 1), fw["t_world"][:, None]], axis=1)
        A[:4 * B, :, :3] = (
            stacked.reshape(4 * B, 3) @ dR[0].transpose(2, 1, 0).reshape(3, 9)
        ).reshape(4 * B, 3, 3)
        A[4 * B, :, 3:6] = np.eye(3)
        if B:
            A[:4 * B, :, 6:] = np.einsum("ij,rjp->rip", fw["R0"], self._fk_tangents(fw, dR[1:]))
        return A

    def _fk_tangents(self, fw, dR_local):
        """Derivatives of every bone's stacked [R_world^T; t_world] by the bone
        parameters (angles, then scales), as (4B, 3, 4B), carried down the FK
        chain of fk_arrays."""
        skel = self.skeleton
        B = self.num_bones
        parent_pos = skel.joints[skel.bone_parent_joints]
        stretch = (fw["scales"] - 1.0)[:, None] * skel.rest_lengths[:, None] * skel.bone_directions
        dRw = np.zeros((B, 4 * B, 3, 3))
        dtw = np.zeros((B, 4 * B, 3))
        for b in skel.bone_order:
            p = int(skel.bone_parent_bones[b])
            if p >= 0:
                # R_world = R_world[p] R_local, t_world = R_world[p] t_local + t_world[p]
                dRw[b] = dRw[p] @ fw["R_local"][b]
                dtw[b] = dRw[p] @ fw["t_local"][b] + dtw[p]
                Rp = fw["R_world"][p]
            else:
                Rp = np.eye(3)
            # t_local = R_local (stretch - parent) + parent, stretch linear in the scale
            own = slice(3 * b, 3 * b + 3)
            dRw[b, own] += Rp @ dR_local[b]
            dtw[b, own] += (dR_local[b] @ (stretch[b] - parent_pos[b])) @ Rp.T
            dtw[b, 3 * B + b] += Rp @ fw["R_local"][b] @ (
                skel.rest_lengths[b] * skel.bone_directions[b]
            )
        M = np.empty((B, 4, 3, 4 * B))
        M[:, :3] = dRw.transpose(0, 3, 2, 1)
        M[:, 3] = dtw.transpose(0, 2, 1)
        return M.reshape(4 * B, 3, 4 * B)


# LM steps taken on one frozen matching before re-matching
STEPS_PER_MATCH = 2
# Marquardt damping mu of (H + mu diag(H)) step = -g: its start, its floor and
# its ceiling; a frame whose mu passes the ceiling stops with "no-descent"
DAMPING_START = 1e-3
DAMPING_MIN = 1e-9
DAMPING_MAX = 1e9
# rounds in a row whose re-matching raised the objective before a frame stops
# with "no-descent": the step crosses a change of matches, not a model error
MAX_REJECTED_ROUNDS = 3


def _lm_step(objective: FrameObjective, theta, H, g, damping):
    """Solve the damped normal equations for one step from theta.

    A bone scale at a bound that the gradient pushes against is held fixed,
    so the other parameters are solved for without it.
    """
    s = 6 + 3 * objective.num_bones
    lo, hi = objective.config.scale_bounds
    free = np.ones(len(theta), dtype=bool)
    free[s:] = ~(((theta[s:] <= lo) & (g[s:] > 0)) | ((theta[s:] >= hi) & (g[s:] < 0)))
    Hf = H[np.ix_(free, free)]
    diag = np.diag(Hf)
    # a zero diagonal entry is a parameter the loss does not read (zero row and column)
    A = Hf + damping * np.diag(np.where(diag > 0, diag, 1.0))
    step = np.zeros_like(theta)
    step[free] = np.linalg.solve(A, -g[free])
    return step


def _minimize(objective: FrameObjective, theta0, config: FitConfig, history=None):
    """Levenberg-Marquardt on frozen-match rounds with monotone acceptance.

    Each round freezes the nearest-neighbor matches and takes up to
    STEPS_PER_MATCH damped Gauss-Newton steps on the frozen objective: solve
    (H + mu diag(H)) step = -g (FrameObjective._gauss_newton), clip the bone
    scales into scale_bounds, and keep the step only if the frozen objective
    fell. A step that rounds to no change of theta counts as flat without a
    forward pass. The round then re-matches and is kept only if the true
    objective did not increase; a rejected round is retried from the same
    point. mu shrinks 3-fold on every kept step and grows on every rejected
    step or round, by a factor that doubles while rejections follow each
    other. max_iters caps the LM steps. Accepted rounds are non-increasing in
    the true objective, and bone scales respect scale_bounds at every iterate.
    history, when given, collects the objective value after every accepted
    round.

    The current point (theta, forward pass, matching, loss terms, dLoss/dX,
    H and g) and the round's point are plain local state: each theta is
    forwarded once, each (pass, matching) pair gets one loss, and H and g are
    built at a re-matched point only when the round is kept and the solve goes on.

    Returns (theta, X, terms, iterations, stop_reason), where X is the
    deformed vertices at theta and stop_reason is "converged" (an accepted
    round lowered the objective by a relative amount below convergence_tol, or
    no step changes the frozen objective by more than that), "budget"
    (max_iters steps taken) or "no-descent" (MAX_REJECTED_ROUNDS rounds in a
    row raised the objective, or mu passed DAMPING_MAX).
    """
    tol = config.convergence_tol
    theta = objective.project(np.asarray(theta0, dtype=np.float64))
    fw = objective._forward(theta)
    matches = objective.match(fw["X"])
    terms, G = objective._loss(fw["X"], matches)
    H, g = objective._gauss_newton(fw, matches, G)
    f_curr = terms["total"]
    if history is not None:
        history.append(f_curr)
    damping, growth = DAMPING_START, 2.0
    iterations = 0
    rejected = 0
    while True:
        if not np.any(g):
            return theta, fw["X"], terms, iterations, "converged"
        if iterations >= config.max_iters:
            return theta, fw["X"], terms, iterations, "budget"
        if damping > DAMPING_MAX or rejected >= MAX_REJECTED_ROUNDS:
            return theta, fw["X"], terms, iterations, "no-descent"
        theta_r, fw_r, G_r, f_r, H_r, g_r = theta, fw, G, f_curr, H, g
        flat = False
        for k in range(min(STEPS_PER_MATCH, config.max_iters - iterations)):
            if k:
                H_r, g_r = objective._gauss_newton(fw_r, matches, G_r)
            iterations += 1
            theta_t = objective.project(theta_r + _lm_step(objective, theta_r, H_r, g_r, damping))
            f_t = f_r
            if theta_t.tobytes() != theta_r.tobytes():
                fw_t = objective._forward(theta_t)
                terms_t, G_t = objective._loss(fw_t["X"], matches)
                f_t = terms_t["total"]
            if f_t >= f_r:
                flat = f_t - f_r <= tol * abs(f_r)
                damping, growth = damping * growth, growth * 2.0
                break
            theta_r, fw_r, G_r, f_r = theta_t, fw_t, G_t, f_t
            damping = max(damping / 3.0, DAMPING_MIN)
        if theta_r is theta:
            if flat:
                return theta, fw["X"], terms, iterations, "converged"
            continue
        matches_n = objective.match(fw_r["X"])
        terms_n, G_n = objective._loss(fw_r["X"], matches_n)
        f_n = terms_n["total"]
        if f_n > f_curr:
            rejected += 1
            damping, growth = damping * growth, growth * 2.0
            continue
        rejected, growth = 0, 2.0
        rel_drop = (f_curr - f_n) / max(abs(f_curr), 1e-300)
        theta, fw, G, f_curr, terms, matches = theta_r, fw_r, G_n, f_n, terms_n, matches_n
        if history is not None:
            history.append(f_curr)
        if rel_drop < tol:
            return theta, fw["X"], terms, iterations, "converged"
        H, g = objective._gauss_newton(fw, matches, G)


def fold_root_bone(skeleton: Skeleton, frame: MotionFrame) -> MotionFrame:
    """The same pose with a lone root bone's rotation moved into the root.

    When the root joint has exactly one child bone b, every bone's world
    rotation carries b's rotation as a left factor, and skin weights sum to 1,
    so only the product R_root @ R_b reaches the vertices: the two rotations
    trade off exactly. The fold sets R_root <- R_root @ R_b and angles[b] <- 0,
    and shifts the root translation by (R_root_old - R_root_new) @ p_root so
    the root joint p_root stays put. Posed vertices and joints are unchanged.
    Any other skeleton's frame is returned as is.
    """
    lone = np.flatnonzero(skeleton.bone_parent_bones < 0)
    if len(lone) != 1:
        return frame
    b = int(lone[0])
    q = rot.quat_normalize(
        rot.quat_multiply(frame.root.quaternion, rot.quat_from_rotation_vector(frame.angles[b]))
    )
    p_root = skeleton.joints[skeleton.root]
    translation = frame.root.translation + (
        frame.root.rotation_matrix - rot.quat_to_matrix(q)
    ) @ p_root
    angles = frame.angles.copy()
    angles[b] = 0.0
    return MotionFrame(RigidTransform(q, translation), angles, frame.bone_scales)


def _posed_copy(skeleton: Skeleton, frame: MotionFrame) -> Skeleton:
    """Skeleton with joints moved to their posed world positions."""
    return Skeleton(posed_joints(skeleton, frame), skeleton.parents, skeleton.names)


def surface_samples(mesh: TriMesh):
    """Barycentric face samples with their face normals: (points, normals).

    A denser, oriented stand-in for the continuous surface; matching against
    it with a point-to-plane metric removes both the vertex-sampling aliasing
    and the tangential anchoring that stall nearest-neighbor fitting.
    """
    V, F = mesh.vertices, mesh.faces
    if not len(F):
        normals = np.zeros_like(V)
        normals[:, 0] = 1.0
        return V, normals
    bary = np.array(
        [
            [1 / 3, 1 / 3, 1 / 3],
            [0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5],
            [0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8],
        ]
    )
    tri = V[F]
    points = (bary @ tri).reshape(-1, 3)
    face_n, sampled = _face_normals(tri)
    normals = np.repeat(face_n, len(bary), axis=0)
    keep = np.repeat(sampled, len(bary))
    return points[keep], normals[keep]


def _face_normals(tri):
    """Unit normals of (F, 3, 3) triangles, and the mask of the faces of
    nonzero area, the ones surface_samples samples."""
    face_n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    norms = np.linalg.norm(face_n, axis=1)
    return face_n / np.maximum(norms, 1e-30)[:, None], norms > 1e-14


def fit_motion(
    canonical: TriMesh,
    skeleton: Skeleton,
    weights: SkinWeights,
    supervision,
    config: FitConfig | None = None,
    supervision_weights=None,
):
    """Fit one MotionFrame per supervision mesh, solved in temporal order.

    Supervision meshes do not need to share topology with the canonical mesh;
    all data terms are point-set losses. Each frame starts from the previous
    frame's parameters (from their linear extrapolation once two frames are
    solved), is aligned to the supervision surface by one coarse solve of a
    point-to-plane objective with up to max_iters // 2 steps, and is then
    solved once on the full objective.
    supervision_weights optionally supplies per-frame target-side skin
    weights (e.g. when the supervision carries known weights); otherwise,
    when lambda_local > 0, each supervision mesh is heat-skinned against the
    skeleton posed at the coarse-aligned parameters. Every supervision mesh
    (and its weights) is checked before any frame is solved: a mesh whose
    faces all have zero area leaves no surface to match and raises
    ValueError naming the frame. Returned frames pass through fold_root_bone.
    Returns (MotionClip, FitReport).
    """
    config = config or FitConfig()
    supervision = list(supervision)
    if not supervision:
        raise ValueError("supervision sequence is empty")
    for t, mesh in enumerate(supervision):
        if mesh.num_vertices == 0:
            raise ValueError(f"supervision mesh {t} is empty")
        if not np.all(np.isfinite(mesh.vertices)):
            raise FitError(f"frame {t}: supervision mesh has non-finite vertices")
        if len(mesh.faces) and not np.any(_face_normals(mesh.vertices[mesh.faces])[1]):
            raise ValueError(f"frame {t}: every supervision face has zero area")
    if supervision_weights is not None:
        supervision_weights = list(supervision_weights)
        if len(supervision_weights) != len(supervision):
            raise ValueError("supervision_weights must match the supervision length")
        for t, (mesh, tw) in enumerate(zip(supervision, supervision_weights)):
            if (tw.num_vertices, tw.num_bones) != (mesh.num_vertices, skeleton.num_bones):
                raise ValueError(
                    f"frame {t}: supervision weights are {tw.num_vertices}x{tw.num_bones}, "
                    f"the frame needs {mesh.num_vertices}x{skeleton.num_bones}"
                )

    coarse_config = replace(config, lambda_local=0.0, lambda_lap=0.0, lambda_rigid=0.0,
                            max_iters=max(config.max_iters // 2, 1))
    report = FitReport()
    frames = []
    prev_vertices = None
    theta_prev = None
    theta_prev2 = None
    for t, target in enumerate(supervision):
        start = time.perf_counter()
        sample_points, sample_normals = surface_samples(target)
        coarse = FrameObjective(
            canonical, skeleton, weights, target, coarse_config,
            frame_index=t, target_points=sample_points, target_normals=sample_normals,
        )
        if theta_prev2 is not None:
            # linear motion prediction halves the warm-start offset
            theta0 = coarse.project(2.0 * theta_prev - theta_prev2)
        elif theta_prev is not None:
            theta0 = theta_prev
        else:
            theta0 = coarse.rest_parameters()
        # align first so heat target weights can be computed at a pose that
        # already tracks the supervision (including its root motion)
        theta_aligned, _, _, iterations, _ = _minimize(coarse, theta0, coarse_config)

        if supervision_weights is not None:
            target_w = supervision_weights[t]
        elif config.lambda_local > 0:
            aligned_frame = coarse.frame_from_parameters(theta_aligned)
            target_w = heat_diffusion_skinning(target, _posed_copy(skeleton, aligned_frame))
        else:
            target_w = None

        objective = FrameObjective(
            canonical, skeleton, weights, target, config,
            prev_vertices=prev_vertices, target_weights=target_w, frame_index=t,
        )
        theta, X, terms, used, stop_reason = _minimize(objective, theta_aligned, config)
        iterations += used
        # the fold only changes how the pose is written, so the next frame's
        # warm start and rigidity reference still come from theta
        frames.append(fold_root_bone(skeleton, objective.frame_from_parameters(theta)))
        prev_vertices = X
        theta_prev2 = theta_prev
        theta_prev = theta
        report.add_frame(t, terms, iterations, time.perf_counter() - start, stop_reason)
    return MotionClip(tuple(frames)), report
