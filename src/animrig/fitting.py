"""Per-frame motion fitting against a supervising mesh sequence.

Each frame's root transform, joint angles, and bone scales are optimized so
the blend-skinned canonical mesh matches the frame's supervision mesh under
the global-local chamfer plus regularizers. Frames are solved in temporal
order. _minimize works in rounds: it freezes the nearest-neighbor
correspondences, runs bound-constrained L-BFGS on the frozen objective for up
to 150 iterations, then re-matches and keeps the round only if the true
objective did not increase. A rejected round falls back to one backtracking
gradient step of length FALLBACK_STEP. Correspondences are therefore
re-assigned between rounds, not inside them.

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
from .deform import blend_skin_arrays, symmetry_loss
from .geometry import TriMesh
from .skeleton import MotionClip, MotionFrame, RigidTransform, Skeleton, fk_arrays
from .skinning import SkinWeights, heat_diffusion_skinning, part_decompose


# length of the backtracking gradient step taken when a frozen-match round fails
FALLBACK_STEP = 0.05

_LAMBDAS = ("lambda_global", "lambda_local", "lambda_symm", "lambda_lap", "lambda_rigid")
_NUMERIC_FIELDS = _LAMBDAS + ("max_iters", "convergence_tol")


class FitError(RuntimeError):
    """Fitting aborted (non-finite loss or invalid inputs)."""


@dataclass
class FitConfig:
    """Loss weights and optimizer settings for fit_motion.

    max_iters caps the L-BFGS iterations plus fallback steps of a frame's
    final solve (a fallback step can overrun it by 1); the coarse alignment
    before that solve adds up to max_iters // 2 more. Line searches make
    gradient evaluations outnumber iterations. A frame stops early once an
    accepted round lowers the objective by a relative amount below
    convergence_tol; scale_bounds box-constrains bone scales at every iterate.
    lambda_symm only adds the constant lambda_symm * symmetry_loss(canonical)
    to frame 0's objective: it has no gradient and moves no parameter, but it
    enters frame 0's relative-drop convergence test. Every field must be a
    finite number and max_iters an integer. from_dict ignores keys it does
    not know.
    """

    lambda_global: float = 1.0
    lambda_local: float = 1.0
    lambda_symm: float = 0.1
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
        return {
            "lambda_global": self.lambda_global,
            "lambda_local": self.lambda_local,
            "lambda_symm": self.lambda_symm,
            "lambda_lap": self.lambda_lap,
            "lambda_rigid": self.lambda_rigid,
            "max_iters": self.max_iters,
            "convergence_tol": self.convergence_tol,
            "scale_min": self.scale_bounds[0],
            "scale_max": self.scale_bounds[1],
        }

    @classmethod
    def from_dict(cls, data):
        known = dict(data)
        lo = known.pop("scale_min", 0.8)
        hi = known.pop("scale_max", 1.25)
        fields = {k: known[k] for k in _NUMERIC_FIELDS if k in known}
        return cls(scale_bounds=(lo, hi), **fields)


@dataclass
class FitReport:
    """Per-frame final loss terms plus iteration counts and wall time."""

    frames: list = field(default_factory=list)

    def add_frame(self, index, terms, iterations, wall_time_s):
        for key, value in terms.items():
            if not np.isfinite(value) or value < -1e-12:
                raise FitError(f"frame {index}: non-finite or negative {key} loss ({value})")
        row = {"frame": index, "iterations": int(iterations), "wall_time_s": float(wall_time_s)}
        row.update({k: float(v) for k, v in terms.items()})
        self.frames.append(row)

    def to_dict(self):
        totals = {
            "frame_count": len(self.frames),
            "total_iterations": int(sum(r["iterations"] for r in self.frames)),
            "final_total_max": max((r["total"] for r in self.frames), default=0.0),
            "final_glc_max": max((r["glc"] for r in self.frames), default=0.0),
        }
        return {"frames": self.frames, "totals": totals}


class FrameObjective:
    """One frame's differentiable objective over (root, angles, scales).

    Parameters pack as [root rotation vector (3), root translation (3),
    per-bone rotation vectors (3B), bone scales (B)]. The part-level term
    (lambda_local > 0) needs target_weights. With target_normals the global
    term is the one-sided damped point-to-plane distance from the deformed
    vertices to target_points; without, it is the two-sided point-to-point
    chamfer.
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
        # fraction of point-to-point distance blended into the point-to-plane
        # metric; pure plane distance lets frozen-match solves slide far along
        # the tangent planes and oscillate between re-matchings
        self.plane_damping = 0.25
        self.target_tree = cKDTree(self.target_points)
        self.pred_parts = part_decompose(weights)
        self.target_weights = target_weights
        self.target_parts = part_decompose(target_weights) if target_weights is not None else None

        self.lap_op = canonical.uniform_laplacian
        self.edges = canonical.edges
        self.prev_vertices = None if prev_vertices is None else np.asarray(prev_vertices)
        if self.prev_vertices is not None and config.lambda_rigid > 0 and len(self.edges):
            i, j = self.edges[:, 0], self.edges[:, 1]
            self.prev_edge_lengths = np.linalg.norm(
                self.prev_vertices[i] - self.prev_vertices[j], axis=1
            )
        else:
            self.prev_edge_lengths = None

        if frame_index == 0 and config.lambda_symm > 0:
            self.symm_constant = symmetry_loss(canonical)
        else:
            self.symm_constant = 0.0

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
        X = blended @ R0.T + t0
        return {
            "rv": rv, "t0": t0, "angles": angles, "scales": scales,
            "R_local": R_local, "R_world": R_world, "t_world": t_world, "t_local": t_local,
            "blended": blended, "R0": R0, "X": X,
        }

    def deform(self, theta):
        return self._forward(theta)["X"]

    # --- matching and loss values ----------------------------------------------

    def match(self, X):
        cfg = self.config
        gmatch = (
            ch.match_global(X, self.target_points, self.target_tree)
            if cfg.lambda_global > 0 else None
        )
        parts = []
        if cfg.lambda_local > 0:
            parts = ch.match_parts(
                X, self.target_points, self.weights, self.target_weights,
                self.pred_parts, self.target_parts,
            )
            if not parts:
                warnings.warn(
                    f"frame {self.frame_index}: no part present in both clouds; "
                    "part-level chamfer is 0"
                )
        return ch.ChamferMatches(global_match=gmatch, parts=parts)

    def _loss(self, X, matches):
        """Loss terms and dLoss/dX for frozen matches, each residual formed once."""
        cfg = self.config
        terms = {"global": 0.0, "local": 0.0, "lap": 0.0, "rigid": 0.0, "symm": self.symm_constant}
        G = np.zeros_like(X)
        n_pred = len(X)
        if cfg.lambda_global > 0 and matches.global_match is not None:
            m = matches.global_match
            a = X - self.target_points[m.idx_pred]
            if self.target_normals is not None:
                # damped point-to-plane: tangential sliding is cheap, not free
                n = self.target_normals[m.idx_pred]
                dots = np.einsum("ni,ni->n", a, n)
                d2 = np.einsum("ni,ni->n", a, a)
                terms["global"] = float(np.mean(dots**2 + self.plane_damping * d2))
                G += (2.0 * cfg.lambda_global / n_pred) * (
                    dots[:, None] * n + self.plane_damping * a
                )
            else:
                b = X[m.idx_target] - self.target_points
                terms["global"] = float(np.mean(np.einsum("ni,ni->n", a, a)))
                terms["global"] += float(np.mean(np.einsum("ni,ni->n", b, b)))
                G += (2.0 * cfg.lambda_global / n_pred) * a
                np.add.at(G, m.idx_target, (2.0 * cfg.lambda_global / len(b)) * b)
        if cfg.lambda_local > 0:
            terms["local"] = ch.part_match_value(X, self.target_points, matches.parts)
            for pm in matches.parts:
                scale = cfg.lambda_local / len(matches.parts)
                diff_p = X[pm.pred_indices] - self.target_points[pm.pred_to_target]
                G[pm.pred_indices] += (
                    (2.0 * scale / len(pm.pred_indices)) * pm.pred_conf[:, None] * diff_p
                )
                diff_t = X[pm.target_to_pred] - self.target_points[pm.target_indices]
                np.add.at(
                    G, pm.target_to_pred,
                    (2.0 * scale / len(pm.target_indices)) * pm.target_conf[:, None] * diff_t,
                )
        if cfg.lambda_lap > 0:
            residual = self.lap_op @ X
            terms["lap"] = float(np.mean(np.einsum("ni,ni->n", residual, residual)))
            G += (2.0 * cfg.lambda_lap / n_pred) * (self.lap_op.T @ residual)
        if cfg.lambda_rigid > 0 and self.prev_edge_lengths is not None:
            i, j = self.edges[:, 0], self.edges[:, 1]
            d = X[i] - X[j]
            lengths = np.linalg.norm(d, axis=1)
            dlen = lengths - self.prev_edge_lengths
            terms["rigid"] = float(np.mean(dlen**2))
            coeff = (2.0 * cfg.lambda_rigid / len(self.edges)) * (
                dlen / np.maximum(lengths, 1e-30)
            )
            contrib = coeff[:, None] * d
            np.add.at(G, i, contrib)
            np.add.at(G, j, -contrib)
        terms["glc"] = cfg.lambda_global * terms["global"] + cfg.lambda_local * terms["local"]
        terms["total"] = (
            terms["glc"]
            + cfg.lambda_lap * terms["lap"]
            + cfg.lambda_rigid * terms["rigid"]
            + cfg.lambda_symm * terms["symm"]
        )
        if not np.isfinite(terms["total"]):
            bad = [k for k, v in terms.items() if not np.isfinite(v)]
            raise FitError(f"frame {self.frame_index}: non-finite loss in {bad}")
        return terms, G

    def evaluate(self, theta, matches=None):
        """Objective at theta. Fresh correspondences unless matches is given."""
        X = self.deform(theta)
        if matches is None:
            matches = self.match(X)
        terms, _ = self._loss(X, matches)
        return terms["total"], terms, matches

    def value(self, theta, matches=None):
        return self.evaluate(theta, matches)[0]

    # --- gradient ----------------------------------------------------------------

    def gradient(self, theta, matches=None):
        """Exact gradient of the objective; correspondences frozen within the call.

        Returns (gradient, total, matches). When matches is None a fresh
        matching at theta is built first.
        """
        fw = self._forward(theta)
        X = fw["X"]
        if matches is None:
            matches = self.match(X)
        terms, G = self._loss(X, matches)

        skel = self.skeleton
        B = self.num_bones
        grad = np.zeros(self.num_params)
        grad[3:6] = G.sum(axis=0)
        # dL/dR of the root rotation, then of each bone's local rotation
        G_R = np.zeros((B + 1, 3, 3))
        G_R[0] = np.einsum("ni,nj->ij", G, fw["blended"])

        if B:
            Gp = G @ fw["R0"]  # rows become R0^T g_n
            G_Rw = np.einsum("nb,ni,nj->bij", self.weights.weights, Gp, self.canonical.vertices)
            g_tw = self.weights.weights.T @ Gp

            parent_pos = skel.joints[skel.bone_parent_joints]
            stretch = (
                (fw["scales"] - 1.0)[:, None]
                * skel.rest_lengths[:, None]
                * skel.bone_directions
            )
            G_Rl = G_R[1:]
            g_scales = np.zeros(B)
            for b in skel.bone_order[::-1]:
                p = int(skel.bone_parent_bones[b])
                if p >= 0:
                    G_Rw[p] += G_Rw[b] @ fw["R_local"][b].T + np.outer(g_tw[b], fw["t_local"][b])
                    g_tw[p] += g_tw[b]
                    Rp_T = fw["R_world"][p].T
                else:
                    Rp_T = np.eye(3)
                G_Rl[b] = Rp_T @ G_Rw[b]
                g_tl = Rp_T @ g_tw[b]
                G_Rl[b] += np.outer(g_tl, stretch[b] - parent_pos[b])
                g_delta = fw["R_local"][b].T @ g_tl
                g_scales[b] = skel.rest_lengths[b] * float(skel.bone_directions[b] @ g_delta)
            grad[6 + 3 * B:] = g_scales
        g_rv = rot.rotation_vector_gradient(
            G_R, np.vstack([fw["rv"], fw["angles"]]),
            np.concatenate([fw["R0"][None], fw["R_local"]]),
        )
        grad[:3] = g_rv[0]
        grad[6:6 + 3 * B] = g_rv[1:].ravel()
        return grad, terms["total"], matches


def _descent_fallback(objective, theta, f_curr, matches):
    """Plain gradient step with backtracking; returns an accepted point or None."""
    grad, _, _ = objective.gradient(theta, matches)
    norm = np.linalg.norm(grad)
    if norm == 0.0:
        return None
    step = FALLBACK_STEP / norm
    for _ in range(30):
        theta_try = objective.project(theta - step * grad)
        f_try, terms_try, matches_try = objective.evaluate(theta_try)
        if f_try <= f_curr:
            return theta_try, f_try, terms_try, matches_try
        step *= 0.5
    return None


def _minimize(objective: FrameObjective, theta0, config: FitConfig, history=None):
    """Correspondence-reassignment rounds with monotone acceptance.

    Each round freezes the nearest-neighbor matches and minimizes the (smooth)
    frozen objective with bound-constrained L-BFGS, then re-matches and keeps
    the round only if the true objective did not increase; a rejected round or
    a failed line search falls back to a plain backtracking gradient step of
    length FALLBACK_STEP. max_iters caps the L-BFGS iterations plus fallback
    steps; a fallback step taken once the cap is reached overruns it by 1.
    Line searches make gradient evaluations outnumber iterations. Accepted
    rounds are non-increasing in the true objective, and bone scales respect
    scale_bounds at every iterate. history, when given, collects the
    objective value after every accepted round.
    """
    from scipy.optimize import minimize as scipy_minimize

    theta = objective.project(np.asarray(theta0, dtype=np.float64))
    f_curr, terms, matches = objective.evaluate(theta)
    if history is not None:
        history.append(f_curr)
    nb = objective.num_bones
    lo, hi = config.scale_bounds
    bounds = [(None, None)] * (6 + 3 * nb) + [(lo, hi)] * nb

    iterations = 0
    budget = config.max_iters
    while budget > 0:
        frozen = matches

        def frozen_obj(x):
            grad, value, _ = objective.gradient(x, frozen)
            return value, grad

        result = scipy_minimize(
            frozen_obj,
            theta,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": min(150, budget), "ftol": 1e-16, "gtol": 1e-14},
        )
        inner = max(int(result.nit), 1)
        iterations += inner
        budget -= inner
        accepted = None
        if np.all(np.isfinite(result.x)):
            f_try, terms_try, matches_try = objective.evaluate(result.x)
            if f_try <= f_curr:
                accepted = (result.x, f_try, terms_try, matches_try)
        if accepted is None:
            accepted = _descent_fallback(objective, theta, f_curr, matches)
            iterations += 1
            budget -= 1
            if accepted is None:
                break
        theta, f_try, terms, matches = accepted
        rel_drop = (f_curr - f_try) / max(abs(f_curr), 1e-300)
        f_curr = f_try
        if history is not None:
            history.append(f_curr)
        if rel_drop < config.convergence_tol:
            break
    return theta, f_curr, terms, iterations


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
    from .skeleton import posed_joints

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
    points = np.einsum("sb,fbi->fsi", bary, tri).reshape(-1, 3)
    face_n = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    norms = np.linalg.norm(face_n, axis=1)
    face_n = face_n / np.maximum(norms, 1e-30)[:, None]
    normals = np.repeat(face_n, len(bary), axis=0)
    keep = np.repeat(norms > 1e-14, len(bary))
    return points[keep], normals[keep]


def _align_coarse(coarse: FrameObjective, theta0, config):
    """Two-stage damped point-to-plane alignment.

    Heavy damping first keeps the frozen-plane solves from sliding away on
    coarse meshes; a light-damping pass then removes the residual
    point-to-point aliasing bias.
    """
    budget = max(config.max_iters // 2, 1)
    theta = theta0
    iterations = 0
    for damping, share in ((0.25, 0.5), (0.03, 0.5)):
        coarse.plane_damping = damping
        stage_cfg = replace(coarse.config, max_iters=max(int(budget * share), 1))
        theta, _, _, used = _minimize(coarse, theta, stage_cfg)
        iterations += used
    return theta, iterations


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
    solved), is aligned to the supervision surface by a coarse point-to-plane
    objective, and is then solved once on the full objective.
    supervision_weights optionally supplies per-frame target-side skin
    weights (e.g. when the supervision carries known weights); otherwise,
    when lambda_local > 0, each supervision mesh is heat-skinned against the
    skeleton posed at the coarse-aligned parameters. Returned frames pass
    through fold_root_bone.
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

    coarse_config = replace(
        config, lambda_local=0.0, lambda_lap=0.0, lambda_rigid=0.0, lambda_symm=0.0
    )
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
        theta_aligned, iterations = _align_coarse(coarse, theta0, config)

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
        theta, _, terms, used = _minimize(objective, theta_aligned, config)
        iterations += used
        # the fold only changes how the pose is written, so the next frame's
        # warm start and rigidity reference still come from theta
        frames.append(fold_root_bone(skeleton, objective.frame_from_parameters(theta)))
        prev_vertices = objective.deform(theta)
        theta_prev2 = theta_prev
        theta_prev = theta
        report.add_frame(t, terms, iterations, time.perf_counter() - start)
    return MotionClip(tuple(frames)), report
