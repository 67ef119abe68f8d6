"""Global and part-level chamfer losses between point sets.

Nearest neighbors come from an exact KD-tree; the test suite holds these
implementations to an O(N^2) brute-force oracle at 1e-9 relative error, so no
approximate search is allowed here. The part-level term weights each matched
pair by the product of the two endpoints' skinning confidence for that part.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import EmptyInputError
from .skinning import PartDecomposition, SkinWeights, part_decompose


@dataclass(frozen=True)
class PointCloud:
    """Point set in model units with an optional per-point weight column."""

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        points = np.ascontiguousarray(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {points.shape}")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        if self.weights is not None:
            w = np.ascontiguousarray(self.weights, dtype=np.float64)
            if w.shape != (len(points),):
                raise ValueError("per-point weights must match the point count")
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.points)


def as_points(obj) -> np.ndarray:
    """Accept PointCloud, TriMesh/DeformedMesh, or a raw (N, 3) array."""
    if isinstance(obj, PointCloud):
        return obj.points
    if hasattr(obj, "vertices"):
        return np.asarray(obj.vertices, dtype=np.float64)
    return np.ascontiguousarray(obj, dtype=np.float64)


@dataclass
class GlobalMatch:
    """Frozen nearest-neighbor pairing between two clouds, both directions
    unless the match is one-sided."""

    d2_pred: np.ndarray   # squared distance to nearest target, per pred point
    idx_pred: np.ndarray  # matched target index, per pred point
    d2_target: np.ndarray | None  # None for a one-sided match
    idx_target: np.ndarray | None  # matched pred index, per target point


@dataclass
class PartMatch:
    """Frozen per-part pairing with confidence factors at the matched pairs."""

    part: int
    pred_indices: np.ndarray
    pred_to_target: np.ndarray   # target indices matched by each pred-part point
    pred_conf: np.ndarray        # confidence per pred-direction pair
    target_indices: np.ndarray
    target_to_pred: np.ndarray   # pred indices matched by each target-part point
    target_conf: np.ndarray


def match_global(pred_points, target_points, target_tree=None, two_sided=True) -> GlobalMatch:
    """Nearest-neighbor pairing; two_sided=False skips the target-to-pred
    direction, leaving d2_target and idx_target None."""
    pred_points = as_points(pred_points)
    target_points = as_points(target_points)
    if len(pred_points) == 0 or len(target_points) == 0:
        raise EmptyInputError("chamfer distance of an empty point cloud")
    if target_tree is None:
        target_tree = cKDTree(target_points)
    d_p, i_p = target_tree.query(pred_points)
    if not two_sided:
        return GlobalMatch(d_p**2, i_p, None, None)
    d_t, i_t = cKDTree(pred_points).query(target_points)
    return GlobalMatch(d_p**2, i_p, d_t**2, i_t)


def chamfer_global(pred, target) -> float:
    """Symmetric mean squared nearest-neighbor distance between two clouds."""
    m = match_global(pred, target)
    return float(np.mean(m.d2_pred) + np.mean(m.d2_target))


def match_parts(
    pred_points,
    target_points,
    pred_weights: SkinWeights,
    target_weights: SkinWeights,
    pred_parts: PartDecomposition | None = None,
    target_parts: PartDecomposition | None = None,
    target_trees=None,
):
    """Per-part nearest-neighbor pairings over parts present in both clouds.

    target_trees optionally maps each present target part to a KD-tree of
    its points, for callers that match one target many times."""
    pred_points = as_points(pred_points)
    target_points = as_points(target_points)
    if pred_weights.num_vertices != len(pred_points):
        raise ValueError("pred weights rows must match the pred cloud size")
    if target_weights.num_vertices != len(target_points):
        raise ValueError("target weights rows must match the target cloud size")
    if pred_weights.num_bones != target_weights.num_bones:
        raise ValueError("part-level chamfer needs weights over the same bone set")
    if pred_parts is None:
        pred_parts = part_decompose(pred_weights)
    if target_parts is None:
        target_parts = part_decompose(target_weights)
    common = np.intersect1d(pred_parts.present_parts, target_parts.present_parts)
    matches = []
    for k in common:
        pi = pred_parts.indices_of(k)
        ti = target_parts.indices_of(k)
        pk = pred_points[pi]
        tk = target_points[ti]
        tree_t = cKDTree(tk) if target_trees is None else target_trees[k]
        tree_p = cKDTree(pk)
        _, near_t = tree_t.query(pk)
        _, near_p = tree_p.query(tk)
        p_to_t = ti[near_t]
        t_to_p = pi[near_p]
        matches.append(
            PartMatch(
                part=int(k),
                pred_indices=pi,
                pred_to_target=p_to_t,
                pred_conf=pred_weights.weights[pi, k] * target_weights.weights[p_to_t, k],
                target_indices=ti,
                target_to_pred=t_to_p,
                target_conf=pred_weights.weights[t_to_p, k] * target_weights.weights[ti, k],
            )
        )
    return matches


def part_match_value(pred_points, target_points, matches) -> float:
    """Part-level chamfer value for frozen per-part pairings."""
    if not matches:
        return 0.0
    pred_points = as_points(pred_points)
    target_points = as_points(target_points)
    total = 0.0
    for m in matches:
        diff_p = pred_points[m.pred_indices] - target_points[m.pred_to_target]
        diff_t = pred_points[m.target_to_pred] - target_points[m.target_indices]
        d2_p = np.einsum("ni,ni->n", diff_p, diff_p)
        d2_t = np.einsum("ni,ni->n", diff_t, diff_t)
        total += float(np.mean(m.pred_conf * d2_p) + np.mean(m.target_conf * d2_t))
    return total / len(matches)


def chamfer_local(
    pred,
    target,
    pred_weights: SkinWeights,
    target_weights: SkinWeights,
    pred_parts: PartDecomposition | None = None,
    target_parts: PartDecomposition | None = None,
) -> float:
    """Confidence-weighted chamfer averaged over parts present in both clouds.

    Each squared nearest-neighbor distance is scaled by the product of the two
    endpoints' weights for the part, downweighting junction vertices. Parts
    present in only one cloud are omitted; with no common part the loss is 0.
    """
    pred_points = as_points(pred)
    target_points = as_points(target)
    if len(pred_points) == 0 or len(target_points) == 0:
        raise EmptyInputError("chamfer distance of an empty point cloud")
    matches = match_parts(
        pred_points, target_points, pred_weights, target_weights, pred_parts, target_parts
    )
    if not matches:
        warnings.warn("no part is present in both clouds; part-level chamfer is 0")
        return 0.0
    return part_match_value(pred_points, target_points, matches)


def global_local_chamfer(
    pred,
    target,
    pred_weights: SkinWeights,
    target_weights: SkinWeights,
    lambda_local: float = 1.0,
    pred_parts: PartDecomposition | None = None,
    target_parts: PartDecomposition | None = None,
) -> float:
    """chamfer_global + lambda_local * chamfer_local."""
    if lambda_local < 0:
        raise ValueError("lambda_local must be nonnegative")
    value = chamfer_global(pred, target)
    if lambda_local > 0:
        value += lambda_local * chamfer_local(
            pred, target, pred_weights, target_weights, pred_parts, target_parts
        )
    return value
