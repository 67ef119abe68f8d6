"""Global and part-level chamfer losses between point sets.

Nearest neighbors come from an exact KD-tree; the test suite holds these
implementations to an O(N^2) brute-force oracle at 1e-9 relative error, so no
approximate search is allowed here. match_parts builds the part-level term for
both the fit and eval-chamfer: a PartPairs list of frozen pairs, each weighted
by the product of the two endpoints' skinning confidence for the part.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import EmptyInputError
from .skinning import PartDecomposition, SkinWeights, part_decompose


@dataclass
class GlobalMatch:
    """Frozen nearest-neighbor pairing between two clouds, both directions
    unless the match is one-sided."""

    d2_pred: np.ndarray   # squared distance to nearest target, per pred point
    idx_pred: np.ndarray  # matched target index, per pred point
    d2_target: np.ndarray | None  # None for a one-sided match
    idx_target: np.ndarray | None  # matched pred index, per target point


@dataclass(frozen=True)
class PartPairs:
    """Frozen per-part pairings; the part-level chamfer is
    sum coef * |pred[pred_index] - target[target_index]|^2.

    Within each part present in both clouds, in ascending part order, the
    pred -> target pairs come first, then the target -> pred pairs.
    """

    pred_index: np.ndarray
    target_index: np.ndarray
    coef: np.ndarray  # confidence product / (num_parts * size of the pair's side of the part)
    num_parts: int    # parts present in both clouds


def match_global(pred_points, target_points, target_tree=None, two_sided=True) -> GlobalMatch:
    """Nearest-neighbor pairing; two_sided=False skips the target-to-pred
    direction, leaving d2_target and idx_target None."""
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
    global_match: GlobalMatch | None = None,
) -> PartPairs:
    """Per-part nearest-neighbor pairings over parts present in both clouds.

    target_trees optionally maps each present target part to a KD-tree of
    its points, for callers that match one target many times. global_match,
    a match_global of the same clouds, optionally seeds the pairs of each
    direction it holds: a point whose global nearest neighbor carries its own
    part label keeps that neighbor, and only the other points are queried
    within the part."""
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
    near_p = near_t = None
    if global_match is not None:
        near_p, near_t = global_match.idx_pred, global_match.idx_target
    common = np.intersect1d(pred_parts.present_parts, target_parts.present_parts)
    wp, wt = pred_weights.weights, target_weights.weights
    scale = 1.0 / max(len(common), 1)
    pred_index, target_index, coef = [], [], []
    for k in common:
        pi = pred_parts.indices_of(k)
        ti = target_parts.indices_of(k)
        p_to_t = _nearest_in_part(
            pred_points[pi], target_points, ti, target_parts.labels, k,
            None if near_p is None else near_p[pi],
            None if target_trees is None else target_trees[k],
        )
        t_to_p = _nearest_in_part(
            target_points[ti], pred_points, pi, pred_parts.labels, k,
            None if near_t is None else near_t[ti],
        )
        pred_index += [pi, t_to_p]
        target_index += [p_to_t, ti]
        coef += [wp[pi, k] * wt[p_to_t, k] * (scale / len(pi)),
                 wp[t_to_p, k] * wt[ti, k] * (scale / len(ti))]
    empty = [np.zeros(0, dtype=np.intp)]
    return PartPairs(
        np.concatenate(pred_index + empty), np.concatenate(target_index + empty),
        np.concatenate(coef + [np.zeros(0)]), len(common),
    )


def _nearest_in_part(queries, points, part, labels, k, nearest=None, tree=None):
    """Index into points of each query's nearest neighbor among points[part],
    the points labelled k. nearest optionally holds each query's nearest
    neighbor among all points: where that one is labelled k it is the answer,
    and only the other queries are searched, in tree or in a KD-tree of
    points[part] built when some query needs it."""
    if nearest is None:
        out, miss = np.empty(len(queries), dtype=np.intp), slice(None)
    else:
        out = nearest.copy()
        miss = labels[nearest] != k
        if not np.any(miss):
            return out
    if tree is None:
        tree = cKDTree(points[part])
    _, near = tree.query(queries[miss])
    out[miss] = part[near]
    return out


def part_match_value(pred_points, target_points, pairs: PartPairs) -> float:
    """Part-level chamfer value for frozen per-part pairings."""
    diff = pred_points[pairs.pred_index] - target_points[pairs.target_index]
    return float(np.einsum("n,ni,ni->", pairs.coef, diff, diff))


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
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if len(pred) == 0 or len(target) == 0:
        raise EmptyInputError("chamfer distance of an empty point cloud")
    pairs = match_parts(pred, target, pred_weights, target_weights, pred_parts, target_parts)
    if not pairs.num_parts:
        warnings.warn("no part is present in both clouds; part-level chamfer is 0")
    return part_match_value(pred, target, pairs)
