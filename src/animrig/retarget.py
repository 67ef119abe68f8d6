"""Cross-skeleton motion transfer without any training.

A reference clip's joint angles and bone scales are copied through a joint
correspondence onto a target skeleton (supplied, or embedded automatically
into the target mesh's voxelized interior), the root trajectory is rescaled
by the skeleton height ratio, and the target mesh is posed by forward
kinematics plus blend skinning. One target skeleton and one set of skin
weights serve every frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .deform import DeformedMesh, blend_skin
from .geometry import TriMesh
from .skeleton import MotionClip, MotionFrame, RigidTransform, Skeleton, forward_kinematics
from .skinning import SkinWeights


class EmbeddingError(RuntimeError):
    """Automatic skeleton embedding could not place a joint."""


class CorrespondenceError(ValueError):
    """A joint correspondence violates injectivity or chain consistency."""


@dataclass(frozen=True)
class JointCorrespondence:
    """Injective reference-joint to target-joint index pairs."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(r), int(t)) for r, t in self.pairs)
        refs = [r for r, _ in pairs]
        tgts = [t for _, t in pairs]
        if len(set(refs)) != len(refs) or len(set(tgts)) != len(tgts):
            raise CorrespondenceError("correspondence must be injective on both sides")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def identity(cls, num_joints):
        return cls(tuple((j, j) for j in range(num_joints)))

    @classmethod
    def from_dict(cls, data):
        return cls(tuple((r, t) for r, t in data["pairs"]))


def check_correspondence(corr: JointCorrespondence, reference: Skeleton, target: Skeleton):
    """Diagnostics for chain consistency; empty list when valid.

    If reference joint r maps to t and r's parent maps to p, then t's parent
    must be p.
    """
    issues = []
    mapping = dict(corr.pairs)
    for r, t in corr.pairs:
        if not (0 <= r < reference.num_joints):
            issues.append(f"reference joint {r} out of range")
            continue
        if not (0 <= t < target.num_joints):
            issues.append(f"target joint {t} out of range")
            continue
        rp = int(reference.parents[r])
        if rp != -1 and rp in mapping:
            expected = mapping[rp]
            actual = int(target.parents[t])
            if actual != expected:
                issues.append(
                    f"pair ({r}->{t}): reference parent {rp} maps to {expected} "
                    f"but target parent is {actual}"
                )
    return issues


@dataclass(frozen=True)
class InteriorField:
    """Voxelized interior of a closed mesh with taxicab distance to the surface.

    Cubic voxels; voxel (i, j, k) is centered at origin + (i+.5, j+.5, k+.5)
    * voxel_size. distance holds model-unit distances for interior voxels and
    0 elsewhere; graph edges implicitly connect 6-neighbor interior voxels.
    """

    origin: np.ndarray
    voxel_size: float
    interior: np.ndarray   # (nx, ny, nz) bool
    distance: np.ndarray   # (nx, ny, nz) float, model units

    @property
    def dims(self):
        return self.interior.shape

    def voxel_centers(self, indices):
        return self.origin + (np.asarray(indices, dtype=np.float64) + 0.5) * self.voxel_size

    def index_of(self, point):
        idx = np.floor((np.asarray(point) - self.origin) / self.voxel_size).astype(int)
        return tuple(np.clip(idx, 0, np.array(self.dims) - 1))

    def contains(self, points):
        """Whether each point falls in an interior voxel.

        Takes one point (3,) and returns a bool, or an (N, 3) array and
        returns an (N,) bool array; points outside the grid are not inside.
        """
        points = np.asarray(points)
        idx = np.floor((points.reshape(-1, 3) - self.origin) / self.voxel_size).astype(int)
        in_grid = np.all((idx >= 0) & (idx < self.dims), axis=1)
        inside = np.zeros(len(idx), dtype=bool)
        inside[in_grid] = self.interior[tuple(idx[in_grid].T)]
        return bool(inside[0]) if points.ndim == 1 else inside

    def interior_count(self):
        return int(self.interior.sum())


def _column_crossings(py, pz, tri2d, tri_x, eps=1e-12):
    """Sorted x positions where the +x line through (py, pz) crosses triangles.

    Returns None when a crossing is numerically ambiguous (hit near an edge),
    signalling the caller to jitter the column.
    """
    v0, v1, v2 = tri2d[:, 0], tri2d[:, 1], tri2d[:, 2]
    d1 = v1 - v0
    d2 = v2 - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    ok = np.abs(det) > eps
    if not ok.any():
        return []
    p = np.array([py, pz]) - v0[ok]
    inv = 1.0 / det[ok]
    u = (p[:, 0] * d2[ok][:, 1] - p[:, 1] * d2[ok][:, 0]) * inv
    v = (d1[ok][:, 0] * p[:, 1] - d1[ok][:, 1] * p[:, 0]) * inv
    w = 1.0 - u - v
    margin = 1e-9
    inside = (u > margin) & (v > margin) & (w > margin)
    grazing = (
        (np.abs(u) <= margin) | (np.abs(v) <= margin) | (np.abs(w) <= margin)
    ) & (u > -margin) & (v > -margin) & (w > -margin)
    if grazing.any():
        return None
    if not inside.any():
        return []
    xs = tri_x[ok][inside]
    uu, vv, ww = u[inside], v[inside], w[inside]
    crossings = ww * xs[:, 0] + uu * xs[:, 1] + vv * xs[:, 2]
    return np.sort(crossings)


def _column_buckets(tri2d, origin, voxel, dims):
    """(j, k, face ids) of each (y, z) voxel column that triangle bboxes cover.

    tri2d holds the triangles' (y, z) corners. A triangle goes to every
    column in its bbox, clipped to the grid; each column lists its faces in
    ascending order, and the columns come in ascending (j, k) order.
    """
    lo = np.floor((tri2d.min(axis=1) - origin[1:]) / voxel).astype(int)
    hi = np.floor((tri2d.max(axis=1) - origin[1:]) / voxel).astype(int)
    lo = np.maximum(lo, 0)
    span = np.maximum(np.minimum(hi, np.asarray(dims[1:]) - 1) - lo + 1, 0)
    count = span[:, 0] * span[:, 1]
    face = np.repeat(np.arange(len(tri2d)), count)
    # position of each (face, column) entry within its face's span[0] x span[1] block
    local = np.arange(len(face)) - np.repeat(np.cumsum(count) - count, count)
    width = span[face, 1]
    column = (lo[face, 0] + local // width) * dims[2] + lo[face, 1] + local % width
    order = np.argsort(column, kind="stable")
    column, face = column[order], face[order]
    starts = np.flatnonzero(np.diff(column, prepend=-1))
    ends = np.append(starts[1:], len(column))
    return [divmod(int(column[a]), int(dims[2])) + (face[a:b],) for a, b in zip(starts, ends)]


def build_interior_field(mesh: TriMesh, resolution: int) -> InteriorField:
    """Voxelize a mesh interior by x-ray parity and propagate surface distance.

    resolution counts voxels along the longest bounding-box axis (cubic
    voxels). Interiority uses crossing parity of +x rays through voxel-column
    centers, with deterministic sub-voxel jitter retries for rays that graze
    triangle edges. Distance-to-surface is breadth-first (6-neighbor) layer
    counting from the boundary, scaled by the voxel size.
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    if mesh.num_faces == 0:
        raise ValueError("interior field needs a mesh with faces")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    extent = hi - lo
    voxel = float(extent.max()) / resolution
    if voxel <= 0:
        raise ValueError("mesh has zero extent")
    pad = 2
    dims = np.maximum(np.ceil(extent / voxel).astype(int), 1) + 2 * pad
    origin = lo - pad * voxel

    tris = mesh.vertices[mesh.faces]          # (F, 3, 3)
    tri2d = tris[:, :, 1:]                    # (y, z) projection
    tri_x = tris[:, :, 0]
    interior = np.zeros(tuple(dims), dtype=bool)
    x_centers = origin[0] + (np.arange(dims[0]) + 0.5) * voxel
    for j, k, ids in _column_buckets(tri2d, origin, voxel, dims):
        py = origin[1] + (j + 0.5) * voxel
        pz = origin[2] + (k + 0.5) * voxel
        crossings = None
        for attempt in range(6):
            # deterministic sub-voxel jitter to dodge edge-grazing rays
            off = (attempt * 0.137) * 1e-3 * voxel
            crossings = _column_crossings(py + off, pz + 1.61 * off, tri2d[ids], tri_x[ids])
            if crossings is not None:
                break
        if crossings is None or len(crossings) < 2:
            continue
        # odd crossing count below a center means inside
        counts = np.searchsorted(crossings, x_centers)
        interior[:, j, k] = (counts % 2) == 1

    if not interior.any():
        raise ValueError(
            f"no interior voxels at resolution {resolution}; "
            "the mesh may be open or the resolution too coarse"
        )

    # multi-source BFS from all non-interior voxels, 6-connectivity
    steps = np.zeros(tuple(dims), dtype=np.int32)
    visited = ~interior
    frontier = visited.copy()
    layer = 0
    while frontier.any():
        grown = np.zeros_like(frontier)
        grown[1:, :, :] |= frontier[:-1, :, :]
        grown[:-1, :, :] |= frontier[1:, :, :]
        grown[:, 1:, :] |= frontier[:, :-1, :]
        grown[:, :-1, :] |= frontier[:, 1:, :]
        grown[:, :, 1:] |= frontier[:, :, :-1]
        grown[:, :, :-1] |= frontier[:, :, 1:]
        layer += 1
        newly = grown & interior & ~visited
        if not newly.any():
            break
        steps[newly] = layer
        visited |= newly
        frontier = newly
    distance = steps.astype(np.float64) * voxel
    return InteriorField(origin=origin, voxel_size=voxel, interior=interior, distance=distance)


def _segment_exit_fractions(field: InteriorField, a, ends):
    """Per segment a-b, b a row of ends: the fraction of its sample points
    lying outside interior voxels.

    A segment gets n = max(ceil(|b - a| / (voxel / 2)), 2) evenly spaced
    samples, both ends included. Segments with the same n share one
    linspace and one interior lookup.
    """
    counts = np.array([
        max(int(np.ceil(np.linalg.norm(b - a) / (0.5 * field.voxel_size))), 2) for b in ends
    ])
    fractions = np.empty(len(ends))
    for n in np.unique(counts):
        group = counts == n
        ts = np.linspace(0.0, 1.0, n)
        pts = a * (1 - ts)[:, None] + ends[group][:, None] * ts[:, None]  # (group, n, 3)
        outside = ~field.contains(pts.reshape(-1, 3)).reshape(-1, n)
        fractions[group] = outside.sum(axis=1) / n
    return fractions


_EMBED_LENGTH_WEIGHT = 1.0
_EMBED_SURFACE_WEIGHT = 0.5
_EMBED_EXIT_WEIGHT = 10.0
_EMBED_ANCHOR_WEIGHT = 0.05


def embed_skeleton(target: TriMesh, reference: Skeleton, field: InteriorField) -> Skeleton:
    """Place a reference-topology skeleton inside a target mesh's interior.

    Joints are chosen root-to-leaf from interior-voxel candidates, minimizing
    _EMBED_LENGTH_WEIGHT * squared relative deviation of the bone length from
    the reference proportion, _EMBED_SURFACE_WEIGHT * nearness-to-surface
    penalty, _EMBED_EXIT_WEIGHT * fraction of the bone segment leaving the
    interior, plus a small _EMBED_ANCHOR_WEIGHT pull toward the
    similarity-mapped reference position (the anchor orders the best-first
    candidate sweep and breaks symmetry ties). The mapped scale comes from the
    interior extent minus a local-thickness margin, so an identical mesh
    recovers its own joints and a uniformly scaled mesh scales them.
    """
    idx = np.argwhere(field.interior)
    if len(idx) == 0:
        raise EmbeddingError("interior field has no interior voxels")
    centers = field.voxel_centers(idx)
    dists = field.distance[field.interior]
    max_dist = float(dists.max())

    int_lo = centers.min(axis=0)
    int_hi = centers.max(axis=0)
    int_extent = float((int_hi - int_lo).max())
    int_center = 0.5 * (int_lo + int_hi)

    ref_lo = reference.joints.min(axis=0)
    ref_hi = reference.joints.max(axis=0)
    ref_extent = float((ref_hi - ref_lo).max())
    ref_center = 0.5 * (ref_lo + ref_hi)

    margin = min(max_dist, 0.25 * int_extent)
    if ref_extent > 1e-12:
        scale = max(int_extent - 2.0 * margin, 0.3 * int_extent) / ref_extent
    else:
        scale = 1.0

    surface_pen = 1.0 - dists / max(max_dist, 1e-30)

    # joints processed root-to-leaf
    order = [reference.root]
    for b in reference.bone_order:
        order.append(int(reference.bone_joints[b]))

    placed = {}
    for joint in order:
        parent = int(reference.parents[joint])
        prior = int_center + scale * (reference.joints[joint] - ref_center)
        if parent == -1:
            expected_len = None
            parent_pos = None
        else:
            parent_pos = placed[parent]
            prior = parent_pos + scale * (reference.joints[joint] - reference.joints[parent])
            expected_len = scale * float(
                np.linalg.norm(reference.joints[joint] - reference.joints[parent])
            )

        radius = max(4.0 * field.voxel_size, 0.08 * int_extent)
        chosen = None
        while chosen is None:
            near = np.linalg.norm(centers - prior, axis=1) <= radius
            if not near.any():
                if radius > 4.0 * int_extent:
                    raise EmbeddingError(
                        f"no interior candidate for joint {joint}"
                        + (f" ({reference.names[joint]})" if reference.names else "")
                    )
                radius *= 2.0
                continue
            cand = centers[near]
            cost = _EMBED_SURFACE_WEIGHT * surface_pen[near]
            norm_len = max(expected_len or 0.0, field.voxel_size)
            offset = np.linalg.norm(cand - prior, axis=1) / norm_len
            cost = cost + _EMBED_ANCHOR_WEIGHT * offset ** 2
            if parent != -1:
                lengths = np.linalg.norm(cand - parent_pos, axis=1)
                cost = cost + _EMBED_LENGTH_WEIGHT * ((lengths - expected_len) / norm_len) ** 2
                cost = cost + _EMBED_EXIT_WEIGHT * _segment_exit_fractions(field, parent_pos, cand)
            best = int(np.argmin(cost))
            chosen = cand[best]
        placed[joint] = chosen

    joints = np.array([placed[j] for j in range(reference.num_joints)])
    return Skeleton(joints, reference.parents, reference.names)


def transfer_motion(
    clip: MotionClip,
    reference: Skeleton,
    target_skeleton: Skeleton,
    correspondence: JointCorrespondence,
    target_mesh: TriMesh,
    target_weights: SkinWeights,
):
    """Retarget a clip onto a target rig; returns one DeformedMesh per frame.

    Per frame: mapped target bones copy the reference bone's rotation vector
    and bone scale (unmapped target bones stay at rest), the root rotation is
    copied, and the root translation is scaled by the ratio of skeleton
    heights. The same skeleton and weights pose every frame.
    """
    if clip.num_bones != reference.num_bones:
        raise ValueError("clip bone count does not match the reference skeleton")
    if target_weights.num_vertices != target_mesh.num_vertices:
        raise ValueError("target weights rows must match the target mesh")
    if target_weights.num_bones != target_skeleton.num_bones:
        raise ValueError("target weights columns must match the target skeleton")
    issues = check_correspondence(correspondence, reference, target_skeleton)
    if issues:
        raise CorrespondenceError("; ".join(issues))

    ref_height = reference.height()
    height_ratio = target_skeleton.height() / ref_height if ref_height > 1e-12 else 1.0

    bone_map = {}  # target bone -> reference bone
    for r, t in correspondence.pairs:
        if t == target_skeleton.root or r == reference.root:
            continue
        bone_map[target_skeleton.bone_of_joint(t)] = reference.bone_of_joint(r)

    outputs = []
    for t_index, ref_frame in enumerate(clip.frames):
        angles = np.zeros((target_skeleton.num_bones, 3))
        scales = np.ones(target_skeleton.num_bones)
        for tb, rb in bone_map.items():
            angles[tb] = ref_frame.angles[rb]
            scales[tb] = ref_frame.bone_scales[rb]
        root = RigidTransform(
            ref_frame.root.quaternion, ref_frame.root.translation * height_ratio
        )
        frame = MotionFrame(root, angles, scales)
        transforms = forward_kinematics(target_skeleton, frame)
        outputs.append(
            blend_skin(target_mesh, target_weights, root, transforms, frame_index=t_index)
        )
    return outputs


def load_correspondence(path) -> JointCorrespondence:
    with open(path) as fh:
        return JointCorrespondence.from_dict(json.load(fh))
