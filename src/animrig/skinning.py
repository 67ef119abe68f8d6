"""Skinning weights: Gaussian-ellipsoid mixture, bone-heat diffusion, part labels.

Both weight computations return row-stochastic N x B matrices binding each
vertex to the skeleton's bones. The argmax part decomposition built from the
weights drives the part-level chamfer term.

Bone heat (Baran & Popovic 2007) anchors each vertex at its nearest bone that
it can see: the segment from the vertex to the bone's closest point must cross
no face. `nearest_visible_bones` tests all N x B such rays in one batched pass
per bone instead of testing every face for every ray (O(N * F * B)). The faces
sit in a uniform grid stored as a sparse table of occupied cells (sorted cell
keys and CSR face lists, O(F) memory); rays are cut into pieces no longer than
a cell, each piece gathers the faces of the cells it reaches, and the distinct
(ray, face) pairs run through Moller-Trumbore in blocks of bounded size, so
the working set does not grow with N or F beyond the O(N * B + F) arrays.
Each pair gathers its face's (v0, e1, e2) row from a table built once per
call; pairs whose ray is already blocked or whose face touches the ray's
vertex are dropped before any arithmetic, and the rest form the test's
products and sums component by component in the order of the brute-force
test, so the anchors and distances equal its own bit for bit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import TriMesh, bbox_diagonal
from .skeleton import Skeleton, json_index


@dataclass(frozen=True)
class EllipsoidBones:
    """Anisotropic Gaussian bones: centers, orthonormal orientations, axis precisions."""

    centers: np.ndarray      # (B, 3)
    orientations: np.ndarray  # (B, 3, 3), rows are ellipsoid axes
    scales: np.ndarray       # (B, 3) positive inverse-variance entries

    def __post_init__(self):
        centers = np.ascontiguousarray(self.centers, dtype=np.float64)
        orient = np.ascontiguousarray(self.orientations, dtype=np.float64)
        scales = np.ascontiguousarray(self.scales, dtype=np.float64)
        B = len(centers)
        if centers.shape != (B, 3) or orient.shape != (B, 3, 3) or scales.shape != (B, 3):
            raise ValueError("inconsistent ellipsoid array shapes")
        if B < 1:
            raise ValueError("need at least one ellipsoid bone")
        gram = np.einsum("bij,bkj->bik", orient, orient)
        if np.max(np.abs(gram - np.eye(3))) > 1e-8:
            raise ValueError("orientations must be orthonormal")
        if np.any(scales <= 0):
            raise ValueError("scales must be positive")
        for name, arr in (("centers", centers), ("orientations", orient), ("scales", scales)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_bones(self):
        return len(self.centers)

    def precision_matrices(self):
        """Per-bone V^T diag(scale) V, shape (B, 3, 3)."""
        return np.einsum("bji,bj,bjk->bik", self.orientations, self.scales, self.orientations)


class SkinWeights:
    """Row-stochastic vertex-to-bone weight matrix."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ValueError("weights must be a 2-D (N, B) matrix")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        sums = weights.sum(axis=1)
        if len(weights) and np.max(np.abs(sums - 1.0)) > 1e-6:
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"row {worst} sums to {sums[worst]:.8f}, expected 1")
        weights.setflags(write=False)
        self.weights = weights

    @property
    def num_vertices(self):
        return self.weights.shape[0]

    @property
    def num_bones(self):
        return self.weights.shape[1]

    def __repr__(self):
        return f"SkinWeights({self.num_vertices} vertices x {self.num_bones} bones)"


@dataclass(frozen=True)
class PartDecomposition:
    """Per-vertex argmax bone labels; ties go to the lowest bone index."""

    labels: np.ndarray        # (N,) bone indices
    part_count: int           # number of parts with at least one vertex
    present_parts: np.ndarray  # sorted bone indices with nonzero membership

    def indices_of(self, part):
        return np.flatnonzero(self.labels == part)


def part_decompose(weights: SkinWeights) -> PartDecomposition:
    """Argmax part labels from skin weights.

    Ties, up to 1e-9 relative solver roundoff, break to the lowest bone index
    so symmetric weights label deterministically.
    """
    w = weights.weights
    row_max = w.max(axis=1, keepdims=True)
    tied = w >= row_max * (1.0 - 1e-9)
    labels = np.argmax(tied, axis=1).astype(np.int64)
    present = np.unique(labels)
    return PartDecomposition(labels=labels, part_count=len(present), present_parts=present)


def gaussian_skinning(mesh, bones: EllipsoidBones) -> SkinWeights:
    """Mixture-of-Gaussian-ellipsoids weights, row-normalized.

    A vertex so far from every bone that all exponentials underflow to zero is
    bound one-hot to the nearest center (with a warning).
    """
    points = mesh.vertices if isinstance(mesh, TriMesh) else np.asarray(mesh, dtype=np.float64)
    diffs = points[:, None, :] - bones.centers[None, :, :]
    Q = bones.precision_matrices()
    mahal = np.einsum("nbi,bij,nbj->nb", diffs, Q, diffs)
    raw = np.exp(-0.5 * mahal)
    sums = raw.sum(axis=1)
    dead = sums == 0.0
    if np.any(dead):
        warnings.warn(
            f"{int(dead.sum())} vertices underflowed all Gaussian bones; "
            "falling back to nearest-center one-hot"
        )
        d2 = np.einsum("nbi,nbi->nb", diffs[dead], diffs[dead])
        raw[dead] = 0.0
        raw[np.flatnonzero(dead), np.argmin(d2, axis=1)] = 1.0
        sums = raw.sum(axis=1)
    return SkinWeights(raw / sums[:, None])


_LENGTH_FRACTION = 0.5
_WIDTH_FRACTION = 0.25


def ellipsoids_from_skeleton(skeleton: Skeleton):
    """Derive Gaussian bones from skeleton geometry.

    Centers sit at bone midpoints; the major axis follows the bone with
    standard deviation _LENGTH_FRACTION * rest_length, transverse deviations
    _WIDTH_FRACTION * rest_length. Zero-length bones become small isotropic
    blobs sized from the skeleton height.
    """
    B = skeleton.num_bones
    if B < 1:
        raise ValueError("skeleton has no bones")
    a = skeleton.joints[skeleton.bone_parent_joints]
    b = skeleton.joints[skeleton.bone_joints]
    centers = 0.5 * (a + b)
    fallback = max(skeleton.height(), 1.0) * 0.05
    orientations = np.zeros((B, 3, 3))
    scales = np.zeros((B, 3))
    for k in range(B):
        length = float(skeleton.rest_lengths[k])
        axis = skeleton.bone_directions[k]
        if length < 1e-12:
            orientations[k] = np.eye(3)
            scales[k] = 1.0 / fallback**2
            continue
        helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
        n1 = np.cross(axis, helper)
        n1 /= np.linalg.norm(n1)
        n2 = np.cross(axis, n1)
        orientations[k] = np.stack([axis, n1, n2])
        sigma_axis = _LENGTH_FRACTION * length
        sigma_side = _WIDTH_FRACTION * length
        scales[k] = [1.0 / sigma_axis**2, 1.0 / sigma_side**2, 1.0 / sigma_side**2]
    return EllipsoidBones(centers, orientations, scales)


_COT_WEIGHT_FLOOR = 1e-8


def cotangent_laplacian(mesh: TriMesh):
    """Sparse cotangent-weighted graph Laplacian L = D - W.

    Per-edge weights are clamped to >= _COT_WEIGHT_FLOOR so obtuse
    triangulations keep the operator positive semidefinite.
    """
    V, F = mesh.vertices, mesh.faces
    n = mesh.num_vertices
    if not len(F):
        return sp.csr_matrix((n, n))
    rows, cols, vals = [], [], []
    for corner, (i, j) in ((0, (1, 2)), (1, (2, 0)), (2, (0, 1))):
        pc = V[F[:, corner]]
        pi = V[F[:, i]]
        pj = V[F[:, j]]
        u = pi - pc
        w = pj - pc
        cross = np.cross(u, w)
        area2 = np.linalg.norm(cross, axis=1)
        cot = np.einsum("fi,fi->f", u, w) / np.maximum(area2, 1e-12)
        rows.append(F[:, i])
        cols.append(F[:, j])
        vals.append(0.5 * cot)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    W = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    W = W + W.T  # symmetrize; coo->csr summed duplicate corners already
    W.data = np.maximum(W.data, _COT_WEIGHT_FLOOR)
    deg = np.asarray(W.sum(axis=1)).ravel()
    return sp.diags(deg) - W


def point_segment_distances(points, seg_starts, seg_ends):
    """Distances and closest points from each point to each segment.

    Returns (dist (N, B), closest (N, B, 3)).
    """
    points = np.asarray(points, dtype=np.float64)
    a = np.asarray(seg_starts, dtype=np.float64)
    d = np.asarray(seg_ends, dtype=np.float64) - a
    len2 = np.einsum("bi,bi->b", d, d)
    rel = points[:, None, :] - a[None, :, :]
    t = np.einsum("nbi,bi->nb", rel, d) / np.maximum(len2, 1e-30)
    t = np.clip(t, 0.0, 1.0)
    closest = a[None, :, :] + t[..., None] * d[None, :, :]
    dist = np.linalg.norm(points[:, None, :] - closest, axis=2)
    return dist, closest


# Working-set bounds of the visibility pass: rays are cut into pieces, at most
# _PIECE_BUDGET pieces are looked up in the grid at a time, and their pairs go
# through the Moller-Trumbore test in slices of at most _PAIR_BLOCK. On the
# 2,146- and 5,138-vertex bent limbs, 1024 pieces take about 10 % less time
# than 512; 2048 pieces save about 5 % more but raise the traced peak of the
# 5,138-vertex pass from 2.4 to 3.1 MB, and 4096-pair slices save about 3 %
# for 0.3 MB more.
_PIECE_BUDGET = 1024
_PAIR_BLOCK = 2048
# Grid cells per axis are capped so that a few tiny faces cannot blow up the
# number of pieces per ray; the cap also keeps every cell key below 2**31.
_MAX_CELLS_PER_AXIS = 1024
# Cell edge as a multiple of the mean face box extent.
_CELL_PER_EXTENT = 1.5
# Cell offsets of the 2 x 2 x 2 block a ray piece's box can touch.
_PIECE_OFFSETS = np.array([(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
# _REACHED[span @ _AXIS_BITS, o]: whether offset o is within a piece's cell
# span, 0 or 1 per axis (_PIECE_OFFSETS[span @ _AXIS_BITS] is the span itself)
_AXIS_BITS = np.array([4, 2, 1])
_REACHED = np.all(_PIECE_OFFSETS[None, :, :] <= _PIECE_OFFSETS[:, None, :], axis=2)


@dataclass(frozen=True)
class _FaceGrid:
    """Uniform grid over a mesh's faces, stored as a sparse table of occupied cells.

    cell_keys holds the sorted linear keys of the C occupied cells, and
    cell_faces[starts[i]:starts[i + 1]] the faces of cell i (CSR layout). A
    face whose padded box spans more than 3 cells on an axis is not put in
    the cells but in the extra list i = C, which every ray tests, so the
    table holds at most 27 entries per face.
    """

    lo: np.ndarray
    hi: np.ndarray
    cell: float
    pad: float
    dims: np.ndarray
    cell_keys: np.ndarray
    starts: np.ndarray
    cell_faces: np.ndarray


def _face_grid(vertices, faces) -> _FaceGrid:
    """Bucket faces into cubic cells of 1.5 times the mean face box extent."""
    lo = vertices.min(axis=0)
    hi = vertices.max(axis=0)
    fmin = np.minimum(np.minimum(vertices[faces[:, 0]], vertices[faces[:, 1]]),
                      vertices[faces[:, 2]])
    fmax = np.maximum(np.maximum(vertices[faces[:, 0]], vertices[faces[:, 1]]),
                      vertices[faces[:, 2]])
    cell = max(_CELL_PER_EXTENT * float((fmax - fmin).max(axis=1).mean()),
               float((hi - lo).max()) / _MAX_CELLS_PER_AXIS, 1e-12)
    # the pad makes both the face boxes and the piece boxes conservative
    pad = 1e-4 * cell
    dims = np.floor((hi - lo) / cell).astype(np.int64) + 2
    c_lo = np.clip(np.floor((fmin - pad - lo) / cell), 0, dims - 1).astype(np.int64)
    span = np.clip(np.floor((fmax + pad - lo) / cell), 0, dims - 1).astype(np.int64) - c_lo
    del fmin, fmax
    gridded = np.all(span <= 2, axis=1)
    shift = len(faces).bit_length()  # entry = cell key << shift | face
    entries = []
    for offset in np.ndindex(3, 3, 3):
        sel = np.flatnonzero(gridded & np.all(span >= offset, axis=1))
        c = c_lo[sel] + offset
        entries.append((((c[:, 0] * dims[1] + c[:, 1]) * dims[2] + c[:, 2]) << shift) | sel)
    entries = np.concatenate(entries)
    entries.sort(kind="stable")
    keys = entries >> shift
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    large = np.flatnonzero(~gridded)
    return _FaceGrid(
        lo=lo, hi=hi, cell=cell, pad=pad, dims=dims, cell_keys=keys[first],
        starts=np.concatenate([first, [len(entries), len(entries) + len(large)]]),
        cell_faces=np.concatenate([entries & ((1 << shift) - 1), large]).astype(np.int32),
    )


def _sorted_distinct(keys):
    """The distinct entries of a nonnegative int64 array, sorted; keys is sorted in place.

    The keys arrive mostly in ray order, which the stable sort (timsort) runs
    through faster than the quicksort of np.unique: the pass takes 0.53 s
    instead of 0.69 s on the 5,138-vertex bent limb.
    """
    keys.sort(kind="stable")
    return keys[np.diff(keys, prepend=-1) != 0]


def _candidate_pairs(grid, rays, t_exit, pieces, cum, piece, shift):
    """Sorted distinct keys ray << shift | face of the (ray, face) candidates of pieces.

    Ray r runs from its origin rays[r, :3] to rays[r, :3] + t_exit[r] *
    rays[r, 3:] (its part inside the padded grid box) in pieces[r] equal
    pieces, each no longer than 0.99 cells, so a piece's padded box lies in
    the 2 x 2 x 2 cells from its lower corner's cell; every piece also takes
    the list of large faces. Pieces are numbered across rays (cum =
    cumsum(pieces)).
    """
    n_cells = len(grid.cell_keys)
    ray = np.searchsorted(cum, piece, side="right")
    k = pieces[ray]
    j = piece - (cum[ray] - k)
    own, t = rays[ray], t_exit[ray]
    origin, direction = own[:, :3], own[:, 3:]
    a = origin + (t * j / k)[:, None] * direction
    b = origin + (t * (j + 1) / k)[:, None] * direction
    del own, origin, direction, t
    c0 = np.clip(np.floor((np.minimum(a, b) - grid.pad - grid.lo) / grid.cell),
                 0, grid.dims - 2).astype(np.int64)
    c1 = np.clip(np.floor((np.maximum(a, b) + grid.pad - grid.lo) / grid.cell),
                 0, grid.dims - 1).astype(np.int64)
    del a, b
    base = (c0[:, 0] * grid.dims[1] + c0[:, 1]) * grid.dims[2] + c0[:, 2]
    step = (_PIECE_OFFSETS[:, 0] * grid.dims[1] + _PIECE_OFFSETS[:, 1]) * grid.dims[2] \
        + _PIECE_OFFSETS[:, 2]
    # of the 2 x 2 x 2 block, only the cells the piece's padded box reaches:
    # c1 - c0 is 0 or 1 per axis, since the box is shorter than a cell
    reach = _REACHED[(c1 - c0) @ _AXIS_BITS]
    keys = (base[:, None] + step[None, :])[reach]
    owner = np.repeat(ray, np.count_nonzero(reach, axis=1))
    pos = np.searchsorted(grid.cell_keys, keys)
    found = grid.cell_keys.take(pos, mode="clip") == keys
    # distinct (ray, cell) slots ray << cell_shift | cell; cell C is the
    # large-face list
    cell_shift = (n_cells + 1).bit_length()
    slot = _sorted_distinct(np.concatenate([((owner << cell_shift) | pos)[found],
                                            (ray << cell_shift) | n_cells]))
    ray = slot >> cell_shift
    cell = slot & ((1 << cell_shift) - 1)
    first = grid.starts[cell]
    counts = grid.starts[cell + 1] - first
    at = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    return _sorted_distinct((np.repeat(ray, counts) << shift) | grid.cell_faces[at])


def _face_table(vertices, faces):
    """(F, 9) rows v0, e1 = v1 - v0, e2 = v2 - v0: each face's Moller-Trumbore operands."""
    v0 = vertices[faces[:, 0]]
    return np.hstack([v0, vertices[faces[:, 1]] - v0, vertices[faces[:, 2]] - v0])


def _dot(ax, ay, az, bx, by, bz):
    """Dot products of vectors given by components, summed as (x + z) + y.

    That is the order in which numpy's einsum("fi,fi->f") sums rows of 3 on
    x86-64 (a two-lane SIMD sum), so the values equal those of the brute-force
    per-ray test, which uses einsum.
    """
    return (ax * bx + az * bz) + ay * by


def _test_pairs(faces, table, rays, keys, shift, blocked):
    """Set blocked[r] for each key r << shift | f whose ray r crosses face f.

    Pairs whose ray is already blocked or whose face is incident to the ray's
    vertex r are dropped first. The rest gather their face's row of table
    (_face_table) and their ray's row of rays (origin, direction) and run
    Moller-Trumbore with the products, sums, order and thresholds of the
    brute-force per-ray test, so every pair gets the same result.
    """
    r = keys >> shift
    f = keys & ((1 << shift) - 1)
    corner = faces[f]
    keep = ~blocked[r] & (corner[:, 0] != r) & (corner[:, 1] != r) & (corner[:, 2] != r)
    del corner
    r, f = r[keep], f[keep]
    ox, oy, oz, dx, dy, dz = rays[r].T
    v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z = table[f].T
    hx = dy * e2z - dz * e2y
    hy = dz * e2x - dx * e2z
    hz = dx * e2y - dy * e2x
    det = _dot(e1x, e1y, e1z, hx, hy, hz)
    ok = np.abs(det) > 1e-14
    inv = 1.0 / np.where(ok, det, 1.0)
    sx, sy, sz = ox - v0x, oy - v0y, oz - v0z
    u = inv * _dot(sx, sy, sz, hx, hy, hz)
    qx = sy * e1z - sz * e1y
    qy = sz * e1x - sx * e1z
    qz = sx * e1y - sy * e1x
    v = inv * _dot(dx, dy, dz, qx, qy, qz)
    t = inv * _dot(e2x, e2y, e2z, qx, qy, qz)
    eps = 1e-9
    hit = (
        ok
        & (u > eps)
        & (v > eps)
        & (u + v < 1.0 - eps)
        & (t > 1e-7)
        & (t < 1.0 - 1e-7)
    )
    blocked[r[hit]] = True


def _blocked_rays(vertices, faces, grid, table, targets):
    """(N,) bool: True where the open segment vertices[n]->targets[n] crosses a face.

    Faces incident to vertex n are skipped, a ray shorter than 1e-12 is never
    blocked, and grazing or numerically ambiguous hits do not count.
    """
    shift = len(faces).bit_length()
    # each ray's row: origin, then direction
    rays = np.empty((len(vertices), 6))
    rays[:, :3] = vertices
    directions = rays[:, 3:]
    np.subtract(targets, vertices, out=directions)
    length = np.linalg.norm(directions, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        exits = np.where(directions > 0, (grid.hi + grid.pad - vertices) / directions,
                         np.where(directions < 0, (grid.lo - grid.pad - vertices) / directions,
                                  np.inf))
    t_exit = np.minimum(exits.min(axis=1), 1.0)
    del exits
    pieces = np.where(length < 1e-12, 0,
                      np.maximum(np.ceil(t_exit * length / (0.99 * grid.cell)), 1)
                      ).astype(np.int64)
    cum = np.cumsum(pieces)
    blocked = np.zeros(len(vertices), dtype=bool)
    total = int(cum[-1])
    for first in range(0, total, _PIECE_BUDGET):
        piece = np.arange(first, min(first + _PIECE_BUDGET, total))
        pairs = _candidate_pairs(grid, rays, t_exit, pieces, cum, piece, shift)
        for at in range(0, len(pairs), _PAIR_BLOCK):
            _test_pairs(faces, table, rays, pairs[at:at + _PAIR_BLOCK], shift, blocked)
    return blocked


def nearest_visible_bones(mesh: TriMesh, skeleton: Skeleton):
    """Per-vertex anchor assignment to the nearest unoccluded bone segment.

    Returns (anchors (N, B), dist (N,)): anchors holds 1 at each vertex's
    nearest visible bone (split evenly across exact distance ties, so
    symmetric geometry yields symmetric weights) and dist the anchored
    distance. A bone is visible from a vertex when the segment to its closest
    point on the bone crosses no face, by Moller-Trumbore with grazing hits
    and the faces incident to the vertex left out; when every candidate is
    occluded the nearest bone wins anyway (open meshes must keep a heat
    source).

    Visibility is one batched pass per bone over all N rays. The faces sit in
    a uniform grid kept as a sparse table (sorted keys of the occupied cells
    with CSR face lists, at most 27 entries per face; a face spanning more
    cells goes to a list every ray tests), so the grid takes O(F) memory
    whatever the face sizes. Each ray is cut into pieces shorter than a cell,
    each piece looks up the (at most 8) cells its padded box reaches, and the
    distinct (ray, face) pairs go through Moller-Trumbore in slices of at most
    _PAIR_BLOCK. A pair reads its face from an (F, 9) table of v0, e1 and e2
    built once per call and its ray's origin and direction from one row;
    pairs of rays already blocked and of faces incident to the ray's vertex
    are dropped before the test, which forms its cross and dot products
    component by component.
    Time is O(F log F) for the grid plus, per bone, O(P log C + K log K) for
    P pieces, C occupied cells and K candidate pairs, instead of the O(N * F)
    of testing every face; the working set beyond O(N * B + F) is fixed by
    _PIECE_BUDGET and _PAIR_BLOCK.
    """
    seg_a = skeleton.joints[skeleton.bone_parent_joints]
    seg_b = skeleton.joints[skeleton.bone_joints]
    vertices, faces = mesh.vertices, mesh.faces
    n_verts, n_bones = len(vertices), skeleton.num_bones
    dist = np.empty((n_verts, n_bones))
    open_ = np.ones((n_verts, n_bones), dtype=bool)
    test_rays = len(faces) > 0
    grid = _face_grid(vertices, faces) if test_rays else None
    table = _face_table(vertices, faces) if test_rays else None
    for b in range(n_bones):  # one bone at a time: no (N, B, 3) array is formed
        d, closest = point_segment_distances(vertices, seg_a[b:b + 1], seg_b[b:b + 1])
        dist[:, b] = d[:, 0]
        if test_rays:
            open_[:, b] = ~_blocked_rays(vertices, faces, grid, table, closest[:, 0])
        del d, closest
    del grid, table
    # first visible bone in distance order, else the nearest one; flat indices
    # (vertex * B + bone) keep to one-dimensional gathers
    order = np.argsort(dist, axis=1, kind="stable")
    rows = np.arange(n_verts) * n_bones
    visible = order[:, 0]
    if test_rays:
        seen = np.zeros(n_verts, dtype=bool)
        for rank in range(n_bones):
            first = ~seen & open_.ravel()[rows + order[:, rank]]
            visible = np.where(first, order[:, rank], visible)
            seen |= first
    flat = rows + visible
    picked = dist.ravel()[flat]
    tied = open_ & (dist <= (picked + 1e-9 * np.maximum(picked, 1.0))[:, None])
    tied.ravel()[flat] = True
    return tied / tied.sum(axis=1, keepdims=True), picked


_HEAT_COEFFICIENT = 1.0


def heat_diffusion_skinning(mesh: TriMesh, skeleton: Skeleton) -> SkinWeights:
    """Bone-heat skinning: per bone solve (L + H) w_b = H p_b on the mesh.

    L is the clamped cotangent Laplacian. H is diagonal with
    _HEAT_COEFFICIENT / d(i)^2 where d(i) is vertex i's distance to its
    nearest visible bone segment, and p_b is the indicator of that nearest
    bone being b (ties split evenly). Assembled rows are clamped to >= 0 and
    normalized to sum 1.
    """
    if mesh.num_vertices < 4:
        raise ValueError("heat diffusion needs at least 4 vertices")
    if skeleton.num_bones < 1:
        raise ValueError("skeleton has no bones")
    B = skeleton.num_bones
    n = mesh.num_vertices
    if B == 1:
        return SkinWeights(np.ones((n, 1)))

    # The returned weights are allocated first and filled in place. Made after
    # the solve, they sit amid the sparse factor's freed memory, and a caller
    # that keeps each result splits that region again on every call: keeping
    # 24 results of the 2,146- and 5,138-vertex limbs then peaks 5 MB higher.
    cols = np.zeros((n, B))
    anchors, dist = nearest_visible_bones(mesh, skeleton)
    floor = max(1e-8 * bbox_diagonal(mesh), 1e-12)
    heat = _HEAT_COEFFICIENT / np.maximum(dist, floor) ** 2

    A = (cotangent_laplacian(mesh) + sp.diags(heat)).tocsc()
    try:
        solver = spla.factorized(A)
    except Exception:
        solver = None
        warnings.warn("heat system is singular; using one-hot nearest-bone weights")
    for b in range(B):
        rhs = heat * anchors[:, b]
        if solver is None:
            cols[:, b] = anchors[:, b]
            continue
        w = solver(rhs)
        if not np.all(np.isfinite(w)):
            warnings.warn(f"heat solve for bone {b} failed; using one-hot fallback")
            w = anchors[:, b]
        cols[:, b] = w
    np.maximum(cols, 0.0, out=cols)
    sums = cols.sum(axis=1)
    dead = sums <= 0.0
    if np.any(dead):
        warnings.warn(
            f"{int(dead.sum())} vertices received no heat; binding them to the nearest bone"
        )
        dead_idx = np.flatnonzero(dead)
        cols[dead_idx, np.argmax(anchors[dead_idx], axis=1)] = 1.0
        sums = cols.sum(axis=1)
    np.divide(cols, sums[:, None], out=cols)
    return SkinWeights(cols)


# --- JSON wire format --------------------------------------------------------


def weights_to_dict(weights: SkinWeights):
    return {
        "num_vertices": weights.num_vertices,
        "num_bones": weights.num_bones,
        "rows": [[float(w) for w in row] for row in weights.weights],
    }


def weights_from_dict(data) -> SkinWeights:
    shape = (json_index(data["num_vertices"], "num_vertices"),
             json_index(data["num_bones"], "num_bones"))
    rows = np.array(data["rows"], dtype=np.float64)
    if rows.size == 0:
        rows = rows.reshape(0, shape[1])
    if rows.shape != shape:
        raise ValueError("weights rows do not match the declared dimensions")
    return SkinWeights(rows)


def save_weights(weights: SkinWeights, path):
    # json.dumps runs the C encoder; json.dump streams through the Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(weights_to_dict(weights), sort_keys=True))


def load_weights(path) -> SkinWeights:
    with open(path) as fh:
        return weights_from_dict(json.load(fh))
