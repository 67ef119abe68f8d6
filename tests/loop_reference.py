"""Per-point and per-line references for skeleton embedding and mesh I/O.

These are the loops that `retarget` and `geometry` ran before they were
batched: a bucketing of triangles into voxel columns one face and one column
at a time, a parity voxelizer that casts one voxel column at a time and a
layer-by-layer breadth-first surface distance, an interior lookup per sample
point of a bone segment, an OBJ reader that converts every line as it reads
it, and an f-string writer per vertex and face. The batched code must give
bit-identical results and byte-identical files, and raise the same errors.
"""

import math

import numpy as np

from animrig.geometry import MeshFormatError, TriMesh, UnsupportedTopologyError
from animrig.retarget import InteriorField


def reference_column_buckets(tri2d, origin, voxel, dims):
    """{(j, k): face ids} of the (y, z) voxel columns each triangle's bbox covers."""
    ylo = np.floor((tri2d[:, :, 0].min(axis=1) - origin[1]) / voxel).astype(int)
    yhi = np.floor((tri2d[:, :, 0].max(axis=1) - origin[1]) / voxel).astype(int)
    zlo = np.floor((tri2d[:, :, 1].min(axis=1) - origin[2]) / voxel).astype(int)
    zhi = np.floor((tri2d[:, :, 1].max(axis=1) - origin[2]) / voxel).astype(int)
    buckets = {}
    for f in range(len(tri2d)):
        for j in range(max(ylo[f], 0), min(yhi[f], dims[1] - 1) + 1):
            for k in range(max(zlo[f], 0), min(zhi[f], dims[2] - 1) + 1):
                buckets.setdefault((j, k), []).append(f)
    return buckets


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


def reference_interior_field(mesh, resolution):
    """build_interior_field one voxel column at a time, then a breadth-first
    (6-neighbor) layer count from the non-interior voxels."""
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

    tris = mesh.vertices[mesh.faces]
    tri2d = tris[:, :, 1:]
    tri_x = tris[:, :, 0]
    interior = np.zeros(tuple(dims), dtype=bool)
    x_centers = origin[0] + (np.arange(dims[0]) + 0.5) * voxel
    for (j, k), ids in reference_column_buckets(tri2d, origin, voxel, dims).items():
        py = origin[1] + (j + 0.5) * voxel
        pz = origin[2] + (k + 0.5) * voxel
        crossings = None
        for attempt in range(6):
            off = (attempt * 0.137) * 1e-3 * voxel
            crossings = _column_crossings(py + off, pz + 1.61 * off, tri2d[ids], tri_x[ids])
            if crossings is not None:
                break
        if crossings is None or len(crossings) < 2:
            continue
        counts = np.searchsorted(crossings, x_centers)
        interior[:, j, k] = (counts % 2) == 1

    if not interior.any():
        raise ValueError(
            f"no interior voxels at resolution {resolution}; "
            "the mesh may be open or the resolution too coarse"
        )

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


def reference_contains(field, point):
    """True when the point falls in an interior voxel, one point at a time."""
    idx = np.floor((np.asarray(point) - field.origin) / field.voxel_size).astype(int)
    if np.any(idx < 0) or np.any(idx >= np.array(field.dims)):
        return False
    return bool(field.interior[tuple(idx)])


def reference_exit_fraction(field, a, b):
    """Fraction of sample points on segment a-b lying outside interior voxels."""
    length = np.linalg.norm(b - a)
    n = max(int(np.ceil(length / (0.5 * field.voxel_size))), 2)
    ts = np.linspace(0.0, 1.0, n)
    pts = a[None, :] * (1 - ts)[:, None] + b[None, :] * ts[:, None]
    outside = sum(0 if reference_contains(field, p) else 1 for p in pts)
    return outside / n


def reference_load_mesh(path):
    """Read a `v x y z` / `f i j k` mesh file, converting each line as it is read."""
    vertices = []
    faces = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            tag = tokens[0]
            if tag == "v":
                if len(tokens) < 4:
                    raise MeshFormatError(f"{path}:{lineno}: vertex line needs 3 coordinates")
                try:
                    vertices.append([float(t) for t in tokens[1:4]])
                except ValueError as exc:
                    raise MeshFormatError(f"{path}:{lineno}: bad vertex coordinate: {exc}") from exc
                if not all(math.isfinite(c) for c in vertices[-1]):
                    raise MeshFormatError(f"{path}:{lineno}: non-finite vertex coordinate")
            elif tag == "f":
                refs = tokens[1:]
                if len(refs) != 3:
                    raise UnsupportedTopologyError(
                        f"{path}:{lineno}: face with {len(refs)} vertices; only triangles are supported"
                    )
                try:
                    idx = [int(r.split("/")[0]) for r in refs]
                except ValueError as exc:
                    raise MeshFormatError(f"{path}:{lineno}: bad face index: {exc}") from exc
                if any(i == 0 for i in idx):
                    raise MeshFormatError(f"{path}:{lineno}: face indices are 1-based")
                faces.append([i - 1 for i in idx])
    if not vertices:
        raise MeshFormatError(f"{path}: no vertex data found")
    try:
        return TriMesh(np.array(vertices), np.array(faces, dtype=np.int64).reshape(-1, 3))
    except ValueError as exc:
        raise MeshFormatError(f"{path}: {exc}") from exc


def reference_save_mesh(mesh, path):
    """Write a mesh one f-string line per vertex and per face."""
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
