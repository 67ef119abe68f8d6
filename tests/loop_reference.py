"""Per-point and per-line references for skeleton embedding and mesh I/O.

These are the loops that `retarget` and `geometry` ran before they were
batched: a bucketing of triangles into voxel columns one face and one column
at a time, an interior lookup per sample point of a bone segment, an OBJ
reader that converts every line as it reads it, and an f-string writer per
vertex and face. The batched code must give bit-identical results and
byte-identical files, and raise the same errors.
"""

import math

import numpy as np

from animrig.geometry import MeshFormatError, TriMesh, UnsupportedTopologyError


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
