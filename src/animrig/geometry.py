"""Triangle meshes: construction, face-induced adjacency, file I/O.

Meshes are stored in raw model units (no normalization on load) and are
immutable after construction, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp


class MeshFormatError(ValueError):
    """A mesh file could not be parsed."""


class UnsupportedTopologyError(ValueError):
    """A mesh file or face array contains non-triangle faces."""


class EmptyInputError(ValueError):
    """An operation that needs data received an empty mesh or point set."""


class TriMesh:
    """Immutable triangle mesh with derived edges and vertex adjacency.

    Non-manifold connectivity is accepted; only non-triangle and degenerate
    faces (repeated vertex indices) are rejected.
    """

    def __init__(self, vertices, faces=()):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        if vertices.size == 0:
            vertices = vertices.reshape(0, 3)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must have shape (N, 3), got {vertices.shape}")
        faces = np.ascontiguousarray(faces, dtype=np.int64)
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise UnsupportedTopologyError(f"faces must have shape (F, 3), got {faces.shape}")
        if len(faces):
            if faces.min() < 0 or faces.max() >= len(vertices):
                raise ValueError("face references a vertex index out of range")
            degen = (
                (faces[:, 0] == faces[:, 1])
                | (faces[:, 1] == faces[:, 2])
                | (faces[:, 2] == faces[:, 0])
            )
            if degen.any():
                raise ValueError(f"degenerate face at index {int(np.argmax(degen))}")
        vertices.setflags(write=False)
        faces.setflags(write=False)
        self.vertices = vertices
        self.faces = faces

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_faces(self):
        return len(self.faces)

    @cached_property
    def edges(self):
        """Unique undirected edges as sorted (i, j) pairs, shape (E, 2)."""
        if not len(self.faces):
            e = np.zeros((0, 2), dtype=np.int64)
        else:
            pairs = np.concatenate(
                [self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [2, 0]]]
            )
            pairs.sort(axis=1)
            e = np.unique(pairs, axis=0)
        e.setflags(write=False)
        return e

    @cached_property
    def vertex_neighbors(self):
        """Tuple of sorted neighbor index tuples, one per vertex."""
        neighbors = [[] for _ in range(self.num_vertices)]
        for i, j in self.edges:
            neighbors[int(i)].append(int(j))
            neighbors[int(j)].append(int(i))
        return tuple(tuple(sorted(n)) for n in neighbors)

    @cached_property
    def uniform_laplacian(self):
        """Sparse I - D^-1 A operator; rows of isolated vertices are zero."""
        n = self.num_vertices
        if not len(self.edges):
            return sp.csr_matrix((n, n))
        i, j = self.edges[:, 0], self.edges[:, 1]
        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
        deg = np.asarray(adj.sum(axis=1)).ravel()
        inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
        has_nb = (deg > 0).astype(np.float64)
        return sp.diags(has_nb) - sp.diags(inv_deg) @ adj

    def with_vertices(self, vertices):
        """New mesh sharing this mesh's faces with replaced vertex positions."""
        vertices = np.asarray(vertices, dtype=np.float64)
        if vertices.shape != self.vertices.shape:
            raise ValueError("replacement vertices must match the original shape")
        return TriMesh(vertices, self.faces)

    def __repr__(self):
        return f"TriMesh({self.num_vertices} vertices, {self.num_faces} faces)"


def load_mesh(path) -> TriMesh:
    """Read a Wavefront-style ASCII triangle mesh (`v x y z` / `f i j k` lines).

    Face indices are 1-based; `i/j/k` vertex references keep the first field.
    Unrecognized line types are ignored. Raises MeshFormatError for malformed
    or empty files and non-finite coordinates, and UnsupportedTopologyError
    for non-triangle faces.
    """
    parsed = _read_tokens(path)
    if parsed is None:
        _raise_line_error(path)
    coords, refs = parsed
    if not coords:
        raise MeshFormatError(f"{path}: no vertex data found")
    vertices = np.array(coords).reshape(-1, 3)
    if not np.isfinite(vertices).all():
        _raise_line_error(path)
    faces = np.array([i - 1 for i in refs], dtype=np.int64).reshape(-1, 3)
    try:
        return TriMesh(vertices, faces)
    except ValueError as exc:
        raise MeshFormatError(f"{path}: {exc}") from exc


def _read_tokens(path):
    """(vertex coordinates, 1-based face references) of a mesh file, both
    flat, or None when a line is malformed.

    Lines are streamed and only the tokens kept; they are converted in bulk.
    """
    coord_tokens = []
    ref_tokens = []
    try:
        with open(path, "r") as fh:
            for line in fh:
                tokens = line.split()
                if not tokens:
                    continue
                tag = tokens[0]
                if tag == "v":
                    if len(tokens) < 4:
                        return None
                    coord_tokens += tokens[1:4]
                elif tag == "f":
                    if len(tokens) != 4:
                        return None
                    ref_tokens += tokens[1:]
        if "/" in "".join(ref_tokens):
            ref_tokens = [r.split("/")[0] for r in ref_tokens]
        refs = list(map(int, ref_tokens))
        coords = list(map(float, coord_tokens))
    except ValueError:  # a bad number, or text that does not decode
        return None
    return None if 0 in refs else (coords, refs)


def _raise_line_error(path):
    """Raise the error of the first malformed line of a mesh file, line by
    line as the file is read; every file that _read_tokens rejects, or whose
    coordinates are not all finite, has one."""
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
                    xyz = list(map(float, tokens[1:4]))
                except ValueError as exc:
                    raise MeshFormatError(f"{path}:{lineno}: bad vertex coordinate: {exc}") from exc
                if not all(map(math.isfinite, xyz)):
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
                if 0 in idx:
                    raise MeshFormatError(f"{path}:{lineno}: face indices are 1-based")


def save_mesh(mesh: TriMesh, path):
    """Write a mesh as `v`/`f` lines with 9 significant digits."""
    with open(path, "w") as fh:
        fh.write("v %.9g %.9g %.9g\n" * mesh.num_vertices % tuple(mesh.vertices.ravel().tolist()))
        fh.write("f %d %d %d\n" * mesh.num_faces % tuple((mesh.faces + 1).ravel().tolist()))


def bbox_diagonal(mesh) -> float:
    """Length of the axis-aligned bounding-box diagonal of a mesh or point set."""
    points = mesh.vertices if hasattr(mesh, "vertices") else np.asarray(mesh, dtype=np.float64)
    if len(points) == 0:
        raise EmptyInputError("bbox_diagonal of an empty mesh")
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
