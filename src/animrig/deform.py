"""Linear blend skinning and geometric evaluation metrics.

The metrics are mean-reduced so their magnitudes do not scale with mesh
resolution: uniform-Laplacian smoothness and dynamic rigidity, the
rigid-invariant edge-length change between frames.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
# perfbench/layertrace.py wraps animrig.deform:cKDTree, so the name stays importable
from scipy.spatial import cKDTree  # noqa: F401

from .geometry import TriMesh, save_mesh
from .skeleton import RigidTransform
from .skinning import SkinWeights


@dataclass(frozen=True)
class DeformedMesh:
    """Posed copy of a canonical mesh: same topology, new vertex positions."""

    base: TriMesh
    vertices: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        if vertices.shape != self.base.vertices.shape:
            raise ValueError("deformed vertices must match the base mesh shape")
        vertices.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)

    @property
    def faces(self):
        return self.base.faces

    def as_mesh(self) -> TriMesh:
        return self.base.with_vertices(self.vertices)


def blend_skin_arrays(points, weights, rotations, translations):
    """Core weighted-transform blend: used by both the API and the fitter."""
    M = np.einsum("nb,bij->nij", weights, rotations)
    offs = weights @ translations
    return np.einsum("nij,nj->ni", M, points) + offs


def blend_skin(
    canonical: TriMesh,
    weights: SkinWeights,
    root: RigidTransform,
    bone_transforms,
    frame_index: int = 0,
) -> DeformedMesh:
    """Pose a mesh by blending bone transforms per vertex, then applying the root.

    bone_transforms is the (R_world, t_world) pair forward_kinematics returns:
    rotations (B, 3, 3) and translations (B, 3), one per weight column. Each
    canonical vertex is moved by the weight-blended bone transform matrix and
    the root transform is applied last.
    """
    if weights.num_vertices != canonical.num_vertices:
        raise ValueError(
            f"weights have {weights.num_vertices} rows for {canonical.num_vertices} vertices"
        )
    try:
        R, t = (np.asarray(a, dtype=np.float64) for a in bone_transforms)
    except (TypeError, ValueError):
        raise ValueError("bone_transforms must be a (rotations, translations) array pair") from None
    B = weights.num_bones
    if R.shape != (B, 3, 3) or t.shape != (B, 3):
        raise ValueError(
            f"weights have {B} bones: expected rotations ({B}, 3, 3) and translations ({B}, 3), "
            f"got {R.shape} and {t.shape}"
        )
    blended = blend_skin_arrays(canonical.vertices, weights.weights, R, t)
    return DeformedMesh(canonical, root.apply(blended), frame_index)


def laplacian_loss(mesh) -> float:
    """Mean squared uniform-Laplacian residual; isolated vertices contribute 0."""
    if isinstance(mesh, DeformedMesh):
        base, points = mesh.base, mesh.vertices
    else:
        base, points = mesh, mesh.vertices
    residual = base.uniform_laplacian @ points
    return float(np.mean(np.einsum("ni,ni->n", residual, residual)))


def dynamic_rigidity_loss(curr: DeformedMesh, prev: DeformedMesh) -> float:
    """Mean squared change in edge length between two frames of one base mesh.

    An evaluation metric that vanishes whenever curr is a rigid motion of
    prev; the fit's rigidity term is the edge-vector change (see fitting).
    """
    if curr.base is not prev.base and not (
        curr.base.vertices.shape == prev.base.vertices.shape
        and np.array_equal(curr.base.faces, prev.base.faces)
    ):
        raise ValueError("dynamic rigidity requires frames of the same base mesh")
    edges = curr.base.edges
    if not len(edges):
        return 0.0
    i, j = edges[:, 0], edges[:, 1]
    len_curr = np.linalg.norm(curr.vertices[i] - curr.vertices[j], axis=1)
    len_prev = np.linalg.norm(prev.vertices[i] - prev.vertices[j], axis=1)
    return float(np.mean((len_curr - len_prev) ** 2))


def export_frame_meshes(frames, out_dir):
    """Write a deformed sequence as frame_0000.obj, frame_0001.obj, ..."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k, frame in enumerate(frames):
        mesh = frame.as_mesh() if isinstance(frame, DeformedMesh) else frame
        path = os.path.join(out_dir, f"frame_{k:04d}.obj")
        save_mesh(mesh, path)
        paths.append(path)
    return paths
