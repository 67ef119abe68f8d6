import os

import numpy as np
import pytest

from animrig.deform import DeformedMesh, blend_skin, export_frame_meshes
from animrig.fitting import FitConfig, FitRig, FrameObjective
from animrig.geometry import TriMesh, load_mesh
from animrig import rotations as rot
from animrig.skeleton import RigidTransform
from animrig.skinning import SkinWeights
from shapes import chain_skeleton, make_cube, make_grid, make_quad


def random_transform(rng):
    q = rng.normal(size=4)
    return RigidTransform(q / np.linalg.norm(q), rng.normal(size=3))


def random_bones(rng, count):
    """count random rigid bone transforms as (R (count, 3, 3), t (count, 3)) arrays."""
    R, t = [], []
    for _ in range(count):
        q = rng.normal(size=4)
        R.append(rot.quat_to_matrix(q / np.linalg.norm(q)))
        t.append(rng.normal(size=3))
    return np.stack(R), np.stack(t)


def rest_bones(count):
    return np.tile(np.eye(3), (count, 1, 1)), np.zeros((count, 3))


def fit_terms(mesh, prev_vertices=None):
    """The fit's loss terms for a one-bone rig on mesh at rest, where the
    deformed vertices are exactly mesh.vertices."""
    rig = FitRig(mesh, chain_skeleton(2), SkinWeights(np.ones((mesh.num_vertices, 1))))
    theta = rig.rest_parameters()
    assert np.array_equal(rig.deform(theta), mesh.vertices)
    cfg = FitConfig(lambda_global=0, lambda_local=0, lambda_lap=1, lambda_rigid=1)
    return FrameObjective(rig, cfg, mesh.vertices, prev_vertices=prev_vertices).evaluate(theta)[1]


def laplacian_loss(mesh):
    return fit_terms(mesh)["lap"]


def rigidity_loss(curr, prev):
    return fit_terms(curr, prev.vertices)["rigid"]


class TestBlendSkin:
    def test_identity_transforms_reproduce_canonical(self, rng):
        mesh = make_cube()
        w = rng.random((8, 3))
        w /= w.sum(axis=1, keepdims=True)
        out = blend_skin(mesh, SkinWeights(w), RigidTransform.identity(), rest_bones(3))
        assert np.abs(out.vertices - mesh.vertices).max() < 1e-12

    def test_root_translation_only(self, rng):
        mesh = make_cube()
        w = rng.random((8, 2))
        w /= w.sum(axis=1, keepdims=True)
        t = np.array([1.0, -2.0, 0.5])
        out = blend_skin(mesh, SkinWeights(w), RigidTransform((1, 0, 0, 0), t), rest_bones(2))
        assert np.abs(out.vertices - (mesh.vertices + t)).max() < 1e-12

    def test_one_hot_matches_direct_application(self, rng):
        mesh = TriMesh(rng.normal(size=(40, 3)))
        R, t = random_bones(rng, 4)
        root = random_transform(rng)
        assignment = rng.integers(0, 4, size=40)
        w = np.zeros((40, 4))
        w[np.arange(40), assignment] = 1.0
        out = blend_skin(mesh, SkinWeights(w), root, (R, t))
        for n in range(40):
            b = assignment[n]
            direct = root.apply(R[b] @ mesh.vertices[n] + t[b])
            assert np.abs(out.vertices[n] - direct).max() < 1e-12

    def test_linear_in_canonical_positions(self, rng):
        bones = random_bones(rng, 3)
        root = random_transform(rng)
        w = rng.random((20, 3))
        w /= w.sum(axis=1, keepdims=True)
        sw = SkinWeights(w)
        a = rng.normal(size=(20, 3))
        b = rng.normal(size=(20, 3))
        # affine map: f(a) - f(0) is linear, so f(a+b) + f(0) = f(a) + f(b)
        f = lambda pts: blend_skin(TriMesh(pts), sw, root, bones).vertices
        lhs = f(a + b) + f(np.zeros((20, 3)))
        rhs = f(a) + f(b)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_dimension_mismatch(self, rng):
        mesh = make_cube()
        sw = SkinWeights(np.full((8, 2), 0.5))
        root = RigidTransform.identity()
        R, t = rest_bones(2)
        bad_pairs = [
            rest_bones(3),  # more bones than weight columns
            (R, np.zeros((3, 3))),
            (R[0], t[0]),  # one unbatched transform
            (R[:, :2], t),
            R,  # one array, not a pair
            (R, t, t),
            [RigidTransform.identity()] * 2,  # the old per-bone transform list
            [RigidTransform.identity()] * 3,
        ]
        for bones in bad_pairs:
            with pytest.raises(ValueError):
                blend_skin(mesh, sw, root, bones)
        with pytest.raises(ValueError):
            blend_skin(make_quad(), sw, root, rest_bones(2))


class TestLaplacianLoss:
    """The fit's mean squared uniform-Laplacian residual."""

    def test_coincident_vertices_zero(self):
        mesh = TriMesh(np.zeros((3, 3)), [[0, 1, 2]])
        assert laplacian_loss(mesh) == 0.0

    def test_flat_grid_interior_residuals_vanish(self):
        mesh = make_grid(6, 6)
        residual = mesh.uniform_laplacian @ mesh.vertices
        interior = [
            i for i, nbrs in enumerate(mesh.vertex_neighbors)
            if len(nbrs) == 6  # interior vertices of the triangulated grid
        ]
        assert interior
        assert np.abs(residual[interior]).max() < 1e-12

    def test_matches_naive_computation(self, rng):
        mesh = make_cube().with_vertices(rng.normal(size=(8, 3)))
        total = 0.0
        for i, nbrs in enumerate(mesh.vertex_neighbors):
            if not nbrs:
                continue
            mean = np.mean([mesh.vertices[j] for j in nbrs], axis=0)
            total += np.sum((mesh.vertices[i] - mean) ** 2)
        assert abs(laplacian_loss(mesh) - total / 8) < 1e-12

    def test_isolated_vertices_contribute_zero(self):
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [9.0, 9.0, 9.0]], [[0, 1, 2]])
        connected = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        assert abs(laplacian_loss(mesh) * 4 - laplacian_loss(connected) * 3) < 1e-12


class TestDynamicRigidity:
    """The fit's mean squared change of each edge vector from the previous frame."""

    def test_equal_frames_zero(self, rng):
        v = rng.normal(size=(8, 3))
        a = make_cube().with_vertices(v)
        b = make_cube().with_vertices(v.copy())
        assert rigidity_loss(a, b) == 0.0

    def test_uniform_scale_unit_edges(self):
        # equilateral triangle with unit edges, scaled by s: every edge term (s-1)^2
        s = 1.3
        tri = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, np.sqrt(3) / 2, 0]])
        prev = TriMesh(tri, [[0, 1, 2]])
        curr = prev.with_vertices(tri * s)
        assert abs(rigidity_loss(curr, prev) - (s - 1.0) ** 2) < 1e-12

    def test_invariant_to_common_rigid_transform(self, rng):
        mesh = make_cube()
        a = mesh.with_vertices(rng.normal(size=(8, 3)))
        b = mesh.with_vertices(rng.normal(size=(8, 3)))
        base = rigidity_loss(b, a)
        t = random_transform(rng)
        moved = rigidity_loss(mesh.with_vertices(t.apply(b.vertices)),
                              mesh.with_vertices(t.apply(a.vertices)))
        assert abs(base - moved) < 1e-10

    def test_nonnegative(self, rng):
        mesh = make_cube()
        for _ in range(5):
            a = mesh.with_vertices(rng.normal(size=(8, 3)))
            b = mesh.with_vertices(rng.normal(size=(8, 3)))
            assert rigidity_loss(b, a) >= 0.0


class TestDeformedMesh:
    def test_shape_check(self):
        with pytest.raises(ValueError):
            DeformedMesh(make_cube(), np.zeros((4, 3)))

    def test_export_names(self, tmp_path, rng):
        mesh = make_quad()
        frames = [DeformedMesh(mesh, mesh.vertices + k, k) for k in range(3)]
        paths = export_frame_meshes(frames, str(tmp_path))
        assert [os.path.basename(p) for p in paths] == [
            "frame_0000.obj", "frame_0001.obj", "frame_0002.obj"
        ]
        again = load_mesh(paths[2])
        assert np.abs(again.vertices - frames[2].vertices).max() < 1e-6
