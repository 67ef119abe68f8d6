import numpy as np
import pytest
import scipy.sparse as sp

from animrig.geometry import TriMesh
from animrig.skeleton import Skeleton
from animrig.skinning import (
    EllipsoidBones,
    SkinWeights,
    cotangent_laplacian,
    ellipsoids_from_skeleton,
    gaussian_skinning,
    heat_diffusion_skinning,
    nearest_visible_bones,
    part_decompose,
    point_segment_distances,
    weights_from_dict,
    weights_to_dict,
)
from shapes import chain_skeleton, limb_rig, make_capsule
from visibility_oracle import oracle_nearest_visible_bones


def isotropic_bones(centers, sigma=1.0):
    centers = np.asarray(centers, dtype=np.float64)
    B = len(centers)
    return EllipsoidBones(
        centers,
        np.tile(np.eye(3), (B, 1, 1)),
        np.full((B, 3), 1.0 / sigma**2),
    )


class TestSkinWeights:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SkinWeights(np.array([[0.5, 0.4]]))

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            SkinWeights(np.array([[1.5, -0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SkinWeights(np.array([[bad, 1.0], [0.5, 0.5]]))

    def test_json_roundtrip(self, rng):
        w = rng.random((5, 3))
        w /= w.sum(axis=1, keepdims=True)
        again = weights_from_dict(weights_to_dict(SkinWeights(w)))
        assert np.abs(again.weights - w).max() < 1e-15

    def test_json_dimension_check(self):
        with pytest.raises(ValueError):
            weights_from_dict({"num_vertices": 3, "num_bones": 2, "rows": [[1.0, 0.0]]})


class TestGaussianSkinning:
    def test_single_bone_all_ones(self, rng):
        pts = rng.normal(size=(10, 3))
        w = gaussian_skinning(TriMesh(pts), isotropic_bones([[0, 0, 0]]))
        assert np.array_equal(w.weights, np.ones((10, 1)))

    def test_vertex_at_center_dominates(self):
        bones = isotropic_bones([[0, 0, 0], [6.0, 0, 0]])
        w = gaussian_skinning(TriMesh([[0.0, 0.0, 0.0]]), bones)
        # closed form: exp(0) vs exp(-18)
        expected = 1.0 / (1.0 + np.exp(-18.0))
        assert w.weights[0, 0] > 0.99
        assert abs(w.weights[0, 0] - expected) < 1e-12

    def test_equidistant_splits_evenly(self):
        bones = isotropic_bones([[-1.0, 0, 0], [1.0, 0, 0]])
        w = gaussian_skinning(TriMesh([[0.0, 0.5, 0.2]]), bones)
        assert np.abs(w.weights[0] - 0.5).max() < 1e-12

    def test_underflow_falls_back_to_nearest_center(self):
        bones = isotropic_bones([[0, 0, 0], [5.0, 0, 0]], sigma=0.05)
        with pytest.warns(UserWarning):
            w = gaussian_skinning(TriMesh([[1000.0, 0.0, 0.0]]), bones)
        assert np.array_equal(w.weights[0], [0.0, 1.0])

    def test_rigid_motion_invariance(self, rng):
        pts = rng.normal(size=(40, 3))
        centers = rng.normal(size=(3, 3))
        orient = np.stack([np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(3)])
        orient *= np.sign(np.linalg.det(orient))[:, None, None]
        scales = rng.uniform(0.5, 3.0, size=(3, 3))
        bones = EllipsoidBones(centers, orient, scales)
        w0 = gaussian_skinning(TriMesh(pts), bones)

        R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        R *= np.sign(np.linalg.det(R))
        t = rng.normal(size=3)
        moved = EllipsoidBones(
            centers @ R.T + t, np.einsum("bij,kj->bik", orient, R), scales
        )
        w1 = gaussian_skinning(TriMesh(pts @ R.T + t), moved)
        assert np.abs(w1.weights - w0.weights).max() < 1e-9

    def test_row_stochastic(self, rng):
        pts = rng.normal(size=(50, 3)) * 2
        bones = isotropic_bones(rng.normal(size=(4, 3)))
        w = gaussian_skinning(TriMesh(pts), bones)
        assert np.all(w.weights >= 0)
        assert np.abs(w.weights.sum(axis=1) - 1).max() < 1e-6


class TestEllipsoidBones:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            EllipsoidBones(np.zeros((1, 3)), np.ones((1, 3, 3)), np.ones((1, 3)))

    def test_precision_matrices(self):
        bones = isotropic_bones([[0, 0, 0]], sigma=2.0)
        assert np.allclose(bones.precision_matrices()[0], np.eye(3) / 4.0)

    def test_from_skeleton(self):
        skel = chain_skeleton(3, length=2.0)
        bones = ellipsoids_from_skeleton(skel)
        assert bones.num_bones == 2
        assert np.allclose(bones.centers, [[1.0, 0, 0], [3.0, 0, 0]])
        gram = np.einsum("bij,bkj->bik", bones.orientations, bones.orientations)
        assert np.abs(gram - np.eye(3)).max() < 1e-12


class TestHeatDiffusion:
    def test_single_bone_all_ones(self, rng):
        mesh, skel3 = limb_rig(rings=6, sides=6)
        single = chain_skeleton(2, length=3.0)
        w = heat_diffusion_skinning(mesh, single)
        assert np.array_equal(w.weights, np.ones((mesh.num_vertices, 1)))

    def test_capsule_caps_and_midline(self, capsule_rig, capsule_heat_weights):
        mesh, _ = capsule_rig
        w = capsule_heat_weights.weights
        x = mesh.vertices[:, 0]
        assert w[x < 0.2, 0].min() > 0.9
        assert w[x > 2.8, 1].min() > 0.9
        midline = w[np.abs(x - 1.5) < 1e-9]
        assert len(midline)
        assert np.abs(midline - 0.5).max() < 1e-6

    def test_capsule_matches_dense_direct_solve(self, capsule_rig, capsule_heat_weights):
        mesh, skel = capsule_rig
        anchors, dist = nearest_visible_bones(mesh, skel)
        heat = 1.0 / np.maximum(dist, 1e-8) ** 2
        dense = np.linalg.solve(
            cotangent_laplacian(mesh).toarray() + np.diag(heat), heat[:, None] * anchors
        )
        dense = np.maximum(dense, 0.0)
        dense /= dense.sum(axis=1, keepdims=True)
        assert np.abs(dense - capsule_heat_weights.weights).max() < 1e-8

    def test_three_bone_limb_contiguous_bands(self, small_limb):
        mesh, skel, weights = small_limb
        labels = part_decompose(weights).labels
        order = np.argsort(mesh.vertices[:, 0])
        assert np.all(np.diff(labels[order]) >= 0)
        assert set(labels.tolist()) == {0, 1, 2}

    def test_column_max_at_owned_vertex(self, capsule_rig, capsule_heat_weights):
        mesh, skel = capsule_rig
        anchors, _ = nearest_visible_bones(mesh, skel)
        w = capsule_heat_weights.weights
        for b in range(skel.num_bones):
            top = int(np.argmax(w[:, b]))
            assert anchors[top, b] > 0

    def test_rows_sum_to_one(self, capsule_heat_weights):
        w = capsule_heat_weights.weights
        assert np.all(w >= 0)
        assert np.abs(w.sum(axis=1) - 1).max() < 1e-6

    def test_needs_four_vertices(self):
        with pytest.raises(ValueError):
            heat_diffusion_skinning(TriMesh(np.zeros((2, 3))), chain_skeleton(2))

    def test_visibility_skips_occluded_bone(self):
        # a wall of the mesh sits between the test vertex and the nearer bones;
        # the bridge bones of the tree detour far away in +y
        verts = [
            [0.0, 0.0, 0.0], [0.2, 0.05, 0.0], [0.1, -0.05, 0.05],  # patch with the vertex
            # wall; z range offset so no triangle edge crosses the ray exactly
            [1.0, -2.0, -2.5], [1.0, 2.0, -2.5], [1.0, 2.0, 1.5], [1.0, -2.0, 1.5],
        ]
        faces = [[0, 1, 2], [3, 4, 5], [3, 5, 6]]
        mesh = TriMesh(verts, faces)
        joints = np.array(
            [
                [2.0, -0.5, 0.0],   # root
                [2.0, 0.5, 0.0],    # bone 0: nearest (d=2.0) but behind the wall
                [2.0, 40.0, 0.0],   # bone 1: d~2.06, also behind the wall
                [-3.0, 40.0, 0.0],  # bone 2: far bridge
                [-3.0, 0.0, 0.0],   # bone 3: d=3.0, unobstructed
            ]
        )
        skel = Skeleton(joints, [-1, 0, 1, 2, 3])
        anchors_vis, d_vis = nearest_visible_bones(mesh, skel)
        anchors_no, d_no = oracle_nearest_visible_bones(mesh, skel, use_visibility=False)
        assert anchors_no[0, 0] == 1.0       # euclidean-nearest is the occluded bone
        assert abs(d_no[0] - 2.0) < 1e-12
        assert anchors_vis[0, 0] == 0.0      # visibility reassigns it
        assert anchors_vis[0, 3] == 1.0
        assert abs(d_vis[0] - 3.0) < 1e-12


class TestPointSegmentDistance:
    def test_perpendicular_and_clamped(self):
        d, closest = point_segment_distances(
            np.array([[0.5, 1.0, 0.0], [2.0, 0.0, 0.0]]),
            np.array([[0.0, 0.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0]]),
        )
        assert abs(d[0, 0] - 1.0) < 1e-12
        assert abs(d[1, 0] - 1.0) < 1e-12
        assert np.allclose(closest[1, 0], [1.0, 0.0, 0.0])


class TestPartDecompose:
    def test_one_hot(self):
        w = SkinWeights(np.array([[0.0, 1.0], [1.0, 0.0]]))
        parts = part_decompose(w)
        assert parts.labels.tolist() == [1, 0]
        assert parts.part_count == 2

    def test_tie_breaks_to_lowest_index(self):
        parts = part_decompose(SkinWeights(np.array([[0.5, 0.5]])))
        assert parts.labels.tolist() == [0]
        assert parts.present_parts.tolist() == [0]

    def test_absent_parts(self):
        w = SkinWeights(np.array([[0.9, 0.1, 0.0], [0.8, 0.2, 0.0]]))
        parts = part_decompose(w)
        assert parts.part_count == 1
        assert parts.present_parts.tolist() == [0]

    def test_scaling_rows_keeps_labels(self, rng):
        w = rng.random((30, 4))
        w /= w.sum(axis=1, keepdims=True)
        labels = part_decompose(SkinWeights(w)).labels
        # argmax is invariant to any positive per-row rescaling
        scaled = w * rng.uniform(0.1, 10.0, size=(30, 1))
        assert np.array_equal(np.argmax(scaled, axis=1), labels)

    def test_capsule_split_near_midplane(self, capsule_rig, capsule_heat_weights):
        mesh, _ = capsule_rig
        labels = part_decompose(capsule_heat_weights).labels
        x = mesh.vertices[:, 0]
        boundary = max(x[labels == 0])
        assert 1.0 < boundary < 2.0


class TestCotangentLaplacian:
    def test_constant_in_nullspace(self, capsule_rig):
        mesh, _ = capsule_rig
        L = cotangent_laplacian(mesh)
        assert np.abs(L @ np.ones(mesh.num_vertices)).max() < 1e-9

    def test_symmetric_positive_weights(self, capsule_rig):
        mesh, _ = capsule_rig
        L = cotangent_laplacian(mesh)
        assert np.abs((L - L.T)).max() < 1e-12
        off_diag = L - sp.diags(L.diagonal())
        assert off_diag.toarray().max() <= 0.0 + 1e-15  # -W entries
