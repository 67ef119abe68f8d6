import numpy as np
import pytest

from animrig.deform import blend_skin
from animrig.geometry import TriMesh
from animrig.retarget import (
    CorrespondenceError,
    JointCorrespondence,
    build_interior_field,
    check_correspondence,
    embed_skeleton,
    transfer_motion,
)
from animrig.skeleton import (
    MotionClip,
    MotionFrame,
    RigidTransform,
    Skeleton,
    forward_kinematics,
    posed_joints,
)
from animrig.skinning import SkinWeights, heat_diffusion_skinning
from animrig import rotations as rot
from motionutil import deform_clip, smooth_clip
from shapes import chain_skeleton, limb_rig, make_capsule, make_cube, make_grid, make_icosphere


@pytest.fixture(scope="module")
def sphere():
    return make_icosphere(3, radius=1.0)


@pytest.fixture(scope="module")
def sphere_field(sphere):
    return build_interior_field(sphere, 32)


class TestInteriorField:
    def test_sphere_center_distance(self, sphere_field):
        f = sphere_field
        center = tuple(np.floor(-f.origin / f.voxel_size).astype(int))
        assert f.interior[center]
        assert abs(f.distance[center] - 1.0) <= 2 * f.voxel_size

    def test_cube_interior_volume(self):
        f = build_interior_field(make_cube(), 24)
        expected = 1.0 / f.voxel_size**3
        assert abs(f.interior_count() - expected) <= 0.1 * expected

    def test_open_sheet_has_no_interior(self):
        with pytest.raises(ValueError):
            build_interior_field(make_grid(5, 5), 16)

    def test_resolution_floor(self, sphere):
        with pytest.raises(ValueError):
            build_interior_field(sphere, 4)

    def test_contains_and_centers(self, sphere_field):
        f = sphere_field
        assert f.contains((0.0, 0.0, 0.0))
        assert not f.contains((2.0, 2.0, 2.0))
        idx = np.floor(-f.origin / f.voxel_size).astype(int)
        center = f.voxel_centers(idx)
        assert np.abs(center).max() <= f.voxel_size

    def test_exterior_distance_zero_interior_positive(self, sphere_field):
        f = sphere_field
        assert f.distance[~f.interior].max() == 0.0
        assert f.distance[f.interior].min() > 0.0


class TestEmbedSkeleton:
    def test_self_embedding_recovers_joints(self):
        mesh, skel = limb_rig(rings=24, sides=16)
        field = build_interior_field(mesh, 48)
        embedded = embed_skeleton(mesh, skel, field)
        err = np.linalg.norm(embedded.joints - skel.joints, axis=1)
        assert err.max() <= 3 * field.voxel_size
        assert all(field.contains(j) for j in embedded.joints)

    def test_scaled_copy_scales_joints(self):
        mesh, skel = limb_rig(rings=24, sides=16)
        doubled = TriMesh(mesh.vertices * 2.0, mesh.faces)
        field = build_interior_field(doubled, 48)
        embedded = embed_skeleton(doubled, skel, field)
        err = np.linalg.norm(embedded.joints - skel.joints * 2.0, axis=1)
        assert err.max() <= 3 * field.voxel_size

    def test_chain_into_sphere_stays_interior(self, sphere, sphere_field):
        chain = chain_skeleton(4, length=0.4)
        embedded = embed_skeleton(sphere, chain, sphere_field)
        assert all(sphere_field.contains(j) for j in embedded.joints)
        assert np.array_equal(embedded.parents, chain.parents)

    def test_topology_preserved(self):
        mesh, skel = limb_rig(rings=20, sides=12)
        field = build_interior_field(mesh, 32)
        embedded = embed_skeleton(mesh, skel, field)
        assert embedded.num_joints == skel.num_joints
        assert np.array_equal(embedded.parents, skel.parents)


class TestJointCorrespondence:
    def test_injectivity(self):
        with pytest.raises(CorrespondenceError):
            JointCorrespondence(((0, 1), (0, 2)))
        with pytest.raises(CorrespondenceError):
            JointCorrespondence(((0, 1), (1, 1)))

    def test_identity(self):
        corr = JointCorrespondence.identity(3)
        assert corr.pairs == ((0, 0), (1, 1), (2, 2))

    def test_chain_consistency_ok(self):
        ref = chain_skeleton(3)
        tgt = chain_skeleton(3, length=2.0)
        assert check_correspondence(JointCorrespondence.identity(3), ref, tgt) == []

    def test_chain_consistency_violation(self):
        ref = chain_skeleton(3)
        # target chain re-rooted: joint 2 is the root
        tgt = Skeleton(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]), [1, 2, -1])
        issues = check_correspondence(JointCorrespondence.identity(3), ref, tgt)
        assert issues

    def test_partial_mapping_allowed(self):
        ref = chain_skeleton(2)
        tgt = chain_skeleton(4)
        corr = JointCorrespondence(((0, 0), (1, 1)))
        assert check_correspondence(corr, ref, tgt) == []


class TestTransferMotion:
    def test_identity_retarget_reproduces_source(self, small_limb):
        mesh, skel, weights = small_limb
        rng = np.random.default_rng(4)
        clip = smooth_clip(rng, skel.num_bones, 4)
        source = deform_clip(mesh, skel, weights, clip)
        out = transfer_motion(
            clip, skel, skel, JointCorrespondence.identity(skel.num_joints), mesh, weights
        )
        for a, b in zip(out, source):
            assert np.abs(a.vertices - b.vertices).max() < 1e-10

    def test_rest_clip_with_moving_root_follows_scaled_trajectory(self, small_limb):
        mesh, skel, weights = small_limb
        b = skel.num_bones
        translations = [np.array([0.0, 0, 0]), np.array([0.5, 1.0, -0.25])]
        frames = tuple(
            MotionFrame(RigidTransform((1, 0, 0, 0), t), np.zeros((b, 3)), np.ones(b))
            for t in translations
        )
        clip = MotionClip(frames)
        # target: uniformly doubled limb -> height ratio 2
        target_mesh = TriMesh(mesh.vertices * 2.0, mesh.faces)
        target_skel = Skeleton(skel.joints * 2.0, skel.parents)
        out = transfer_motion(
            clip, skel, target_skel,
            JointCorrespondence.identity(skel.num_joints), target_mesh, weights,
        )
        for k, t in enumerate(translations):
            expected = target_mesh.vertices + 2.0 * t
            assert np.abs(out[k].vertices - expected).max() < 1e-10

    def test_two_bone_bend_scales_with_length(self):
        ref = chain_skeleton(3, length=1.0)
        tgt = chain_skeleton(3, length=2.0)
        bend = np.deg2rad(45.0)
        frames = (
            MotionFrame(RigidTransform.identity(), np.zeros((2, 3)), np.ones(2)),
            MotionFrame(
                RigidTransform.identity(),
                np.array([[0.0, 0.0, 0.0], [0.0, 0.0, bend]]),
                np.ones(2),
            ),
        )
        clip = MotionClip(frames)
        target_joints = posed_joints(tgt, clip.frames[1])
        # closed-form 2-link FK: elbow fixed, tip rotated 45 degrees about it
        assert np.allclose(target_joints[1], [2.0, 0.0, 0.0], atol=1e-12)
        expected_tip = np.array([2.0 + 2.0 * np.cos(bend), 2.0 * np.sin(bend), 0.0])
        assert np.allclose(target_joints[2], expected_tip, atol=1e-12)
        # the direction of the bent segment matches the reference's
        ref_joints = posed_joints(ref, clip.frames[1])
        ref_dir = ref_joints[2] - ref_joints[1]
        tgt_dir = target_joints[2] - target_joints[1]
        assert np.allclose(tgt_dir / 2.0, ref_dir, atol=1e-12)

    def test_angles_copied_exactly(self, small_limb, rng):
        mesh, skel, weights = small_limb
        clip = smooth_clip(np.random.default_rng(9), skel.num_bones, 3)
        corr = JointCorrespondence.identity(skel.num_joints)
        # transferred FK consumes identical angle arrays: verify via posed joints
        out = transfer_motion(clip, skel, skel, corr, mesh, weights)
        for t, frame in enumerate(clip.frames):
            expected = blend_skin(
                mesh, weights, frame.root, forward_kinematics(skel, frame), frame_index=t
            )
            assert np.abs(out[t].vertices - expected.vertices).max() < 1e-12

    def test_unmapped_target_bones_stay_at_rest(self):
        # target has an extra tail joint that the reference lacks
        ref = chain_skeleton(3)
        tgt_joints = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [2.0, -1.0, 0]])
        tgt = Skeleton(tgt_joints, [-1, 0, 1, 2])
        corr = JointCorrespondence(((0, 0), (1, 1), (2, 2)))
        bend = np.array([[0.0, 0, 0], [0.0, 0, np.deg2rad(30)]])
        clip = MotionClip((MotionFrame(RigidTransform.identity(), bend, np.ones(2)),))
        mesh = TriMesh(tgt_joints.copy())
        one_hot = np.zeros((4, 3))
        one_hot[0, 0] = 1.0  # root joint rides bone 0
        one_hot[1, 0] = 1.0
        one_hot[2, 1] = 1.0
        one_hot[3, 2] = 1.0  # tail vertex on the unmapped bone
        out = transfer_motion(clip, ref, tgt, corr, mesh, SkinWeights(one_hot))
        # expected: target frame keeps rest angles on the tail bone
        expected_frame = MotionFrame(
            RigidTransform.identity(),
            np.vstack([bend, np.zeros((1, 3))]),
            np.ones(3),
        )
        expected = posed_joints(tgt, expected_frame)
        assert np.abs(out[0].vertices[3] - expected[3]).max() < 1e-12

    def test_chain_violation_raises_before_frames(self, small_limb):
        mesh, skel, weights = small_limb
        clip = smooth_clip(np.random.default_rng(2), skel.num_bones, 2)
        swapped = JointCorrespondence(((0, 0), (1, 2), (2, 1), (3, 3)))
        with pytest.raises(CorrespondenceError):
            transfer_motion(clip, skel, skel, swapped, mesh, weights)

    def test_weight_shape_validation(self, small_limb):
        mesh, skel, weights = small_limb
        clip = smooth_clip(np.random.default_rng(2), skel.num_bones, 2)
        bad = SkinWeights(np.ones((4, 1)))
        with pytest.raises(ValueError):
            transfer_motion(
                clip, skel, skel, JointCorrespondence.identity(skel.num_joints), mesh, bad
            )

    def test_frames_share_one_skeleton_and_weights(self, small_limb):
        mesh, skel, weights = small_limb
        clip = smooth_clip(np.random.default_rng(8), skel.num_bones, 3)
        out = transfer_motion(
            clip, skel, skel, JointCorrespondence.identity(skel.num_joints), mesh, weights
        )
        assert [d.frame_index for d in out] == [0, 1, 2]
        assert all(d.base is mesh for d in out)


class TestEmbedAndTransfer:
    def test_embedded_skeleton_drives_transfer(self, small_limb):
        mesh, skel, weights = small_limb
        field = build_interior_field(mesh, 32)
        embedded = embed_skeleton(mesh, skel, field)
        target_weights = heat_diffusion_skinning(mesh, embedded)
        clip = smooth_clip(np.random.default_rng(3), skel.num_bones, 2)
        out = transfer_motion(
            clip, skel, embedded,
            JointCorrespondence.identity(skel.num_joints), mesh, target_weights,
        )
        assert len(out) == 2
        assert np.all(np.isfinite(out[1].vertices))
