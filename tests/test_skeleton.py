import json

import numpy as np
import pytest

from animrig.skeleton import (
    MotionClip,
    MotionFrame,
    RigidTransform,
    Skeleton,
    SkeletonError,
    check_parent_tree,
    clip_from_dict,
    clip_to_dict,
    fk_arrays,
    forward_kinematics,
    posed_joints,
    skeleton_from_dict,
    skeleton_to_dict,
)
from animrig.skinning import SkinWeights
from animrig.deform import blend_skin, blend_skin_arrays
from animrig.geometry import TriMesh
from shapes import chain_skeleton


def random_transform(rng):
    q = rng.normal(size=4) + np.array([2.0, 0, 0, 0])
    return RigidTransform(q / np.linalg.norm(q), rng.normal(size=3))


class TestRigidTransform:
    def test_identity(self):
        t = RigidTransform.identity()
        pts = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(t.apply(pts), pts)

    def test_non_unit_quaternion_warns_and_normalizes(self):
        with pytest.warns(UserWarning):
            t = RigidTransform((2.0, 0.0, 0.0, 0.0))
        assert abs(np.linalg.norm(t.quaternion) - 1.0) < 1e-12

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform((0.0, 0.0, 0.0, 0.0))

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="quaternion must be finite"):
            RigidTransform((float("nan"), 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="translation must be finite"):
            RigidTransform(translation=(0.0, float("inf"), 0.0))


class TestParentTree:
    def test_valid_chain(self):
        assert check_parent_tree([-1, 0, 1]) == []

    def test_cycle_names_joints(self):
        issues = check_parent_tree([-1, 2, 1])
        assert any("cycle" in msg for msg in issues)
        assert any("1" in msg and "2" in msg for msg in issues)

    def test_multiple_roots(self):
        issues = check_parent_tree([-1, -1])
        assert any("root" in msg for msg in issues)

    def test_out_of_range_parent(self):
        issues = check_parent_tree([-1, 7])
        assert any("out of range" in msg for msg in issues)

    def test_constructor_raises(self):
        with pytest.raises(SkeletonError):
            Skeleton(np.zeros((3, 3)), [-1, 2, 1])

    def test_joints_hanging_off_a_cycle_are_named(self):
        # joint 3 is no part of the 1 <-> 2 cycle but cannot reach the root either
        assert check_parent_tree([-1, 2, 1, 1]) == [
            "parent cycle: joints [1, 2, 3] never reach a root"
        ]
        assert check_parent_tree([1, 0]) == [
            "expected exactly one root (-1), found 0",
            "parent cycle: joints [0, 1] never reach a root",
        ]


class TestSkeleton:
    def test_bone_derivations(self):
        skel = chain_skeleton(3, length=2.0)
        assert skel.num_bones == 2
        assert np.array_equal(skel.bone_joints, [1, 2])
        assert np.allclose(skel.rest_lengths, [2.0, 2.0])
        assert skel.bone_of_joint(2) == 1

    def test_nonzero_root_index(self):
        # root in the middle of the array
        joints = np.array([[1.0, 0, 0], [0.0, 0, 0], [2.0, 0, 0]])
        skel = Skeleton(joints, [1, -1, 0])
        assert skel.root == 1
        assert skel.num_bones == 2
        frame = MotionFrame.rest(skel)
        assert np.allclose(posed_joints(skel, frame), joints)

    def test_non_finite_joints_rejected(self):
        joints = np.zeros((3, 3))
        joints[1, 2] = np.nan
        with pytest.raises(ValueError, match="joints must be finite"):
            Skeleton(joints, [-1, 0, 1])

    def test_bone_order_runs_root_to_leaf(self):
        # joints listed leaf first, so bone index order is not a valid FK order
        joints = np.array([[3.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]])
        skel = Skeleton(joints, [1, 2, 3, -1])
        assert [int(skel.bone_joints[b]) for b in skel.bone_order] == [2, 1, 0]
        assert skel.height() == 3.0

    def test_height_longest_path(self):
        # Y-shaped: root with a long and a short branch
        joints = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0], [0.0, 1.0, 0]])
        skel = Skeleton(joints, [-1, 0, 1, 0])
        assert abs(skel.height() - 3.0) < 1e-12


class TestMotionFrame:
    def test_dimension_check(self):
        with pytest.raises(ValueError):
            MotionFrame(RigidTransform.identity(), np.zeros((2, 3)), np.ones(3))

    def test_scales_positive(self):
        with pytest.raises(ValueError):
            MotionFrame(RigidTransform.identity(), np.zeros((1, 3)), np.array([-0.5]))

    def test_angles_finite(self):
        with pytest.raises(ValueError):
            MotionFrame(RigidTransform.identity(), np.full((1, 3), np.nan), np.ones(1))


class TestForwardKinematics:
    def test_rest_pose_is_identity_exactly(self):
        skel = chain_skeleton(4, length=0.7)
        R, t = forward_kinematics(skel, MotionFrame.rest(skel))
        assert np.array_equal(R, np.tile(np.eye(3), (skel.num_bones, 1, 1)))
        assert np.array_equal(t, np.zeros((skel.num_bones, 3)))

    def test_two_link_quarter_turn(self):
        skel = chain_skeleton(2)
        frame = MotionFrame(
            RigidTransform.identity(), np.array([[0.0, 0.0, np.pi / 2]]), np.ones(1)
        )
        joints = posed_joints(skel, frame)
        assert np.abs(joints[1] - np.array([0.0, 1.0, 0.0])).max() < 1e-12
        assert abs(np.linalg.norm(joints[1] - joints[0]) - 1.0) < 1e-12

    def test_scale_translates_subtree_outward(self):
        skel = chain_skeleton(3)
        frame = MotionFrame(
            RigidTransform.identity(), np.zeros((2, 3)), np.array([1.1, 1.0])
        )
        joints = posed_joints(skel, frame)
        assert np.allclose(joints, [[0, 0, 0], [1.1, 0, 0], [2.1, 0, 0]], atol=1e-12)

    def test_scale_on_middle_bone(self):
        skel = chain_skeleton(3)
        frame = MotionFrame(
            RigidTransform.identity(), np.zeros((2, 3)), np.array([1.0, 1.1])
        )
        joints = posed_joints(skel, frame)
        assert np.allclose(joints, [[0, 0, 0], [1.0, 0, 0], [2.1, 0, 0]], atol=1e-12)

    def test_dimension_mismatch(self):
        skel = chain_skeleton(3)
        bad = MotionFrame(RigidTransform.identity(), np.zeros((1, 3)), np.ones(1))
        with pytest.raises(ValueError):
            forward_kinematics(skel, bad)

    def test_determinism_bitwise(self, rng):
        skel = chain_skeleton(5)
        frame = MotionFrame(
            random_transform(rng), rng.uniform(-1, 1, size=(4, 3)), rng.uniform(0.9, 1.1, 4)
        )
        a = forward_kinematics(skel, frame)
        b = forward_kinematics(skel, frame)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_chain_locality(self, rng):
        skel = chain_skeleton(5)
        base_angles = rng.uniform(-0.5, 0.5, size=(4, 3))
        scales = np.ones(4)
        base = forward_kinematics(
            skel, MotionFrame(RigidTransform.identity(), base_angles, scales)
        )
        perturbed_angles = base_angles.copy()
        perturbed_angles[2] += 0.3
        pert = forward_kinematics(
            skel, MotionFrame(RigidTransform.identity(), perturbed_angles, scales)
        )
        (base_R, base_t), (pert_R, pert_t) = base, pert
        # bones 0 and 1 are untouched ancestors: bitwise equal transforms
        for b in (0, 1):
            assert np.array_equal(base_R[b], pert_R[b])
            assert np.array_equal(base_t[b], pert_t[b])
        for b in (2, 3):
            assert not np.allclose(base_t[b], pert_t[b]) or not np.allclose(
                base_R[b], pert_R[b]
            )

    def test_single_pose_path_bitwise(self, small_limb):
        # FK hands fk_arrays' world arrays to the blend untouched: no conversion in between
        rng = np.random.default_rng(5)
        chain = chain_skeleton(5)
        w = rng.random((30, chain.num_bones))
        w /= w.sum(axis=1, keepdims=True)
        rigs = [(TriMesh(rng.normal(size=(30, 3))), chain, SkinWeights(w)), small_limb]
        for mesh, skel, weights in rigs:
            frame = MotionFrame(
                random_transform(rng),
                rng.uniform(-1, 1, size=(skel.num_bones, 3)),
                rng.uniform(0.9, 1.1, skel.num_bones),
            )
            _, R_world, t_world, _ = fk_arrays(skel, frame.angles, frame.bone_scales)
            R, t = forward_kinematics(skel, frame)
            assert np.array_equal(R, R_world) and np.array_equal(t, t_world)
            expected = frame.root.apply(
                blend_skin_arrays(mesh.vertices, weights.weights, R_world, t_world)
            )
            assert np.array_equal(blend_skin(mesh, weights, frame.root, (R, t)).vertices, expected)

    def test_scale_monotonicity(self, rng):
        skel = chain_skeleton(4)
        frame_lo = MotionFrame(RigidTransform.identity(), np.zeros((3, 3)), np.array([1.0, 0.9, 1.0]))
        frame_hi = MotionFrame(RigidTransform.identity(), np.zeros((3, 3)), np.array([1.0, 1.2, 1.0]))
        lo = posed_joints(skel, frame_lo)
        hi = posed_joints(skel, frame_hi)
        root = skel.joints[skel.root]
        for joint in (2, 3):  # descendants of bone 1
            assert np.linalg.norm(hi[joint] - root) > np.linalg.norm(lo[joint] - root)


class TestPosedJoints:
    def test_identity_frame_root_only(self, rng):
        skel = chain_skeleton(3)
        root = random_transform(rng)
        frame = MotionFrame(root, np.zeros((2, 3)), np.ones(2))
        expected = root.apply(skel.joints)
        assert np.abs(posed_joints(skel, frame) - expected).max() < 1e-12

    def test_pure_translation(self):
        skel = chain_skeleton(3)
        t = np.array([0.5, -1.0, 2.0])
        frame = MotionFrame(RigidTransform((1, 0, 0, 0), t), np.zeros((2, 3)), np.ones(2))
        assert np.allclose(posed_joints(skel, frame), skel.joints + t)

    def test_matches_blend_skin_with_one_hot_weights(self, rng):
        # vertices placed exactly at the joints, each bound to its own bone
        skel = chain_skeleton(4)
        frame = MotionFrame(
            random_transform(rng), rng.uniform(-0.8, 0.8, size=(3, 3)), rng.uniform(0.9, 1.1, 3)
        )
        joints = posed_joints(skel, frame)
        non_root = [int(j) for j in skel.bone_joints]
        mesh = TriMesh(skel.joints[non_root])
        one_hot = np.zeros((len(non_root), skel.num_bones))
        for row, joint in enumerate(non_root):
            one_hot[row, skel.bone_of_joint(joint)] = 1.0
        deformed = blend_skin(
            mesh, SkinWeights(one_hot), frame.root, forward_kinematics(skel, frame)
        )
        assert np.abs(deformed.vertices - joints[non_root]).max() < 1e-10
        # root joint only feels the root transform
        assert np.abs(joints[skel.root] - frame.root.apply(skel.joints[skel.root])).max() < 1e-12


class TestSerialization:
    def test_skeleton_roundtrip(self):
        skel = chain_skeleton(3, names=True)
        again = skeleton_from_dict(skeleton_to_dict(skel))
        assert np.array_equal(again.joints, skel.joints)
        assert np.array_equal(again.parents, skel.parents)
        assert again.names == skel.names

    def test_clip_roundtrip(self, rng):
        frames = tuple(
            MotionFrame(
                random_transform(rng),
                rng.uniform(-1, 1, size=(2, 3)),
                rng.uniform(0.9, 1.1, 2),
            )
            for _ in range(3)
        )
        clip = MotionClip(frames, fps=24.0)
        data = json.loads(json.dumps(clip_to_dict(clip)))
        again = clip_from_dict(data)
        assert again.fps == 24.0
        for f, g in zip(clip.frames, again.frames):
            assert np.abs(f.root.as_flat() - g.root.as_flat()).max() < 1e-15
            assert np.array_equal(f.angles, g.angles)
            assert np.array_equal(f.bone_scales, g.bone_scales)

    def test_clip_requires_consistent_bones(self):
        a = MotionFrame(RigidTransform.identity(), np.zeros((2, 3)), np.ones(2))
        b = MotionFrame(RigidTransform.identity(), np.zeros((3, 3)), np.ones(3))
        with pytest.raises(ValueError):
            MotionClip((a, b))
