"""Kinematic-chain skeletons, motion frames, and forward kinematics.

A frame is a root RigidTransform plus per-bone rotation vectors and length
multipliers. Forward kinematics returns the bones' world transforms as arrays,
rotations (B, 3, 3) and translations (B, 3), and blend skinning takes them as
they are; the root transform is applied after the blend.

Bones stretch: each frame carries a per-bone length multiplier, applied to the
bone's translation only, so a stretched bone shifts its whole subtree outward
along the bone axis without shearing the attached geometry.
"""

from __future__ import annotations

import functools
import json
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rotations as rot


class SkeletonError(ValueError):
    """Invalid skeleton topology (multiple roots, cycles, bad indices)."""


class RigidTransform:
    """A frame's root transform: unit quaternion [w, x, y, z] plus translation.

    Only the root travels in this form (it is what clip.json stores); bone
    transforms travel as the world arrays forward_kinematics returns.
    """

    __slots__ = ("quaternion", "translation")

    def __init__(self, quaternion=(1.0, 0.0, 0.0, 0.0), translation=(0.0, 0.0, 0.0)):
        q = np.asarray(quaternion, dtype=np.float64)
        if q.shape != (4,):
            raise ValueError("quaternion must have 4 components [w, x, y, z]")
        if not np.all(np.isfinite(q)):
            raise ValueError("quaternion must be finite")
        norm = np.linalg.norm(q)
        if norm < 1e-12:
            raise ValueError("zero-norm quaternion")
        if abs(norm - 1.0) > 1e-6:
            warnings.warn(f"normalizing non-unit quaternion (norm={norm:.6g})")
        q = q / norm
        t = np.asarray(translation, dtype=np.float64).copy()
        if t.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        q.setflags(write=False)
        t.setflags(write=False)
        self.quaternion = q
        self.translation = t

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def from_rotation_vector(cls, rotvec, translation=(0.0, 0.0, 0.0)):
        return cls(rot.quat_from_rotation_vector(rotvec), translation)

    @property
    def rotation_matrix(self):
        return rot.quat_to_matrix(self.quaternion)

    def apply(self, points):
        points = np.asarray(points, dtype=np.float64)
        return points @ self.rotation_matrix.T + self.translation

    def as_flat(self):
        """[qw, qx, qy, qz, tx, ty, tz] for serialization."""
        return np.concatenate([self.quaternion, self.translation])

    def __repr__(self):
        return f"RigidTransform(q={self.quaternion.tolist()}, t={self.translation.tolist()})"


def _walk(parents):
    """One breadth-first pass down from the roots: (issues, joints in visit order)."""
    parents = np.asarray(parents, dtype=np.int64).tolist()
    n = len(parents)
    issues = []
    order = [j for j, p in enumerate(parents) if p == -1]
    if len(order) != 1:
        issues.append(f"expected exactly one root (-1), found {len(order)}")
    bad = [j for j, p in enumerate(parents) if p != -1 and not (0 <= p < n)]
    if bad:
        issues.append(f"parent index out of range at joints {bad}")
        return issues, order
    children = [[] for _ in range(n)]
    for j, p in enumerate(parents):
        if p != -1:
            children[p].append(j)
    for j in order:  # order grows as it is read: each joint's children join the queue
        order.extend(children[j])
    unreached = sorted(set(range(n)) - set(order))
    if unreached:
        issues.append(f"parent cycle: joints {unreached} never reach a root")
    return issues, order


def check_parent_tree(parents):
    """Diagnostics for a parent-index array; empty list means a valid tree."""
    return _walk(parents)[0]


class Skeleton:
    """Joint tree with rest positions; bone b connects parent(joint) -> joint.

    Bones are indexed by non-root joints in ascending joint order, so a
    skeleton with J joints has B = J - 1 bones.
    """

    def __init__(self, joints, parents, names=None):
        joints = np.ascontiguousarray(joints, dtype=np.float64)
        parents = np.ascontiguousarray(parents, dtype=np.int64)
        if joints.ndim != 2 or joints.shape[1] != 3:
            raise ValueError(f"joints must have shape (J, 3), got {joints.shape}")
        if parents.shape != (len(joints),):
            raise ValueError("parents must have one entry per joint")
        if len(joints) < 1:
            raise ValueError("skeleton needs at least one joint")
        if not np.all(np.isfinite(joints)):
            raise ValueError("joints must be finite")
        issues, order = _walk(parents)
        if issues:
            raise SkeletonError("; ".join(issues))
        joints.setflags(write=False)
        parents.setflags(write=False)
        self.joints = joints
        self.parents = parents
        self.names = list(names) if names is not None else None
        if self.names is not None and len(self.names) != len(joints):
            raise ValueError("names must match the joint count")

        self.root = order[0]
        # bone b <-> child joint bone_joints[b]
        self.bone_joints = np.array([j for j in range(len(joints)) if j != self.root], dtype=np.int64)
        self._bone_of_joint = {int(j): b for b, j in enumerate(self.bone_joints)}
        self.bone_parent_joints = parents[self.bone_joints]
        rest_vec = joints[self.bone_joints] - joints[self.bone_parent_joints]
        self.rest_lengths = np.linalg.norm(rest_vec, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            dirs = np.where(
                self.rest_lengths[:, None] > 1e-12,
                rest_vec / np.where(self.rest_lengths[:, None] > 1e-12, self.rest_lengths[:, None], 1.0),
                0.0,
            )
        self.bone_directions = dirs
        # parent bone index per bone, -1 when the parent joint is the root
        self.bone_parent_bones = np.array(
            [self._bone_of_joint.get(int(p), -1) for p in self.bone_parent_joints], dtype=np.int64
        )
        # root-to-leaf processing order over bones
        self.bone_order = np.array([self._bone_of_joint[j] for j in order[1:]], dtype=np.int64)
        # each joint's rest bone lengths up to the root, leaf first, summed in
        # that order so that the sums round as a walk up from the joint would
        up = [()] * len(joints)
        for j in order[1:]:
            up[j] = (float(self.rest_lengths[self._bone_of_joint[j]]),) + up[parents[j]]
        self._height = max(functools.reduce(operator.add, u, 0.0) for u in up)

    @property
    def num_joints(self):
        return len(self.joints)

    @property
    def num_bones(self):
        return len(self.bone_joints)

    def bone_of_joint(self, joint_index):
        """Bone index whose child is the given non-root joint."""
        return self._bone_of_joint[int(joint_index)]

    def height(self):
        """Longest root-to-leaf sum of rest bone lengths."""
        return self._height

    def __repr__(self):
        return f"Skeleton({self.num_joints} joints, {self.num_bones} bones)"


@dataclass(frozen=True)
class MotionFrame:
    """Per-frame pose: root transform, per-bone rotation vectors, bone scales."""

    root: RigidTransform
    angles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    bone_scales: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        angles = np.ascontiguousarray(self.angles, dtype=np.float64)
        if angles.size == 0:
            angles = angles.reshape(0, 3)
        scales = np.ascontiguousarray(self.bone_scales, dtype=np.float64)
        if angles.ndim != 2 or angles.shape[1] != 3:
            raise ValueError(f"angles must have shape (B, 3), got {angles.shape}")
        if scales.shape != (len(angles),):
            raise ValueError("bone_scales must have one entry per bone")
        if not np.all(np.isfinite(angles)):
            raise ValueError("angles must be finite")
        if not (np.all(np.isfinite(scales)) and np.all(scales > 0)):
            raise ValueError("bone_scales must be finite and positive")
        angles.setflags(write=False)
        scales.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "bone_scales", scales)

    @property
    def num_bones(self):
        return len(self.angles)

    @classmethod
    def rest(cls, skeleton: Skeleton):
        b = skeleton.num_bones
        return cls(RigidTransform.identity(), np.zeros((b, 3)), np.ones(b))


@dataclass(frozen=True)
class MotionClip:
    """Time-ordered frames over one skeleton; frame 0 poses the canonical shape."""

    frames: tuple
    fps: float | None = None

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("a clip needs at least one frame")
        b = frames[0].num_bones
        if any(f.num_bones != b for f in frames):
            raise ValueError("all frames in a clip must share one bone count")
        object.__setattr__(self, "frames", frames)

    def __len__(self):
        return len(self.frames)

    @property
    def num_bones(self):
        return self.frames[0].num_bones


def fk_arrays(skeleton: Skeleton, angles, bone_scales):
    """Array-level forward kinematics used by both the public API and the fitter.

    Returns (local_rotations, world_rotations, world_translations, local_translations)
    with shapes (B, 3, 3), (B, 3, 3), (B, 3), (B, 3). World transforms map
    canonical-space points to posed space; the root transform is not included.
    """
    angles = np.asarray(angles, dtype=np.float64)
    bone_scales = np.asarray(bone_scales, dtype=np.float64)
    B = skeleton.num_bones
    if angles.shape != (B, 3):
        raise ValueError(f"expected angles of shape ({B}, 3), got {angles.shape}")
    if bone_scales.shape != (B,):
        raise ValueError(f"expected {B} bone scales, got {bone_scales.shape}")

    R_local = rot.rotation_matrices(angles) if B else np.zeros((0, 3, 3))
    parent_pos = skeleton.joints[skeleton.bone_parent_joints]
    stretch = (bone_scales - 1.0)[:, None] * skeleton.rest_lengths[:, None] * skeleton.bone_directions
    # local map: x -> R (x + stretch - parent) + parent
    t_local = np.einsum("bij,bj->bi", R_local, stretch - parent_pos) + parent_pos

    R_world = np.zeros_like(R_local)
    t_world = np.zeros((B, 3))
    for b in skeleton.bone_order:
        p = int(skeleton.bone_parent_bones[b])
        if p < 0:
            R_world[b] = R_local[b]
            t_world[b] = t_local[b]
        else:
            R_world[b] = R_world[p] @ R_local[b]
            t_world[b] = R_world[p] @ t_local[b] + t_world[p]
    return R_local, R_world, t_world, t_local


def forward_kinematics(skeleton: Skeleton, frame: MotionFrame):
    """Per-bone world transforms (root excluded) as arrays (R_world, t_world).

    R_world is (B, 3, 3) and t_world (B, 3), exactly as fk_arrays composes them
    root to leaf; blend_skin takes the pair as it is. With zero angles and unit
    scales every rotation is the identity and every translation zero, so the
    posed skeleton coincides with the rest pose.
    """
    _, R_world, t_world, _ = fk_arrays(skeleton, frame.angles, frame.bone_scales)
    return R_world, t_world


def posed_joints(skeleton: Skeleton, frame: MotionFrame):
    """World positions of all joints after the root transform and FK."""
    _, R_world, t_world, _ = fk_arrays(skeleton, frame.angles, frame.bone_scales)
    positions = skeleton.joints.copy()
    for b in range(skeleton.num_bones):
        j = int(skeleton.bone_joints[b])
        positions[j] = R_world[b] @ skeleton.joints[j] + t_world[b]
    return frame.root.apply(positions)


# --- JSON wire formats -----------------------------------------------------


def skeleton_to_dict(skeleton: Skeleton):
    data = {
        "joints": [[float(c) for c in j] for j in skeleton.joints],
        "parents": [int(p) for p in skeleton.parents],
    }
    if skeleton.names is not None:
        data["names"] = list(skeleton.names)
    return data


def skeleton_from_dict(data) -> Skeleton:
    return Skeleton(np.array(data["joints"], dtype=np.float64),
                    np.array(data["parents"], dtype=np.int64),
                    data.get("names"))


def clip_to_dict(clip: MotionClip):
    return {
        "fps": clip.fps,
        "frames": [
            {
                "root": [float(x) for x in f.root.as_flat()],
                "angles": [[float(c) for c in a] for a in f.angles],
                "bone_scales": [float(s) for s in f.bone_scales],
            }
            for f in clip.frames
        ],
    }


def clip_from_dict(data) -> MotionClip:
    frames = []
    for f in data["frames"]:
        flat = np.asarray(f["root"], dtype=np.float64)
        root = RigidTransform(flat[:4], flat[4:])
        frames.append(MotionFrame(root, np.array(f["angles"], dtype=np.float64).reshape(-1, 3),
                                  np.array(f["bone_scales"], dtype=np.float64)))
    return MotionClip(tuple(frames), fps=data.get("fps"))


def save_skeleton(skeleton: Skeleton, path):
    with open(path, "w") as fh:
        json.dump(skeleton_to_dict(skeleton), fh, indent=2, sort_keys=True)


def load_skeleton(path) -> Skeleton:
    with open(path) as fh:
        return skeleton_from_dict(json.load(fh))


def save_clip(clip: MotionClip, path):
    with open(path, "w") as fh:
        json.dump(clip_to_dict(clip), fh, indent=2, sort_keys=True)


def load_clip(path) -> MotionClip:
    with open(path) as fh:
        return clip_from_dict(json.load(fh))
