"""Seeded input generators for the benchmark.

The benchmark builds every input here rather than reusing the test-suite
helpers, so edits to the tests cannot move its numbers. Meshes and skeletons
are fixed by their size parameters; the seed draws the motion (and, for the
skinning workload, the pose the limb is skinned in).
"""

from __future__ import annotations

import numpy as np

from animrig import rotations as rot
from animrig.deform import blend_skin
from animrig.geometry import TriMesh
from animrig.skeleton import MotionClip, MotionFrame, RigidTransform, Skeleton, forward_kinematics


def capsule_limb(bones=3, segment=1.0, radius=0.25, radius_z=0.16, rings=60, sides=32,
                 cap_rings=4, taper=0.2):
    """Closed tapered capsule along +x with an elliptical cross-section.

    Vertex count is 2 + (rings - 1 + 2 * cap_rings) * sides; the default
    60 x 32 limb has 2,146 vertices. The ellipse keeps axial twist and the
    taper keeps axial sliding visible to point-set losses.
    """
    length = bones * segment
    r_pole = min(radius, radius_z)
    rings_xyz = []  # (x, ry, rz) per ring, left cap to right cap
    for r in range(1, cap_rings + 1):
        phi = 0.5 * np.pi * r / cap_rings
        rings_xyz.append((-r_pole * np.cos(phi), radius * np.sin(phi), radius_z * np.sin(phi)))
    for r in range(1, rings):
        x = length * r / rings
        s = 1.0 + taper * np.sin(2.4 * np.pi * x / length + 0.7)
        rings_xyz.append((x, radius * s, radius_z * s))
    for r in range(cap_rings, 0, -1):
        phi = 0.5 * np.pi * r / cap_rings
        rings_xyz.append(
            (length + r_pole * np.cos(phi), radius * np.sin(phi), radius_z * np.sin(phi))
        )

    ang = 2.0 * np.pi * np.arange(sides) / sides
    ring_pts = [
        np.stack([np.full(sides, x), ry * np.cos(ang), rz * np.sin(ang)], axis=1)
        for x, ry, rz in rings_xyz
    ]
    vertices = np.vstack([[[-r_pole, 0.0, 0.0]], *ring_pts, [[length + r_pole, 0.0, 0.0]]])
    right_pole = len(vertices) - 1

    k = np.arange(sides)
    k2 = (k + 1) % sides
    faces = [np.stack([np.zeros(sides, dtype=int), 1 + k, 1 + k2], axis=1)]
    for ring in range(len(rings_xyz) - 1):
        a = 1 + ring * sides
        b = a + sides
        first = np.stack([a + k, b + k, b + k2], axis=1)
        second = np.stack([a + k, b + k2, a + k2], axis=1)
        faces.append(np.stack([first, second], axis=1).reshape(-1, 3))
    last = 1 + (len(rings_xyz) - 1) * sides
    faces.append(np.stack([last + k, np.full(sides, right_pole), last + k2], axis=1))
    return TriMesh(vertices, np.vstack(faces))


def chain_skeleton(bones=3, segment=1.0):
    """Straight joint chain along +x, root at the origin."""
    joints = np.zeros((bones + 1, 3))
    joints[:, 0] = segment * np.arange(bones + 1)
    return Skeleton(joints, np.arange(bones + 1) - 1)


def smooth_clip(rng, bones, frames, max_deg=30.0, jitter=0.05, scale_amp=0.1,
                root_translation=0.5, root_rotation=0.25):
    """Smooth clip that starts at the rest pose and sweeps each angle once.

    The motion's shape comes from a fixed generator; rng scales each of its
    amplitudes by up to +-jitter. Freely drawn clips give fits whose error
    ranges over a factor of three from clip to clip (the default FitConfig
    stops most frames at its iteration budget), so every seed keeps one
    motion of the same difficulty. Consecutive frames stay close, as in a
    mesh sequence.
    """
    base = np.random.default_rng(0)
    amp = np.deg2rad(base.uniform(0.6, 1.0, size=(bones, 3)) * max_deg)
    amp *= base.choice([-1.0, 1.0], size=(bones, 3))
    sc_amp = base.uniform(0.0, scale_amp, size=bones)
    tr_amp = base.uniform(-root_translation, root_translation, size=3)
    rr_amp = base.uniform(-root_rotation, root_rotation, size=3)
    amp, sc_amp, tr_amp, rr_amp = (
        a * (1.0 + jitter * rng.uniform(-1.0, 1.0, size=np.shape(a)))
        for a in (amp, sc_amp, tr_amp, rr_amp)
    )
    out = []
    for t in range(frames):
        u = t / max(frames - 1, 1)
        s = np.sin(0.5 * np.pi * u) ** 2
        scales = 1.0 + sc_amp * np.sin(np.pi * u)
        root = RigidTransform(rot.quat_from_rotation_vector(rr_amp * s), tr_amp * s)
        out.append(MotionFrame(root, amp * s, scales))
    return MotionClip(tuple(out))


def random_pose(rng, bones, max_deg=30.0):
    """One bent pose with a rigid root offset."""
    angles = np.deg2rad(rng.uniform(-max_deg, max_deg, size=(bones, 3)))
    root = RigidTransform(rot.quat_from_rotation_vector(rng.uniform(-0.25, 0.25, 3)),
                          rng.uniform(-0.5, 0.5, 3))
    return MotionFrame(root, angles, np.ones(bones))


def posed_sequence(mesh, skeleton, weights, clip):
    """Ground-truth deformation of every clip frame through public FK + LBS."""
    return [
        blend_skin(mesh, weights, f.root, forward_kinematics(skeleton, f), frame_index=i)
        for i, f in enumerate(clip.frames)
    ]


def reference_weights(mesh, skeleton, blend=0.15):
    """Smooth analytic weights: each bone owns its x-span, blended at the joints.

    This is the designed rig the heat weights are compared against; blend is
    the half-width of each joint's transition in units of the bone length.
    """
    x = mesh.vertices[:, 0]
    starts = skeleton.joints[skeleton.bone_parent_joints, 0]
    ends = skeleton.joints[skeleton.bone_joints, 0]
    width = blend * skeleton.rest_lengths
    lo = np.clip((x[:, None] - starts + width) / (2 * width), 0.0, 1.0)
    hi = np.clip((ends + width - x[:, None]) / (2 * width), 0.0, 1.0)
    lo[:, 0] = 1.0   # the first bone also owns everything before it
    hi[:, -1] = 1.0  # and the last bone everything after it
    w = lo * hi
    return w / w.sum(axis=1, keepdims=True)


def rmse_pct(frames_a, frames_b, diag):
    """Pooled per-vertex RMSE between two posed sequences, % of diag."""
    sq = np.concatenate(
        [((a.vertices - b.vertices) ** 2).sum(axis=1) for a, b in zip(frames_a, frames_b)]
    )
    return 100.0 * float(np.sqrt(sq.mean())) / diag
