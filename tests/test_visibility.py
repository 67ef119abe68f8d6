"""Heat-skinning visibility against the brute-force per-ray oracle.

`nearest_visible_bones` tests every (vertex, bone) ray in one grid-culled
batch; these tests require it to agree exactly with the oracle of
visibility_oracle.py (same anchors, same distances) and bound its traced
memory. test_visibility_properties.py checks the same on generated meshes.
"""

import tracemalloc

import numpy as np

from animrig.geometry import TriMesh
from animrig.skeleton import MotionClip, MotionFrame, RigidTransform, Skeleton, posed_joints
from animrig.skinning import (
    ellipsoids_from_skeleton,
    gaussian_skinning,
    nearest_visible_bones,
    point_segment_distances,
)
from motionutil import deform_clip
from shapes import limb_rig
from visibility_oracle import CASES, _ray_blocked, oracle_nearest_visible_bones


def test_cases_exercise_occlusion_and_ties():
    """The generated cases do hit the branches the property tests are about."""
    blocked = tied = 0
    for kind in ("closed", "ties"):
        for seed in range(5):
            vertices, faces, skeleton = CASES[kind](np.random.default_rng(seed))
            mesh = TriMesh(vertices, faces)
            seen, _ = oracle_nearest_visible_bones(mesh, skeleton)
            blind, _ = oracle_nearest_visible_bones(mesh, skeleton, use_visibility=False)
            blocked += int(np.any(seen != blind))
            tied += int(np.any((seen > 0) & (seen < 1)))
    assert blocked and tied


def test_incident_cases_have_hits_at_the_ray_vertex():
    """The incident family has rays that only a face at their own vertex would block."""
    hidden = 0
    for seed in range(5):
        vertices, faces, skeleton = CASES["incident"](np.random.default_rng(seed))
        _, closest = point_segment_distances(
            vertices, skeleton.joints[skeleton.bone_parent_joints],
            skeleton.joints[skeleton.bone_joints])
        for n in range(len(vertices)):
            for target in closest[n]:
                hidden += (_ray_blocked(vertices[n], target, vertices, faces, None)
                           and not _ray_blocked(vertices[n], target, vertices, faces, n))
    assert hidden


def test_limb_matches_oracle(small_limb):
    mesh, skeleton, _ = small_limb
    anchors, dist = nearest_visible_bones(mesh, skeleton)
    want_anchors, want_dist = oracle_nearest_visible_bones(mesh, skeleton)
    assert np.array_equal(anchors, want_anchors)
    assert np.array_equal(dist, want_dist)


def test_peak_memory_on_5k_bent_limb():
    """Visibility on the 100 x 48 bent limb stays within 2.95 MB of traced memory.

    2.95 MB is what the per-vertex loop this pass replaced peaked at on the
    5,138-vertex bent limb; the grid and pair blocks keep the batch under it.
    """
    mesh, skeleton = limb_rig(rings=100, sides=48)
    assert mesh.num_vertices == 5138
    weights = gaussian_skinning(mesh, ellipsoids_from_skeleton(skeleton))
    angles = np.deg2rad([[0.0, 20.0, 30.0], [10.0, -25.0, 30.0], [-15.0, 20.0, -30.0]])
    frame = MotionFrame(RigidTransform(), angles, np.ones(skeleton.num_bones))
    posed = deform_clip(mesh, skeleton, weights, MotionClip((frame,)))[0].as_mesh()
    posed_skeleton = Skeleton(posed_joints(skeleton, frame), skeleton.parents)

    tracemalloc.start()
    try:
        nearest_visible_bones(posed, posed_skeleton)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.95 * 2**20
