"""Brute-force reference for heat-skinning visibility, and generated test meshes.

`oracle_nearest_visible_bones` tests one ray at a time against every face,
the way `skinning.nearest_visible_bones` did before its grid-culled batch
pass. CASES maps a case name to a generator rng -> (vertices, faces,
skeleton) of meshes that exercise occlusion, open and planar meshes, faces
spanning the bounding box, zero-length rays, exact distance ties, rays
crossing several shells, incident faces that would count as hits and
determinants near the 1e-14 threshold.
"""

import numpy as np

from animrig.skeleton import Skeleton
from animrig.skinning import point_segment_distances
from shapes import make_capsule, make_grid


def _ray_blocked(origin, target, vertices, faces, exclude_vertex):
    """True when the open segment origin->target crosses a mesh triangle.

    Faces incident to exclude_vertex are skipped; grazing or numerically
    ambiguous hits do not count as blocking.
    """
    direction = target - origin
    length = np.linalg.norm(direction)
    if length < 1e-12 or not len(faces):
        return False
    v0 = vertices[faces[:, 0]]
    e1 = vertices[faces[:, 1]] - v0
    e2 = vertices[faces[:, 2]] - v0
    h = np.cross(direction, e2)
    det = np.einsum("fi,fi->f", e1, h)
    ok = np.abs(det) > 1e-14
    if exclude_vertex is not None:
        ok &= ~np.any(faces == exclude_vertex, axis=1)
    if not ok.any():
        return False
    inv = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    s = origin - v0
    u = inv * np.einsum("fi,fi->f", s, h)
    q = np.cross(s, e1)
    v = inv * np.einsum("fi,fi->f", np.broadcast_to(direction, v0.shape), q)
    t = inv * np.einsum("fi,fi->f", e2, q)
    eps = 1e-9
    hit = (
        ok
        & (u > eps)
        & (v > eps)
        & (u + v < 1.0 - eps)
        & (t > 1e-7)
        & (t < 1.0 - 1e-7)
    )
    return bool(hit.any())


def oracle_nearest_visible_bones(mesh, skeleton, use_visibility=True):
    """Per-vertex loop over bones in distance order, one brute-force ray each."""
    seg_a = skeleton.joints[skeleton.bone_parent_joints]
    seg_b = skeleton.joints[skeleton.bone_joints]
    dist, closest = point_segment_distances(mesh.vertices, seg_a, seg_b)
    order = np.argsort(dist, axis=1, kind="stable")
    n_verts, n_bones = dist.shape
    anchors = np.zeros((n_verts, n_bones))
    picked = np.zeros(n_verts)
    test_rays = use_visibility and len(mesh.faces) > 0
    for n in range(n_verts):
        visible = order[n, 0]
        if test_rays:
            for b in order[n]:
                if not _ray_blocked(mesh.vertices[n], closest[n, b], mesh.vertices, mesh.faces, n):
                    visible = b
                    break
        d_star = dist[n, visible]
        tol = 1e-9 * max(d_star, 1.0)
        tied = [int(visible)]
        for b in order[n]:
            if b == visible or dist[n, b] > d_star + tol:
                continue
            if not test_rays or not _ray_blocked(
                mesh.vertices[n], closest[n, b], mesh.vertices, mesh.faces, n
            ):
                tied.append(int(b))
        anchors[n, tied] = 1.0 / len(tied)
        picked[n] = d_star
    return anchors, picked


def _chain(joints):
    return Skeleton(np.asarray(joints, dtype=np.float64), np.arange(len(joints)) - 1)


def _bent_chain(rng, bones, start, stop, wobble):
    """Chain along +x whose inner joints stray off the axis (often outside the mesh)."""
    joints = np.zeros((bones + 1, 3))
    joints[:, 0] = np.linspace(start, stop, bones + 1)
    joints[:, 1:] = rng.normal(scale=wobble, size=(bones + 1, 2))
    return _chain(joints)


def _closed(rng):
    mesh = make_capsule(length=3.0, radius=0.3, rings=int(rng.integers(2, 8)),
                        sides=int(rng.integers(4, 9)), cap_rings=2)
    vertices = mesh.vertices + rng.normal(scale=0.02, size=mesh.vertices.shape)
    return vertices, mesh.faces, _bent_chain(rng, int(rng.integers(2, 5)), -0.2, 3.2, 0.35)


def _open(rng):
    """Triangle soup: random faces, many spanning most of the bounding box."""
    vertices = rng.uniform(-1.0, 1.0, size=(int(rng.integers(6, 30)), 3))
    faces = np.array([rng.choice(len(vertices), 3, replace=False)
                      for _ in range(int(rng.integers(1, 40)))])
    joints = rng.uniform(-1.5, 1.5, size=(int(rng.integers(3, 6)), 3))
    return vertices, faces, _chain(joints)


def _planar(rng):
    """A flat sheet in z = 0, so the grid has zero extent along z."""
    mesh = make_grid(int(rng.integers(2, 7)), int(rng.integers(2, 7)), spacing=0.3)
    vertices = mesh.vertices.copy()
    vertices[:, :2] += rng.uniform(-0.1, 0.1, size=(len(vertices), 2))
    joints = rng.uniform(-0.5, 2.0, size=(int(rng.integers(3, 6)), 3))
    joints[rng.random(len(joints)) < 0.5, 2] = 0.0  # some bones lie in the sheet
    return vertices, mesh.faces, _chain(joints)


def _spanning_face(rng):
    """A closed limb plus one face spanning its whole bounding box."""
    vertices, faces, skeleton = _closed(rng)
    lo, hi = np.argmin(vertices[:, 0]), np.argmax(vertices[:, 0])
    side = int(np.argmax(vertices[:, 1]))
    return vertices, np.vstack([faces, [lo, hi, side]]), skeleton


def _vertex_on_bone(rng):
    """Bones start at mesh vertices, so those vertices have zero-length rays."""
    vertices, faces, skeleton = (_closed if rng.random() < 0.5 else _open)(rng)
    joints = skeleton.joints.copy()
    picks = rng.choice(len(vertices), size=len(joints), replace=False)
    on = rng.random(len(joints)) < 0.5
    joints[on] = vertices[picks[on]]
    if np.any(np.linalg.norm(np.diff(joints, axis=0), axis=1) == 0.0):
        joints = skeleton.joints
    return vertices, faces, _chain(joints)


def _ties(rng):
    """A sheet in z = 0 between bones mirrored across it, partly shaded by a patch.

    Mirrored bones are at exactly equal distances from every sheet vertex, so
    anchors split evenly unless the patch at z = h / 2 hides one of them.
    """
    sheet = make_grid(int(rng.integers(2, 6)), int(rng.integers(2, 6)), spacing=0.3)
    h = float(rng.uniform(0.2, 0.6))
    cx, cy = rng.uniform(0.0, 1.0, size=2)
    reach = float(rng.uniform(0.3, 1.5))
    joints = [[cx, cy, 0.0], [cx, cy, h], [cx + reach, cy, h], [cx, cy, -h], [cx + reach, cy, -h]]
    skeleton = Skeleton(np.array(joints), [-1, 0, 1, 0, 3])
    patch = make_grid(2, 2, spacing=float(rng.uniform(0.3, 1.2)))
    patch_vertices = patch.vertices + [*rng.uniform(-0.2, 0.8, size=2), 0.5 * h]
    vertices = np.vstack([sheet.vertices, patch_vertices])
    faces = np.vstack([sheet.faces, patch.faces + len(sheet.vertices)])
    return vertices, faces, skeleton


def _nested(rng):
    """Two or three concentric closed capsules: most rays cross several shells,
    and the batch pass often blocks a ray in one slice of pairs before it
    tests the ray's later slices."""
    vertices, faces = [], []
    for radius in np.sort(rng.uniform(0.15, 0.8, size=int(rng.integers(2, 4)))):
        mesh = make_capsule(length=3.0, radius=radius, rings=int(rng.integers(4, 9)),
                            sides=int(rng.integers(6, 11)), cap_rings=2)
        faces.append(mesh.faces + sum(len(v) for v in vertices))
        vertices.append(mesh.vertices + rng.normal(scale=0.01, size=mesh.vertices.shape))
    skeleton = _bent_chain(rng, int(rng.integers(2, 5)), -0.2, 3.2, 0.2)
    return np.vstack(vertices), np.vstack(faces), skeleton


def _near_plane(rng, tilt_exponents):
    """A sheet tilted out of its plane by 10**tilt_exponents, with bones in that
    plane, turned by a random rotation: every ray runs almost in the plane of
    the faces around it, so its determinant with them is tiny."""
    sheet = make_grid(int(rng.integers(3, 8)), int(rng.integers(3, 8)), spacing=0.3)
    vertices = sheet.vertices.copy()
    vertices[:, :2] += rng.uniform(-0.1, 0.1, size=(len(vertices), 2))
    vertices[:, 2] = rng.normal(scale=10.0 ** rng.uniform(*tilt_exponents), size=len(vertices))
    joints = rng.uniform(-0.5, 2.0, size=(int(rng.integers(3, 6)), 3))
    joints[:, 2] = 0.0
    turn, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return vertices @ turn.T, sheet.faces, _chain(joints @ turn.T)


def _incident(rng):
    """Faces incident to a ray's vertex that Moller-Trumbore would count as hits.

    A ray that starts at corner 2 of a face and runs almost in its plane gets
    u, t and 1 - v of rounding size over a determinant near 1e-13, which pass
    the thresholds now and then: only leaving incident faces out hides them.
    """
    return _near_plane(rng, (-14.0, -12.0))


def _sliver(rng):
    """(ray, face) pairs whose |det| lies on both sides of the 1e-14 threshold."""
    return _near_plane(rng, (-15.5, -13.0))


CASES = {
    "closed": _closed, "open": _open, "planar": _planar, "spanning_face": _spanning_face,
    "vertex_on_bone": _vertex_on_bone, "ties": _ties, "nested": _nested,
    "incident": _incident, "sliver": _sliver,
}
