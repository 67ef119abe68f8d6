"""Property tests: batched visibility equals the per-ray oracle on generated meshes.

Needs hypothesis (the "test" extra); the examples are drawn by the
derandomized profile that conftest.py loads.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from animrig.geometry import TriMesh  # noqa: E402
from animrig.skinning import nearest_visible_bones  # noqa: E402
from visibility_oracle import CASES, oracle_nearest_visible_bones  # noqa: E402


@given(kind=st.sampled_from(sorted(CASES)), seed=st.integers(0, 2**32 - 1))
def test_matches_per_ray_oracle(kind, seed):
    vertices, faces, skeleton = CASES[kind](np.random.default_rng(seed))
    mesh = TriMesh(vertices, faces)
    anchors, dist = nearest_visible_bones(mesh, skeleton)
    want_anchors, want_dist = oracle_nearest_visible_bones(mesh, skeleton)
    assert np.array_equal(anchors, want_anchors)
    assert np.array_equal(dist, want_dist)
