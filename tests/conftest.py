import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from shapes import chain_skeleton, limb_rig, make_capsule  # noqa: E402
from animrig.skinning import heat_diffusion_skinning  # noqa: E402

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None
if settings is not None:
    # Property tests draw the same examples on every run (no example database,
    # no per-example deadline), so Tier-1 stays repeatable on a slow host.
    settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                              max_examples=60)
    settings.load_profile("tier1")


@pytest.fixture(scope="session")
def capsule_rig():
    """Circular capsule with a 2-bone axial skeleton (skinning fixture)."""
    mesh = make_capsule(length=3.0, radius=0.25, rings=24, sides=16)
    skeleton = chain_skeleton(3, length=1.5)
    return mesh, skeleton


@pytest.fixture(scope="session")
def capsule_heat_weights(capsule_rig):
    mesh, skeleton = capsule_rig
    return heat_diffusion_skinning(mesh, skeleton)


@pytest.fixture(scope="session")
def small_limb():
    """3-bone limb at unit-test resolution plus heat weights."""
    mesh, skeleton = limb_rig(rings=16, sides=10)
    weights = heat_diffusion_skinning(mesh, skeleton)
    return mesh, skeleton, weights


@pytest.fixture(scope="session")
def full_limb():
    """3-bone limb at recovery-test resolution (~2k vertices) plus heat weights.

    Pose-recovery assertions need this density: coarser limbs leave the pose
    underdetermined for point-set losses (ring and side aliasing).
    """
    mesh, skeleton = limb_rig(rings=60, sides=32)
    weights = heat_diffusion_skinning(mesh, skeleton)
    return mesh, skeleton, weights


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
