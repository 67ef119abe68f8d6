"""The benchmark still runs against the library's public names.

perfbench/layertrace.py replaces each function of its LAYERS table at every
"module:attribute" binding callers use, and a binding that no longer resolves
stops a traced benchmark run. This test resolves the same bindings, the way
Tracer.install does, so renaming or deleting a wrapped function fails here.
It also runs perfbench/gen.py's ground-truth posing, which calls the public
FK and skinning functions, against the test suite's own helper.
"""

import importlib.util
import os

import numpy as np
import pytest

from motionutil import deform_clip
from animrig.skinning import SkinWeights

_BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(_BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _load("layertrace")
gen = _load("gen")

BINDINGS = [(name, binding) for name, (bindings, _) in layertrace.LAYERS.items()
            for binding in bindings]


@pytest.mark.parametrize("name, binding", BINDINGS, ids=[b for _, b in BINDINGS])
def test_binding_resolves_to_a_callable(name, binding):
    owner, attr = layertrace._resolve(binding)
    assert attr in vars(owner), f"layer {name}: {binding} does not resolve"
    assert callable(vars(owner)[attr])


def test_bench_ground_truth_matches_the_test_helper():
    mesh = gen.capsule_limb(rings=8, sides=6, cap_rings=2)
    skeleton = gen.chain_skeleton()
    weights = SkinWeights(gen.reference_weights(mesh, skeleton))
    clip = gen.smooth_clip(np.random.default_rng(3), skeleton.num_bones, 3)
    posed = gen.posed_sequence(mesh, skeleton, weights, clip)
    expected = deform_clip(mesh, skeleton, weights, clip)
    assert [p.frame_index for p in posed] == [e.frame_index for e in expected]
    for p, e in zip(posed, expected):
        assert np.array_equal(p.vertices, e.vertices)
