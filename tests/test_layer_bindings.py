"""Every layer the benchmark tracer wraps still exists under the name it wraps.

perfbench/layertrace.py replaces each function of its LAYERS table at every
"module:attribute" binding callers use, and a binding that no longer resolves
stops a traced benchmark run. This test resolves the same bindings, the way
Tracer.install does, so renaming or deleting a wrapped function fails here.
"""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "layertrace.py")
_spec = importlib.util.spec_from_file_location("perfbench_layertrace", _PATH)
layertrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layertrace)

BINDINGS = [(name, binding) for name, (bindings, _) in layertrace.LAYERS.items()
            for binding in bindings]


@pytest.mark.parametrize("name, binding", BINDINGS, ids=[b for _, b in BINDINGS])
def test_binding_resolves_to_a_callable(name, binding):
    owner, attr = layertrace._resolve(binding)
    assert attr in vars(owner), f"layer {name}: {binding} does not resolve"
    assert callable(vars(owner)[attr])
