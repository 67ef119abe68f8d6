"""Layer spans recorded from outside the program.

The tracer replaces each traced function with a wrapper at every name its
callers look it up by (``animrig.fitting.fk_arrays`` as well as
``animrig.skeleton.fk_arrays``), records a span per call while recording is
on, and puts the originals back on ``restore``. A binding that no longer
resolves stops the traced run, so a renamed or inlined function cannot read
as a layer that costs nothing. Spans live in memory as
``[name, start, end, parent]`` rows and are written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _interior_voxels(tracer, args, kwargs, result):
    tracer.counters["retarget.interior_voxels"] += result.interior_count()


def _loaded_bytes(tracer, args, kwargs, result):
    tracer.counters["geometry.load_mesh.bytes"] += os.path.getsize(args[0])


def _saved_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["geometry.save_mesh.bytes"] += os.path.getsize(path)


def _fit_iterations(tracer, args, kwargs, result):
    frames = result[1].frames
    tracer.counters["fitting.iterations"] += sum(row["iterations"] for row in frames)
    tracer.counters["fitting.frames"] += len(frames)


# layer name -> (every "module:attribute" binding callers use, result hook)
LAYERS = {
    "cli.main": (["animrig.cli:main"], None),
    "cli.run_pipeline": (["animrig.cli:run_pipeline"], None),
    "fitting.fit_motion": (["animrig.fitting:fit_motion", "animrig.cli:fit_motion"],
                           _fit_iterations),
    "fitting.gradient": (["animrig.fitting:FrameObjective.gradient"], None),
    "fitting.evaluate": (["animrig.fitting:FrameObjective.evaluate"], None),
    "fitting.lbfgs": (["scipy.optimize:minimize"], None),
    "chamfer.match_global": (["animrig.chamfer:match_global"], None),
    "chamfer.match_parts": (["animrig.chamfer:match_parts"], None),
    "chamfer.part_match_value": (["animrig.chamfer:part_match_value"], None),
    "chamfer.kdtree_build": (["animrig.chamfer:cKDTree", "animrig.fitting:cKDTree",
                              "animrig.deform:cKDTree"], None),
    "deform.blend_skin_arrays": (["animrig.deform:blend_skin_arrays",
                                  "animrig.fitting:blend_skin_arrays"], None),
    "deform.blend_skin": (["animrig.deform:blend_skin", "animrig.retarget:blend_skin"], None),
    "deform.export_frame_meshes": (["animrig.deform:export_frame_meshes",
                                    "animrig.cli:export_frame_meshes"], None),
    "skeleton.fk_arrays": (["animrig.skeleton:fk_arrays", "animrig.fitting:fk_arrays"], None),
    "skeleton.forward_kinematics": (["animrig.skeleton:forward_kinematics",
                                     "animrig.retarget:forward_kinematics"], None),
    "rotations.rotation_matrices": (["animrig.rotations:rotation_matrices"], None),
    "rotations.rotation_vector_gradient": (["animrig.rotations:rotation_vector_gradient"], None),
    "skinning.heat_diffusion_skinning": (["animrig.skinning:heat_diffusion_skinning",
                                          "animrig.fitting:heat_diffusion_skinning",
                                          "animrig.cli:heat_diffusion_skinning"], None),
    "skinning.nearest_visible_bones": (["animrig.skinning:nearest_visible_bones"], None),
    "skinning.cotangent_laplacian": (["animrig.skinning:cotangent_laplacian"], None),
    "retarget.build_interior_field": (["animrig.retarget:build_interior_field",
                                       "animrig.cli:build_interior_field"], _interior_voxels),
    "retarget.embed_skeleton": (["animrig.retarget:embed_skeleton",
                                 "animrig.cli:embed_skeleton"], None),
    "retarget.transfer_motion": (["animrig.retarget:transfer_motion",
                                  "animrig.cli:transfer_motion"], None),
    "geometry.load_mesh": (["animrig.geometry:load_mesh", "animrig.cli:load_mesh"],
                           _loaded_bytes),
    "geometry.save_mesh": (["animrig.geometry:save_mesh", "animrig.deform:save_mesh",
                            "animrig.cli:save_mesh"], _saved_bytes),
}


def _resolve(binding):
    """(owner object, attribute) for "pkg.module:Attr" or "pkg.module:Class.attr"."""
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder with reversible function wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self.active = False
        self._stack = []
        self._saved = []  # (owner, attr, original)

    def wrap(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            row = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(row)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of every layer; a binding that does not resolve is an error."""
        for name, (bindings, on_result) in LAYERS.items():
            for binding in bindings:
                try:
                    owner, attr = _resolve(binding)
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError) as exc:
                    raise LookupError(f"layer {name}: binding {binding} does not resolve "
                                      f"({exc!r}); update layertrace.LAYERS") from exc
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self):
        """Put back every original, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def write(self, path):
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def self_times(spans):
    """Per span: duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """name -> {"calls", "total_s", "self_s"} over all spans."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        entry = table[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
    return dict(table)


SPAN_COST_CALLS = 20000


def span_cost_s():
    """Wall cost one recorded span adds to a call, measured on a no-op."""
    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap("probe", noop)
    start = time.perf_counter()
    for _ in range(SPAN_COST_CALLS):
        noop()
    direct = time.perf_counter() - start
    with probe.recording():
        start = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            traced()
        wrapped = time.perf_counter() - start
    return max(wrapped - direct, 0.0) / SPAN_COST_CALLS
