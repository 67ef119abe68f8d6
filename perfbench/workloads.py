"""The benchmark workloads: seeded inputs, one measured operation, output checks.

Each workload builds its inputs in ``setup`` (timed as set-up), performs one
closed-loop operation per ``run`` call, and validates that operation's output
in ``check``, which returns a list of failure messages; a repeat whose output
differs from the run's first operation counts as failed. ``error_pct`` scores
the output against the generator's ground truth so that a speed-up which
degrades the result shows. Every operation of a run repeats the same input,
so per-operation counts repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np

import gen
from animrig import cli, fitting, skinning
from animrig.fitting import FitConfig
from animrig.geometry import bbox_diagonal, save_mesh
from animrig.retarget import build_interior_field
from animrig.skeleton import (
    MotionClip, MotionFrame, RigidTransform, Skeleton, clip_to_dict, load_clip, load_skeleton,
    posed_joints, save_skeleton,
)
from animrig.skinning import SkinWeights, heat_diffusion_skinning, load_weights

# run() calls the program through module attributes (fitting.fit_motion, not a
# local name) so that the traced run's wrappers see the call.

# Full-size parameters; "toy" shrinks meshes and clips for the smoke tests.
PARAMS = {
    "fit_limb": {
        "full": {"limb": {"rings": 60, "sides": 32}, "bones": 3, "frames": 5, "max_deg": 30.0,
                 "fit": FitConfig().to_dict(), "supervision_weights": "canonical heat weights"},
        "toy": {"limb": {"rings": 12, "sides": 8}, "bones": 3, "frames": 2, "max_deg": 10.0,
                "fit": {"max_iters": 20}, "supervision_weights": "canonical heat weights"},
    },
    "skin_scale": {
        "full": {"limbs": [{"rings": 60, "sides": 32}, {"rings": 100, "sides": 48}],
                 "bones": 3, "pose_max_deg": 30.0},
        "toy": {"limbs": [{"rings": 10, "sides": 8}, {"rings": 14, "sides": 8}],
                "bones": 3, "pose_max_deg": 30.0},
    },
    "pipeline_embed": {
        "full": {"limb": {"rings": 40, "sides": 16}, "bones": 3, "frames": 5, "max_deg": 30.0,
                 "target_limb": {"segment": 1.25, "radius": 0.3, "radius_z": 0.2, "rings": 50,
                                 "sides": 18, "taper": 0.15},
                 "embed_resolution": 48, "fit": {}, "target_weight_mode": "heat",
                 "supervision_weights": None},
        "toy": {"limb": {"rings": 10, "sides": 8}, "bones": 3, "frames": 2, "max_deg": 10.0,
                "target_limb": {"segment": 1.25, "radius": 0.3, "radius_z": 0.2, "rings": 12,
                                "sides": 8, "taper": 0.15},
                "embed_resolution": 16, "fit": {"max_iters": 20}, "target_weight_mode": "heat",
                "supervision_weights": None},
    },
}

# Fixed evaluation pose for scoring skin weights (not seeded: it defines the metric).
EVAL_ANGLES_DEG = np.array([[0.0, 20.0, 30.0], [10.0, -25.0, 30.0], [-15.0, 20.0, -30.0]])


def digest(data):
    return hashlib.sha256(data).hexdigest()


class FirstRepeat:
    """Output digests of a run's first operation; every later repeat must match them."""

    def __init__(self):
        self.digests = None

    def failures(self, digests):
        if self.digests is None:
            self.digests = digests
        changed = sorted(name for name in digests if digests[name] != self.digests[name])
        return [f"{changed} differ from the first repeat of this seed"] if changed else []


def clip_digest(clip):
    return digest(json.dumps(clip_to_dict(clip), sort_keys=True).encode())


def weight_failures(weights, rows, bones, label):
    w = weights.weights
    if w.shape != (rows, bones):
        return [f"{label}: weights shape {w.shape}, expected {(rows, bones)}"]
    if not np.all(np.isfinite(w)):
        return [f"{label}: non-finite weights"]
    worst = float(np.abs(w.sum(axis=1) - 1.0).max())
    return [f"{label}: a weight row sums to 1 {worst:+.1e}"] if worst > 1e-6 else []


def clip_failures(clip, frames, label):
    if len(clip.frames) != frames:
        return [f"{label}: {len(clip.frames)} frames for {frames} supervision meshes"]
    for i, f in enumerate(clip.frames):
        values = np.concatenate([f.root.as_flat(), f.angles.ravel(), f.bone_scales])
        if not np.all(np.isfinite(values)):
            return [f"{label}: frame {i} is not finite"]
    return []


class FitLimb:
    """fit_motion with the default FitConfig on the tapered capsule limb."""

    def __init__(self, seed, params, workdir):
        self.seed, self.p = seed, params
        self.first = FirstRepeat()

    def setup(self):
        p = self.p
        mesh = gen.capsule_limb(bones=p["bones"], **p["limb"])
        skel = gen.chain_skeleton(p["bones"])
        weights = heat_diffusion_skinning(mesh, skel)
        failures = weight_failures(weights, mesh.num_vertices, skel.num_bones, "canonical")
        if failures:
            raise RuntimeError(f"set-up: {failures}")
        clip = gen.smooth_clip(np.random.default_rng(self.seed), p["bones"], p["frames"],
                               max_deg=p["max_deg"])
        truth = gen.posed_sequence(mesh, skel, weights, clip)
        self.mesh, self.skel, self.weights, self.truth = mesh, skel, weights, truth
        self.supervision = [d.as_mesh() for d in truth]
        self.config = FitConfig.from_dict(p["fit"])

    def run(self):
        return fitting.fit_motion(self.mesh, self.skel, self.weights, self.supervision,
                                  self.config,
                                  supervision_weights=[self.weights] * len(self.supervision))

    def check(self, output):
        clip, _ = output
        return (clip_failures(clip, len(self.supervision), "clip")
                + self.first.failures({"clip": clip_digest(clip)}))

    def error_pct(self, output):
        fitted = gen.posed_sequence(self.mesh, self.skel, self.weights, output[0])
        return gen.rmse_pct(fitted, self.truth, bbox_diagonal(self.mesh))

    def details(self, outputs, walls):
        report = outputs[-1][1].frames
        frames = len(report)
        return {"fit_s_per_frame": float(np.median(walls)) / frames,
                "iterations": [row["iterations"] for row in report],
                "digests": self.first.digests}


class SkinScale:
    """heat_diffusion_skinning of a seeded bent pose of the limb at two sizes."""

    def __init__(self, seed, params, workdir):
        self.seed, self.p = seed, params
        self.first = FirstRepeat()

    def setup(self):
        p = self.p
        rng = np.random.default_rng(self.seed)
        pose = gen.random_pose(rng, p["bones"], p["pose_max_deg"])
        skel = gen.chain_skeleton(p["bones"])
        posed_skel = Skeleton(posed_joints(skel, pose), skel.parents)
        self.skel, self.cases, self.call_s = skel, [], []
        for limb in p["limbs"]:
            mesh = gen.capsule_limb(bones=p["bones"], **limb)
            ref = SkinWeights(gen.reference_weights(mesh, skel))
            posed = gen.posed_sequence(mesh, skel, ref, _single(pose))[0].as_mesh()
            self.cases.append((mesh, ref, posed, posed_skel))

    def run(self):
        out, seconds = [], []
        for _, _, posed, skel in self.cases:
            start = time.perf_counter()
            out.append(skinning.heat_diffusion_skinning(posed, skel))
            seconds.append(time.perf_counter() - start)
        self.call_s.append(seconds)
        return out

    def check(self, output):
        failures = []
        for (mesh, _, _, _), weights in zip(self.cases, output):
            failures += weight_failures(weights, mesh.num_vertices, self.skel.num_bones,
                                        f"{mesh.num_vertices}-vertex limb")
        return failures + self.first.failures(
            {f"weights_{case[0].num_vertices}": digest(w.weights.tobytes())
             for case, w in zip(self.cases, output)})

    def error_pct(self, output):
        """Pose error of the heat weights against the designed rig's weights."""
        frame = MotionFrame(RigidTransform(), np.deg2rad(EVAL_ANGLES_DEG[:self.skel.num_bones]),
                            np.ones(self.skel.num_bones))
        sq, diag = [], []
        for (mesh, ref, _, _), weights in zip(self.cases, output):
            a = gen.posed_sequence(mesh, self.skel, weights, _single(frame))[0]
            b = gen.posed_sequence(mesh, self.skel, ref, _single(frame))[0]
            sq.append(((a.vertices - b.vertices) ** 2).sum(axis=1))
            diag.append(bbox_diagonal(mesh))
        return 100.0 * float(np.sqrt(np.concatenate(sq).mean())) / float(np.mean(diag))

    def details(self, outputs, walls):
        per_size = np.median(self.call_s, axis=0)
        return {"skin_s": {str(case[0].num_vertices): float(t)
                           for case, t in zip(self.cases, per_size)},
                "digests": self.first.digests}


class PipelineEmbed:
    """The `pipeline` subcommand: heat skin, fit, export, embed and retarget."""

    OUTPUTS = ("weights.json", "clip.json", "fit_report.json", "summary.json", "timing.json",
               "embedded_skeleton.json", "target_weights.json")
    DIGESTED = ("clip.json", "summary.json", "fit_report.json", "weights.json")

    def __init__(self, seed, params, workdir):
        self.seed, self.p, self.workdir = seed, params, workdir
        self.first = FirstRepeat()
        self.field = None

    def setup(self):
        p, root = self.p, self.workdir
        if os.path.isdir(root):
            shutil.rmtree(root)
        sup_dir = os.path.join(root, "supervision")
        os.makedirs(sup_dir)
        mesh = gen.capsule_limb(bones=p["bones"], **p["limb"])
        skel = gen.chain_skeleton(p["bones"])
        weights = heat_diffusion_skinning(mesh, skel)
        clip = gen.smooth_clip(np.random.default_rng(self.seed), p["bones"], p["frames"],
                               max_deg=p["max_deg"])
        truth = gen.posed_sequence(mesh, skel, weights, clip)
        for k, frame in enumerate(truth):
            save_mesh(frame.as_mesh(), os.path.join(sup_dir, f"frame_{k:04d}.obj"))
        target = gen.capsule_limb(bones=p["bones"], **p["target_limb"])
        paths = {name: os.path.join(root, name)
                 for name in ("canonical.obj", "skeleton.json", "target.obj", "config.json")}
        save_mesh(mesh, paths["canonical.obj"])
        save_skeleton(skel, paths["skeleton.json"])
        save_mesh(target, paths["target.obj"])
        config = {
            "canonical_mesh": paths["canonical.obj"],
            "skeleton": paths["skeleton.json"],
            "supervision_dir": sup_dir,
            "out_dir": os.path.join(root, "out"),
            "seed": self.seed,
            "skinning": {"method": "heat"},
            "fit": dict(p["fit"], target_weight_mode=p["target_weight_mode"]),
            "retarget": {"target_mesh": paths["target.obj"],
                         "embed_resolution": p["embed_resolution"]},
        }
        with open(paths["config.json"], "w") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
        self.mesh, self.skel, self.target, self.truth = mesh, skel, target, truth
        self.config_path, self.out_dir = paths["config.json"], config["out_dir"]

    def run(self):
        return cli.main(["pipeline", "--config", self.config_path])

    def check(self, code):
        if code != 0:
            return [f"pipeline exited with {code}"]
        out = self.out_dir
        frames = len(self.truth)
        expected = list(self.OUTPUTS)
        expected += [os.path.join("frames", f"frame_{k:04d}.obj") for k in range(frames)]
        expected += [os.path.join("retarget", f"frame_{k:04d}.obj") for k in range(frames)]
        missing = [name for name in expected if not os.path.isfile(os.path.join(out, name))]
        if missing:
            return [f"pipeline did not write {missing}"]
        failures = []
        failures += weight_failures(load_weights(os.path.join(out, "weights.json")),
                                    self.mesh.num_vertices, self.skel.num_bones, "weights.json")
        failures += weight_failures(load_weights(os.path.join(out, "target_weights.json")),
                                    self.target.num_vertices, self.skel.num_bones,
                                    "target_weights.json")
        failures += clip_failures(load_clip(os.path.join(out, "clip.json")), frames, "clip.json")
        if self.field is None:
            self.field = build_interior_field(self.target, self.p["embed_resolution"])
        embedded = load_skeleton(os.path.join(out, "embedded_skeleton.json"))
        outside = [j for j, x in enumerate(embedded.joints) if not self.field.contains(x)]
        if outside:
            failures.append(f"embedded joints {outside} lie outside the interior field")
        digests = {}
        for name in self.DIGESTED:
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = digest(fh.read())
        return failures + self.first.failures(digests)

    def error_pct(self, code):
        clip = load_clip(os.path.join(self.out_dir, "clip.json"))
        weights = load_weights(os.path.join(self.out_dir, "weights.json"))
        fitted = gen.posed_sequence(self.mesh, self.skel, weights, clip)
        return gen.rmse_pct(fitted, self.truth, bbox_diagonal(self.mesh))

    def details(self, outputs, walls):
        with open(os.path.join(self.out_dir, "fit_report.json")) as fh:
            report = json.load(fh)
        return {"pipeline_s": float(np.median(walls)),
                "iterations": [row["iterations"] for row in report["frames"]],
                "digests": self.first.digests}

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _single(frame):
    return MotionClip((frame,))


WORKLOADS = {"fit_limb": FitLimb, "skin_scale": SkinScale, "pipeline_embed": PipelineEmbed}
