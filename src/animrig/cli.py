"""Command-line entry point and pipeline orchestration.

Subcommands: skin, fit, retarget, fk, eval-chamfer, validate, pipeline.
Exit codes: 0 success, 2 validation failure, 3 runtime failure. All reports
are JSON with sorted keys so repeated runs diff cleanly; wall-clock timings
live under a separate "timing" key that consumers can ignore.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import chamfer as ch
from .deform import export_frame_meshes
from .fitting import FitConfig, fit_motion
from .geometry import load_mesh, save_mesh
from .retarget import (
    JointCorrespondence,
    build_interior_field,
    check_correspondence,
    embed_skeleton,
    load_correspondence,
    transfer_motion,
)
from .skeleton import load_clip, load_skeleton, posed_joints, save_clip, save_skeleton
from .skinning import (
    ellipsoids_from_skeleton,
    gaussian_skinning,
    heat_diffusion_skinning,
    load_weights,
    save_weights,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
SKINNING_METHODS = ("heat", "gaussian")

def _write_json(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class PipelineConfig:
    """File paths and stage settings for the end-to-end pipeline."""

    canonical_mesh: str
    skeleton: str
    supervision_dir: str
    out_dir: str
    skinning_method: str = "heat"  # one of SKINNING_METHODS
    weights: str | None = None    # optional precomputed weights file
    fit: FitConfig = field(default_factory=FitConfig)
    retarget_target_mesh: str | None = None
    retarget_target_skeleton: str | None = None
    retarget_correspondence: str | None = None
    retarget_embed_resolution: int | None = None

    @classmethod
    def from_dict(cls, data):
        """Keys it does not read, such as the deleted "seed" and
        "retarget.scale_root_translation", are ignored. ValueError when the
        top level or its "retarget", "skinning" or "fit" section is not a
        JSON object."""
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        for key in ("retarget", "skinning", "fit"):
            if not isinstance(data.get(key, {}), dict):
                raise ValueError(f'config "{key}" must be a JSON object')
        retarget = data.get("retarget", {})
        return cls(
            canonical_mesh=data["canonical_mesh"],
            skeleton=data["skeleton"],
            supervision_dir=data["supervision_dir"],
            out_dir=data["out_dir"],
            skinning_method=data.get("skinning", {}).get("method", "heat"),
            weights=data.get("weights"),
            fit=FitConfig.from_dict(data.get("fit", {})),
            retarget_target_mesh=retarget.get("target_mesh"),
            retarget_target_skeleton=retarget.get("target_skeleton"),
            retarget_correspondence=retarget.get("correspondence"),
            retarget_embed_resolution=retarget.get("embed_resolution"),
        )

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def retarget_enabled(self):
        return self.retarget_target_mesh is not None


def _supervision_paths(directory):
    """The directory's .obj frames in name order; ValueError if it has none."""
    if not os.path.isdir(directory):
        raise ValueError(f"supervision directory not found: {directory}")
    names = sorted(
        n for n in os.listdir(directory) if n.lower().endswith(".obj")
    )
    if not names:
        raise ValueError(f"supervision directory has no .obj files: {directory}")
    return [os.path.join(directory, n) for n in names]


def _skin(mesh, skeleton, method):
    """Skin weights by one of SKINNING_METHODS."""
    if method == "gaussian":
        return gaussian_skinning(mesh, ellipsoids_from_skeleton(skeleton))
    return heat_diffusion_skinning(mesh, skeleton)


def _load(label, loader, path, diagnostics):
    """loader(path), or None after appending a "<label> not found" or
    "<label> invalid" diagnostic."""
    if not os.path.isfile(path):
        diagnostics.append(f"{label} not found: {path}")
        return None
    try:
        return loader(path)
    except Exception as exc:
        diagnostics.append(f"{label} invalid: {exc}")
        return None


def validate_assets(config: PipelineConfig):
    """Cross-check every referenced asset; returns a list of diagnostics."""
    return _check_assets(config)[0]


def _check_assets(config: PipelineConfig):
    """(diagnostics, inputs): each configured input loaded once. inputs maps
    "mesh", "skeleton", "weights", "supervision" (the frame paths),
    "target_mesh", "target_skeleton" and "correspondence" to what loaded, or
    to None where an input is not configured or failed."""
    diagnostics = []
    mesh = _load("canonical mesh", load_mesh, config.canonical_mesh, diagnostics)
    skeleton = _load("skeleton", load_skeleton, config.skeleton, diagnostics)
    weights = supervision = target_mesh = target_skel = corr = None

    if config.skinning_method not in SKINNING_METHODS:
        diagnostics.append(f"skinning method not in {SKINNING_METHODS}: {config.skinning_method!r}")

    try:
        supervision = _supervision_paths(config.supervision_dir)
    except ValueError as exc:
        diagnostics.append(str(exc))

    if config.weights is not None:
        weights = _load("weights", load_weights, config.weights, diagnostics)
    if weights is not None and mesh is not None and weights.num_vertices != mesh.num_vertices:
        diagnostics.append(
            f"weights rows ({weights.num_vertices}) do not match mesh vertices "
            f"({mesh.num_vertices})"
        )
    if weights is not None and skeleton is not None and weights.num_bones != skeleton.num_bones:
        diagnostics.append(
            f"weights columns ({weights.num_bones}) do not match skeleton bones "
            f"({skeleton.num_bones})"
        )

    if config.retarget_enabled():
        target_mesh = _load("retarget target mesh", load_mesh, config.retarget_target_mesh,
                            diagnostics)
        if config.retarget_target_skeleton is not None:
            target_skel = _load("retarget target skeleton", load_skeleton,
                                config.retarget_target_skeleton, diagnostics)
        elif config.retarget_embed_resolution is None:
            diagnostics.append(
                "retarget needs either a target skeleton or an embed resolution"
            )
        elif (
            not isinstance(config.retarget_embed_resolution, int)
            or config.retarget_embed_resolution < 8
        ):
            diagnostics.append(
                "retarget embed resolution must be an integer >= 8: "
                f"{config.retarget_embed_resolution!r}"
            )
        if config.retarget_correspondence is not None:
            corr = _load("correspondence", load_correspondence, config.retarget_correspondence,
                         diagnostics)
        elif skeleton is not None:
            corr = JointCorrespondence.identity(skeleton.num_joints)
        # an embedded target skeleton keeps the reference skeleton's parents
        parents = skeleton if config.retarget_target_skeleton is None else target_skel
        if skeleton is not None and parents is not None and corr is not None:
            diagnostics.extend(
                f"correspondence: {msg}"
                for msg in check_correspondence(corr, skeleton, parents)
            )
    inputs = {"mesh": mesh, "skeleton": skeleton, "weights": weights, "supervision": supervision,
              "target_mesh": target_mesh, "target_skeleton": target_skel, "correspondence": corr}
    return diagnostics, inputs


def run_pipeline(config: PipelineConfig) -> int:
    """skin -> fit -> (retarget) -> summary; partial outputs are quarantined.

    Outputs land in config.out_dir: weights.json, clip.json, fit_report.json,
    frames/, retarget/ (optional), and summary.json. An identical config
    reproduces byte-identical outputs except the "timing" section.
    """
    diagnostics, inputs = _check_assets(config)
    if diagnostics:
        for msg in diagnostics:
            print(f"validation: {msg}", file=sys.stderr)
        return EXIT_VALIDATION

    os.makedirs(config.out_dir, exist_ok=True)
    work = os.path.join(config.out_dir, "_partial")
    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)

    stage = "load"
    timing = {}
    mesh, skeleton, weights = inputs["mesh"], inputs["skeleton"], inputs["weights"]
    try:
        supervision = [load_mesh(p) for p in inputs["supervision"]]

        stage = "skin"
        started = time.perf_counter()
        if weights is None:
            weights = _skin(mesh, skeleton, config.skinning_method)
        save_weights(weights, os.path.join(work, "weights.json"))
        timing["skin_s"] = time.perf_counter() - started

        stage = "fit"
        started = time.perf_counter()
        clip, report = fit_motion(mesh, skeleton, weights, supervision, config.fit)
        save_clip(clip, os.path.join(work, "clip.json"))
        report_data = report.to_dict()
        _write_json(
            {
                "frames": [
                    {k: v for k, v in row.items() if k != "wall_time_s"}
                    for row in report_data["frames"]
                ],
                "totals": report_data["totals"],
            },
            os.path.join(work, "fit_report.json"),
        )
        from .deform import blend_skin
        from .skeleton import forward_kinematics

        deformed = [
            blend_skin(mesh, weights, f.root, forward_kinematics(skeleton, f), frame_index=i)
            for i, f in enumerate(clip.frames)
        ]
        export_frame_meshes(deformed, os.path.join(work, "frames"))
        timing["fit_s"] = time.perf_counter() - started

        summary = {
            "stages": ["skin", "fit"],
            "frame_count": len(clip.frames),
            "final_losses": {
                "glc_max": report_data["totals"]["final_glc_max"],
                "total_max": report_data["totals"]["final_total_max"],
                "per_frame_glc": [row["glc"] for row in report_data["frames"]],
            },
            "unconverged_frames": report_data["totals"]["unconverged_frames"],
        }

        if config.retarget_enabled():
            stage = "retarget"
            started = time.perf_counter()
            target_mesh, target_skel = inputs["target_mesh"], inputs["target_skeleton"]
            if target_skel is None:
                field_ = build_interior_field(target_mesh, config.retarget_embed_resolution)
                target_skel = embed_skeleton(target_mesh, skeleton, field_)
                save_skeleton(target_skel, os.path.join(work, "embedded_skeleton.json"))
            target_weights = heat_diffusion_skinning(target_mesh, target_skel)
            save_weights(target_weights, os.path.join(work, "target_weights.json"))
            retargeted = transfer_motion(
                clip, skeleton, target_skel, inputs["correspondence"], target_mesh, target_weights
            )
            export_frame_meshes(retargeted, os.path.join(work, "retarget"))
            timing["retarget_s"] = time.perf_counter() - started
            summary["stages"].append("retarget")

        summary_path = os.path.join(work, "summary.json")
        _write_json(summary, summary_path)
        _write_json(timing, os.path.join(work, "timing.json"))
    except Exception as exc:
        quarantine = os.path.join(config.out_dir, "quarantine")
        if os.path.isdir(quarantine):
            shutil.rmtree(quarantine)
        os.replace(work, quarantine)
        print(f"pipeline stage '{stage}' failed: {exc}", file=sys.stderr)
        print(f"partial outputs quarantined in {quarantine}", file=sys.stderr)
        return EXIT_RUNTIME

    for name in os.listdir(work):
        dest = os.path.join(config.out_dir, name)
        if os.path.isdir(dest):
            shutil.rmtree(dest)
        elif os.path.isfile(dest):
            os.remove(dest)
        shutil.move(os.path.join(work, name), dest)
    os.rmdir(work)
    return EXIT_OK


# --- subcommand handlers -----------------------------------------------------


def _cmd_skin(args):
    mesh = load_mesh(args.mesh)
    weights = _skin(mesh, load_skeleton(args.skeleton), args.method)
    save_weights(weights, args.out)
    print(json.dumps({"num_vertices": weights.num_vertices, "num_bones": weights.num_bones,
                      "out": args.out}, sort_keys=True))
    return EXIT_OK


def _cmd_fit(args):
    mesh = load_mesh(args.canonical)
    skeleton = load_skeleton(args.skeleton)
    weights = load_weights(args.weights)
    supervision = [load_mesh(p) for p in _supervision_paths(args.supervision)]
    cfg = FitConfig()
    if args.config:
        with open(args.config) as fh:
            cfg = FitConfig.from_dict(json.load(fh))
    clip, report = fit_motion(mesh, skeleton, weights, supervision, cfg)
    save_clip(clip, args.out)
    report_path = args.report or (os.path.splitext(args.out)[0] + ".report.json")
    _write_json(report.to_dict(), report_path)
    print(json.dumps({"frames": len(clip.frames), "out": args.out, "report": report_path},
                     sort_keys=True))
    return EXIT_OK


def _cmd_retarget(args):
    clip = load_clip(args.clip)
    reference = load_skeleton(args.ref_skel)
    target_mesh = load_mesh(args.target_mesh)
    if args.embed:
        field_ = build_interior_field(target_mesh, args.resolution)
        target_skel = embed_skeleton(target_mesh, reference, field_)
    else:
        target_skel = load_skeleton(args.target_skel)
    if args.map:
        corr = load_correspondence(args.map)
    else:
        corr = JointCorrespondence.identity(reference.num_joints)
    issues = check_correspondence(corr, reference, target_skel)
    if issues:
        for msg in issues:
            print(f"correspondence: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    weights = load_weights(args.weights)
    frames = transfer_motion(clip, reference, target_skel, corr, target_mesh, weights)
    paths = export_frame_meshes(frames, args.out)
    if args.embed:
        save_skeleton(target_skel, os.path.join(args.out, "embedded_skeleton.json"))
    print(json.dumps({"frames": len(paths), "out": args.out}, sort_keys=True))
    return EXIT_OK


def _cmd_fk(args):
    skeleton = load_skeleton(args.skeleton)
    clip = load_clip(args.clip)
    frames = [posed_joints(skeleton, f).tolist() for f in clip.frames]
    data = {"joint_count": skeleton.num_joints, "frames": frames}
    if args.out:
        _write_json(data, args.out)
    else:
        print(json.dumps(data, sort_keys=True))
    return EXIT_OK


def _cmd_eval_chamfer(args):
    if not (np.isfinite(args.lambda_local) and args.lambda_local >= 0):
        raise ValueError(f"--lambda-local must be finite and nonnegative, got {args.lambda_local}")
    if (args.weights_pred is None) != (args.weights_target is None):
        missing = "--weights-pred" if args.weights_pred is None else "--weights-target"
        raise ValueError(f"part weights need both files: {missing} is missing")
    pred = load_mesh(args.pred)
    target = load_mesh(args.target)
    result = {"global": ch.chamfer_global(pred.vertices, target.vertices), "local": None}
    result["combined"] = result["global"]
    if args.weights_pred is not None:
        wp = load_weights(args.weights_pred)
        wt = load_weights(args.weights_target)
        result["local"] = ch.chamfer_local(pred.vertices, target.vertices, wp, wt)
        result["combined"] = result["global"] + args.lambda_local * result["local"]
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def _cmd_validate(args):
    config = PipelineConfig.load(args.config)
    diagnostics = validate_assets(config)
    print(json.dumps({"diagnostics": diagnostics, "ok": not diagnostics}, sort_keys=True))
    return EXIT_VALIDATION if diagnostics else EXIT_OK


def _cmd_pipeline(args):
    return run_pipeline(PipelineConfig.load(args.config))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="animrig",
        description="Skeleton-driven mesh animation: skinning, motion fitting, retargeting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("skin", help="compute skin weights for a mesh and skeleton")
    p.add_argument("--mesh", required=True)
    p.add_argument("--skeleton", required=True)
    p.add_argument("--method", choices=SKINNING_METHODS, default="heat")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_skin)

    p = sub.add_parser("fit", help="fit per-frame motion to a supervision mesh sequence")
    p.add_argument("--canonical", required=True)
    p.add_argument("--skeleton", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--supervision", required=True, help="directory of frame .obj files")
    p.add_argument("--config", help="FitConfig JSON file")
    p.add_argument("--out", required=True, help="output clip JSON path")
    p.add_argument("--report", help="output report JSON path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("retarget", help="transfer a clip onto a target mesh/skeleton")
    p.add_argument("--clip", required=True)
    p.add_argument("--ref-skel", required=True)
    p.add_argument("--target-mesh", required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--target-skel")
    target.add_argument("--embed", action="store_true", help="embed the reference skeleton instead")
    p.add_argument("--map", help="correspondence JSON {pairs: [[ref, tgt], ...]}")
    p.add_argument("--weights", required=True, help="target-mesh skin weights JSON")
    p.add_argument("--resolution", type=int, default=48, help="embedding voxel resolution")
    p.add_argument("--out", required=True, help="output directory for frame meshes")
    p.set_defaults(func=_cmd_retarget)

    p = sub.add_parser("fk", help="posed joint positions for every clip frame")
    p.add_argument("--skeleton", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fk)

    p = sub.add_parser("eval-chamfer", help="global/local chamfer between two meshes")
    p.add_argument("--pred", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--weights-pred")
    p.add_argument("--weights-target")
    p.add_argument("--lambda-local", type=float, default=1.0)
    p.set_defaults(func=_cmd_eval_chamfer)

    p = sub.add_parser("validate", help="check pipeline assets for consistency")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("pipeline", help="run skin -> fit -> retarget end to end")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
