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
from .geometry import TriMesh, load_mesh, save_mesh
from .retarget import (
    JointCorrespondence,
    build_interior_field,
    check_correspondence,
    embed_skeleton,
    load_correspondence,
    transfer_motion,
)
from .skeleton import (
    MotionFrame,
    Skeleton,
    check_parent_tree,
    clip_to_dict,
    load_clip,
    load_skeleton,
    posed_joints,
    save_clip,
    save_skeleton,
)
from .skinning import (
    SkinWeights,
    ellipsoids_from_skeleton,
    gaussian_skinning,
    heat_diffusion_skinning,
    load_weights,
    save_weights,
    weights_to_dict,
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
        "retarget.scale_root_translation", are ignored."""
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


def _correspondence(path, reference: Skeleton) -> JointCorrespondence:
    """The correspondence file at path, or else the identity on reference's joints."""
    if path is not None:
        return load_correspondence(path)
    return JointCorrespondence.identity(reference.num_joints)


def validate_assets(config: PipelineConfig):
    """Cross-check every referenced asset; returns a list of diagnostics."""
    return _check_assets(config)[0]


def _check_assets(config: PipelineConfig):
    """(diagnostics, canonical mesh, retarget target mesh); a mesh is None
    when it is not configured or did not parse."""
    diagnostics = []
    mesh = None
    target_mesh = None
    skeleton = None

    if not os.path.isfile(config.canonical_mesh):
        diagnostics.append(f"canonical mesh not found: {config.canonical_mesh}")
    else:
        try:
            mesh = load_mesh(config.canonical_mesh)
        except Exception as exc:
            diagnostics.append(f"canonical mesh invalid: {exc}")

    if not os.path.isfile(config.skeleton):
        diagnostics.append(f"skeleton not found: {config.skeleton}")
    else:
        try:
            with open(config.skeleton) as fh:
                raw = json.load(fh)
            issues = check_parent_tree(np.asarray(raw["parents"], dtype=np.int64))
            diagnostics.extend(f"skeleton: {msg}" for msg in issues)
            if not issues:
                skeleton = load_skeleton(config.skeleton)
        except Exception as exc:
            diagnostics.append(f"skeleton invalid: {exc}")

    if config.skinning_method not in SKINNING_METHODS:
        diagnostics.append(f"skinning method not in {SKINNING_METHODS}: {config.skinning_method!r}")

    try:
        _supervision_paths(config.supervision_dir)
    except ValueError as exc:
        diagnostics.append(str(exc))

    if config.weights is not None:
        if not os.path.isfile(config.weights):
            diagnostics.append(f"weights not found: {config.weights}")
        else:
            try:
                w = load_weights(config.weights)
                if mesh is not None and w.num_vertices != mesh.num_vertices:
                    diagnostics.append(
                        f"weights rows ({w.num_vertices}) do not match mesh vertices "
                        f"({mesh.num_vertices})"
                    )
                if skeleton is not None and w.num_bones != skeleton.num_bones:
                    diagnostics.append(
                        f"weights columns ({w.num_bones}) do not match skeleton bones "
                        f"({skeleton.num_bones})"
                    )
            except Exception as exc:
                diagnostics.append(f"weights invalid: {exc}")

    if config.retarget_enabled():
        target_skel = None
        if not os.path.isfile(config.retarget_target_mesh):
            diagnostics.append(f"retarget target mesh not found: {config.retarget_target_mesh}")
        else:
            try:
                target_mesh = load_mesh(config.retarget_target_mesh)
            except Exception as exc:
                diagnostics.append(f"retarget target mesh invalid: {exc}")
        if config.retarget_target_skeleton is not None:
            try:
                target_skel = load_skeleton(config.retarget_target_skeleton)
            except Exception as exc:
                diagnostics.append(f"retarget target skeleton invalid: {exc}")
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
        if skeleton is not None and target_skel is not None:
            try:
                corr = _correspondence(config.retarget_correspondence, skeleton)
                diagnostics.extend(
                    f"correspondence: {msg}"
                    for msg in check_correspondence(corr, skeleton, target_skel)
                )
            except Exception as exc:
                diagnostics.append(f"correspondence invalid: {exc}")
    return diagnostics, mesh, target_mesh


def run_pipeline(config: PipelineConfig) -> int:
    """skin -> fit -> (retarget) -> summary; partial outputs are quarantined.

    Outputs land in config.out_dir: weights.json, clip.json, fit_report.json,
    frames/, retarget/ (optional), and summary.json. An identical config
    reproduces byte-identical outputs except the "timing" section.
    """
    diagnostics, mesh, target_mesh = _check_assets(config)
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
    try:
        skeleton = load_skeleton(config.skeleton)
        supervision = [load_mesh(p) for p in _supervision_paths(config.supervision_dir)]

        stage = "skin"
        started = time.perf_counter()
        if config.weights is not None:
            weights = load_weights(config.weights)
        else:
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
            if config.retarget_target_skeleton is not None:
                target_skel = load_skeleton(config.retarget_target_skeleton)
            else:
                field_ = build_interior_field(target_mesh, config.retarget_embed_resolution)
                target_skel = embed_skeleton(target_mesh, skeleton, field_)
                save_skeleton(target_skel, os.path.join(work, "embedded_skeleton.json"))
            corr = _correspondence(config.retarget_correspondence, skeleton)
            target_weights = heat_diffusion_skinning(target_mesh, target_skel)
            save_weights(target_weights, os.path.join(work, "target_weights.json"))
            retargeted = transfer_motion(
                clip, skeleton, target_skel, corr, target_mesh, target_weights
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
        if not args.target_skel:
            print("either --target-skel or --embed is required", file=sys.stderr)
            return EXIT_VALIDATION
        target_skel = load_skeleton(args.target_skel)
    corr = _correspondence(args.map, reference)
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
    pred = load_mesh(args.pred)
    target = load_mesh(args.target)
    result = {"global": ch.chamfer_global(pred.vertices, target.vertices), "local": None}
    result["combined"] = result["global"]
    if args.weights_pred and args.weights_target:
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
    p.add_argument("--target-skel")
    p.add_argument("--map", help="correspondence JSON {pairs: [[ref, tgt], ...]}")
    p.add_argument("--weights", required=True, help="target-mesh skin weights JSON")
    p.add_argument("--embed", action="store_true", help="embed the reference skeleton instead")
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
