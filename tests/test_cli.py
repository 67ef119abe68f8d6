import json
import os

import numpy as np
import pytest

from animrig.cli import PipelineConfig, main, run_pipeline, validate_assets
from animrig.geometry import save_mesh
from animrig.skeleton import save_skeleton
from animrig.skinning import load_weights, save_weights
from motionutil import deform_clip, smooth_clip
from shapes import chain_skeleton, limb_rig


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    """Small consistent fixture set: limb mesh, skeleton, weights, supervision."""
    from animrig.skinning import heat_diffusion_skinning

    root = tmp_path_factory.mktemp("assets")
    # recovery quality needs moderate resolution; coarser limbs leave the
    # posed part labels ambiguous for the heat-mode local term
    mesh, skel = limb_rig(rings=36, sides=20)
    weights = heat_diffusion_skinning(mesh, skel)
    mesh_path = str(root / "limb.obj")
    skel_path = str(root / "limb_skeleton.json")
    weights_path = str(root / "limb_weights.json")
    save_mesh(mesh, mesh_path)
    save_skeleton(skel, skel_path)
    save_weights(weights, weights_path)

    sup_dir = root / "supervision"
    sup_dir.mkdir()
    clip = smooth_clip(np.random.default_rng(6), skel.num_bones, 3,
                       max_deg=10, root_translation=0.1, root_rotation=0.05)
    for k, frame in enumerate(deform_clip(mesh, skel, weights, clip)):
        save_mesh(frame.as_mesh(), str(sup_dir / f"frame_{k:04d}.obj"))

    return {
        "root": root,
        "mesh": mesh_path,
        "skeleton": skel_path,
        "weights": weights_path,
        "supervision": str(sup_dir),
        "num_vertices": mesh.num_vertices,
    }


def pipeline_config_dict(assets, out_dir, seed=0):
    return {
        "canonical_mesh": assets["mesh"],
        "skeleton": assets["skeleton"],
        "supervision_dir": assets["supervision"],
        "out_dir": str(out_dir),
        "weights": assets["weights"],
        "skinning": {"method": "heat"},
        "seed": seed,
        "fit": {
            "lambda_local": 1.0, "lambda_lap": 0.0,
            "lambda_rigid": 0.0, "max_iters": 400, "convergence_tol": 1e-9,
        },
    }


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [["--help"]] + [[cmd, "--help"] for cmd in
                        ("skin", "fit", "retarget", "fk", "eval-chamfer", "validate", "pipeline")],
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestSkinCommand:
    def test_writes_row_stochastic_weights(self, assets, tmp_path):
        out = str(tmp_path / "w.json")
        code = main(["skin", "--mesh", assets["mesh"], "--skeleton", assets["skeleton"],
                     "--out", out])
        assert code == 0
        w = load_weights(out)
        assert w.num_vertices == assets["num_vertices"]
        assert np.abs(w.weights.sum(axis=1) - 1.0).max() < 1e-6

    def test_gaussian_method(self, assets, tmp_path):
        out = str(tmp_path / "wg.json")
        code = main(["skin", "--mesh", assets["mesh"], "--skeleton", assets["skeleton"],
                     "--method", "gaussian", "--out", out])
        assert code == 0
        w = load_weights(out)
        assert np.abs(w.weights.sum(axis=1) - 1.0).max() < 1e-6


class TestEvalChamfer:
    def test_single_point_meshes(self, tmp_path, capsys):
        a = tmp_path / "a.obj"
        b = tmp_path / "b.obj"
        a.write_text("v 0 0 0\n")
        b.write_text("v 1 0 0\n")
        code = main(["eval-chamfer", "--pred", str(a), "--target", str(b)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["global"] == 2.0
        assert out["local"] is None
        assert out["combined"] == 2.0

    def test_with_weights(self, assets, tmp_path, capsys):
        code = main([
            "eval-chamfer", "--pred", assets["mesh"], "--target", assets["mesh"],
            "--weights-pred", assets["weights"], "--weights-target", assets["weights"],
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["global"] == 0.0
        assert out["local"] == 0.0
        assert out["combined"] == 0.0

    @pytest.mark.parametrize("given, missing", [("--weights-pred", "--weights-target"),
                                                 ("--weights-target", "--weights-pred")])
    def test_one_weights_file_alone_exits_2_naming_the_other(self, assets, capsys, given,
                                                             missing):
        code = main(["eval-chamfer", "--pred", assets["mesh"], "--target", assets["mesh"],
                     given, assets["weights"]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert missing in captured.err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_lambda_local_must_be_finite_and_nonnegative(self, assets, capsys, value):
        code = main([
            "eval-chamfer", "--pred", assets["mesh"], "--target", assets["mesh"],
            "--weights-pred", assets["weights"], "--weights-target", assets["weights"],
            "--lambda-local", value,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--lambda-local" in captured.err


class TestFkCommand:
    def test_posed_joints_output(self, assets, tmp_path, capsys):
        clip_path = tmp_path / "clip.json"
        clip_path.write_text(json.dumps({
            "fps": None,
            "frames": [{
                "root": [1, 0, 0, 0, 0.5, 0, 0],
                "angles": [[0, 0, 0]] * 3,
                "bone_scales": [1, 1, 1],
            }],
        }))
        code = main(["fk", "--skeleton", assets["skeleton"], "--clip", str(clip_path)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        joints = np.array(data["frames"][0])
        assert abs(joints[0][0] - 0.5) < 1e-12  # root joint translated by 0.5


def nan_root_clip(path, num_bones):
    path.write_text(json.dumps({
        "fps": None,
        "frames": [{
            "root": [float("nan"), 0, 0, 0, 0, 0, 0],  # json writes NaN, which json.load accepts
            "angles": [[0, 0, 0]] * num_bones,
            "bone_scales": [1] * num_bones,
        }],
    }))
    return str(path)


class TestNonFiniteClip:
    def test_fk_exits_2(self, assets, tmp_path, capsys):
        clip = nan_root_clip(tmp_path / "clip.json", 3)
        assert main(["fk", "--skeleton", assets["skeleton"], "--clip", clip]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "quaternion must be finite" in captured.err

    def test_retarget_exits_2(self, assets, tmp_path, capsys):
        clip = nan_root_clip(tmp_path / "clip.json", 3)
        out = tmp_path / "retarget"
        code = main(["retarget", "--clip", clip, "--ref-skel", assets["skeleton"],
                     "--target-mesh", assets["mesh"], "--target-skel", assets["skeleton"],
                     "--weights", assets["weights"], "--out", str(out)])
        assert code == 2
        assert "quaternion must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestRetargetCommand:
    @pytest.mark.parametrize("target", [[], ["--target-skel", "t.json", "--embed"]])
    def test_exactly_one_of_target_skel_and_embed(self, assets, tmp_path, capsys, target):
        with pytest.raises(SystemExit) as exc:
            main(["retarget", "--clip", "c.json", "--ref-skel", assets["skeleton"],
                  "--target-mesh", assets["mesh"], "--weights", assets["weights"],
                  "--out", str(tmp_path / "out")] + target)
        assert exc.value.code == 2
        assert "--target-skel" in capsys.readouterr().err


class TestValidate:
    def test_consistent_assets_pass(self, assets, tmp_path):
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        config = PipelineConfig.from_dict(cfg)
        assert validate_assets(config) == []

    def test_weight_row_mismatch_diagnosed(self, assets, tmp_path):
        bad = dict(json.loads(open(assets["weights"]).read()))
        bad["rows"] = bad["rows"][:-1]
        bad["num_vertices"] -= 1
        bad_path = tmp_path / "bad_weights.json"
        bad_path.write_text(json.dumps(bad))
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["weights"] = str(bad_path)
        diags = validate_assets(PipelineConfig.from_dict(cfg))
        assert len(diags) == 1
        assert "rows" in diags[0]

    def test_parent_cycle_diagnosed_with_joints(self, assets, tmp_path):
        skel_path = tmp_path / "cyclic.json"
        skel_path.write_text(json.dumps({
            "joints": [[0, 0, 0], [1, 0, 0], [2, 0, 0]],
            "parents": [-1, 2, 1],
        }))
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["skeleton"] = str(skel_path)
        diags = validate_assets(PipelineConfig.from_dict(cfg))
        assert any("cycle" in d for d in diags)
        assert any("1" in d and "2" in d for d in diags)

    def test_missing_supervision_dir(self, assets, tmp_path):
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["supervision_dir"] = str(tmp_path / "nowhere")
        diags = validate_assets(PipelineConfig.from_dict(cfg))
        assert any("nowhere" in d for d in diags)

    def test_validate_command_exit_codes(self, assets, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(pipeline_config_dict(assets, tmp_path / "out")))
        assert main(["validate", "--config", str(good)]) == 0
        bad_cfg = pipeline_config_dict(assets, tmp_path / "out")
        bad_cfg["canonical_mesh"] = str(tmp_path / "ghost.obj")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bad_cfg))
        assert main(["validate", "--config", str(bad)]) == 2

    def test_non_numeric_fit_value_exits_2(self, assets, tmp_path):
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["fit"]["max_iters"] = "300"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2

    def test_short_target_skeleton_without_correspondence(self, assets, tmp_path, capsys):
        # the 4-joint limb's identity correspondence names target joint 3
        target = tmp_path / "target_skeleton.json"
        save_skeleton(chain_skeleton(3), str(target))
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["retarget"] = {"target_mesh": assets["mesh"], "target_skeleton": str(target)}
        diags = validate_assets(PipelineConfig.from_dict(cfg))
        assert "correspondence: target joint 3 out of range" in diags
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(path)]) == 2
        assert "target joint 3 out of range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_skeleton_joint(self, assets, tmp_path, capsys):
        with open(assets["skeleton"]) as fh:
            data = json.load(fh)
        data["joints"][1][0] = float("nan")
        bad = tmp_path / "nan_skeleton.json"
        bad.write_text(json.dumps(data))
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["skeleton"] = str(bad)
        diags = validate_assets(PipelineConfig.from_dict(cfg))
        assert diags == ["skeleton invalid: joints must be finite"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        assert '"ok": false' in capsys.readouterr().out
        assert main(["pipeline", "--config", str(path)]) == 2
        assert "joints must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_mesh_coordinate(self, assets, tmp_path, capsys):
        bad = tmp_path / "nan.obj"
        bad.write_text("v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n")
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["canonical_mesh"] = str(bad)
        diags = validate_assets(PipelineConfig.from_dict(cfg))
        assert diags == [f"canonical mesh invalid: {bad}:2: non-finite vertex coordinate"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        assert "canonical mesh invalid" in capsys.readouterr().out

    def test_embedded_target_checks_correspondence(self, assets, tmp_path, capsys):
        # the embedded skeleton keeps the reference's parents, so 1 -> 2 and
        # 2 -> 1 breaks the chain before any fit runs
        target = tmp_path / "target.obj"
        save_mesh(limb_rig(rings=12, sides=8)[0], str(target))
        corr = tmp_path / "correspondence.json"
        corr.write_text(json.dumps({"pairs": [[1, 2], [2, 1]]}))
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["retarget"] = {"target_mesh": str(target), "embed_resolution": 48,
                           "correspondence": str(corr)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        message = "pair (2->1): reference parent 1 maps to 2 but target parent is 0"
        assert main(["validate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().out
        assert main(["pipeline", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_input_named_by_label(self, assets, tmp_path):
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["skeleton"] = str(tmp_path / "ghost.json")
        diags = validate_assets(PipelineConfig.from_dict(cfg))
        assert diags == [f"skeleton not found: {tmp_path / 'ghost.json'}"]

    @pytest.mark.parametrize("resolution", [4, 16.5, "48"])
    def test_bad_embed_resolution(self, assets, tmp_path, resolution):
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["retarget"] = {"target_mesh": assets["mesh"], "embed_resolution": resolution}
        diags = validate_assets(PipelineConfig.from_dict(cfg))
        assert diags == [f"retarget embed resolution must be an integer >= 8: {resolution!r}"]

    def test_unknown_skinning_method_exits_2(self, assets, tmp_path, capsys):
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["skinning"]["method"] = "gausian"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(path)]) == 2
        assert "gausian" in capsys.readouterr().out
        assert main(["pipeline", "--config", str(path)]) == 2
        assert "gausian" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFitCommand:
    def test_missing_supervision_exits_2_naming_path(self, assets, tmp_path, capsys):
        missing = str(tmp_path / "no_frames")
        code = main([
            "fit", "--canonical", assets["mesh"], "--skeleton", assets["skeleton"],
            "--weights", assets["weights"], "--supervision", missing,
            "--out", str(tmp_path / "clip.json"),
        ])
        assert code == 2
        assert missing in capsys.readouterr().err
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main([
            "fit", "--canonical", assets["mesh"], "--skeleton", assets["skeleton"],
            "--weights", assets["weights"], "--supervision", str(empty),
            "--out", str(tmp_path / "clip.json"),
        ])
        assert code == 2
        assert f"no .obj files: {empty}" in capsys.readouterr().err

    def test_zero_area_supervision_exits_2_naming_frame(self, assets, tmp_path, capsys):
        sup = tmp_path / "sup"
        sup.mkdir()
        first = os.path.join(assets["supervision"], "frame_0000.obj")
        (sup / "frame_0000.obj").write_text(open(first).read())
        (sup / "frame_0001.obj").write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
        out = tmp_path / "clip.json"
        code = main([
            "fit", "--canonical", assets["mesh"], "--skeleton", assets["skeleton"],
            "--weights", assets["weights"], "--supervision", str(sup), "--out", str(out),
        ])
        assert code == 2
        assert "frame 1" in capsys.readouterr().err
        assert not out.exists()


class TestPipeline:
    def test_end_to_end(self, assets, tmp_path):
        from animrig.geometry import bbox_diagonal, load_mesh

        out_dir = tmp_path / "run"
        config = PipelineConfig.from_dict(pipeline_config_dict(assets, out_dir))
        assert run_pipeline(config) == 0
        for name in ("weights.json", "clip.json", "fit_report.json", "summary.json",
                     "timing.json", "frames"):
            assert (out_dir / name).exists()
        weights = load_weights(str(out_dir / "weights.json"))
        assert np.abs(weights.weights.sum(axis=1) - 1.0).max() < 1e-6
        summary = json.loads((out_dir / "summary.json").read_text())
        diag = bbox_diagonal(load_mesh(assets["mesh"]))
        assert summary["final_losses"]["glc_max"] < 0.02 * diag**2
        assert "seed" not in summary
        assert len(os.listdir(out_dir / "frames")) == 3

    def test_reports_why_each_frame_stopped(self, assets, tmp_path):
        out_dir = tmp_path / "run"
        cfg = pipeline_config_dict(assets, out_dir)
        cfg["fit"]["max_iters"] = 1
        assert run_pipeline(PipelineConfig.from_dict(cfg)) == 0
        report = json.loads((out_dir / "fit_report.json").read_text())
        reasons = [row["stop_reason"] for row in report["frames"]]
        assert set(reasons) <= {"converged", "budget", "no-descent"}
        assert "budget" in reasons
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["unconverged_frames"] == [
            row["frame"] for row in report["frames"] if row["stop_reason"] != "converged"
        ]

    def test_determinism_byte_identical(self, assets, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = pipeline_config_dict(assets, out_a, seed=3)
        assert run_pipeline(PipelineConfig.from_dict(cfg)) == 0
        cfg["out_dir"] = str(out_b)
        assert run_pipeline(PipelineConfig.from_dict(cfg)) == 0
        for name in ("clip.json", "summary.json", "weights.json", "fit_report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_failure_quarantines_partials(self, assets, tmp_path):
        sup = tmp_path / "sup"
        sup.mkdir()
        (sup / "frame_0000.obj").write_text("v 0 0 0\nf 1 2 3\n")  # bad face index
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["supervision_dir"] = str(sup)
        code = run_pipeline(PipelineConfig.from_dict(cfg))
        assert code == 3
        assert (tmp_path / "out" / "quarantine").is_dir()
        assert not (tmp_path / "out" / "clip.json").exists()

    def test_non_finite_weights_exit_2(self, assets, tmp_path, capsys):
        with open(assets["weights"]) as fh:
            data = json.load(fh)
        data["rows"][0][0] = float("nan")  # json writes NaN, which json.load accepts
        bad = tmp_path / "nan_weights.json"
        bad.write_text(json.dumps(data))
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["weights"] = str(bad)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["pipeline", "--config", str(cfg_path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_loads_each_input_once(self, assets, tmp_path, monkeypatch):
        from animrig import cli
        from animrig.retarget import JointCorrespondence

        target_skel = tmp_path / "target_skeleton.json"
        target_skel.write_text(open(assets["skeleton"]).read())
        corr = tmp_path / "correspondence.json"
        corr.write_text(json.dumps({"pairs": JointCorrespondence.identity(4).pairs}))
        calls = []
        for name in ("load_skeleton", "load_weights", "load_correspondence"):
            def counted(path, _name=name, _load=getattr(cli, name)):
                calls.append((_name, str(path)))
                return _load(path)
            monkeypatch.setattr(cli, name, counted)
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["fit"]["max_iters"] = 1
        cfg["retarget"] = {"target_mesh": assets["mesh"], "target_skeleton": str(target_skel),
                           "correspondence": str(corr)}
        assert run_pipeline(PipelineConfig.from_dict(cfg)) == 0
        assert sorted(calls) == sorted([
            ("load_skeleton", assets["skeleton"]),
            ("load_weights", assets["weights"]),
            ("load_skeleton", str(target_skel)),
            ("load_correspondence", str(corr)),
        ])
        assert len(os.listdir(tmp_path / "out" / "retarget")) == 3

    def test_validation_failure_exit_2(self, assets, tmp_path):
        cfg = pipeline_config_dict(assets, tmp_path / "out")
        cfg["canonical_mesh"] = str(tmp_path / "missing.obj")
        assert run_pipeline(PipelineConfig.from_dict(cfg)) == 2
