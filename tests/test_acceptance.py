"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary values alongside the pass/fail status.
"""

import json
import time

import numpy as np
import pytest

from animrig.chamfer import chamfer_global, chamfer_local
from animrig.cli import PipelineConfig, run_pipeline
from animrig.deform import blend_skin
from animrig.fitting import FitConfig, FitRig, FrameObjective, fit_motion
from animrig.geometry import bbox_diagonal, save_mesh
from animrig.retarget import JointCorrespondence, build_interior_field, embed_skeleton, transfer_motion
from animrig.skeleton import forward_kinematics, save_skeleton
from animrig.skinning import SkinWeights, part_decompose, save_weights
from motionutil import clip_rmse, deform_clip, max_interframe_jump, smooth_clip
from shapes import limb_rig


def report(name, detail):
    print(f"\nACCEPTANCE {name} PASS: {detail}")


def brute_force_global(a, b):
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return float(d2.min(axis=1).mean() + d2.min(axis=0).mean())


def brute_force_local(a, b, wa, wb):
    la, lb = wa.argmax(axis=1), wb.argmax(axis=1)
    common = np.intersect1d(np.unique(la), np.unique(lb))
    if len(common) == 0:
        return 0.0
    total = 0.0
    for k in common:
        pa, pb = a[la == k], b[lb == k]
        ca, cb = wa[la == k, k], wb[lb == k, k]
        d2 = np.sum((pa[:, None, :] - pb[None, :, :]) ** 2, axis=2)
        j = d2.argmin(axis=1)
        i = d2.argmin(axis=0)
        total += np.mean(ca * cb[j] * d2[np.arange(len(pa)), j])
        total += np.mean(ca[i] * cb * d2[i, np.arange(len(pb))])
    return total / len(common)


def test_criterion_1_chamfer_oracle_equivalence():
    """100 random pairs: accelerated chamfer equals O(N^2) brute force, < 60 s."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst_global = 0.0
    worst_local = 0.0
    for _ in range(100):
        na, nb = rng.integers(300, 1001, size=2)
        a = rng.normal(size=(na, 3)) * rng.uniform(0.5, 3.0)
        b = rng.normal(size=(nb, 3)) * rng.uniform(0.5, 3.0)
        fast_g = chamfer_global(a, b)
        slow_g = brute_force_global(a, b)
        worst_global = max(worst_global, abs(fast_g - slow_g) / abs(slow_g))
        wa = rng.random((na, 4))
        wa /= wa.sum(axis=1, keepdims=True)
        wb = rng.random((nb, 4))
        wb /= wb.sum(axis=1, keepdims=True)
        fast_l = chamfer_local(a, b, SkinWeights(wa), SkinWeights(wb))
        slow_l = brute_force_local(a, b, wa, wb)
        worst_local = max(worst_local, abs(fast_l - slow_l) / abs(slow_l))
    elapsed = time.perf_counter() - start
    assert worst_global < 1e-9
    assert worst_local < 1e-9
    assert elapsed < 60.0
    report(
        "1 (chamfer oracle equivalence)",
        f"worst rel err global={worst_global:.2e} local={worst_local:.2e} in {elapsed:.1f}s",
    )


def test_criterion_2_gradient_correctness(small_limb):
    """20 random configs: analytic gradient matches central differences, < 2 min."""
    mesh, skel, w = small_limb
    rng = np.random.default_rng(2002)
    cfg = FitConfig(
        lambda_global=1.0, lambda_local=1.0,
        lambda_lap=0.4, lambda_rigid=0.6,
    )
    helper = FitRig(mesh, skel, w)
    b = skel.num_bones

    def random_theta():
        theta = helper.rest_parameters()
        theta[:3] = rng.uniform(-0.3, 0.3, 3)
        theta[3:6] = rng.uniform(-0.3, 0.3, 3)
        theta[6:6 + 3 * b] = rng.uniform(-np.pi / 6, np.pi / 6, 3 * b)
        theta[6 + 3 * b:] = rng.uniform(0.9, 1.1, b)
        return theta

    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        target = mesh.with_vertices(helper.deform(random_theta()))
        prev = helper.deform(random_theta())
        obj = FrameObjective(
            helper, cfg, target.vertices,
            prev_vertices=prev, target_weights=w, frame_index=1,
        )
        theta = random_theta()
        grad, _, matches = obj.gradient(theta)
        for i in range(len(theta)):
            h = 1e-5 * max(1.0, abs(theta[i]))
            tp = theta.copy()
            tp[i] += h
            tm = theta.copy()
            tm[i] -= h
            fd = (obj.evaluate(tp, matches)[0] - obj.evaluate(tm, matches)[0]) / (2 * h)
            worst = max(worst, abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8))
    elapsed = time.perf_counter() - start
    assert worst < 1e-3
    assert elapsed < 120.0
    report(
        "2 (gradient correctness)",
        f"max component rel err={worst:.2e} over 20 configs in {elapsed:.1f}s",
    )


def test_criterion_3_fk_lbs_identity(small_limb, rng):
    """Rest pose reproduces the canonical mesh; one-hot skinning is exact."""
    mesh, skel, w = small_limb
    from animrig.rotations import quat_to_matrix
    from animrig.skeleton import MotionFrame, RigidTransform

    rest = MotionFrame.rest(skel)
    out = blend_skin(mesh, w, rest.root, forward_kinematics(skel, rest))
    rest_err = np.abs(out.vertices - mesh.vertices).max()
    assert rest_err < 1e-12

    local_rng = np.random.default_rng(33)
    pts = local_rng.normal(size=(60, 3))
    from animrig.geometry import TriMesh

    cloud = TriMesh(pts)
    R = np.zeros((skel.num_bones, 3, 3))
    t = np.zeros((skel.num_bones, 3))
    for b in range(skel.num_bones):
        q = local_rng.normal(size=4)
        R[b] = quat_to_matrix(q / np.linalg.norm(q))
        t[b] = local_rng.normal(size=3)
    q = local_rng.normal(size=4)
    root = RigidTransform(q / np.linalg.norm(q), local_rng.normal(size=3))
    pick = local_rng.integers(0, skel.num_bones, size=60)
    one_hot = np.zeros((60, skel.num_bones))
    one_hot[np.arange(60), pick] = 1.0
    skinned = blend_skin(cloud, SkinWeights(one_hot), root, (R, t))
    direct = np.stack([root.apply(R[pick[n]] @ pts[n] + t[pick[n]]) for n in range(60)])
    one_hot_err = np.abs(skinned.vertices - direct).max()
    assert one_hot_err < 1e-12
    report(
        "3 (FK/LBS identity suite)",
        f"rest err={rest_err:.2e}, one-hot vs direct err={one_hot_err:.2e}",
    )


def test_criterion_4_synthetic_motion_recovery(full_limb):
    """20-frame ground-truth clip recovered to <1% RMSE and tiny final chamfer."""
    mesh, skel, w = full_limb
    diag = bbox_diagonal(mesh)
    rng = np.random.default_rng(2024)
    frames = 20
    gt = smooth_clip(rng, skel.num_bones, frames, max_deg=30.0)
    gt_deformed = deform_clip(mesh, skel, w, gt)
    supervision = [d.as_mesh() for d in gt_deformed]
    max_angle = np.rad2deg(max(np.abs(f.angles).max() for f in gt.frames))
    assert 25.0 <= max_angle <= 30.0  # the clip really explores the stated range
    assert max(np.abs(f.bone_scales - 1).max() for f in gt.frames) <= 0.1

    cfg = FitConfig(
        lambda_local=1.0, lambda_lap=0.0, lambda_rigid=0.0,
        max_iters=800, convergence_tol=1e-10,
    )
    start = time.perf_counter()
    clip, fit_report = fit_motion(
        mesh, skel, w, supervision, cfg, supervision_weights=[w] * frames
    )
    elapsed = time.perf_counter() - start
    fitted = deform_clip(mesh, skel, w, clip)
    rmse = clip_rmse(fitted, gt_deformed)
    glc_max = fit_report.to_dict()["totals"]["final_glc_max"]
    assert rmse < 0.01 * diag
    assert glc_max < 1e-4 * diag**2
    assert elapsed < 600.0
    report(
        "4 (synthetic motion recovery)",
        f"RMSE={100 * rmse / diag:.4f}% of bbox diag, final GLC max={glc_max:.2e} "
        f"(limit {1e-4 * diag**2:.2e}), {elapsed:.0f}s",
    )


def test_criterion_5_swapped_parts_discrimination():
    """Part-level chamfer detects the left/right swap the global term misses."""
    rng = np.random.default_rng(55)
    d = 10.0
    cluster_a = rng.normal(size=(40, 3)) * 0.05
    cluster_b = rng.normal(size=(40, 3)) * 0.05 + np.array([d, 0.0, 0.0])
    points = np.vstack([cluster_a, cluster_b])
    w_pred = np.zeros((80, 2))
    w_pred[:40, 0] = 1.0
    w_pred[40:, 1] = 1.0
    w_target = w_pred[:, ::-1].copy()
    global_value = chamfer_global(points, points.copy())
    local_value = chamfer_local(
        points, points.copy(), SkinWeights(w_pred), SkinWeights(w_target)
    )
    assert global_value < 1e-6 * d**2
    assert local_value > 0.5 * d**2
    report(
        "5 (swapped-parts discrimination)",
        f"global={global_value:.2e} < {1e-6 * d**2:.1e}, local={local_value:.1f} > {0.5 * d**2:.1f}",
    )


def test_criterion_6_temporal_consistency(small_limb):
    """Rigidity regularization shrinks the worst inter-frame jump in >= 9/10 trials."""
    mesh, skel, w = small_limb
    diag = bbox_diagonal(mesh)
    frames = 4
    wins = 0
    start = time.perf_counter()
    for trial in range(10):
        rng = np.random.default_rng(600 + trial)
        gt = smooth_clip(rng, skel.num_bones, frames, max_deg=12,
                         root_translation=0.1, root_rotation=0.05)
        clean = deform_clip(mesh, skel, w, gt)
        noisy = [
            d.as_mesh().with_vertices(
                d.vertices + rng.normal(scale=0.02 * diag, size=d.vertices.shape)
            )
            for d in clean
        ]
        jumps = {}
        for lam in (0.0, 1.0):
            cfg = FitConfig(
                lambda_local=0.0, lambda_lap=0, lambda_rigid=lam,
                max_iters=80,
            )
            clip, _ = fit_motion(mesh, skel, w, noisy, cfg)
            jumps[lam] = max_interframe_jump(deform_clip(mesh, skel, w, clip))
        if jumps[1.0] < jumps[0.0]:
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 9
    report(
        "6 (temporal consistency)",
        f"regularized fit had the smaller max jump in {wins}/10 trials ({elapsed:.0f}s)",
    )


def test_criterion_7_retarget_identity(small_limb):
    """Identity correspondence onto the same rig reproduces the source frames."""
    mesh, skel, w = small_limb
    rng = np.random.default_rng(77)
    clip = smooth_clip(rng, skel.num_bones, 5)
    source = deform_clip(mesh, skel, w, clip)
    retargeted = transfer_motion(
        clip, skel, skel, JointCorrespondence.identity(skel.num_joints), mesh, w
    )
    worst = max(
        np.abs(a.vertices - b.vertices).max() for a, b in zip(retargeted, source)
    )
    assert worst < 1e-10
    report("7 (retarget identity)", f"max vertex error={worst:.2e} over 5 frames")


def test_criterion_8_skinning_validity(capsule_rig, capsule_heat_weights, small_limb):
    """Weights are row-stochastic; the capsule decomposes into 2 axial bands."""
    mesh, _ = capsule_rig
    for weights in (capsule_heat_weights, small_limb[2]):
        assert np.all(weights.weights >= 0.0)
        assert np.abs(weights.weights.sum(axis=1) - 1.0).max() < 1e-6
    parts = part_decompose(capsule_heat_weights)
    assert parts.part_count == 2
    order = np.argsort(mesh.vertices[:, 0])
    labels_by_x = parts.labels[order]
    assert np.all(np.diff(labels_by_x) >= 0)  # one contiguous band per bone
    report(
        "8 (skinning validity)",
        f"rows sum to 1 within {np.abs(capsule_heat_weights.weights.sum(axis=1) - 1).max():.1e}; "
        "capsule splits into 2 contiguous axial bands",
    )


def test_criterion_9_embedding_sanity():
    """Self-embedding at resolution 48 stays within 3 voxels, all joints interior."""
    mesh, skel = limb_rig(rings=24, sides=16)
    field = build_interior_field(mesh, 48)
    embedded = embed_skeleton(mesh, skel, field)
    err_voxels = np.linalg.norm(embedded.joints - skel.joints, axis=1) / field.voxel_size
    assert err_voxels.max() <= 3.0
    assert all(field.contains(j) for j in embedded.joints)
    report(
        "9 (embedding sanity)",
        f"max joint error={err_voxels.max():.2f} voxels; all joints interior",
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    """Same config and seed give byte-identical clip and summary outputs."""
    from animrig.skinning import heat_diffusion_skinning

    mesh, skel = limb_rig(rings=14, sides=10)
    weights = heat_diffusion_skinning(mesh, skel)
    mesh_path = str(tmp_path / "limb.obj")
    skel_path = str(tmp_path / "skel.json")
    weights_path = str(tmp_path / "weights.json")
    save_mesh(mesh, mesh_path)
    save_skeleton(skel, skel_path)
    save_weights(weights, weights_path)
    sup_dir = tmp_path / "supervision"
    sup_dir.mkdir()
    clip = smooth_clip(np.random.default_rng(10), skel.num_bones, 3,
                       max_deg=10, root_translation=0.1, root_rotation=0.05)
    for k, frame in enumerate(deform_clip(mesh, skel, weights, clip)):
        save_mesh(frame.as_mesh(), str(sup_dir / f"frame_{k:04d}.obj"))

    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        config = PipelineConfig.from_dict(
            {
                "canonical_mesh": mesh_path,
                "skeleton": skel_path,
                "supervision_dir": str(sup_dir),
                "weights": weights_path,
                "out_dir": str(out_dir),
                "seed": 11,
                "fit": {
                    "lambda_local": 1.0, "lambda_lap": 0.0,
                    "lambda_rigid": 0.1, "max_iters": 60,
                },
            }
        )
        assert run_pipeline(config) == 0
        outputs.append(out_dir)
    identical = []
    for name in ("clip.json", "summary.json", "weights.json", "fit_report.json"):
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        identical.append(name)
    report(
        "10 (pipeline determinism)",
        f"byte-identical outputs: {', '.join(identical)} (timing kept separate)",
    )
