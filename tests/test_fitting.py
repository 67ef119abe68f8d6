from dataclasses import replace

import numpy as np
import pytest

from animrig import fitting
from animrig.fitting import (
    FitConfig,
    FitError,
    FrameObjective,
    _minimize,
    fit_motion,
    fold_root_bone,
    surface_samples,
)
from animrig.geometry import TriMesh, bbox_diagonal
from animrig.retarget import JointCorrespondence, transfer_motion
from animrig.skeleton import MotionClip, MotionFrame, RigidTransform, Skeleton, posed_joints
from animrig.skinning import SkinWeights, heat_diffusion_skinning
from motionutil import clip_rmse, deform_clip, max_interframe_jump, smooth_clip
from normal_equations_reference import deform_jacobian, explicit_normal_equations
from shapes import limb_rig


def random_theta(obj, rng, angle_deg=25.0):
    theta = obj.rest_parameters()
    b = obj.num_bones
    theta[:3] = rng.uniform(-0.3, 0.3, 3)
    theta[3:6] = rng.uniform(-0.3, 0.3, 3)
    theta[6:6 + 3 * b] = rng.uniform(-np.deg2rad(angle_deg), np.deg2rad(angle_deg), 3 * b)
    theta[6 + 3 * b:] = rng.uniform(0.9, 1.1, b)
    return theta


@pytest.fixture(scope="module")
def rig(small_limb):
    return small_limb


class TestFitConfig:
    def test_defaults_valid(self):
        FitConfig()

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            FitConfig(lambda_lap=-0.1)

    def test_scale_bounds_must_bracket_one(self):
        with pytest.raises(ValueError):
            FitConfig(scale_bounds=(1.1, 1.2))

    @pytest.mark.parametrize("fit", [
        {"max_iters": "300"}, {"lambda_local": None}, {"convergence_tol": -1e-9},
        {"convergence_tol": float("nan")}, {"max_iters": 2.5}, {"scale_max": float("inf")},
    ])
    def test_from_dict_rejects_bad_values(self, fit):
        with pytest.raises(ValueError):
            FitConfig.from_dict(fit)

    def test_dict_roundtrip(self):
        cfg = FitConfig(lambda_local=2.0, scale_bounds=(0.9, 1.2), max_iters=55)
        again = FitConfig.from_dict(cfg.to_dict())
        assert again.lambda_local == 2.0
        assert again.scale_bounds == (0.9, 1.2)
        assert again.max_iters == 55

    def test_from_dict_ignores_deleted_keys(self):
        cfg = FitConfig.from_dict({
            "max_iters": 77, "lambda_rigid": 0.3, "restarts": 2, "init_jitter": 0.05,
            "seed": 4, "target_weight_mode": "heat", "warm_start": True, "step_size": 0.05,
            "lambda_symm": 0.3,
        })
        assert cfg.max_iters == 77
        assert cfg.lambda_rigid == 0.3
        assert cfg.to_dict() == FitConfig(max_iters=77, lambda_rigid=0.3).to_dict()


class TestObjectiveGradient:
    def test_local_term_needs_target_weights(self, rig):
        mesh, skel, w = rig
        with pytest.raises(ValueError):
            FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=1.0))

    def test_matches_finite_differences(self, rig, rng):
        mesh, skel, w = rig
        cfg = FitConfig(
            lambda_global=1.0, lambda_local=1.0,
            lambda_lap=0.5, lambda_rigid=0.7,
        )
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        worst = 0.0
        for _ in range(4):
            target = mesh.with_vertices(helper.deform(random_theta(helper, rng)))
            prev = helper.deform(random_theta(helper, rng))
            tw = heat_diffusion_skinning(target, skel)
            obj = FrameObjective(
                mesh, skel, w, target, cfg,
                prev_vertices=prev, target_weights=tw, frame_index=1,
            )
            theta = random_theta(obj, rng)
            grad, _, matches = obj.gradient(theta)
            for i in range(len(theta)):
                h = 1e-5 * max(1.0, abs(theta[i]))
                tp = theta.copy()
                tp[i] += h
                tm = theta.copy()
                tm[i] -= h
                fd = (obj.value(tp, matches) - obj.value(tm, matches)) / (2 * h)
                denom = max(abs(grad[i]), abs(fd), 1e-8)
                worst = max(worst, abs(grad[i] - fd) / denom)
        assert worst < 1e-3

    def test_stationary_at_perfect_fit(self, rig, rng):
        mesh, skel, w = rig
        cfg = FitConfig(lambda_local=1.0, lambda_lap=0, lambda_rigid=0)
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        theta_star = random_theta(helper, rng)
        target = mesh.with_vertices(helper.deform(theta_star))
        obj = FrameObjective(mesh, skel, w, target, cfg, target_weights=w, frame_index=1)
        grad, _, _ = obj.gradient(theta_star)
        assert np.linalg.norm(grad) < 1e-6

    def test_zero_loss_weights_zero_gradient(self, rig, rng):
        mesh, skel, w = rig
        cfg = FitConfig(
            lambda_global=0.0, lambda_local=0.0,
            lambda_lap=0.0, lambda_rigid=0.0,
        )
        obj = FrameObjective(mesh, skel, w, mesh, cfg, frame_index=1)
        grad, value, _ = obj.gradient(random_theta(obj, rng))
        assert value == 0.0
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_one_sided_point_to_plane_gradient(self, rig, rng):
        mesh, skel, w = rig
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        target = mesh.with_vertices(helper.deform(random_theta(helper, rng)))
        pts, normals = surface_samples(target)
        cfg = FitConfig(lambda_local=0, lambda_lap=0, lambda_rigid=0)
        obj = FrameObjective(
            mesh, skel, w, target, cfg,
            target_points=pts, target_normals=normals, frame_index=1,
        )
        theta = random_theta(obj, rng)
        grad, _, matches = obj.gradient(theta)
        for i in range(0, len(theta), 3):
            h = 1e-5 * max(1.0, abs(theta[i]))
            tp = theta.copy()
            tp[i] += h
            tm = theta.copy()
            tm[i] -= h
            fd = (obj.value(tp, matches) - obj.value(tm, matches)) / (2 * h)
            assert abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-8) < 1e-3

    def test_gradient_total_equals_evaluate(self, rig, rng):
        mesh, skel, w = rig
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        target = mesh.with_vertices(helper.deform(random_theta(helper, rng)))
        pts, normals = surface_samples(target)
        plane = FrameObjective(
            mesh, skel, w, target, FitConfig(lambda_local=0),
            target_points=pts, target_normals=normals, frame_index=1,
        )
        regularized = FrameObjective(
            mesh, skel, w, target, FitConfig(lambda_lap=0.5, lambda_rigid=0.7),
            prev_vertices=helper.deform(random_theta(helper, rng)),
            target_weights=heat_diffusion_skinning(target, skel), frame_index=0,
        )
        for obj in (plane, regularized):
            theta = random_theta(obj, rng)
            matches = obj.match(obj.deform(random_theta(obj, rng)))
            _, total, _ = obj.gradient(theta, matches)
            value, terms, _ = obj.evaluate(theta, matches)
            assert total == value
        assert all(terms[k] > 0 for k in ("global", "local", "lap", "rigid"))

    def test_rigidity_term_sees_rotation_not_translation(self, rig):
        # edge lengths do not change under a rigid motion; edge vectors do
        # under a rotation, by 2 (1 - cos phi) |e_perp|^2 for each edge e
        mesh, skel, w = rig
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        theta0 = helper.rest_parameters()
        theta0[6:6 + 3 * skel.num_bones] = np.tile([0.1, -0.2, 0.3], skel.num_bones)
        prev = helper.deform(theta0)
        obj = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0),
                             prev_vertices=prev, frame_index=1)
        shifted = theta0.copy()
        shifted[3:6] += [0.3, -0.1, 0.2]
        assert obj.evaluate(shifted)[1]["rigid"] <= 1e-24
        axis = np.array([1.0, 2.0, -2.0]) / 3.0
        rotated = theta0.copy()
        rotated[:3] = 0.2 * axis
        i, j = mesh.edges[:, 0], mesh.edges[:, 1]
        e = prev[i] - prev[j]
        e_perp = e - np.outer(e @ axis, axis)
        expected = 2.0 * (1.0 - np.cos(0.2)) * np.mean(np.einsum("ni,ni->n", e_perp, e_perp))
        rigid = obj.evaluate(rotated)[1]["rigid"]
        assert expected > 0
        assert abs(rigid - expected) <= 1e-10 * expected


class TestNormalEquations:
    """Forward-mode dX/dtheta and the Gauss-Newton system built from it."""

    @pytest.mark.parametrize("angle", [0.5, 5e-5])
    def test_deform_jacobian_matches_central_differences(self, rig, rng, angle):
        mesh, skel, w = rig
        obj = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        b = obj.num_bones
        theta = obj.rest_parameters()
        theta[:3] = [0.4, -0.7, 0.3]  # root away from the identity
        theta[3:6] = [0.1, 0.2, -0.3]
        # angle 5e-5 keeps every bone below the 1e-4 rad series branch
        theta[6:6 + 3 * b] = rng.uniform(-angle, angle, 3 * b) / np.sqrt(3)
        theta[6 + 3 * b:] = rng.uniform(0.9, 1.1, b)
        dX = deform_jacobian(obj, obj._forward(theta))
        assert dX.shape == (mesh.num_vertices, 3, len(theta))
        worst = 0.0
        for i in range(len(theta)):
            h = 1e-6
            tp = theta.copy()
            tp[i] += h
            tm = theta.copy()
            tm[i] -= h
            fd = (obj.deform(tp) - obj.deform(tm)) / (2 * h)
            worst = max(worst, np.abs(dX[:, :, i] - fd).max() / np.abs(fd).max())
        assert worst < 1e-7

    def test_assembled_gradient_equals_gradient(self, rig, rng):
        mesh, skel, w = rig
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        target = mesh.with_vertices(helper.deform(random_theta(helper, rng)))
        pts, normals = surface_samples(target)
        plane = FrameObjective(
            mesh, skel, w, target, FitConfig(lambda_local=0),
            target_points=pts, target_normals=normals, frame_index=1,
        )
        regularized = FrameObjective(
            mesh, skel, w, target, FitConfig(lambda_lap=0.5, lambda_rigid=0.7),
            prev_vertices=helper.deform(random_theta(helper, rng)),
            target_weights=heat_diffusion_skinning(target, skel), frame_index=0,
        )
        for obj in (plane, regularized):
            theta = random_theta(obj, rng)
            H, g, terms, matches = obj.normal_equations(theta)
            grad, total, _ = obj.gradient(theta, matches)
            assert np.abs(g - grad).max() <= 1e-10 * np.abs(grad).max()
            assert terms["total"] == total
            assert np.abs(H - H.T).max() <= 1e-12 * np.abs(H).max()

    def test_hessian_is_exact_where_residuals_vanish(self, rig, rng):
        # with every residual zero the Gauss-Newton matrix is the true Hessian
        mesh, skel, w = rig
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        theta = random_theta(helper, rng)
        posed = helper.deform(theta)
        cfg = FitConfig(lambda_lap=0, lambda_rigid=0.7)
        obj = FrameObjective(mesh, skel, w, mesh.with_vertices(posed), cfg,
                             prev_vertices=posed, target_weights=w, frame_index=1)
        H, _, terms, matches = obj.normal_equations(theta)
        assert terms["total"] < 1e-24
        fd = np.zeros_like(H)
        for i in range(len(theta)):
            h = 1e-6
            tp = theta.copy()
            tp[i] += h
            tm = theta.copy()
            tm[i] -= h
            fd[:, i] = (obj.gradient(tp, matches)[0] - obj.gradient(tm, matches)[0]) / (2 * h)
        assert np.abs(H - fd).max() < 1e-6 * np.abs(fd).max()

    @staticmethod
    def posed_objectives(mesh, skel, w, rng, target_weights=None):
        """A coarse point-to-plane objective and a fully regularized one."""
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        target = mesh.with_vertices(helper.deform(random_theta(helper, rng)))
        pts, normals = surface_samples(target)
        coarse_cfg = FitConfig(lambda_local=0, lambda_lap=0, lambda_rigid=0)
        plane = FrameObjective(mesh, skel, w, target, coarse_cfg, frame_index=1,
                               target_points=pts, target_normals=normals)
        if target_weights is None:
            target_weights = heat_diffusion_skinning(target, skel)
        full = FrameObjective(
            mesh, skel, w, target, FitConfig(lambda_lap=0.5, lambda_rigid=0.7),
            prev_vertices=helper.deform(random_theta(helper, rng)),
            target_weights=target_weights, frame_index=1,
        )
        return plane, full

    @staticmethod
    def assert_matches_explicit(obj, theta):
        H, g, _, matches = obj.normal_equations(theta)
        H_ref, g_ref = explicit_normal_equations(obj, theta, matches)
        assert np.abs(H - H_ref).max() <= 1e-12 * np.abs(H_ref).max()
        assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
        return H, H_ref

    @pytest.mark.parametrize("kind", ["plane", "full"])
    def test_moment_assembly_matches_explicit_jacobian(self, rig, rng, kind):
        mesh, skel, w = rig
        plane, full = self.posed_objectives(mesh, skel, w, rng)
        obj = plane if kind == "plane" else full
        for _ in range(2):
            self.assert_matches_explicit(obj, random_theta(obj, rng))

    def test_moment_assembly_single_bone(self, rng):
        mesh, skel = limb_rig(num_bones=1, rings=10, sides=8)
        w = heat_diffusion_skinning(mesh, skel)
        assert skel.num_bones == 1
        for obj in self.posed_objectives(mesh, skel, w, rng):
            self.assert_matches_explicit(obj, random_theta(obj, rng))

    def test_moment_assembly_with_loose_weight_rows(self, rig, rng):
        # rows that sum to 1 only within the 1e-6 SkinWeights accepts: the
        # ones column, not the weights, carries the root translation
        mesh, skel, w = rig
        loose = SkinWeights(w.weights * (1.0 + rng.uniform(-9e-7, 9e-7, (len(w.weights), 1))))
        assert np.abs(loose.weights.sum(axis=1) - 1.0).max() > 5e-7
        for obj in self.posed_objectives(mesh, skel, loose, rng, target_weights=loose):
            theta = random_theta(obj, rng)
            dX = deform_jacobian(obj, obj._forward(theta))
            assert np.array_equal(dX[:, :, 3:6], np.broadcast_to(np.eye(3), dX[:, :, 3:6].shape))
            H, H_ref = self.assert_matches_explicit(obj, theta)
            block = H_ref[3:6, 3:6]
            assert np.abs(H[3:6, 3:6] - block).max() <= 1e-12 * np.abs(block).max()


class TestObjectiveReuse:
    """_minimize forwards each theta once and evaluates each (pass, matching)
    pair once; the objective itself keeps no per-theta state."""

    # parameters of the posed target, and the bone angles of a pose far from
    # it at which test_minimize_forwards_each_theta_once freezes the matching
    TARGET_POSE = np.array([-0.2, -0.2, 0.3, -0.2, 0.0, 0.1,
                            -0.4, -0.5, -0.3, 0.2, 0.1, -0.4, -0.1, 0.2, -0.1, 1.0, 1.0, 1.0])
    MATCH_ANGLES = np.array([0.2, 0.6, 0.2, -0.1, -0.4, -0.2, 0.0, 0.5, 0.3])

    @classmethod
    def frame_objective(cls, rig, kind):
        mesh, skel, w = rig
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        target = mesh.with_vertices(helper.deform(cls.TARGET_POSE))
        if kind == "plane":
            pts, normals = surface_samples(target)
            cfg = FitConfig(lambda_local=0, lambda_lap=0, lambda_rigid=0)
            return FrameObjective(mesh, skel, w, target, cfg, frame_index=1,
                                  target_points=pts, target_normals=normals)
        return FrameObjective(mesh, skel, w, target, FitConfig(), prev_vertices=mesh.vertices,
                              target_weights=w, frame_index=1)

    @pytest.mark.parametrize("kind", ["plane", "full"])
    def test_minimize_forwards_each_theta_once(self, rig, kind, monkeypatch):
        forwards, passes, losses, rematches = [], [], [], []
        forward, loss = FrameObjective._forward, FrameObjective._loss

        def counted_forward(self, theta):
            forwards.append(theta.tobytes())
            fw = forward(self, theta)
            passes.append(fw["X"])  # holds every X, so identities stay unique
            return fw

        def pass_of(X):
            return next(i for i, made in enumerate(passes) if made is X)

        def counted_loss(self, X, matches):
            losses.append((pass_of(X), matches))  # holds matches, so ids stay unique
            return loss(self, X, matches)

        obj = self.frame_objective(rig, kind)
        # every re-matching returns (a new object holding) the matching at a
        # pose far from the target: its frozen optimum lies outside the
        # bone-scale box, so a round's second step that crosses the box is
        # rejected and the solve re-matches at the pass before it
        match_pose = obj.rest_parameters()
        match_pose[6:6 + 3 * obj.num_bones] = self.MATCH_ANGLES
        frozen = obj.match(obj.deform(match_pose))

        def counted_match(X):
            rematches.append((pass_of(X), len(passes)))
            return replace(frozen)

        monkeypatch.setattr(obj, "match", counted_match)
        monkeypatch.setattr(FrameObjective, "_forward", counted_forward)
        monkeypatch.setattr(FrameObjective, "_loss", counted_loss)
        _minimize(obj, obj.rest_parameters(), replace(obj.config, max_iters=60))
        assert len(forwards) > 20
        assert len(set(forwards)) == len(forwards)
        keys = [(made, id(m)) for made, m in losses]
        assert len(set(keys)) == len(keys)
        # some re-matching used the X of the pass made two forwards back
        assert any(made == count - 2 for made, count in rematches)

    def test_step_that_rounds_to_nothing_is_not_forwarded(self, rig, monkeypatch):
        # with convergence_tol=0 this solve runs until the damping has grown
        # so large that a step no longer changes theta
        mesh, skel, w = rig
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        pose = helper.rest_parameters()
        pose[6:6 + 3 * helper.num_bones] = 0.4
        pose[6 + 3 * helper.num_bones:] = 0.7
        target = mesh.with_vertices(helper.deform(pose))
        cfg = FitConfig(convergence_tol=0, lambda_lap=0, lambda_rigid=0, max_iters=300)
        obj = FrameObjective(mesh, skel, w, target, cfg, target_weights=w)
        forwards, null_steps = [], []
        forward, lm_step = FrameObjective._forward, fitting._lm_step

        def counted_forward(self, theta):
            forwards.append(theta.tobytes())
            return forward(self, theta)

        def watched_step(objective, theta, H, g, damping):
            step = lm_step(objective, theta, H, g, damping)
            null_steps.append(objective.project(theta + step).tobytes() == theta.tobytes())
            return step

        monkeypatch.setattr(FrameObjective, "_forward", counted_forward)
        monkeypatch.setattr(fitting, "_lm_step", watched_step)
        _minimize(obj, obj.rest_parameters(), cfg)
        assert any(null_steps)
        assert len(set(forwards)) == len(forwards)

    @pytest.mark.parametrize("kind", ["plane", "full"])
    def test_cache_follows_theta_and_matching(self, rig, rng, kind):
        obj = self.frame_objective(rig, kind)
        theta = random_theta(obj, rng, angle_deg=10.0)
        _, _, own = obj.evaluate(theta)
        other = obj.match(obj.deform(random_theta(obj, rng, angle_deg=10.0)))
        obj.normal_equations(theta, own)
        theta[7] += 0.05  # in place: same array object, new values
        values = []
        for matches in (own, other):
            fresh = self.frame_objective(rig, kind)
            assert np.array_equal(obj.deform(theta), fresh.deform(theta))
            value = obj.value(theta, matches)
            assert value == fresh.value(theta, matches)
            H, g, terms, _ = obj.normal_equations(theta, matches)
            H_new, g_new, terms_new, _ = fresh.normal_equations(theta, matches)
            assert np.array_equal(H, H_new) and np.array_equal(g, g_new)
            assert terms == terms_new
            grad, total, _ = obj.gradient(theta, matches)
            assert np.array_equal(grad, fresh.gradient(theta, matches)[0])
            values.append(value)
        assert values[0] != values[1]


class TestFitMotion:
    def test_canonical_supervision_recovers_rest(self, rig):
        mesh, skel, w = rig
        diag = bbox_diagonal(mesh)
        cfg = FitConfig(
            lambda_local=1.0, lambda_lap=0, lambda_rigid=0,
            max_iters=120, convergence_tol=1e-10,
        )
        supervision = [mesh] * 3
        clip, report = fit_motion(mesh, skel, w, supervision, cfg, supervision_weights=[w] * 3)
        for frame in clip.frames:
            assert np.linalg.norm(frame.angles, axis=1).max() < 1e-2
            assert np.abs(frame.bone_scales - 1.0).max() < 1e-2
        for row in report.to_dict()["frames"]:
            assert row["glc"] < 1e-6 * diag**2

    def test_monotone_objective_over_accepted_rounds(self, rig, rng):
        mesh, skel, w = rig
        helper = FrameObjective(mesh, skel, w, mesh, FitConfig(lambda_local=0))
        target = mesh.with_vertices(helper.deform(random_theta(helper, rng)))
        cfg = FitConfig(lambda_local=1.0, lambda_lap=0.1, lambda_rigid=0,
                        max_iters=150)
        obj = FrameObjective(mesh, skel, w, target, cfg, target_weights=w, frame_index=1)
        history = []
        _minimize(obj, obj.rest_parameters(), cfg, history=history)
        assert len(history) >= 2
        assert all(b <= a for a, b in zip(history[:-1], history[1:]))

    def test_determinism_bitwise(self, rig):
        mesh, skel, w = rig
        rng = np.random.default_rng(5)
        gt = smooth_clip(rng, skel.num_bones, 4)
        supervision = [d.as_mesh() for d in deform_clip(mesh, skel, w, gt)]
        cfg = FitConfig(
            lambda_local=1.0, lambda_lap=0, lambda_rigid=0.1,
            max_iters=60,
        )
        clip1, _ = fit_motion(mesh, skel, w, supervision, cfg, supervision_weights=[w] * 4)
        clip2, _ = fit_motion(mesh, skel, w, supervision, cfg, supervision_weights=[w] * 4)
        for a, b in zip(clip1.frames, clip2.frames):
            assert np.array_equal(a.angles, b.angles)
            assert np.array_equal(a.bone_scales, b.bone_scales)
            assert np.array_equal(a.root.as_flat(), b.root.as_flat())

    def test_scales_respect_bounds(self, rig):
        mesh, skel, w = rig
        rng = np.random.default_rng(3)
        gt = smooth_clip(rng, skel.num_bones, 3, scale_amp=0.1)
        supervision = [d.as_mesh() for d in deform_clip(mesh, skel, w, gt)]
        cfg = FitConfig(
            lambda_local=0.0, lambda_lap=0, lambda_rigid=0,
            max_iters=40, scale_bounds=(0.95, 1.05),
        )
        clip, _ = fit_motion(mesh, skel, w, supervision, cfg)
        for frame in clip.frames:
            assert np.all(frame.bone_scales >= 0.95 - 1e-12)
            assert np.all(frame.bone_scales <= 1.05 + 1e-12)

    def test_warm_start_locality(self, full_limb):
        mesh, skel, w = full_limb
        rng = np.random.default_rng(11)
        frames = 8
        gt = smooth_clip(rng, skel.num_bones, frames, max_deg=20,
                         root_translation=0.2, root_rotation=0.1)
        supervision = [d.as_mesh() for d in deform_clip(mesh, skel, w, gt)]
        cfg = FitConfig(
            lambda_local=1.0, lambda_lap=0, lambda_rigid=0,
            max_iters=800, convergence_tol=1e-10,
        )
        clip, _ = fit_motion(mesh, skel, w, supervision, cfg,
                             supervision_weights=[w] * frames)
        slack = np.deg2rad(5.0)
        for t in range(1, frames):
            fitted = np.linalg.norm(clip.frames[t].angles - clip.frames[t - 1].angles, axis=1)
            truth = np.linalg.norm(gt.frames[t].angles - gt.frames[t - 1].angles, axis=1)
            assert np.all(fitted <= truth + slack)

    def test_rigidity_damps_noise_jitter(self, rig):
        mesh, skel, w = rig
        diag = bbox_diagonal(mesh)
        rng = np.random.default_rng(21)
        gt = smooth_clip(rng, skel.num_bones, 4, root_translation=0.1, root_rotation=0.05)
        clean = deform_clip(mesh, skel, w, gt)
        noisy = [
            d.as_mesh().with_vertices(d.vertices + rng.normal(scale=0.02 * diag, size=d.vertices.shape))
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
        assert jumps[1.0] < jumps[0.0]

    def test_noise_free_fit_converges_on_every_frame(self, rig):
        mesh, skel, w = rig
        gt = smooth_clip(np.random.default_rng(1), skel.num_bones, 4)
        supervision = [d.as_mesh() for d in deform_clip(mesh, skel, w, gt)]
        _, report = fit_motion(mesh, skel, w, supervision, FitConfig(),
                               supervision_weights=[w] * 4)
        data = report.to_dict()
        assert [row["stop_reason"] for row in data["frames"]] == ["converged"] * 4
        assert data["totals"]["unconverged_frames"] == []

    def test_budget_stop_is_reported(self, rig):
        mesh, skel, w = rig
        gt = smooth_clip(np.random.default_rng(1), skel.num_bones, 2)
        supervision = [d.as_mesh() for d in deform_clip(mesh, skel, w, gt)]
        cfg = FitConfig(lambda_local=0, lambda_lap=0, lambda_rigid=0, max_iters=1)
        _, report = fit_motion(mesh, skel, w, supervision, cfg)
        data = report.to_dict()
        assert data["frames"][1]["stop_reason"] == "budget"
        assert 1 in data["totals"]["unconverged_frames"]

    def test_empty_supervision_rejected(self, rig):
        mesh, skel, w = rig
        with pytest.raises(ValueError):
            fit_motion(mesh, skel, w, [], FitConfig())

    def test_non_finite_target_aborts_with_frame_info(self, rig):
        mesh, skel, w = rig
        bad = TriMesh(np.full((10, 3), np.nan))
        cfg = FitConfig(lambda_local=0, lambda_lap=0, lambda_rigid=0, max_iters=5)
        with pytest.raises(FitError) as err:
            fit_motion(mesh, skel, w, [bad], cfg)
        assert "frame 0" in str(err.value)

    def test_zero_area_supervision_rejected_before_solving(self, rig, monkeypatch):
        mesh, skel, w = rig
        flat = TriMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]]),
                       np.array([[0, 1, 2], [1, 2, 3]]))
        assert len(surface_samples(flat)[0]) == 0

        def solve(*args, **kwargs):
            raise AssertionError("a frame was solved before the inputs were checked")

        monkeypatch.setattr(fitting, "_minimize", solve)
        with pytest.raises(ValueError) as err:
            fit_motion(mesh, skel, w, [mesh, flat], FitConfig())
        assert "frame 1" in str(err.value)

    def test_supervision_weights_checked_before_solving(self, rig):
        mesh, skel, w = rig
        cfg = FitConfig(lambda_local=0, lambda_lap=0, lambda_rigid=0, max_iters=5)
        short = SkinWeights(w.weights[:-1])
        with pytest.raises(ValueError) as err:
            fit_motion(mesh, skel, w, [mesh, mesh], cfg, supervision_weights=[w, short])
        assert "frame 1" in str(err.value)

    def test_report_totals(self, rig):
        mesh, skel, w = rig
        cfg = FitConfig(lambda_local=0, lambda_lap=0.1, lambda_rigid=0,
                        max_iters=20)
        clip, report = fit_motion(mesh, skel, w, [mesh, mesh], cfg)
        data = report.to_dict()
        assert data["totals"]["frame_count"] == 2
        for row in data["frames"]:
            for key in ("global", "local", "lap", "rigid", "glc", "total"):
                assert row[key] >= 0.0


class TestRootGauge:
    """A lone root bone's rotation is returned folded into the root transform."""

    @staticmethod
    def random_frame(rng, num_bones):
        root = RigidTransform.from_rotation_vector(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        return MotionFrame(root, rng.uniform(-0.6, 0.6, (num_bones, 3)),
                           rng.uniform(0.9, 1.1, num_bones))

    def test_fold_keeps_posed_vertices_and_joints(self, rig, rng):
        mesh, skel, w = rig
        offset = np.array([0.7, -0.4, 0.3])
        mesh = mesh.with_vertices(mesh.vertices + offset)
        skel = Skeleton(skel.joints + offset, skel.parents)
        for _ in range(3):
            frame = self.random_frame(rng, skel.num_bones)
            folded = fold_root_bone(skel, frame)
            assert np.array_equal(folded.angles[0], np.zeros(3))
            assert np.array_equal(folded.angles[1:], frame.angles[1:])
            assert np.array_equal(folded.bone_scales, frame.bone_scales)
            before, after = deform_clip(mesh, skel, w, MotionClip((frame, folded)))
            assert np.abs(before.vertices - after.vertices).max() < 1e-12
            assert np.abs(posed_joints(skel, frame) - posed_joints(skel, folded)).max() < 1e-12

    def test_fit_returns_zero_lone_root_bone_angles(self, rig):
        mesh, skel, w = rig
        gt = smooth_clip(np.random.default_rng(4), skel.num_bones, 3)
        supervision = [d.as_mesh() for d in deform_clip(mesh, skel, w, gt)]
        cfg = FitConfig(lambda_local=1.0, lambda_lap=0, lambda_rigid=0,
                        max_iters=30)
        clip, _ = fit_motion(mesh, skel, w, supervision, cfg, supervision_weights=[w] * 3)
        assert skel.bone_parent_bones.tolist().count(-1) == 1
        for frame in clip.frames:
            assert np.array_equal(frame.angles[0], np.zeros(3))
            assert np.linalg.norm(frame.angles[1:]) > 0.0

    def test_root_with_two_child_bones_unchanged(self, rng):
        skel = Skeleton(np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [2.0, 0, 0]]),
                        np.array([-1, 0, 0, 1]))
        frame = self.random_frame(rng, skel.num_bones)
        assert fold_root_bone(skel, frame) is frame

    def test_transfer_motion_same_for_folded_frame(self, rig, rng):
        mesh, skel, w = rig
        frame = self.random_frame(rng, skel.num_bones)
        clip = MotionClip((frame, fold_root_bone(skel, frame)))
        corr = JointCorrespondence.identity(skel.num_joints)
        before, after = transfer_motion(clip, skel, skel, corr, mesh, w)
        assert np.abs(before.vertices - after.vertices).max() < 1e-12
