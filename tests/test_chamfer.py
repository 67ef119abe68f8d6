import json

import numpy as np
import pytest

from animrig import chamfer
from animrig.chamfer import chamfer_global, chamfer_local, match_global, match_parts
from animrig.cli import main
from animrig.geometry import EmptyInputError
from animrig.skinning import SkinWeights, save_weights


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
        term1 = np.mean(ca * cb[j] * d2[np.arange(len(pa)), j])
        i = d2.argmin(axis=0)
        term2 = np.mean(ca[i] * cb * d2[i, np.arange(len(pb))])
        total += term1 + term2
    return total / len(common)


def random_weights(rng, n, bones=4):
    w = rng.random((n, bones))
    return w / w.sum(axis=1, keepdims=True)


class TestChamferGlobal:
    def test_identical_clouds_zero(self, rng):
        pts = rng.normal(size=(50, 3))
        assert chamfer_global(pts, pts.copy()) == 0.0

    def test_single_points_analytic(self):
        assert chamfer_global(np.zeros((1, 3)), np.array([[1.0, 0, 0]])) == 2.0

    def test_matches_brute_force(self, rng):
        worst = 0.0
        for _ in range(15):
            a = rng.normal(size=(rng.integers(50, 300), 3))
            b = rng.normal(size=(rng.integers(50, 300), 3))
            fast = chamfer_global(a, b)
            slow = brute_force_global(a, b)
            worst = max(worst, abs(fast - slow) / abs(slow))
        assert worst < 1e-9

    def test_symmetric(self, rng):
        a = rng.normal(size=(80, 3))
        b = rng.normal(size=(60, 3))
        assert abs(chamfer_global(a, b) - chamfer_global(b, a)) < 1e-15

    def test_zero_iff_equal_point_sets(self, rng):
        a = rng.normal(size=(30, 3))
        shuffled = a[rng.permutation(30)]
        assert chamfer_global(a, shuffled) == 0.0
        moved = a.copy()
        moved[0] += 0.5
        assert chamfer_global(a, moved) > 0.0

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyInputError):
            chamfer_global(np.zeros((0, 3)), np.zeros((1, 3)))

    def test_one_sided_match_keeps_the_pred_direction(self, rng):
        a = rng.normal(size=(70, 3))
        b = rng.normal(size=(90, 3))
        both = match_global(a, b)
        one = match_global(a, b, two_sided=False)
        assert np.array_equal(one.idx_pred, both.idx_pred)
        assert np.array_equal(one.d2_pred, both.d2_pred)
        assert one.idx_target is None and one.d2_target is None


class TestChamferLocal:
    def test_identical_clouds_same_weights_zero(self, rng):
        pts = rng.normal(size=(40, 3))
        w = SkinWeights(random_weights(rng, 40))
        assert chamfer_local(pts, pts.copy(), w, w) == 0.0

    def test_swapped_parts_detected(self, rng):
        d = 10.0
        cluster_a = rng.normal(size=(30, 3)) * 0.05
        cluster_b = rng.normal(size=(30, 3)) * 0.05 + np.array([d, 0, 0])
        pts = np.vstack([cluster_a, cluster_b])
        w_pred = np.zeros((60, 2))
        w_pred[:30, 0] = 1.0
        w_pred[30:, 1] = 1.0
        w_tgt = w_pred[:, ::-1].copy()  # same coordinates, labels swapped
        g = chamfer_global(pts, pts.copy())
        loc = chamfer_local(pts, pts.copy(), SkinWeights(w_pred), SkinWeights(w_tgt))
        assert g < 1e-6 * d**2
        assert loc > 0.5 * d**2
        # brute-force the same construction
        assert abs(loc - brute_force_local(pts, pts, w_pred, w_tgt)) < 1e-9 * loc

    def test_matches_brute_force(self, rng):
        worst = 0.0
        for _ in range(10):
            a = rng.normal(size=(rng.integers(50, 200), 3))
            b = rng.normal(size=(rng.integers(50, 200), 3))
            wa = random_weights(rng, len(a))
            wb = random_weights(rng, len(b))
            fast = chamfer_local(a, b, SkinWeights(wa), SkinWeights(wb))
            slow = brute_force_local(a, b, wa, wb)
            worst = max(worst, abs(fast - slow) / abs(slow))
        assert worst < 1e-9

    def test_no_common_parts_warns_and_returns_zero(self, rng):
        a = rng.normal(size=(10, 3))
        b = rng.normal(size=(10, 3))
        wa = np.zeros((10, 2))
        wa[:, 0] = 1.0
        wb = np.zeros((10, 2))
        wb[:, 1] = 1.0
        with pytest.warns(UserWarning):
            value = chamfer_local(a, b, SkinWeights(wa), SkinWeights(wb))
        assert value == 0.0

    def test_nonnegative(self, rng):
        for _ in range(5):
            a = rng.normal(size=(30, 3))
            b = rng.normal(size=(30, 3))
            wa = SkinWeights(random_weights(rng, 30))
            wb = SkinWeights(random_weights(rng, 30))
            assert chamfer_local(a, b, wa, wb) >= 0.0

    def test_row_count_validation(self, rng):
        a = rng.normal(size=(10, 3))
        w_bad = SkinWeights(random_weights(rng, 9))
        with pytest.raises(ValueError):
            chamfer_local(a, a, w_bad, w_bad)


def weights_without(rng, n, bones, absent):
    """Random row-stochastic weights in which part `absent` never wins a row."""
    w = rng.random((n, bones))
    w[:, absent] = 0.0
    return SkinWeights(w / w.sum(axis=1, keepdims=True))


class TestMatchParts:
    """A global match seeds match_parts without changing a single pair."""

    @pytest.mark.parametrize("two_sided", [True, False])
    def test_global_match_gives_the_same_pairs(self, rng, two_sided):
        for _ in range(10):
            a = rng.normal(size=(rng.integers(50, 200), 3))
            b = rng.normal(size=(rng.integers(50, 200), 3))
            # random labels cross everywhere; part 3 is only in b, part 4 only in a
            wa, wb = weights_without(rng, len(a), 5, 3), weights_without(rng, len(b), 5, 4)
            plain = match_parts(a, b, wa, wb)
            seeded = match_parts(a, b, wa, wb,
                                 global_match=match_global(a, b, two_sided=two_sided))
            assert plain.num_parts == seeded.num_parts == 3
            for name in ("pred_index", "target_index", "coef"):
                assert np.array_equal(getattr(plain, name), getattr(seeded, name))

    def test_no_part_tree_without_misses(self, rng, monkeypatch):
        a, b = rng.normal(size=(60, 3)), rng.normal(size=(50, 3))
        wa, wb = SkinWeights(np.ones((60, 1))), SkinWeights(np.ones((50, 1)))
        m = match_global(a, b)
        built = []
        monkeypatch.setattr(chamfer, "cKDTree", lambda points: built.append(len(points)))
        pairs = match_parts(a, b, wa, wb, global_match=m)
        assert built == []
        assert np.array_equal(pairs.target_index[:60], m.idx_pred)
        assert np.array_equal(pairs.pred_index[60:], m.idx_target)


def eval_chamfer(tmp_path, capsys, pred, target, w_pred, w_target, lambda_local=1.0):
    """eval-chamfer's JSON report for point sets and skin weights written to tmp_path."""
    args = ["eval-chamfer", "--lambda-local", repr(lambda_local)]
    for name, points, weights in (("pred", pred, w_pred), ("target", target, w_target)):
        mesh_path, weights_path = tmp_path / f"{name}.obj", tmp_path / f"{name}.json"
        mesh_path.write_text("".join("v %r %r %r\n" % tuple(p) for p in points.tolist()))
        save_weights(weights, str(weights_path))
        args += [f"--{name}", str(mesh_path), f"--weights-{name}", str(weights_path)]
    assert main(args) == 0
    return json.loads(capsys.readouterr().out)


class TestGlobalLocalChamfer:
    """The combined global + lambda * local chamfer that eval-chamfer reports."""

    def test_zero_lambda_equals_global(self, rng, tmp_path, capsys):
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(40, 3))
        w = SkinWeights(random_weights(rng, 40))
        out = eval_chamfer(tmp_path, capsys, a, b, w, w, lambda_local=0.0)
        assert out["local"] > 0.0
        assert out["combined"] == out["global"] == chamfer_global(a, b)

    def test_identical_inputs_zero(self, rng, tmp_path, capsys):
        a = rng.normal(size=(40, 3))
        w = SkinWeights(random_weights(rng, 40))
        out = eval_chamfer(tmp_path, capsys, a, a.copy(), w, w)
        assert out["combined"] == 0.0

    def test_swap_increases_over_global(self, rng, tmp_path, capsys):
        d = 10.0
        cluster = rng.normal(size=(20, 3)) * 0.05
        pts = np.vstack([cluster, cluster + np.array([d, 0, 0])])
        w_pred = np.zeros((40, 2))
        w_pred[:20, 0] = 1.0
        w_pred[20:, 1] = 1.0
        wp = SkinWeights(w_pred)
        wt = SkinWeights(w_pred[:, ::-1].copy())
        out = eval_chamfer(tmp_path, capsys, pts, pts.copy(), wp, wt, lambda_local=1.0)
        assert out["combined"] > chamfer_global(pts, pts.copy())
