"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layertrace  # noqa: E402
from layertrace import LAYERS, Tracer, _resolve, self_times, summarize  # noqa: E402
from workloads import FirstRepeat  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_outputs_match_untraced(workload):
    digests = []
    for trace in (0, 1):
        proc = run_bench(workload, trace)
        digests.append(json.loads(proc.stdout.strip().splitlines()[-2])["digests"])
    assert digests[0] == digests[1]
    assert digests[0]


def test_same_seed_gives_the_same_inputs_and_counts():
    counts = []
    for _ in range(2):
        proc = run_bench("fit_limb", 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in (
            "fitting.iters_per_frame", "fitting.gradient.calls", "chamfer.kdtree_builds")})
    assert counts[0] == counts[1]
    assert counts[0]["fitting.gradient.calls"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("fit_limb", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_what_children_cover():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 6.5, 0],
        ["b", 7.0, 8.0, 0],
    ]
    assert self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 1.5, 1.0])
    table = summarize(spans)
    assert table["b"] == {"calls": 2, "total_s": pytest.approx(2.5), "self_s": pytest.approx(2.5)}
    assert sum(e["self_s"] for e in table.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["c1", 2.0, 6.0, 0], ["c2", 4.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(2.0)


def _bindings():
    out = {}
    for bindings, _ in LAYERS.values():
        for binding in bindings:
            owner, attr = _resolve(binding)
            out[binding] = (owner, attr, vars(owner)[attr])
    return out


def test_wrappers_record_spans_and_restore_the_originals():
    from animrig import skeleton
    from animrig.rotations import rotation_matrices

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        for binding, (owner, attr, original) in before.items():
            assert vars(owner)[attr] is not original, binding
        skeleton.fk_arrays(skeleton.Skeleton([[0, 0, 0], [1, 0, 0]], [-1, 0]),
                           [[0.0, 0.0, 0.1]], [1.0])
        assert tracer.spans == []  # not recording
        with tracer.recording():
            skeleton.fk_arrays(skeleton.Skeleton([[0, 0, 0], [1, 0, 0]], [-1, 0]),
                               [[0.0, 0.0, 0.1]], [1.0])
        names = [row[0] for row in tracer.spans]
        assert names == ["skeleton.fk_arrays", "rotations.rotation_matrices"]
        assert tracer.spans[1][3] == 0  # nested under fk_arrays
    finally:
        tracer.restore()
    for binding, (owner, attr, original) in before.items():
        assert vars(owner)[attr] is original, binding
    assert skeleton.rot.rotation_matrices is rotation_matrices


def test_an_unresolved_binding_stops_install_and_restores_the_rest(monkeypatch):
    before = _bindings()
    monkeypatch.setitem(layertrace.LAYERS, "skeleton.renamed",
                        (["animrig.skeleton:no_such_function"], None))
    tracer = Tracer()
    with pytest.raises(LookupError, match="no_such_function"):
        tracer.install()
    tracer.restore()
    for binding, (owner, attr, original) in before.items():
        assert vars(owner)[attr] is original, binding


def test_a_repeat_that_differs_from_the_first_fails():
    first = FirstRepeat()
    assert first.failures({"clip": "a", "weights": "b"}) == []
    assert first.failures({"clip": "a", "weights": "b"}) == []
    assert first.failures({"clip": "a", "weights": "c"}) == [
        "['weights'] differ from the first repeat of this seed"]
