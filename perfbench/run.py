"""animrig benchmark: one workload, closed loop, for a fixed number of seconds.

    python3 perfbench/run.py --workload fit_limb --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. The line before it holds
the run's details (machine facts, parameters, per-operation times). Results
and spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread (at most nproc): fixed before numpy loads, so runs are steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up runs at least 3 times and until 3 s have passed, so that a set-up of a
# few milliseconds is sampled across seconds of the host's speed changes.
SETUP_LEAST, SETUP_SECONDS = 3, 3.0
MIN_OPS = 2        # at least two operations, so repeats can be compared


def parse_args(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit_limb", "skin_scale", "pipeline_embed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "toy"], default="full",
                        help="toy shrinks every input (for the benchmark's own tests)")
    return parser.parse_args(argv)


def import_library():
    """Import animrig from this checkout's src/, or fail with a clear message."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "animrig", "__init__.py")):
        raise SystemExit(f"benchmark: no animrig sources under {src}")
    sys.path[:0] = [src, HERE]
    import animrig

    if os.path.dirname(os.path.dirname(os.path.abspath(animrig.__file__))) != src:
        raise SystemExit(f"benchmark: animrig was imported from {animrig.__file__}, not {src}")


def machine_facts():
    import platform

    import numpy as np
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def measure(workload, seconds, tracer=None):
    """Closed loop: run operations back to back until the next would overrun."""
    import time
    from contextlib import nullcontext

    import numpy as np

    ops = []  # (wall_s, cpu_s, failures, output)
    started = time.perf_counter()
    while True:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with tracer.recording() if tracer else nullcontext():
                output = workload.run()
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error = None, exc
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if error is not None:
            failures = [f"raised {error!r}"]
        else:
            try:
                failures = workload.check(output)
            except Exception as exc:  # unreadable output is a failed check
                failures = [f"check raised {exc!r}"]
        ops.append((wall, cpu, failures, output))
        elapsed = time.perf_counter() - started
        typical = float(np.median([op[0] for op in ops]))
        if len(ops) >= MIN_OPS and elapsed + typical > seconds:
            return ops


def layer_metrics(tracer, ops, span_cost):
    """Per-operation layer numbers from the spans of the traced operations."""
    from layertrace import summarize

    n = len(ops)
    table = summarize(tracer.spans)
    wall = sum(op[0] for op in ops)

    def calls(name):
        return table.get(name, {}).get("calls", 0) / n

    def self_s(*names):
        return sum(table.get(name, {}).get("self_s", 0.0) for name in names) / n

    counters = tracer.counters
    out = {}
    frames = counters["fitting.frames"]
    out["fitting.iters_per_frame"] = (counters["fitting.iterations"] / frames if frames else 0.0,
                                      "count")
    for name in ("fitting.gradient", "fitting.evaluate", "fitting.lbfgs",
                 "chamfer.match_global", "chamfer.match_parts", "chamfer.part_match_value",
                 "deform.blend_skin_arrays", "deform.blend_skin", "deform.export_frame_meshes",
                 "skeleton.fk_arrays", "skeleton.forward_kinematics",
                 "rotations.rotation_matrices", "rotations.rotation_vector_gradient",
                 "skinning.nearest_visible_bones", "skinning.cotangent_laplacian",
                 "retarget.build_interior_field", "retarget.embed_skeleton",
                 "retarget.transfer_motion", "geometry.load_mesh", "geometry.save_mesh"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (self_s(name), "s")
    out["fitting.fit_motion.calls"] = (calls("fitting.fit_motion"), "count")
    out["fitting.self_s"] = (self_s("fitting.fit_motion"), "s")
    out["chamfer.kdtree_builds"] = (calls("chamfer.kdtree_build"), "count")
    out["chamfer.kdtree_build_s"] = (self_s("chamfer.kdtree_build"), "s")
    heat = "skinning.heat_diffusion_skinning"
    out[f"{heat}.calls"] = (calls(heat), "count")
    out[f"{heat}.total_s"] = (table.get(heat, {}).get("total_s", 0.0) / n, "s")
    out["skinning.solve_s"] = (self_s(heat), "s")
    out["retarget.interior_voxels"] = (counters["retarget.interior_voxels"] / n, "count")
    out["geometry.load_mesh.bytes"] = (counters["geometry.load_mesh.bytes"] / n, "B")
    out["geometry.save_mesh.bytes"] = (counters["geometry.save_mesh.bytes"] / n, "B")
    out["cli.run_pipeline.s"] = (self_s("cli.run_pipeline"), "s")
    out["cli.self_s"] = (self_s("cli.main", "cli.run_pipeline"), "s")
    out["process.cpu_s"] = (sum(op[1] for op in ops) / n, "s")
    out["process.wall_s"] = (wall / n, "s")
    covered = sum(entry["self_s"] for entry in table.values())
    out["trace.covered_pct"] = (100.0 * covered / wall, "%")
    out["trace.overhead_pct"] = (100.0 * span_cost * len(tracer.spans) / wall, "%")
    shares = {}
    for name, entry in table.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + 100.0 * entry["self_s"] / wall
    return out, shares


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_library()

    import json
    import resource
    import statistics
    import time

    from layertrace import Tracer, span_cost_s
    from workloads import PARAMS, WORKLOADS

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    params = PARAMS[args.workload][args.scale]
    workload = WORKLOADS[args.workload](args.seed, params,
                                        os.path.join(ROOT, ".bench_work", args.workload))
    try:
        setups = []
        while len(setups) < SETUP_LEAST or sum(setups) < SETUP_SECONDS:
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)

        tracer = Tracer() if args.trace else None
        try:
            if tracer:
                tracer.install()
            ops = measure(workload, args.seconds, tracer)
        finally:
            if tracer:
                tracer.restore()

        walls = [op[0] for op in ops]
        outputs = [op[3] for op in ops if not op[2]]
        failed = sum(1 for op in ops if op[2])
        details = {
            "workload": args.workload, "seed": args.seed, "scale": args.scale,
            "trace": args.trace, "params": params, "machine": machine_facts(),
            "setup_s": setups, "op_wall_s": walls, "op_cpu_s": [op[1] for op in ops],
            "failures": [op[2] for op in ops if op[2]],
            "fail_frac": failed / len(ops),
        }
        if outputs:
            details.update(workload.details(outputs, walls))
        if tracer:
            metrics, details["layer_share_pct"] = layer_metrics(tracer, ops, span_cost_s())
            tracer.write(os.path.join(out_dir, f"{args.workload}.spans.jsonl"))
        else:
            error = workload.error_pct(outputs[-1]) if outputs else None
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "op_s": (statistics.median(walls), "s"),
                "error_pct": (error, "%"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
    finally:
        cleanup = getattr(workload, "cleanup", None)
        if cleanup:
            cleanup()

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_dir, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
