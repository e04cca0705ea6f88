"""Run one framepick benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {short_video,long_video} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports the package from `src/`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics named in `perfbench/map.json`; with `--trace 1` the
units of work alternate between traced and untraced, and the metrics are
the per-layer ones, including the coverage of the layer spans and the
tracing overhead. The lines before it give the run context, a readable
summary and any failed check.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

METRICS = json.loads((HERE / "map.json").read_text())


def run_context(args) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(np),
    }


def blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if it has one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def per_layer(run: dict) -> dict:
    import spans

    t = run["totals"]
    traced = {phase: times[0] for phase, times in run["unit_times"].items()}
    untraced = {phase: times[1] for phase, times in run["unit_times"].items()}
    timed_wall = sum(sum(times) for times in traced.values())
    untraced_estimate = sum(len(traced[p]) * statistics.median(untraced[p]) for p in traced)
    out = {name: t[name] for name in (
        "synth.generate_s", "synth.decode_check_s", "trainer.make_batch_s", "trainer.adamw_step_s",
        "trainer.clip_global_norm_s", "trainer.metrics_write_s", "trainer.checkpoint_save_s",
        "trainer.checkpoint_load_s", "trainer.evaluate_s", "surrogates.encode_video_s",
        "surrogates.encode_text_s", "surrogates.score_answers_s", "surrogates.vqa_loss_s",
        "prompter.select_frames_s", "prompter.select_frames_calls", "qformer.teacher_fuse_s",
        "qformer.student_fuse_s", "qformer.distill_teacher_s", "qformer.distill_loss_s",
        "nn.attention_s", "nn.mlp_s", "tensor.backward_s", "tensor.backward_calls",
        "tensor.matmul_s", "tensor.softmax_s")}
    out.update({f"{layer}.self_s": t[f"{layer}.self_s"] for layer in spans.LAYERS})
    out.update({
        "trainer.checkpoint_bytes": t["checkpoint_bytes"] / max(t["checkpoints"], 1),
        "trainer.teacher_val_accuracy": run["quality"]["teacher_val_accuracy"],
        "trainer.student_val_accuracy": run["quality"]["student_val_accuracy"],
        "trainer.keyframe_recall": run["quality"]["keyframe_recall"],
        "prompter.frames_attended_per_video": t["student_frames"] / max(t["student_fuse_calls"], 1),
        "prompter.keyframe_hit_ratio": t["picks_on_keyframe"] / max(t["picks"], 1),
        "qformer.visual_tokens_per_call": t["qformer_tokens"] / max(t["qformer_calls"], 1),
        "qformer.masked_out_token_frac": t["student_keys_masked"] / max(t["student_keys"], 1),
        "nn.attention_calls": t["attention_calls"],
        "tensor.ops_per_step": t["ops_train"] / max(t["trainer.adamw_step_calls"], 1),
        "tensor.ops_per_request": t["ops_request"] / len(traced["serve"]),
        "tensor.graph_ops_per_request": t["graph_ops_request"] / len(traced["serve"]),
        "mem.minor_faults_per_request": run["faults_per_request"],
        "trace.timed_wall_s": timed_wall,
        "trace.coverage": t["root_s"] / timed_wall,
        "trace.overhead_frac": timed_wall / untraced_estimate - 1.0,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import the framepick sources: {exc}", file=sys.stderr)
        return 2

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    print("context: " + json.dumps(run_context(args), sort_keys=True))
    # on SIGTERM, unwind so the batch process is stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = bench.run_workload(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    if args.trace:
        values, names = per_layer(run), METRICS["per_layer"]
    else:
        values, names = run["results"], METRICS["end_to_end"]
    metrics = {name: {"value": float(values[name]), "unit": spec["unit"]} for name, spec in names.items()}

    print("quality: " + json.dumps(run["quality"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    for failure in run["failures"]:
        print(f"check failed: {failure}")
    failed = len(run["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": run["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
