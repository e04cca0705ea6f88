"""Run alternating parent/change pairs of the framepick benchmark and write
one `BENCH_*.json` that records them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --runs RUNS.jsonl \
        --out results/BENCH_name.json [--workload W ...] [--first-seed 1 ...] \
        [--traced]

Each DIR is a checkout of one commit (for example a `git archive` of it).
Every run is one `perfbench/run.py` process started in its checkout with
PYTHONPATH unset, so each side imports its own `src/`, for the
`run_seconds` that `BENCHMARK.json` sets. Each `--first-seed` starts one
sweep of `PAIRS` pairs per workload: pair k runs seed `first_seed + k` on
both sides, and the parent runs first on odd seeds.
Each run's result line is appended to RUNS.jsonl as one JSON object
(`side`, `workload`, `seed`, `trace`, `result`), and a run already in that
file is not run again, so an interrupted sweep resumes where it stopped.
With `--traced`, each side also makes one `--trace 1` run per workload at
the first sweep's first seed, whose per-request op counts show where the
work went.

The output holds the host context; per workload and end-to-end metric of
`BENCHMARK.json`, once per sweep and once over every pair run, the
per-pair values, each side's median and quartiles, the pairs the change
won (ties count for neither side), whether the gain rule holds (the change
wins at least 9 in 10 pairs and the medians differ by more than the
parent's interquartile range), whether the change's median stays within
the metric's bound, and whether the metric is unresolved: the parent's
interquartile range is wider than the bound (as a share of its median),
so neither a gain nor a loss within the bound can be told from spread,
unless every change run beats every parent run; and the ops of one batch-1 request on each path, with
how many of them record a graph, on each side. A gain is met only if the
rule holds over every pair run, not in a chosen sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# pairs per workload in one sweep
PAIRS = 10

# one batch-1 request per path at the default geometry, run inside a checkout;
# prints {path: [ops, graph ops]}
OP_COUNT_SCRIPT = """
import json, sys
sys.path.insert(0, "src")
from framepick import synth, trainer
from framepick import tensor as T
cfg = trainer.TrainConfig(seed=0, data=synth.DatasetSpec(num_train=1, num_val=1, seed=0))
bundle = trainer.build_models(cfg)
batch = trainer.make_batch(synth.generate(cfg.data)[1])
op, outs = T._op, []
def counted(data, inputs, bw):
    outs.append(op(data, inputs, bw))
    return outs[-1]
T._op = counted
counts = {}
for path, forward in (("select", lambda: trainer.student_forward(bundle, batch, cfg, "infer")),
                      ("full", lambda: trainer.teacher_forward(bundle, batch, cfg))):
    outs.clear()
    forward()
    counts[path] = [len(outs), sum(out.requires_grad for out in outs)]
print(json.dumps(counts))
"""


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def planned_runs(workloads, first_seed: int, traced: bool):
    """(side, workload, seed, trace) in run order."""
    for workload in workloads:
        for seed in range(first_seed, first_seed + PAIRS):
            for side in (SIDES if seed % 2 else SIDES[::-1]):
                yield side, workload, seed, 0
    if traced:
        for workload in workloads:
            for side in SIDES:
                yield side, workload, first_seed, 1


def load_runs(path: Path) -> dict:
    runs = {}
    if path.exists():
        for line in path.read_text().splitlines():
            r = json.loads(line)
            runs[r["side"], r["workload"], r["seed"], r["trace"]] = r["result"]
    return runs


def quartiles(values) -> list:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summarize(runs: dict, end_to_end: list, workloads) -> dict:
    """Per workload and metric: the pairs, medians, quartiles, wins and rules."""
    out = {}
    for workload in workloads:
        seeds = sorted(seed for side, wl, seed, trace in runs
                       if (side, wl, trace) == ("parent", workload, 0) and ("change", wl, seed, 0) in runs)
        pairs = [(runs["parent", workload, s, 0], runs["change", workload, s, 0]) for s in seeds]
        table = {"seeds": seeds,
                 "all_correct": all(r["correct"] for pair in pairs for r in pair),
                 "failed": {side: sum(pair[i]["failed"] for pair in pairs) for i, side in enumerate(SIDES)},
                 "metrics": {}}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
            parent, change = [v[0] for v in values], [v[1] for v in values]
            wins = sum((c < p) if lower else (c > p) for p, c in values)
            q = quartiles(parent)
            gap = (q[1] - statistics.median(change)) * (1 if lower else -1)
            separated = max(change) < min(parent) if lower else min(change) > max(parent)
            rel = (statistics.median(change) - q[1]) / q[1]
            table["metrics"][name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "pairs": [list(v) for v in values],
                "parent_median": q[1], "parent_quartiles": [q[0], q[2]],
                "change_median": statistics.median(change), "change_quartiles": quartiles(change)[::2],
                "median_change_frac": rel, "change_won": wins, "pairs_run": len(values),
                "gain_rule_met": wins >= 0.9 * len(values) and gap > q[2] - q[0],
                "within_bound": (rel if lower else -rel) <= spec["bound"],
                "unresolved": q[2] - q[0] > spec["bound"] * q[1] and not separated,
            }
        out[workload] = table
    return out


def op_counts(checkout: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", OP_COUNT_SCRIPT], cwd=checkout,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
                          capture_output=True, text=True, check=True)
    return {path: {"ops": n, "graph_ops": g} for path, (n, g) in json.loads(proc.stdout).items()}


def host_context() -> dict:
    import numpy as np

    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    model = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), None)
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"cpu": model, "usable_cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--runs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, action="append")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    first_seeds = args.first_seed or [1]
    runs = load_runs(args.runs)
    planned = [key for i, first in enumerate(first_seeds)
               for key in planned_runs(workloads, first, args.traced and i == 0)]
    for key in planned:
        if key not in runs:
            side, workload, seed, trace = key
            runs[key] = run_once(checkouts[side], workload, seed, seconds, trace)
            with args.runs.open("a") as f:
                f.write(json.dumps({"side": side, "workload": workload, "seed": seed, "trace": trace,
                                    "result": runs[key]}) + "\n")

    traced = {wl: {side: {name: runs[side, wl, first_seeds[0], 1]["metrics"][name]["value"]
                          for name in ("tensor.ops_per_request", "tensor.graph_ops_per_request")}
                   for side in SIDES}
              for wl in workloads if all((side, wl, first_seeds[0], 1) in runs for side in SIDES)}
    report = {
        "what": "Alternating parent/change pairs of `perfbench/run.py --trace 0`, one pair per seed, "
                "and the ops of one batch-1 request per path.",
        "command": f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "host": host_context(),
        "sweeps": [{"first_seed": first,
                    "workloads": summarize({key: r for key, r in runs.items() if first <= key[2] < first + PAIRS},
                                           benchmark["end_to_end"], workloads)}
                   for first in first_seeds],
        "all_pairs": summarize({key: runs[key] for key in planned}, benchmark["end_to_end"], workloads),
        "request_ops": {side: op_counts(checkouts[side]) for side in SIDES},
        "traced_ops_per_request": traced,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
