"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Run from the repository root. For each workload, untraced and traced, it
checks that the result line names every metric of `BENCHMARK.json` with
its unit and that every output check passed. It also checks that
`perfbench/map.json` agrees with `BENCHMARK.json`, and that the benchmark
fails without printing a result where the package sources are missing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets up the import path for the package)
import bench  # noqa: E402

TINY = {"num_train": 24, "num_val": 24, "teacher_steps": 2, "student_steps": 2, "train_val": 8}


def check_map(declared: dict) -> None:
    workloads = [w["name"] for w in declared["workloads"]]
    assert workloads == list(bench.WORKLOADS) == list(run.METRICS["workloads"]), workloads
    for kind in ("end_to_end", "per_layer"):
        mapped = run.METRICS[kind]
        assert [m["name"] for m in declared[kind]] == list(mapped), kind
        for m in declared[kind]:
            assert m["unit"] == mapped[m["name"]]["unit"], m["name"]
            if kind == "end_to_end":
                assert m["better"] == mapped[m["name"]]["better"], m["name"]


def run_tiny(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                         "--trace", str(trace)])
    assert code == 0, code
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(result: dict, expected: list, label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, (label, result)
    assert list(result["metrics"]) == [m["name"] for m in expected], label
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"])
        assert isinstance(got["value"], float), (label, m["name"])


def check_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench-*"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "short_video",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0, proc.returncode
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_map(declared)
    for name, wl in list(bench.WORKLOADS.items()):
        bench.WORKLOADS[name] = dataclasses.replace(wl, **TINY)
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            check_result(run_tiny(name, trace), declared[kind], f"{name} trace={trace}")
            print(f"ok  {name} trace={trace}")
    check_fails_without_sources()
    print("ok  fails without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
