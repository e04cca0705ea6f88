import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    """perfbench/selftest.py runs every workload at a tiny size and checks
    the result lines against BENCHMARK.json, so a change that breaks the
    benchmark's hooks or output checks fails here."""
    # the selftest checks that the benchmark fails without the package
    # sources; a PYTHONPATH naming them would let it find the package
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
