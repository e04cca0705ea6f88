"""tools/bench_pairs.py: the run order of a sweep and the rules its
summary applies to the pairs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LATENCY = {"name": "full_p75_ms", "unit": "ms", "better": "lower", "bound": 0.24}
THROUGHPUT = {"name": "eval_videos_per_s", "unit": "videos/s", "better": "higher", "bound": 0.24}


def test_parent_runs_first_on_odd_seeds_and_traced_runs_last():
    order = list(bench_pairs.planned_runs(["w"], first_seed=7, traced=True))
    assert len(order) == 2 * bench_pairs.PAIRS + 2
    assert order[:4] == [("parent", "w", 7, 0), ("change", "w", 7, 0), ("change", "w", 8, 0), ("parent", "w", 8, 0)]
    assert order[-2:] == [("parent", "w", 7, 1), ("change", "w", 7, 1)]


def fake_runs(parent, change, name):
    runs = {}
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            runs[side, "w", seed, 0] = {"correct": True, "failed": 0,
                                        "metrics": {name: {"value": value}}}
    return runs


def test_gain_rule_needs_nine_of_ten_wins_and_a_gap_above_the_parent_iqr():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    # nine wins by 30% and one tie: the rule holds
    change = [0.7] * 9 + [1.0]
    row = bench_pairs.summarize(fake_runs(parent, change, "full_p75_ms"), [LATENCY], ["w"])["w"]
    m = row["metrics"]["full_p75_ms"]
    assert (m["change_won"], m["pairs_run"], m["gain_rule_met"], m["within_bound"]) == (9, 10, True, True)
    assert m["parent_median"] == pytest.approx(1.0)
    # the same wins by a gap inside the parent's IQR: not a gain
    change = [p - 0.01 for p in parent]
    m = bench_pairs.summarize(fake_runs(parent, change, "full_p75_ms"), [LATENCY], ["w"])["w"]["metrics"]
    assert m["full_p75_ms"]["change_won"] == 10 and not m["full_p75_ms"]["gain_rule_met"]


def test_bound_reads_the_better_direction():
    parent = [100.0] * 4
    m = bench_pairs.summarize(fake_runs(parent, [70.0] * 4, "eval_videos_per_s"), [THROUGHPUT], ["w"])
    m = m["w"]["metrics"]["eval_videos_per_s"]
    assert m["change_won"] == 0 and not m["within_bound"] and m["median_change_frac"] == pytest.approx(-0.3)
    m = bench_pairs.summarize(fake_runs(parent, [130.0] * 4, "eval_videos_per_s"), [THROUGHPUT], ["w"])
    assert m["w"]["metrics"]["eval_videos_per_s"]["within_bound"]


def test_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate():
    # parent quartiles 0.95 and 1.25 around a median of 1.0: an IQR of 30%
    # of the median against a 24% bound
    parent = [0.9, 0.95, 1.0, 1.0, 1.3, 1.25, 0.95, 1.0, 1.3, 0.9]
    runs = fake_runs(parent, [p * 0.9 for p in parent], "full_p75_ms")
    m = bench_pairs.summarize(runs, [LATENCY], ["w"])["w"]["metrics"]["full_p75_ms"]
    assert m["parent_quartiles"][1] - m["parent_quartiles"][0] > 0.24 * m["parent_median"]
    assert m["unresolved"] and m["change_won"] == 10 and m["within_bound"]
    # every change run below every parent run: resolved despite the spread
    runs = fake_runs(parent, [0.8] * 10, "full_p75_ms")
    assert not bench_pairs.summarize(runs, [LATENCY], ["w"])["w"]["metrics"]["full_p75_ms"]["unresolved"]
    # a narrow parent spread is resolved whatever the change reads
    runs = fake_runs([1.0, 1.02, 0.98, 1.0], [1.1, 0.7, 1.3, 1.0], "full_p75_ms")
    assert not bench_pairs.summarize(runs, [LATENCY], ["w"])["w"]["metrics"]["full_p75_ms"]["unresolved"]
    # throughput reads the other direction
    for change, unresolved in ((140.0, False), (120.0, True)):
        runs = fake_runs([100.0, 70.0, 130.0, 100.0], [change] * 4, "eval_videos_per_s")
        m = bench_pairs.summarize(runs, [THROUGHPUT], ["w"])["w"]["metrics"]["eval_videos_per_s"]
        assert m["unresolved"] == unresolved
