"""Workloads, phases and output checks of the framepick benchmark.

A run is two processes that take turns, so that only one computes at a
time:

- the serving process sets up once (generate the dataset, build the
  models, save their weights as a checkpoint and load them back), warms up
  with a fixed number of requests, and then serves batch-1 requests one
  after another, each through the selector path
  (`student_forward(..., "infer")`, S frames) and then the full path
  (`teacher_forward`, all T frames);
- the batch process runs the batched work: set-up repeats, student
  `evaluate` passes (batch 64) over the val split, and training repeats:
  the teacher stage with an `out_dir`, `load_checkpoint` of the
  `teacher.ckpt` it wrote, then the student stage. Step counts are fixed,
  so every repeat must reproduce the first one's val metrics bitwise.

The serving process hands the turn to the batch process between chunks of
requests, and each phase keeps a fixed share of `--seconds`, so every phase
is spread over the whole run rather than measured in one block.

Timings are read at the slow end of each run's distribution: latency at
p75 and p90, throughput as the rate that 75% of the units reach (the 25th
percentile of per-unit rates). On a shared 2-core host the machine flips
between a fast and a slow speed mode for seconds at a time, ~1.6x apart;
every run spends a good part of its time in the slow mode, but the share
varies, so the median lands between the modes and spreads 13-16% across
runs, where these quantiles spread 4-9%. Set-up time is a median.

Batched work runs in its own process because batch-1 latency depends on
what the process ran before. glibc malloc serves the ~2 MB attention
buffers of a T=128 request from fresh mmaps, faulting every page in (about
3100 minor faults per request), until a large enough free raises its
dynamic mmap threshold, as one batched forward does. The serving process
runs nothing batched before its requests; the benchmark sets no MALLOC_* or
BLAS variables, and `mem.minor_faults_per_request`, counted over the
untraced warm-up, shows the state the requests saw. Fixing that cost
belongs in the program.

The served weights are `build_models` weights at the workload seed, read
back through the checkpoint path: latency does not depend on weight values.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np

import spans
from framepick import synth, trainer
from framepick.prompter import FramePrompterConfig

WARMUP_REQUESTS = 50
REQUEST_VIDEOS = 256
SERVE_CHUNK_S = 0.5
SHARES = {"serve": 0.4, "setup": 0.1, "eval": 0.2, "train": 0.3}   # of --seconds
# a batch-64 teacher pass at T=128 holds ~1 GB of attention buffers; the
# reference pass that checks full-path answers needs none of that
TEACHER_REFERENCE_BATCH = 8
JOIN_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    frames: int
    num_train: int
    num_val: int
    teacher_steps: int
    student_steps: int
    train_val: int        # val videos each training stage's closing evaluate reads


# Step counts keep one training repeat near 2 s, so the train share holds
# several repeats to take a median over.
WORKLOADS = {
    "short_video": Workload(frames=32, num_train=1000, num_val=1000, teacher_steps=30,
                            student_steps=30, train_val=256),
    "long_video": Workload(frames=128, num_train=256, num_val=512, teacher_steps=4,
                           student_steps=4, train_val=16),
}


def make_config(wl: Workload, seed: int) -> trainer.TrainConfig:
    data = synth.DatasetSpec(num_train=wl.num_train, num_val=wl.num_val, frames=wl.frames, seed=seed)
    return trainer.TrainConfig(seed=seed, teacher_steps=wl.teacher_steps,
                               student_steps=wl.student_steps, data=data,
                               prompter_cfg=FramePrompterConfig(frames=wl.frames))


def one_frame_per_segment(selected, frames: int, segments: int) -> bool:
    per = frames // segments
    return len(selected) == segments and all(f // per == i for i, f in enumerate(selected))


class BenchProcess:
    """What one benchmark process keeps: data, models, output checks and
    timings. With tracing on, units of work alternate between traced and
    untraced, so the tracing overhead is measured on equal work."""

    def __init__(self, wl: Workload, seed: int, work: Path, trace: bool):
        self.wl, self.work = wl, work
        self.cfg = make_config(wl, seed)
        self.tracer = spans.Tracer() if trace else None
        self.attempted = 0
        self.failures = []
        self.samples = {"setup": [], "select": [], "full": [], "eval": [], "teacher": [], "student": []}
        self.unit_times = {}     # phase -> ([traced seconds], [untraced seconds])
        self.units = Counter()
        self.quality = {}

    def expect(self, ok: bool, what: str) -> None:
        """One output check, counted as an attempted operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def unit(self, phase: str, fn):
        """Run fn() as one unit of `phase`; returns (result, seconds)."""
        traced = self.tracer is not None and self.units[phase] % 2 == 0
        self.units[phase] += 1
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        if self.tracer is not None:
            self.unit_times.setdefault(phase, ([], []))[0 if traced else 1].append(dt)
        return out, dt

    def setup(self) -> None:
        t0 = time.perf_counter()
        data = synth.generate(self.cfg.data)
        state = trainer.bundle_state(trainer.build_models(self.cfg))
        path = self.work / "serve.ckpt"
        trainer.save_checkpoint(path, trainer.STAGE_STUDENT, 0, state, self.cfg.digest())
        ckpt = trainer.load_checkpoint(path)
        bundle = trainer.build_models(self.cfg)
        trainer.load_into_bundle(bundle, ckpt.tensors)
        self.samples["setup"].append(time.perf_counter() - t0)
        self.expect(_bitwise_equal(state, ckpt.tensors), "serve checkpoint round trip")
        if not hasattr(self, "bundle"):   # repeats only measure
            (self.train_samples, self.val_samples), self.bundle = data, bundle

    def report(self) -> dict:
        return {"samples": self.samples, "unit_times": self.unit_times, "quality": self.quality,
                "attempted": self.attempted, "failures": self.failures,
                "totals": self.tracer.totals() if self.tracer is not None else {},
                "peak_rss_mb": peak_rss_mb()}


class Server(BenchProcess):
    """The serving process: batch-1 requests only, then their checks."""

    def warm_up(self) -> None:
        """Untraced in every mode: tracing's own allocations change the heap
        layout and with it the page faults that the warm-up counts."""
        self.videos = self.val_samples[:REQUEST_VIDEOS]
        self.requests = []
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for i in range(WARMUP_REQUESTS):
            self._request(i)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        self.faults_per_request = faults / WARMUP_REQUESTS

    def serve_chunk(self) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < SERVE_CHUNK_S or self.units["serve"] < 2:
            (select_s, full_s, request), _ = self.unit("serve", lambda: self._request(len(self.requests)))
            self.samples["select"].append(select_s)
            self.samples["full"].append(full_s)
            self.requests.append(request)

    def _request(self, i: int):
        """One request on each path; returns both latencies and the answers."""
        k = i % len(self.videos)
        if self.tracer is not None:
            self.tracer.context = "request"
        t0 = time.perf_counter()
        logits, _, mask = trainer.student_forward(self.bundle, trainer.make_batch([self.videos[k]]),
                                                  self.cfg, "infer")
        select_answer = int(logits.data.argmax(axis=1)[0])
        t1 = time.perf_counter()
        logits, _ = trainer.teacher_forward(self.bundle, trainer.make_batch([self.videos[k]]), self.cfg)
        full_answer = int(logits.data.argmax(axis=1)[0])
        t2 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.context = None
        return t1 - t0, t2 - t1, (k, select_answer, mask.selected[0], full_answer)

    def check_requests(self) -> None:
        """Reference evaluate passes, untimed, that every timed request must match."""
        self.serving_peak_rss_mb = peak_rss_mb()   # before the checks' own passes
        cfg = self.cfg
        with captured_answers("student_forward") as select_answers:
            _, reference_selected = trainer.evaluate(self.bundle, cfg, self.videos, trainer.STAGE_STUDENT)
        with captured_answers("teacher_forward") as full_answers:
            trainer.evaluate(self.bundle, cfg, self.videos, trainer.STAGE_TEACHER,
                             batch_size=TEACHER_REFERENCE_BATCH)
        pcfg = cfg.prompter_cfg
        for k, select_answer, selected, full_answer in self.requests:
            self.expect(select_answer == select_answers[k] and selected == reference_selected[k]
                        and one_frame_per_segment(selected, pcfg.frames, pcfg.segments),
                        f"selector request on val video {k} disagrees with evaluate")
            self.expect(full_answer == full_answers[k],
                        f"full request on val video {k} disagrees with evaluate")

    def report(self) -> dict:
        out = super().report()
        out["faults_per_request"] = self.faults_per_request
        out["peak_rss_mb"] = self.serving_peak_rss_mb
        return out


class Batcher(BenchProcess):
    """The batch process: set-up repeats, evaluate passes, training repeats."""

    def reference_pass(self) -> None:
        self.reference = trainer.evaluate(self.bundle, self.cfg, self.val_samples, trainer.STAGE_STUDENT)
        pcfg = self.cfg.prompter_cfg
        self.expect(all(one_frame_per_segment(s, pcfg.frames, pcfg.segments) for s in self.reference[1]),
                    "evaluate selections hold one frame per segment")

    def eval_pass(self) -> None:
        t0 = time.perf_counter()
        row, selected = trainer.evaluate(self.bundle, self.cfg, self.val_samples, trainer.STAGE_STUDENT)
        self.samples["eval"].append(len(self.val_samples) / (time.perf_counter() - t0))
        ref_row, ref_selected = self.reference
        self.expect(row.accuracy == ref_row.accuracy and selected == ref_selected,
                    "evaluate pass differs from the reference pass")

    def train_repeat(self) -> None:
        cfg, out_dir = self.cfg, self.work / "train"
        val = self.val_samples[:self.wl.train_val]
        t0 = time.perf_counter()
        teacher_bundle, teacher_row = trainer.train_teacher(cfg, self.train_samples, val, out_dir=out_dir)
        t1 = time.perf_counter()
        ckpt = trainer.load_checkpoint(out_dir / "teacher.ckpt")
        t2 = time.perf_counter()
        _, student_row = trainer.train_student(cfg, self.train_samples, val, ckpt)
        t3 = time.perf_counter()
        self.samples["teacher"].append(cfg.teacher_steps * cfg.batch_size / (t1 - t0))
        self.samples["student"].append(cfg.student_steps * cfg.batch_size / (t3 - t2))
        kept = {name: p.data for name, p in teacher_bundle.named_params().items()
                if name.startswith(trainer.TEACHER_GROUPS)}
        self.expect(ckpt.stage == trainer.STAGE_TEACHER
                    and _bitwise_equal(kept, {n: ckpt.tensors[n] for n in kept if n in ckpt.tensors}),
                    "teacher.ckpt does not load back bitwise equal")
        quality = {"teacher_val_accuracy": teacher_row.accuracy,
                   "student_val_accuracy": student_row.accuracy,
                   "keyframe_recall": student_row.keyframe_recall}
        if not self.quality:
            self.quality = quality
            self.expect(all(0.0 <= v <= 1.0 for v in quality.values()), "quality metrics outside [0, 1]")
        else:
            self.expect(quality == self.quality, "training repeat is not bitwise deterministic")


def batch_main() -> None:
    """Body of the batch process: runs one unit per command until "stop".

    Started by `run_workload` as `python3 -c "import bench; bench.batch_main()" FD`,
    where FD is its end of the command pipe; the first message on it holds the
    workload, seed, work directory and tracing flag."""
    conn = Connection(int(sys.argv[1]))
    fields, seed, work, trace = conn.recv()
    batcher = Batcher(Workload(**fields), seed, Path(work), trace)
    batcher.unit("setup", batcher.setup)
    batcher.reference_pass()
    phases = {"setup": batcher.setup, "eval": batcher.eval_pass, "train": batcher.train_repeat}
    conn.send("ready")
    while (phase := conn.recv()) != "stop":
        conn.send(batcher.unit(phase, phases[phase])[1])
    conn.send(batcher.report())
    conn.close()


def start_batch_process():
    """Start the batch process; returns it and the parent's end of its pipe.

    A plain subprocess, not a multiprocessing one: multiprocessing's spawn
    start method also starts a resource-tracker process that outlives the
    benchmark."""
    conn, child_conn = multiprocessing.Pipe()
    here = Path(__file__).resolve().parent
    path = [str(here), str(here.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    child = subprocess.Popen(
        [sys.executable, "-c", "import bench; bench.batch_main()", str(child_conn.fileno())],
        pass_fds=(child_conn.fileno(),), stdout=sys.stderr.fileno(),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    child_conn.close()   # so that recv() raises EOFError if the batch process dies
    return child, conn


def run_workload(name: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """Run one workload; returns both processes' reports, merged."""
    wl = WORKLOADS[name]
    min_units = 2 if trace else 1
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=Path.cwd()) as tmp:
        child, conn = start_batch_process()
        try:
            conn.send((dataclasses.asdict(wl), seed, str(Path(tmp) / "batch"), trace))
            if conn.recv() != "ready":
                raise RuntimeError("batch process did not start")
            server = Server(wl, seed, Path(tmp) / "server", trace)
            server.setup()
            server.warm_up()
            spent = dict.fromkeys(SHARES, 0.0)
            done = dict.fromkeys(SHARES, 0)
            start = time.perf_counter()
            while min(done.values()) < min_units or time.perf_counter() - start < seconds:
                phase = min(SHARES, key=lambda p: (done[p] >= min_units, spent[p] / SHARES[p]))
                if phase == "serve":
                    t0 = time.perf_counter()
                    server.serve_chunk()
                    spent[phase] += time.perf_counter() - t0
                else:
                    conn.send(phase)
                    spent[phase] += conn.recv()
                done[phase] += 1
            conn.send("stop")
            batch = conn.recv()
        finally:
            conn.close()   # a batch process still waiting for a command sees EOF and exits
            try:
                child.wait(JOIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        server.check_requests()
    return merge(server.report(), batch)


def merge(serving: dict, batch: dict) -> dict:
    samples = {k: serving["samples"][k] + batch["samples"][k] for k in serving["samples"]}
    unit_times = dict(batch["unit_times"])
    for phase, (traced, untraced) in serving["unit_times"].items():
        old = unit_times.get(phase, ([], []))
        unit_times[phase] = (old[0] + traced, old[1] + untraced)
    def pct(name, q):
        return float(np.percentile(samples[name], q))

    return {
        "results": {
            "setup_s": statistics.median(samples["setup"]),
            "peak_rss_mb": max(serving["peak_rss_mb"], batch["peak_rss_mb"]),
            "select_p75_ms": pct("select", 75) * 1e3,
            "select_p90_ms": pct("select", 90) * 1e3,
            "full_p75_ms": pct("full", 75) * 1e3,
            "full_p90_ms": pct("full", 90) * 1e3,
            "eval_videos_per_s": pct("eval", 25),
            "teacher_train_samples_per_s": pct("teacher", 25),
            "student_train_samples_per_s": pct("student", 25),
        },
        "quality": batch["quality"],
        "attempted": serving["attempted"] + batch["attempted"],
        "failures": serving["failures"] + batch["failures"],
        "unit_times": unit_times,
        "totals": Counter(serving["totals"]) + Counter(batch["totals"]),
        "faults_per_request": serving["faults_per_request"],
    }


@contextmanager
def captured_answers(attr: str):
    """Record the per-video answers of the forward that `evaluate` looks up
    in `trainer` under `attr`, while the context is open."""
    original = getattr(trainer, attr)
    answers = []

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        answers.extend(int(a) for a in out[0].data.argmax(axis=1))
        return out

    setattr(trainer, attr, wrapper)
    try:
        yield answers
    finally:
        setattr(trainer, attr, original)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _bitwise_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a)
