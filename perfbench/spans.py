"""Span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's own files around the public
functions of each framepick module; nothing inside the package changes.
Each span records its name, start, end and parent span; spans stay in
memory and are reduced to per-layer numbers when the run ends. A layer is
the module part of a span name (`nn.attention` belongs to `nn`).

Names are patched where callers look them up: `trainer` binds `backward`
at import, so the patch goes on `trainer.backward`; `nn.self_attention`
reaches `nn.cross_attention` and `synth.generate` reaches
`synth.decode_sample` through their module globals, so patching those
module attributes catches the nested calls too.
"""

from __future__ import annotations

import os
import time
from collections import Counter

from framepick import nn, prompter, qformer, surrogates, synth, trainer
from framepick import tensor as T

LAYERS = ("synth", "surrogates", "prompter", "qformer", "nn", "tensor", "trainer")

# (owner, attribute, span name); every span name starts with its layer
SPANNED = (
    (synth, "generate", "synth.generate"),
    (synth, "decode_sample", "synth.decode_check"),
    (trainer, "build_models", "trainer.build_models"),
    (trainer, "bundle_state", "trainer.bundle_state"),
    (trainer, "load_into_bundle", "trainer.load_into_bundle"),
    (trainer, "make_batch", "trainer.make_batch"),
    (trainer, "adamw_step", "trainer.adamw_step"),
    (trainer, "clip_global_norm", "trainer.clip_global_norm"),
    (trainer.MetricsWriter, "write", "trainer.metrics_write"),
    (trainer, "save_checkpoint", "trainer.checkpoint_save"),
    (trainer, "load_checkpoint", "trainer.checkpoint_load"),
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "train_teacher", "trainer.train_teacher"),
    (trainer, "train_student", "trainer.train_student"),
    (trainer, "teacher_forward", "trainer.teacher_forward"),
    (trainer, "student_forward", "trainer.student_forward"),
    (trainer, "backward", "tensor.backward"),
    (surrogates, "encode_video", "surrogates.encode_video"),
    (surrogates, "encode_text", "surrogates.encode_text"),
    (surrogates, "encode_choices", "surrogates.encode_text"),
    (surrogates, "score_answers", "surrogates.score_answers"),
    (surrogates, "vqa_loss", "surrogates.vqa_loss"),
    (prompter, "select_frames", "prompter.select_frames"),
    (qformer, "qformer_forward", "qformer.qformer_forward"),
    (qformer, "distill_loss", "qformer.distill_loss"),
    (nn, "self_attention", "nn.attention"),
    (nn, "cross_attention", "nn.attention"),
    (nn, "mlp_apply", "nn.mlp"),
    (T, "matmul", "tensor.matmul"),
    (T, "softmax", "tensor.softmax"),
)

# spans: [name, start, end, parent index or -1]
NAME, START, END, PARENT = range(4)


class Tracer:
    """Records spans and counters while installed; `install`/`uninstall`
    switch it on and off between units of work."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.context = None      # "request" while the benchmark times a batch-1 request
        self._stack = []
        self._open = Counter()   # span names currently open
        self._patches = []
        for owner, attr, name in SPANNED:
            self._patches.append((owner, attr, getattr(owner, attr),
                                  self._spanned(owner, attr, name)))
        self._patches.append((T, "_op", T._op, self._counted_op(T._op)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _spanned(self, owner, attr, name):
        original = getattr(owner, attr)
        hook = getattr(self, "_after_" + attr, None)
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            open_[name] += 1
            try:
                out = original(*args, **kwargs)
            finally:
                span[END] = clock()
                open_[name] -= 1
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out, span)
            return out

        return wrapper

    def _counted_op(self, original):
        counts, open_ = self.counts, self._open

        def wrapper(data, inputs, bw):
            out = original(data, inputs, bw)
            if open_["trainer.evaluate"]:
                return out
            if open_["trainer.train_teacher"] or open_["trainer.train_student"]:
                counts["ops_train"] += 1
            elif self.context == "request":
                counts["ops_request"] += 1
                counts["graph_ops_request"] += out.requires_grad
            return out

        return wrapper

    # -- counters taken from call arguments and results ---------------------

    def _after_qformer_forward(self, args, kwargs, out, span):
        params, visual = args[0], args[1]
        mask = kwargs.get("visual_key_mask")
        b, lv = visual.shape[0], visual.shape[1]
        self.counts["qformer_calls"] += 1
        self.counts["qformer_tokens"] += lv
        parent = span[PARENT]
        if parent >= 0 and self.spans[parent][NAME] == "trainer.student_forward":
            self.counts["student_fuse_calls"] += 1
            self.counts["student_frames"] += lv // params.patches
            self.counts["student_keys"] += b * lv
            if mask is not None:
                self.counts["student_keys_masked"] += int((mask.data == 0.0).sum())

    def _after_cross_attention(self, args, kwargs, out, span):
        self.counts["attention_calls"] += 1

    def _after_student_forward(self, args, kwargs, out, span):
        batch, mask = args[1], out[2]
        for picks, keyframes in zip(mask.selected, batch.keyframes):
            self.counts["picks"] += len(picks)
            self.counts["picks_on_keyframe"] += len(set(picks) & set(keyframes))

    def _after_save_checkpoint(self, args, kwargs, out, span):
        self.counts["checkpoints"] += 1
        self.counts["checkpoint_bytes"] += os.path.getsize(args[0])

    # -- reduction ----------------------------------------------------------

    def totals(self) -> dict:
        """Additive totals of this process's spans and counters, so that the
        totals of several processes can be summed."""
        out = dict(self.counts)
        for name in {name for _, _, name in SPANNED}:
            out[name + "_s"] = self._inclusive_s(name)
            out[name + "_calls"] = sum(1 for s in self.spans if s[NAME] == name)
        out["qformer.teacher_fuse_s"] = self._child_of_s("qformer.qformer_forward", "trainer.teacher_forward")
        out["qformer.student_fuse_s"] = self._child_of_s("qformer.qformer_forward", "trainer.student_forward")
        out["qformer.distill_teacher_s"] = self._inclusive_s(
            "trainer.teacher_forward", within="trainer.train_student", outside="trainer.evaluate")
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        for layer in LAYERS:
            out[layer + ".self_s"] = 0.0
        for span, inner in zip(self.spans, child):
            out[span[NAME].split(".", 1)[0] + ".self_s"] += span[END] - span[START] - inner
        out["root_s"] = sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)
        return out

    def _inclusive_s(self, name, within=None, outside=None) -> float:
        """Summed duration of spans called `name`, not counting one nested in
        another of the same name; `within`/`outside` keep only spans that
        have (or lack) an ancestor of that name."""
        total = 0.0
        for span in self.spans:
            if span[NAME] != name:
                continue
            ancestors = self._ancestor_names(span)
            if name in ancestors:
                continue
            if within is not None and within not in ancestors:
                continue
            if outside is not None and outside in ancestors:
                continue
            total += span[END] - span[START]
        return total

    def _child_of_s(self, name, parent_name) -> float:
        return sum(s[END] - s[START] for s in self.spans
                   if s[NAME] == name and s[PARENT] >= 0
                   and self.spans[s[PARENT]][NAME] == parent_name)

    def _ancestor_names(self, span) -> set:
        names = set()
        parent = span[PARENT]
        while parent >= 0:
            names.add(self.spans[parent][NAME])
            parent = self.spans[parent][PARENT]
        return names
