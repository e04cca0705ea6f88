"""Two-stage optimization pipeline.

Stage 1 trains the teacher fusion model (plus text encoder and answer head)
on all frames with the answer loss only. Stage 2 freezes those and trains
the student fusion model, the frame selector and the distillation decoder
against the sum of the answer loss, the feature-distillation loss and the
selector's cross entropy on the frozen teacher's saliency label, each at
weight 1. The student trains on the selector's argmax picks, the ones it
is evaluated on. Both stages run one loop (`_run_stage`); `train_teacher`
and `train_student` give it their model, random stream (which draws the
batches), step count and loss (`teacher_loss`, `student_loss`). The loop
clips the selector's gradients apart from the rest. Both stages are
bitwise deterministic functions of (seed, config) and resumable from
mid-run checkpoints, also into the run's own output directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import prompter, qformer, surrogates, synth
from . import tensor as T
from .prompter import FramePrompterConfig, FramePrompterParams
from .qformer import DistillDecoderParams, QFormerParams
from .surrogates import AnswerHead, SurrogateTextEncoder, SurrogateVisualEncoder
from .tensor import Tensor, backward

STAGE_TEACHER = "teacher"
STAGE_STUDENT = "student"


@dataclass
class TrainConfig:
    seed: int = 0
    teacher_steps: int = 700
    student_steps: int = 700
    batch_size: int = 8
    use_prompter: bool = True
    eval_every: int = 200
    checkpoint_every: int = 0     # 0: final checkpoint only
    prompter_cfg: FramePrompterConfig = field(default_factory=FramePrompterConfig)
    data: synth.DatasetSpec = field(default_factory=synth.DatasetSpec)

    def __post_init__(self):
        if self.teacher_steps < 1 or self.student_steps < 1:
            raise ValueError("step counts must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.eval_every < 0 or self.checkpoint_every < 0:
            raise ValueError("eval_every and checkpoint_every must be nonnegative")
        # the prompter consumes the dataset's frames (and reads N from its input)
        if self.prompter_cfg.frames != self.data.frames:
            raise ValueError("prompter frames must match the dataset spec")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Rebuild a config from `asdict` output; unknown fields raise ValueError."""
        def build(kind, values, level):
            unknown = sorted(set(values) - {f.name for f in fields(kind)})
            if unknown:
                raise ValueError(f"unknown config field(s) in {level}: {', '.join(unknown)}")
            return kind(**values)

        d = dict(d)
        for key, kind in (("prompter_cfg", FramePrompterConfig), ("data", synth.DatasetSpec)):
            if isinstance(d.get(key), dict):
                d[key] = build(kind, d[key], f"TrainConfig.{key}")
        return build(cls, d, "TrainConfig")

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


# ---------------------------------------------------------------------------
# model assembly

@dataclass
class ModelBundle:
    """All named parameters of both stages, plus the frozen surrogates."""

    visual_enc: SurrogateVisualEncoder
    text_enc: SurrogateTextEncoder
    answer: AnswerHead
    teacher_proj: Tensor
    teacher_qf: QFormerParams
    student_proj: Tensor
    student_qf: QFormerParams
    prompter_params: FramePrompterParams | None
    decoder: DistillDecoderParams

    def named_params(self) -> dict:
        out = {"visual.projection": self.visual_enc.projection}
        out.update(self.text_enc.named("text"))
        out.update(self.answer.named("answer"))
        out["teacher.proj"] = self.teacher_proj
        out.update(self.teacher_qf.named("teacher.qf"))
        out["student.proj"] = self.student_proj
        out.update(self.student_qf.named("student.qf"))
        if self.prompter_params is not None:
            out.update(self.prompter_params.named("prompter"))
        out.update(self.decoder.named("decoder"))
        return out


TEACHER_GROUPS = ("teacher.", "text.", "answer.")
STUDENT_GROUPS = ("student.", "prompter.", "decoder.")


def _check_stage(stage: str) -> None:
    if stage not in (STAGE_TEACHER, STAGE_STUDENT):
        raise ValueError(f"unknown stage {stage!r}; choose {STAGE_TEACHER!r} or {STAGE_STUDENT!r}")


def trainable_names(bundle: ModelBundle, stage: str) -> set:
    """The parameters a stage trains: its groups' names (`TEACHER_GROUPS` or
    `STUDENT_GROUPS`); the student stage keeps the text encoder and answer
    head frozen. An unknown stage raises ValueError."""
    _check_stage(stage)
    groups = TEACHER_GROUPS if stage == STAGE_TEACHER else STUDENT_GROUPS
    return {name for name in bundle.named_params() if name.startswith(groups)}


def set_stage(bundle: ModelBundle, stage: str) -> dict:
    """Set requires_grad on exactly the stage's `trainable_names`, clear every
    gradient; returns the trainable params by sorted name. `build_models`
    returns every parameter frozen, and `_run_stage` freezes the stage's
    trainables for each evaluate pass and after its last step, so a
    parameter takes gradient only within a stage's training loop."""
    trainable = trainable_names(bundle, stage)
    named = bundle.named_params()
    for name, p in named.items():
        p.requires_grad = name in trainable
        p.grad = None
    return {name: named[name] for name in sorted(trainable)}


def _set_requires_grad(params: dict, on: bool) -> None:
    for p in params.values():
        p.requires_grad = on


# rows of the text encoder's positional table, so the longest token sequence
# it embeds (synthetic questions and choices are one token long)
TEXT_POSITIONS = 8
# learnable query tokens of each fusion model
NUM_QUERIES = 8
# validation videos of each periodic evaluation; the final one reads them all
EVAL_SAMPLES = 256


def build_models(cfg: TrainConfig) -> ModelBundle:
    """Initialize every component from its own seed stream.

    Student-side streams are independent of teacher training, so arm
    comparisons under a shared seed start from identical student weights.
    No weight depends on the frame geometry (T, S): a bundle's state loads
    into a bundle built for any other T and S. Every parameter comes back
    frozen, so serving and evaluating a bundle record no graph; `set_stage`
    is what turns a stage's trainables on.
    """
    data = cfg.data
    d, c = cfg.prompter_cfg.d_model, surrogates.CHANNELS
    visual = SurrogateVisualEncoder.init(synth.RAW_DIM, c, seed=cfg.seed)

    def stream(tag):
        return np.random.default_rng(np.random.PCG64(np.random.SeedSequence((cfg.seed, tag))))

    rng_t = stream(10)
    teacher_proj = Tensor(rng_t.normal(size=(c, d)) / math.sqrt(c))
    teacher_qf = QFormerParams.init(d, NUM_QUERIES, data.patches, rng_t)
    text_enc = SurrogateTextEncoder.init(synth.VOCAB, d, TEXT_POSITIONS, rng_t)
    answer = AnswerHead.init(d, rng_t)

    rng_s = stream(20)
    student_proj = Tensor(rng_s.normal(size=(c, d)) / math.sqrt(c))
    student_qf = QFormerParams.init(d, NUM_QUERIES, data.patches, rng_s)

    prompter_params = (FramePrompterParams.init(cfg.prompter_cfg, data.patches, stream(30))
                       if cfg.use_prompter else None)
    decoder = DistillDecoderParams.init(d, stream(40))
    bundle = ModelBundle(visual_enc=visual, text_enc=text_enc, answer=answer,
                         teacher_proj=teacher_proj, teacher_qf=teacher_qf,
                         student_proj=student_proj, student_qf=student_qf,
                         prompter_params=prompter_params, decoder=decoder)
    _set_requires_grad(bundle.named_params(), False)
    return bundle


# ---------------------------------------------------------------------------
# batches and forwards

@dataclass
class Batch:
    raw: np.ndarray        # [B, T, N, RAW_DIM]
    questions: np.ndarray  # [B, Lq]
    choices: np.ndarray    # [B, A, Lc]
    answers: np.ndarray    # [B]
    keyframes: list        # B tuples


def make_batch(samples) -> Batch:
    return Batch(
        raw=np.stack([s.raw_video for s in samples]),
        questions=np.stack([s.question for s in samples]),
        choices=np.stack([s.choices for s in samples]),
        answers=np.array([s.answer_idx for s in samples]),
        keyframes=[s.keyframes for s in samples],
    )


def teacher_forward(bundle: ModelBundle, batch: Batch, cfg: TrainConfig, key_bias: Tensor | None = None):
    """All-frames fusion: returns (answer logits, fusion output). The fusion
    reads all T * N frozen C-wide features with `teacher_proj`, and no token
    is projected to d_model (see `qformer_forward`). `key_bias` ([B, T * N])
    goes to the fusion's self-attention logits of the visual tokens."""
    b, t, n, _ = batch.raw.shape
    feats = surrogates.encode_video(Tensor(batch.raw), bundle.visual_enc)
    feats = T.reshape(feats, (b, t * n, feats.shape[-1]))
    text = surrogates.encode_text(batch.questions, bundle.text_enc)
    fused = qformer.qformer_forward(bundle.teacher_qf, feats, bundle.teacher_proj, text, key_bias=key_bias)
    choices = surrogates.encode_choices(batch.choices, bundle.text_enc)
    logits = surrogates.score_answers(fused, choices, bundle.answer)
    return logits, fused


def student_forward(bundle: ModelBundle, batch: Batch, cfg: TrainConfig, mode: str):
    """Selected-frames fusion: returns (logits, fusion output, SelectionMask).

    Both modes take the selector's argmax pick, scored from each patch's
    channel mean (`surrogates.pool_video`); mode "train" keeps the mask's
    logits differentiable for the selector's label cross entropy, mode
    "infer" detaches them. With no selector, `prompter.uniform_mask`
    stands in. `frame_keys` gathers the S picked frames' raw patches once,
    and only those S * N patches are encoded, after the pick: no C-wide
    feature of an unpicked frame is formed. The student fusion reads the
    keys with `student_proj` and the question; no token is projected to
    d_model (see `qformer_forward`). Its output is what the answer head
    scores: both arms run this one model and differ only in their picks.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    raw = Tensor(batch.raw)  # [B, T, N, RAW_DIM]
    text = surrogates.encode_text(batch.questions, bundle.text_enc)

    if bundle.prompter_params is not None:
        mask = prompter.select_frames(surrogates.pool_video(raw, bundle.visual_enc), bundle.prompter_params,
                                      cfg.prompter_cfg, keep_graph=mode == "train")
    else:
        mask = prompter.uniform_mask(batch.raw.shape[0], cfg.prompter_cfg)
    keys = surrogates.encode_video(prompter.frame_keys(raw, mask), bundle.visual_enc)  # [B, S * N, C]
    x_student = qformer.qformer_forward(bundle.student_qf, keys, bundle.student_proj, text)
    choices = surrogates.encode_choices(batch.choices, bundle.text_enc)
    logits = surrogates.score_answers(x_student, choices, bundle.answer)
    return logits, x_student, mask


# ---------------------------------------------------------------------------
# optimizer and schedules

@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def cosine_lr(step: int, total: int) -> float:
    if total == 0:
        raise ValueError("total steps must be positive")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    return LR_MIN + 0.5 * (LR - LR_MIN) * (1.0 + math.cos(math.pi * step / total))


def clip_global_norm(params: dict) -> tuple[float, float]:
    """Scale all gradients so their global norm is at most GRAD_CLIP."""
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad * p.grad).sum())
    norm = math.sqrt(sq)
    scale = 1.0
    if norm > GRAD_CLIP:
        scale = GRAD_CLIP / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm, scale


# the optimizer settings of both stages: the learning rate anneals from LR
# to LR_MIN on a cosine, after clipping each parameter group's gradient norm
# to GRAD_CLIP
LR = 3e-3
LR_MIN = 3e-4
WEIGHT_DECAY = 1e-4
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP = 1.0


def adamw_step(params: dict, state: AdamWState, lr: float) -> None:
    """Decoupled weight decay AdamW with bias-corrected moments.

    Missing gradients count as zeros (unreached parameters still decay).
    A non-finite gradient raises RuntimeError before anything is updated.
    """
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise RuntimeError(f"non-finite gradient in parameter {name!r}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name in params:
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        mh = state.m[name] / bc1
        vh = state.v[name] / bc2
        p.data = p.data - lr * (mh / (np.sqrt(vh) + ADAM_EPS) + WEIGHT_DECAY * p.data)


# ---------------------------------------------------------------------------
# metrics

METRIC_FIELDS = ("step", "split", "loss_vqa", "loss_distill", "accuracy", "keyframe_recall", "lr")


@dataclass
class MetricsRow:
    step: int
    split: str
    loss_vqa: float | None = None
    loss_distill: float | None = None
    accuracy: float | None = None
    keyframe_recall: float | None = None
    lr: float | None = None
    wallclock_ms: float | None = None

    def csv_values(self):
        vals = []
        for name in METRIC_FIELDS:
            v = getattr(self, name)
            vals.append("" if v is None else (v if isinstance(v, (str, int)) else repr(float(v))))
        return vals


class MetricsWriter:
    """Deterministic CSV of MetricsRow fields plus a JSONL mirror.

    Wallclock timings go to the JSONL mirror only, keeping metrics.csv a
    bitwise-reproducible function of (seed, config). Both files start
    empty, except for the rows of an existing JSONL mirror that
    `keep(step, split)` selects: a resumed run rewrites its earlier rows.
    """

    def __init__(self, out_dir, keep=None):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.csv_path = out_dir / "metrics.csv"
        self.jsonl_path = out_dir / "metrics.jsonl"
        kept = []
        if keep is not None and self.jsonl_path.exists():
            with open(self.jsonl_path) as fh:
                kept = [MetricsRow(**r) for r in map(json.loads, fh) if keep(r["step"], r["split"])]
        self._csv_file = open(self.csv_path, "w", newline="")
        self._writer = csv.writer(self._csv_file)
        self._writer.writerow(METRIC_FIELDS)
        self._jsonl_file = open(self.jsonl_path, "w")
        for row in kept:
            self.write(row)

    def write(self, row: MetricsRow) -> None:
        self._writer.writerow(row.csv_values())
        payload = {k: getattr(row, k) for k in METRIC_FIELDS}
        payload["wallclock_ms"] = row.wallclock_ms
        self._jsonl_file.write(json.dumps(payload, sort_keys=True) + "\n")

    def close(self) -> None:
        self._csv_file.close()
        self._jsonl_file.close()


# ---------------------------------------------------------------------------
# checkpoints

CKPT_FORMAT = "framepick-ckpt-v1"


@dataclass
class Checkpoint:
    stage: str
    step: int
    config_digest: str
    rng_state: dict | None
    tensors: dict  # name -> float64 array


def save_checkpoint(path, stage: str, step: int, tensors: dict, config_digest: str,
                    rng_state: dict | None = None) -> None:
    """JSON header line + little-endian float64 payload, single file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = sorted(tensors)
    header = {"format": CKPT_FORMAT, "stage": stage, "step": step,
              "config_digest": config_digest, "rng_state": rng_state, "tensors": {}}
    offset = 0
    blobs = []
    for name in names:
        arr = np.asarray(tensors[name], dtype="<f8")
        header["tensors"][name] = {"shape": list(arr.shape), "offset": offset}
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for blob in blobs:
            fh.write(blob)
    tmp.rename(path)


def load_checkpoint(path) -> Checkpoint:
    """Read a `save_checkpoint` file; ValueError naming `path` if it is corrupt.

    The header must hold every field `save_checkpoint` writes, and each
    tensor's offset must be the one that layout gives it: the float64
    payloads in sorted-name order, back to back. The payload must hold
    exactly those bytes: a truncated file and trailing bytes are both
    rejected.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: checkpoint header is not JSON ({exc})") from None
        if not isinstance(header, dict) or header.get("format") != CKPT_FORMAT:
            raise ValueError(f"{path} is not a recognized checkpoint")
        payload = fh.read()
    missing = [k for k in ("stage", "step", "config_digest", "rng_state", "tensors") if k not in header]
    if missing or not isinstance(header["tensors"], dict):
        raise ValueError(f"{path}: checkpoint header lacks {', '.join(missing) or 'a tensor table'}")
    layout = []  # (name, shape, offset) in the order save_checkpoint writes them
    offset = 0
    for name in sorted(header["tensors"]):
        meta = header["tensors"][name]
        shape = meta.get("shape") if isinstance(meta, dict) else None
        if not isinstance(shape, list) or not all(isinstance(n, int) and n >= 0 for n in shape):
            raise ValueError(f"{path}: tensor {name!r} has no valid shape")
        if meta.get("offset") != offset:
            raise ValueError(f"{path}: tensor {name!r} declares offset {meta.get('offset')}, "
                             f"but the layout puts it at {offset}")
        layout.append((name, tuple(shape), offset))
        offset += 8 * math.prod(shape)
    if len(payload) != offset:
        kind = "truncated" if len(payload) < offset else "has trailing bytes"
        raise ValueError(f"{path}: checkpoint payload {kind}: {len(payload)} bytes, "
                         f"header declares {offset}")
    tensors = {}
    for name, shape, at in layout:
        arr = np.frombuffer(payload, dtype="<f8", count=math.prod(shape), offset=at)
        tensors[name] = arr.reshape(shape).astype(np.float64)
    return Checkpoint(stage=header["stage"], step=header["step"],
                      config_digest=header["config_digest"],
                      rng_state=header["rng_state"], tensors=tensors)


def bundle_state(bundle: ModelBundle) -> dict:
    return {name: p.data.copy() for name, p in bundle.named_params().items()}


def load_into_bundle(bundle: ModelBundle, tensors: dict, prefixes=None) -> None:
    """Copy checkpoint tensors into the bundle's parameters (those under `prefixes`)."""
    named = {name: p for name, p in bundle.named_params().items()
             if prefixes is None or name.startswith(tuple(prefixes))}
    missing = sorted(set(named) - set(tensors))
    if missing:
        raise ValueError(f"checkpoint is missing {len(missing)} parameter(s) of this model, "
                         f"so it holds another parameter layout: {', '.join(missing)}")
    for name, p in named.items():
        if tuple(tensors[name].shape) != p.data.shape:
            raise ValueError(f"checkpoint shape mismatch for {name!r}")
        p.data = tensors[name].copy()


def _opt_tensors(state: AdamWState) -> dict:
    out = {"opt.step": np.asarray(float(state.step))}
    for name, arr in state.m.items():
        out[f"opt.m.{name}"] = arr
    for name, arr in state.v.items():
        out[f"opt.v.{name}"] = arr
    return out


def _opt_from_tensors(tensors: dict) -> AdamWState:
    state = AdamWState()
    state.step = int(tensors.get("opt.step", np.asarray(0.0)))
    for name, arr in tensors.items():
        if name.startswith("opt.m."):
            state.m[name[len("opt.m."):]] = arr.copy()
        elif name.startswith("opt.v."):
            state.v[name[len("opt.v."):]] = arr.copy()
    return state


# ---------------------------------------------------------------------------
# freeze audit

class FrozenGradientError(AssertionError):
    pass


def audit_frozen_gradients(bundle: ModelBundle, stage: str) -> None:
    """Every parameter outside the stage's trainable set must hold a zero
    (or absent) gradient after backward."""
    trainable = trainable_names(bundle, stage)
    for name, p in bundle.named_params().items():
        if name in trainable:
            continue
        if p.grad is not None and np.any(p.grad != 0.0):
            raise FrozenGradientError(f"frozen parameter {name!r} received gradient in stage {stage}")


# ---------------------------------------------------------------------------
# training stages

def _draw_batch(samples, batch_size: int, rng: np.random.Generator) -> Batch:
    idx = rng.integers(0, len(samples), size=batch_size)
    return make_batch([samples[int(i)] for i in idx])


def teacher_loss(bundle: ModelBundle, batch: Batch, cfg: TrainConfig):
    """Stage 1 loss (answer loss on all frames), answer logits, MetricsRow fields."""
    logits, _ = teacher_forward(bundle, batch, cfg)
    loss = surrogates.vqa_loss(logits, batch.answers)
    return loss, logits, {"loss_vqa": loss.item()}


def teacher_targets(bundle: ModelBundle, batch: Batch, cfg: TrainConfig):
    """The student step's one teacher pass: (distillation target, [B, T] saliency).

    The visual tokens' key bias is a zero leaf, so the target equals
    `teacher_forward`'s bitwise. A frame's saliency is the gradient of the
    teacher's answer loss with respect to its tokens' bias, summed: how the
    loss moves as the frozen teacher attends more to that frame.
    """
    b, t, n, _ = batch.raw.shape
    key_bias = Tensor(np.zeros((b, t * n)), requires_grad=True)
    logits, fused = teacher_forward(bundle, batch, cfg, key_bias=key_bias)
    backward(surrogates.vqa_loss(logits, batch.answers))
    return fused.detach(), key_bias.grad.reshape(b, t, n).sum(axis=2)


def student_loss(bundle: ModelBundle, batch: Batch, cfg: TrainConfig):
    """Stage 2 loss, answer logits and MetricsRow fields.

    Answer loss on the selector's argmax picks, the ones evaluation reads,
    plus the distillation loss against the all-frames teacher, plus, with a
    selector, one cross entropy per video: the T/S frame scores of the
    segment that holds the video's label frame, against that frame. The
    label frame is the one whose bias gradient (`teacher_targets`, one pass
    for both) is lowest, so that attending more to it lowers the teacher's
    answer loss the most. Every term has weight 1.
    """
    fps = cfg.prompter_cfg.frames_per_segment
    low = None
    if bundle.prompter_params is not None:
        x_teacher, saliency = teacher_targets(bundle, batch, cfg)
        low = saliency.argmin(axis=1)  # [B], each video's frame with the lowest bias gradient
    else:
        _, x_teacher = teacher_forward(bundle, batch, cfg)
    logits, x_student, mask = student_forward(bundle, batch, cfg, "train")
    loss_vqa = surrogates.vqa_loss(logits, batch.answers)
    loss_distill = qformer.distill_loss(bundle.decoder, x_student, x_teacher)
    loss = T.add(loss_vqa, loss_distill)
    recall = None
    if low is not None:
        s = cfg.prompter_cfg.segments  # one [T/S] row of the [B * S, T/S] scores per video
        scores = T.take_rows(T.reshape(mask.logits, (low.size * s, fps)), low // fps + s * np.arange(low.size))
        loss = T.add(loss, T.cross_entropy(scores, low % fps))
        recall = float(np.mean(keyframe_recalls(mask.selected, batch.keyframes)))
    return loss, logits, {"loss_vqa": loss_vqa.item(), "loss_distill": loss_distill.item(),
                          "keyframe_recall": recall}


def _run_stage(cfg: TrainConfig, stage: str, bundle: ModelBundle, rng_tag: int, steps: int,
               loss_fn, train_samples, val_samples, out_dir, resume_from: Checkpoint | None):
    """The training loop of both stages; returns the final val MetricsRow.

    `loss_fn(bundle, batch, cfg)` returns the scalar loss, the
    answer logits and the stage's fields of that step's train MetricsRow.
    With out_dir, metrics go to its metrics.csv and checkpoints to
    f"{stage}_step{n}.ckpt" (every cfg.checkpoint_every steps before the
    last) and f"{stage}.ckpt" (final). Every evaluate pass runs with the
    stage's trainables frozen, so it records no graph, and the bundle
    leaves the stage frozen.
    """
    params = set_stage(bundle, stage)
    # the selector's gradients clip apart from the rest, so neither group's
    # norm scales the other's step; a stage without a selector has one group
    selector = {name: p for name, p in params.items() if name.startswith("prompter.")}
    rest = {name: p for name, p in params.items() if name not in selector}
    clip_groups = [group for group in (selector, rest) if group]
    opt = AdamWState()
    rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence((cfg.seed, rng_tag))))
    start_step = 0
    keep = None
    if resume_from is not None:
        if resume_from.stage != stage:
            raise ValueError(f"cannot resume {stage} stage from a {resume_from.stage!r} checkpoint")
        if resume_from.config_digest != cfg.digest():
            raise ValueError("config digest mismatch on resume")
        if resume_from.rng_state is None:
            raise ValueError(f"cannot resume from the {resume_from.stage} checkpoint at step "
                             f"{resume_from.step}: it holds no random state")
        load_into_bundle(bundle, resume_from.tensors)
        opt = _opt_from_tensors(resume_from.tensors)
        rng.bit_generator.state = resume_from.rng_state
        start_step = resume_from.step

        # the rows an uninterrupted run wrote before this checkpoint: train rows
        # before it and the eval at its step, unless that is the final eval,
        # which runs again
        def keep(step, split):
            return step < start_step or (split == "val" and step == start_step < steps)

    writer = MetricsWriter(out_dir, keep) if out_dir else None
    try:
        for step in range(start_step, steps):
            t0 = time.perf_counter()
            lr = cosine_lr(step, steps)
            batch = _draw_batch(train_samples, cfg.batch_size, rng)
            loss, logits, fields = loss_fn(bundle, batch, cfg)
            if not math.isfinite(loss.item()):
                raise RuntimeError(f"non-finite loss at step {step}; aborting")
            backward(loss)
            audit_frozen_gradients(bundle, stage)
            for group in clip_groups:
                clip_global_norm(group)
            adamw_step(params, opt, lr)
            for p in params.values():
                p.grad = None
            acc = float((logits.data.argmax(axis=1) == batch.answers).mean())
            if writer:
                writer.write(MetricsRow(step=step, split="train", accuracy=acc, lr=lr, **fields,
                                        wallclock_ms=(time.perf_counter() - t0) * 1e3))
            if writer and cfg.eval_every and (step + 1) % cfg.eval_every == 0 and (step + 1) < steps:
                _set_requires_grad(params, False)
                row, _ = evaluate(bundle, cfg, val_samples[:EVAL_SAMPLES], stage, step=step + 1)
                _set_requires_grad(params, True)
                writer.write(row)
            if (out_dir and cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0
                    and (step + 1) < steps):
                _write_stage_checkpoint(out_dir, bundle, opt, rng, cfg, stage, step + 1,
                                        name=f"{stage}_step{step + 1}.ckpt")
        _set_requires_grad(params, False)
        final_row, _ = evaluate(bundle, cfg, val_samples, stage, step=steps)
        if writer:
            writer.write(final_row)
        if out_dir:
            _write_stage_checkpoint(out_dir, bundle, opt, rng, cfg, stage, steps,
                                    name=f"{stage}.ckpt")
    finally:
        if writer:
            writer.close()
    return final_row


def _write_stage_checkpoint(out_dir, bundle, opt, rng, cfg, stage, step, name):
    tensors = bundle_state(bundle)
    tensors.update(_opt_tensors(opt))
    save_checkpoint(Path(out_dir) / name, stage, step, tensors, cfg.digest(),
                    rng_state=rng.bit_generator.state)


def train_teacher(cfg: TrainConfig, train_samples, val_samples, out_dir=None,
                  resume_from: Checkpoint | None = None):
    """Stage 1: teacher fusion + text encoder + answer head on all frames.

    Returns (bundle, final val MetricsRow). Writes metrics and a checkpoint
    when out_dir is given.
    """
    bundle = build_models(cfg)
    return bundle, _run_stage(cfg, STAGE_TEACHER, bundle, 100, cfg.teacher_steps, teacher_loss,
                              train_samples, val_samples, out_dir, resume_from)


def train_student(cfg: TrainConfig, train_samples, val_samples, teacher_ckpt: Checkpoint,
                  out_dir=None, resume_from: Checkpoint | None = None):
    """Stage 2: student fusion + selector + decoder against the frozen rest.

    Each step runs one teacher pass on the full frame set, which gives the
    distillation target and, with a selector, its saliency labels
    (`teacher_targets`); `student_loss` weighs every term 1. Returns
    (bundle, final val MetricsRow).
    """
    if teacher_ckpt.stage != STAGE_TEACHER:
        raise ValueError(f"student stage needs a teacher checkpoint, got stage {teacher_ckpt.stage!r}")
    if teacher_ckpt.config_digest != cfg.digest():
        raise ValueError("config digest mismatch between teacher checkpoint and this run")

    bundle = build_models(cfg)
    load_into_bundle(bundle, teacher_ckpt.tensors, prefixes=("visual.", "text.", "answer.", "teacher."))
    return bundle, _run_stage(cfg, STAGE_STUDENT, bundle, 200, cfg.student_steps, student_loss,
                              train_samples, val_samples, out_dir, resume_from)


# ---------------------------------------------------------------------------
# evaluation

def keyframe_recalls(selected, keyframes) -> list:
    """Per video, the share of its planted keyframes among the selected frames."""
    return [len(set(sel) & set(kf)) / len(kf) for sel, kf in zip(selected, keyframes)]


def evaluate(bundle: ModelBundle, cfg: TrainConfig, samples, stage: str, step: int = 0,
             batch_size: int = 64):
    """Deterministic full pass over `samples`; the student reads its "infer" picks.

    Returns (MetricsRow for split "val", per-sample selected indices). Teacher
    evaluations report no selection metrics (not applicable).
    """
    _check_stage(stage)
    if not samples:
        raise ValueError("evaluate needs at least one sample")
    if batch_size < 1:
        raise ValueError(f"evaluate needs batch_size >= 1, got {batch_size}")
    t0 = time.perf_counter()
    correct = 0
    losses = []
    recalls = []
    selections = []
    for lo in range(0, len(samples), batch_size):
        batch = make_batch(samples[lo:lo + batch_size])
        if stage == STAGE_TEACHER:
            logits, _ = teacher_forward(bundle, batch, cfg)
        else:
            logits, _, mask = student_forward(bundle, batch, cfg, "infer")
            selections.extend(mask.selected)
            if bundle.prompter_params is not None:
                recalls.extend(keyframe_recalls(mask.selected, batch.keyframes))
        losses.append(surrogates.vqa_loss(logits, batch.answers).item() * len(batch.answers))
        correct += int((logits.data.argmax(axis=1) == batch.answers).sum())

    row = MetricsRow(step=step, split="val",
                     loss_vqa=float(np.sum(losses) / len(samples)),
                     accuracy=correct / len(samples),
                     keyframe_recall=float(np.mean(recalls)) if recalls else None,
                     wallclock_ms=(time.perf_counter() - t0) * 1e3)
    return row, selections
