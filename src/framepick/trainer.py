"""Two-stage optimization pipeline.

Stage 1 trains the teacher fusion model (plus text encoder and answer head)
on all frames with the answer loss only. Stage 2 freezes those and trains
the student fusion model, the frame selector and the distillation decoder
against answer loss + lambda * feature-distillation loss, with the Gumbel
temperature annealed geometrically. Both stages are bitwise deterministic
functions of (seed, config) and resumable from mid-run checkpoints.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import nn, prompter, qformer, surrogates, synth
from . import tensor as T
from .prompter import FramePrompterConfig, FramePrompterParams, SelectionMask
from .qformer import DistillDecoderParams, QFormerParams
from .surrogates import AnswerHead, SurrogateTextEncoder, SurrogateVisualEncoder
from .tensor import Tensor, backward

STAGE_TEACHER = "teacher"
STAGE_STUDENT = "student"


@dataclass
class QFormerConfig:
    num_queries: int = 8
    num_heads: int = 1
    depth: int = 1


@dataclass
class TrainConfig:
    seed: int = 0
    teacher_steps: int = 700
    student_steps: int = 700
    batch_size: int = 8
    lr: float = 3e-3
    lr_min: float = 3e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    lambda_distill: float = 1.0
    use_prompter: bool = True
    unfreeze_heads: bool = False
    loss: str = "ce"
    decoder_variant: str = "fc_ln"
    eval_every: int = 200
    eval_samples: int = 256
    checkpoint_every: int = 0     # 0: final checkpoint only
    audit_frozen: bool = False    # verify frozen gradients every step
    max_text_len: int = 8
    vocab: int = 64
    prompter_cfg: FramePrompterConfig = field(default_factory=FramePrompterConfig)
    qformer_cfg: QFormerConfig = field(default_factory=QFormerConfig)
    data: synth.DatasetSpec = field(default_factory=synth.DatasetSpec)

    def __post_init__(self):
        if self.teacher_steps < 1 or self.student_steps < 1:
            raise ValueError("step counts must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.lambda_distill < 0:
            raise ValueError("lambda_distill must be nonnegative")
        # the prompter consumes the dataset's geometry
        if (self.prompter_cfg.frames != self.data.frames
                or self.prompter_cfg.patches != self.data.patches):
            raise ValueError("prompter frames/patches must match the dataset spec")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "prompter_cfg" in d and isinstance(d["prompter_cfg"], dict):
            d["prompter_cfg"] = FramePrompterConfig(**d["prompter_cfg"])
        if "qformer_cfg" in d and isinstance(d["qformer_cfg"], dict):
            d["qformer_cfg"] = QFormerConfig(**d["qformer_cfg"])
        if "data" in d and isinstance(d["data"], dict):
            d["data"] = synth.DatasetSpec(**d["data"])
        return cls(**d)

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
    decoder: DistillDecoderParams | None

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
        if self.decoder is not None:
            out.update(self.decoder.named("decoder"))
        return out


TEACHER_GROUPS = ("teacher.", "text.", "answer.")
STUDENT_GROUPS = ("student.", "prompter.", "decoder.")


def trainable_names(bundle: ModelBundle, stage: str, cfg: TrainConfig) -> set:
    groups = TEACHER_GROUPS if stage == STAGE_TEACHER else STUDENT_GROUPS
    if stage == STAGE_STUDENT and cfg.unfreeze_heads:
        groups = groups + ("text.", "answer.")
    return {name for name in bundle.named_params() if name.startswith(groups)}


def set_stage(bundle: ModelBundle, stage: str, cfg: TrainConfig) -> dict:
    """Flip requires_grad per the stage registry; returns trainable params."""
    trainable = trainable_names(bundle, stage, cfg)
    named = bundle.named_params()
    for name, p in named.items():
        p.requires_grad = name in trainable
        p.grad = None
    return {name: named[name] for name in sorted(trainable)}


def build_models(cfg: TrainConfig) -> ModelBundle:
    """Initialize every component from its own seed stream.

    Student-side streams are independent of teacher training, so arm
    comparisons under a shared seed start from identical student weights.
    """
    data = cfg.data
    d = cfg.prompter_cfg.d_model
    visual = SurrogateVisualEncoder.init(data.raw_dim, cfg.prompter_cfg.channels,
                                         data.patches, seed=cfg.seed)

    def stream(tag):
        return np.random.default_rng(np.random.PCG64(np.random.SeedSequence((cfg.seed, tag))))

    rng_t = stream(10)
    teacher_proj = Tensor(rng_t.normal(size=(cfg.prompter_cfg.channels, d)) / math.sqrt(cfg.prompter_cfg.channels),
                          requires_grad=True)
    teacher_qf = QFormerParams.init(d, cfg.qformer_cfg.num_queries, data.frames, data.patches,
                                    rng_t, num_heads=cfg.qformer_cfg.num_heads, depth=cfg.qformer_cfg.depth)
    text_enc = SurrogateTextEncoder.init(cfg.vocab, d, cfg.max_text_len, rng_t)
    answer = AnswerHead.init(d, rng_t)

    rng_s = stream(20)
    student_proj = Tensor(rng_s.normal(size=(cfg.prompter_cfg.channels, d)) / math.sqrt(cfg.prompter_cfg.channels),
                          requires_grad=True)
    student_budget = (cfg.prompter_cfg.segments
                      if cfg.prompter_cfg.design == prompter.SEGMENTED else data.frames)
    student_qf = QFormerParams.init(d, cfg.qformer_cfg.num_queries, student_budget, data.patches,
                                    rng_s, num_heads=cfg.qformer_cfg.num_heads, depth=cfg.qformer_cfg.depth)

    prompter_params = (FramePrompterParams.init(cfg.prompter_cfg, stream(30))
                       if cfg.use_prompter else None)
    decoder = (DistillDecoderParams.init(d, d, stream(40), variant=cfg.decoder_variant)
               if cfg.lambda_distill > 0 else None)
    return ModelBundle(visual_enc=visual, text_enc=text_enc, answer=answer,
                       teacher_proj=teacher_proj, teacher_qf=teacher_qf,
                       student_proj=student_proj, student_qf=student_qf,
                       prompter_params=prompter_params, decoder=decoder)


# ---------------------------------------------------------------------------
# batches and forwards

@dataclass
class Batch:
    raw: np.ndarray        # [B, T, N, raw_dim]
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


def teacher_forward(bundle: ModelBundle, batch: Batch, cfg: TrainConfig):
    """All-frames fusion: returns (answer logits, fusion output)."""
    b, t, n, _ = batch.raw.shape
    feats = surrogates.encode_video(Tensor(batch.raw), bundle.visual_enc)
    tokens = T.reshape(T.matmul(feats, bundle.teacher_proj), (b, t * n, bundle.teacher_proj.shape[1]))
    text = surrogates.encode_text(batch.questions, bundle.text_enc)
    fused = qformer.qformer_forward(bundle.teacher_qf, tokens, text)
    choices = surrogates.encode_choices(batch.choices, bundle.text_enc)
    logits = surrogates.score_answers(fused, choices, bundle.answer)
    return logits, fused


def uniform_selection(t: int, s: int, b: int) -> SelectionMask:
    """The fixed evenly-spaced pick the no-selector arms fall back to."""
    picks = list(synth.uniform_frame_indices(t, s))
    hard = np.zeros((b, t))
    hard[:, picks] = 1.0
    return SelectionMask(hard=hard, selected=[picks] * b)


def student_forward(bundle: ModelBundle, batch: Batch, cfg: TrainConfig, mode: str,
                    tau: float | None = None, rng: np.random.Generator | None = None):
    """Selected-frames fusion: returns (logits, fusion output, SelectionMask).

    mode "train" uses the relaxed mask over all frames (straight-through per
    config); "infer"/"soft_infer" are the deterministic evaluation paths.
    With no selector configured, an evenly-spaced hard pick stands in.
    """
    pcfg = cfg.prompter_cfg
    b, t, n, _ = batch.raw.shape
    d = pcfg.d_model
    feats = surrogates.encode_video(Tensor(batch.raw), bundle.visual_enc)
    tokens4d = T.matmul(feats, bundle.student_proj)  # [B, T, N, d]
    text = surrogates.encode_text(batch.questions, bundle.text_enc)

    fused_guide = None
    if bundle.prompter_params is not None:
        fused_guide, mask = prompter.select_frames(
            feats, tokens4d, text, bundle.prompter_params, pcfg, mode, tau=tau, rng=rng)
    else:
        mask = uniform_selection(t, pcfg.segments, b)

    ragged = len({len(row) for row in mask.selected}) != 1
    if (mode == "train" and mask.soft is not None) or ragged:
        # relaxed mask over every frame, or a 0/1 mask standing in for a
        # ragged hard gather (free-form selections vary per row)
        weights = mask.mask_tensor() if mode == "train" else Tensor(mask.hard)
        vis = T.reshape(tokens4d, (b, t * n, d))
        key_mask = T.reshape(
            T.broadcast_to(T.reshape(weights, (b, t, 1)), (b, t, n)), (b, t * n))
        x_student = qformer.qformer_forward(bundle.student_qf, vis, text, visual_key_mask=key_mask)
    else:
        idx = np.array(mask.selected)
        gathered = T.gather_frames(tokens4d, idx)
        vis = T.reshape(gathered, (b, idx.shape[1] * n, d))
        x_student = qformer.qformer_forward(bundle.student_qf, vis, text)

    answer_input = T.add(x_student, fused_guide) if fused_guide is not None else x_student
    choices = surrogates.encode_choices(batch.choices, bundle.text_enc)
    logits = surrogates.score_answers(answer_input, choices, bundle.answer)
    return logits, x_student, mask


# ---------------------------------------------------------------------------
# optimizer and schedules

@dataclass
class AdamWState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def cosine_lr(step: int, total: int, lr_max: float, lr_min: float) -> float:
    if total == 0:
        raise ValueError("total steps must be positive")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * step / total))


def clip_global_norm(params: dict, max_norm: float) -> tuple[float, float]:
    """Scale all gradients so their global norm is at most max_norm."""
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad * p.grad).sum())
    norm = math.sqrt(sq)
    scale = 1.0
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm, scale


def adamw_step(params: dict, state: AdamWState, lr: float, beta1: float, beta2: float,
               eps: float, weight_decay: float) -> None:
    """Decoupled weight decay AdamW with bias-corrected moments.

    Missing gradients count as zeros (unreached parameters still decay).
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name in params:
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient in parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        mh = state.m[name] / bc1
        vh = state.v[name] / bc2
        p.data = p.data - lr * (mh / (np.sqrt(vh) + eps) + weight_decay * p.data)


# ---------------------------------------------------------------------------
# metrics

METRIC_FIELDS = ("step", "split", "loss_vqa", "loss_distill", "accuracy",
                 "keyframe_recall", "selection_overlap", "tau", "lr")


@dataclass
class MetricsRow:
    step: int
    split: str
    loss_vqa: float | None = None
    loss_distill: float | None = None
    accuracy: float | None = None
    keyframe_recall: float | None = None
    selection_overlap: float | None = None
    tau: float | None = None
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
    bitwise-reproducible function of (seed, config).
    """

    def __init__(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.csv_path = out_dir / "metrics.csv"
        self.jsonl_path = out_dir / "metrics.jsonl"
        self._csv_file = open(self.csv_path, "w", newline="")
        self._writer = csv.writer(self._csv_file)
        self._writer.writerow(METRIC_FIELDS)
        self._jsonl_file = open(self.jsonl_path, "w")

    def write(self, row: MetricsRow) -> None:
        self._writer.writerow(row.csv_values())
        payload = {k: getattr(row, k) for k in METRIC_FIELDS}
        payload["wallclock_ms"] = row.wallclock_ms
        self._jsonl_file.write(json.dumps(payload, sort_keys=True) + "\n")

    def close(self) -> None:
        self._csv_file.close()
        self._jsonl_file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


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
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
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

    The payload must hold exactly the float64 tensors the header declares:
    a truncated file and trailing bytes are both rejected.
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
    counts = {name: int(np.prod(meta["shape"])) for name, meta in header["tensors"].items()}
    expected = 8 * sum(counts.values())
    if len(payload) != expected:
        kind = "truncated" if len(payload) < expected else "has trailing bytes"
        raise ValueError(f"{path}: checkpoint payload {kind}: {len(payload)} bytes, "
                         f"header declares {expected}")
    tensors = {}
    for name, meta in header["tensors"].items():
        arr = np.frombuffer(payload, dtype="<f8", count=counts[name], offset=meta["offset"])
        tensors[name] = arr.reshape(tuple(meta["shape"])).astype(np.float64)
    return Checkpoint(stage=header["stage"], step=header["step"],
                      config_digest=header["config_digest"],
                      rng_state=header.get("rng_state"), tensors=tensors)


def bundle_state(bundle: ModelBundle) -> dict:
    return {name: p.data.copy() for name, p in bundle.named_params().items()}


def load_into_bundle(bundle: ModelBundle, tensors: dict, prefixes=None) -> None:
    for name, p in bundle.named_params().items():
        if prefixes is not None and not name.startswith(tuple(prefixes)):
            continue
        if name not in tensors:
            raise KeyError(f"checkpoint is missing parameter {name!r}")
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
    # .item(): save_checkpoint stores the 0-d step as shape (1,)
    state.step = int(tensors.get("opt.step", np.asarray(0.0)).item())
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


def audit_frozen_gradients(bundle: ModelBundle, stage: str, cfg: TrainConfig) -> None:
    """Every parameter outside the stage's trainable set must hold a zero
    (or absent) gradient after backward."""
    trainable = trainable_names(bundle, stage, cfg)
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


def _check_finite_loss(value: float, step: int) -> None:
    if not math.isfinite(value):
        raise RuntimeError(f"non-finite loss at step {step}; aborting")


def train_teacher(cfg: TrainConfig, train_samples, val_samples, out_dir=None,
                  resume_from: Checkpoint | None = None):
    """Stage 1: teacher fusion + text encoder + answer head on all frames.

    Returns (bundle, final val MetricsRow). Writes metrics and a checkpoint
    when out_dir is given.
    """
    bundle = build_models(cfg)
    params = set_stage(bundle, STAGE_TEACHER, cfg)
    opt = AdamWState()
    rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence((cfg.seed, 100))))
    start_step = 0
    if resume_from is not None:
        if resume_from.stage != STAGE_TEACHER:
            raise ValueError(f"cannot resume teacher stage from a {resume_from.stage!r} checkpoint")
        if resume_from.config_digest != cfg.digest():
            raise ValueError("config digest mismatch on resume")
        load_into_bundle(bundle, resume_from.tensors)
        opt = _opt_from_tensors(resume_from.tensors)
        rng.bit_generator.state = resume_from.rng_state
        start_step = resume_from.step

    writer = MetricsWriter(out_dir) if out_dir else None
    final_row = None
    try:
        for step in range(start_step, cfg.teacher_steps):
            t0 = time.perf_counter()
            lr = cosine_lr(step, cfg.teacher_steps, cfg.lr, cfg.lr_min)
            batch = _draw_batch(train_samples, cfg.batch_size, rng)
            logits, _ = teacher_forward(bundle, batch, cfg)
            loss = surrogates.vqa_loss(logits, batch.answers, cfg.loss)
            loss_val = loss.item()
            _check_finite_loss(loss_val, step)
            backward(loss)
            if cfg.audit_frozen:
                audit_frozen_gradients(bundle, STAGE_TEACHER, cfg)
            clip_global_norm(params, cfg.grad_clip)
            adamw_step(params, opt, lr, cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay)
            for p in params.values():
                p.grad = None
            acc = float((logits.data.argmax(axis=1) == batch.answers).mean())
            if writer:
                writer.write(MetricsRow(step=step, split="train", loss_vqa=loss_val,
                                        accuracy=acc, lr=lr,
                                        wallclock_ms=(time.perf_counter() - t0) * 1e3))
            if writer and cfg.eval_every and (step + 1) % cfg.eval_every == 0 and (step + 1) < cfg.teacher_steps:
                row, _ = evaluate(bundle, cfg, val_samples[:cfg.eval_samples], STAGE_TEACHER,
                                  step=step + 1)
                writer.write(row)
            if out_dir and cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
                _write_stage_checkpoint(out_dir, bundle, opt, rng, cfg, STAGE_TEACHER, step + 1,
                                        name=f"teacher_step{step + 1}.ckpt")
        final_row, _ = evaluate(bundle, cfg, val_samples, STAGE_TEACHER, step=cfg.teacher_steps)
        if writer:
            writer.write(final_row)
        if out_dir:
            _write_stage_checkpoint(out_dir, bundle, opt, rng, cfg, STAGE_TEACHER,
                                    cfg.teacher_steps, name="teacher.ckpt")
    finally:
        if writer:
            writer.close()
    return bundle, final_row


def _write_stage_checkpoint(out_dir, bundle, opt, rng, cfg, stage, step, name):
    tensors = bundle_state(bundle)
    tensors.update(_opt_tensors(opt))
    save_checkpoint(Path(out_dir) / name, stage, step, tensors, cfg.digest(),
                    rng_state=rng.bit_generator.state)


def train_student(cfg: TrainConfig, train_samples, val_samples, teacher_ckpt: Checkpoint,
                  out_dir=None, resume_from: Checkpoint | None = None):
    """Stage 2: student fusion + selector + decoder against the frozen rest.

    Teacher targets are recomputed per batch on the full frame set; the
    Gumbel temperature follows the geometric schedule across the run.
    """
    if teacher_ckpt.stage != STAGE_TEACHER:
        raise ValueError(f"student stage needs a teacher checkpoint, got stage {teacher_ckpt.stage!r}")
    if teacher_ckpt.config_digest != cfg.digest():
        raise ValueError("config digest mismatch between teacher checkpoint and this run")

    bundle = build_models(cfg)
    load_into_bundle(bundle, teacher_ckpt.tensors, prefixes=("visual.", "text.", "answer.", "teacher."))
    params = set_stage(bundle, STAGE_STUDENT, cfg)
    opt = AdamWState()
    rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence((cfg.seed, 200))))
    start_step = 0
    if resume_from is not None:
        if resume_from.stage != STAGE_STUDENT:
            raise ValueError(f"cannot resume student stage from a {resume_from.stage!r} checkpoint")
        if resume_from.config_digest != cfg.digest():
            raise ValueError("config digest mismatch on resume")
        load_into_bundle(bundle, resume_from.tensors)
        opt = _opt_from_tensors(resume_from.tensors)
        rng.bit_generator.state = resume_from.rng_state
        start_step = resume_from.step

    distill_on = cfg.lambda_distill > 0 and bundle.decoder is not None
    writer = MetricsWriter(out_dir) if out_dir else None
    final_row = None
    try:
        for step in range(start_step, cfg.student_steps):
            t0 = time.perf_counter()
            lr = cosine_lr(step, cfg.student_steps, cfg.lr, cfg.lr_min)
            tau = prompter.tau_schedule(step, cfg.student_steps, cfg.prompter_cfg)
            batch = _draw_batch(train_samples, cfg.batch_size, rng)

            logits, x_student, mask = student_forward(bundle, batch, cfg, "train", tau=tau, rng=rng)
            loss_vqa = surrogates.vqa_loss(logits, batch.answers, cfg.loss)
            if distill_on:
                _, x_teacher = teacher_forward(bundle, batch, cfg)
                loss_distill = qformer.distill_loss(bundle.decoder, x_student, x_teacher)
                loss = T.add(loss_vqa, loss_distill * cfg.lambda_distill)
                distill_val = loss_distill.item()
            else:
                loss = loss_vqa
                distill_val = 0.0
            loss_val = loss.item()
            _check_finite_loss(loss_val, step)
            backward(loss)
            if cfg.audit_frozen:
                audit_frozen_gradients(bundle, STAGE_STUDENT, cfg)
            clip_global_norm(params, cfg.grad_clip)
            adamw_step(params, opt, lr, cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay)
            for p in params.values():
                p.grad = None

            acc = float((logits.data.argmax(axis=1) == batch.answers).mean())
            recall = _batch_recall(mask, batch, cfg) if bundle.prompter_params is not None else None
            if writer:
                writer.write(MetricsRow(step=step, split="train",
                                        loss_vqa=loss_vqa.item(), loss_distill=distill_val,
                                        accuracy=acc, keyframe_recall=recall, tau=tau, lr=lr,
                                        wallclock_ms=(time.perf_counter() - t0) * 1e3))
            if writer and cfg.eval_every and (step + 1) % cfg.eval_every == 0 and (step + 1) < cfg.student_steps:
                row, _ = evaluate(bundle, cfg, val_samples[:cfg.eval_samples], STAGE_STUDENT,
                                  step=step + 1)
                writer.write(row)
            if out_dir and cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
                _write_stage_checkpoint(out_dir, bundle, opt, rng, cfg, STAGE_STUDENT, step + 1,
                                        name=f"student_step{step + 1}.ckpt")
        final_row, _ = evaluate(bundle, cfg, val_samples, STAGE_STUDENT, step=cfg.student_steps)
        if writer:
            writer.write(final_row)
        if out_dir:
            _write_stage_checkpoint(out_dir, bundle, opt, rng, cfg, STAGE_STUDENT,
                                    cfg.student_steps, name="student.ckpt")
    finally:
        if writer:
            writer.close()
    return bundle, final_row


def _batch_recall(mask: SelectionMask, batch: Batch, cfg: TrainConfig) -> float:
    k = cfg.data.num_keyframes
    vals = [len(set(sel) & set(kf)) / k for sel, kf in zip(mask.selected, batch.keyframes)]
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# evaluation

def evaluate(bundle: ModelBundle, cfg: TrainConfig, samples, stage: str,
             mode: str = "hard", tau: float | None = None, step: int = 0,
             batch_size: int = 64, reference_selections=None):
    """Deterministic full pass over `samples`.

    Returns (MetricsRow for split "val", per-sample selected indices). Teacher
    evaluations report no selection metrics (not applicable).
    """
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
            fmode = "infer" if mode == "hard" else "soft_infer"
            ftau = tau if tau is not None else cfg.prompter_cfg.tau_end
            logits, _, mask = student_forward(bundle, batch, cfg, fmode, tau=ftau)
            selections.extend(mask.selected)
            if bundle.prompter_params is not None:
                recalls.extend(len(set(sel) & set(kf)) / cfg.data.num_keyframes
                               for sel, kf in zip(mask.selected, batch.keyframes))
        losses.append(surrogates.vqa_loss(logits, batch.answers, cfg.loss).item() * len(batch.answers))
        correct += int((logits.data.argmax(axis=1) == batch.answers).sum())

    overlap = None
    if reference_selections is not None and selections:
        overlap = float(np.mean([
            len(set(a) & set(b)) / len(a) for a, b in zip(selections, reference_selections)]))
    row = MetricsRow(step=step, split="val",
                     loss_vqa=float(np.sum(losses) / len(samples)),
                     accuracy=correct / len(samples),
                     keyframe_recall=float(np.mean(recalls)) if recalls else None,
                     selection_overlap=overlap,
                     tau=tau if stage == STAGE_STUDENT and mode != "hard" else None,
                     wallclock_ms=(time.perf_counter() - t0) * 1e3)
    return row, selections
