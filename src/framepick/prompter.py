"""Text-guided differentiable frame selection.

Pipeline: mean-pool per-patch channels, embed each frame's pooled feature
vector, score the frames of each of S contiguous temporal segments, and
draw one frame per segment with Gumbel noise (`select_frames`). The student
forward gathers the picks once (`frame_keys`) and fuses them with the
question text through `guide_attn` and through the student fusion.

Selection is trained through the Gumbel-Softmax relaxation; the straight-
through variant keeps the hard one-hot mask in the forward pass while
gradients follow the relaxed weights. Because that forward mask is exactly
0/1, straight-through training reads only the S selected frames' tokens,
as inference does (`frame_keys`); only a strictly relaxed mask keeps all T
frames. Inference uses the noiseless argmax, which agrees with the tau=0.01
soft mask to ~1e-4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor

@dataclass
class FramePrompterConfig:
    frames: int = 32            # T, input frames
    segments: int = 4           # S, also the selected-frame count (one per segment)
    patches: int = 4            # N, patch tokens per frame
    channels: int = 8           # C, channels per patch from the visual encoder
    d_model: int = 64
    tau_start: float = 1.0
    tau_end: float = 0.01
    straight_through: bool = True
    embed_hidden: int = 32

    def __post_init__(self):
        if not 1 <= self.segments <= self.frames:
            raise ValueError(f"need frames >= segments >= 1, got T={self.frames}, S={self.segments}")
        if self.frames % self.segments != 0:
            raise ValueError(f"segments must divide frames: T={self.frames}, S={self.segments}")
        if self.tau_end <= 0:
            raise ValueError("tau_end must be positive")
        if self.tau_start < self.tau_end:
            raise ValueError("tau_start must be >= tau_end")

    @property
    def frames_per_segment(self) -> int:
        return self.frames // self.segments


@dataclass
class FramePrompterParams:
    """Learnable state: frame embedding, selection head, text-guidance attention."""

    embed: nn.MlpParams
    select_head: nn.MlpParams
    guide_attn: nn.AttentionParams

    @classmethod
    def init(cls, cfg: FramePrompterConfig, rng: np.random.Generator) -> "FramePrompterParams":
        n, h = cfg.patches, cfg.embed_hidden
        embed = nn.MlpParams([
            nn.fc_step(n, h, rng, bias=False),
            nn.ln_step(h),
            nn.act_step(),
            nn.fc_step(h, n, rng, bias=False),
        ])
        # small init keeps the initial per-segment distribution near uniform
        head = nn.MlpParams([nn.fc_step(cfg.frames_per_segment * n, cfg.frames_per_segment, rng, scale=0.01)])
        guide = nn.AttentionParams.init(cfg.d_model, rng)
        return cls(embed=embed, select_head=head, guide_attn=guide)

    def named(self, prefix: str) -> dict:
        out = {}
        out.update(self.embed.named(f"{prefix}.embed"))
        out.update(self.select_head.named(f"{prefix}.select"))
        out.update(self.guide_attn.named(f"{prefix}.guide"))
        return out


@dataclass
class SelectionMask:
    """One sampled (or argmax) frame selection for a batch.

    hard: [B, T] 0/1 array with one 1 per segment, segment-major, so
    reshaping it to [B, S, T/S] gives each segment's one-hot; selected:
    per-row sorted frame indices, S each; soft: the differentiable [B, T]
    mask when a relaxed sample exists (values equal `hard` bitwise under
    straight-through, and `frame_keys` then gathers the selected frames).
    """

    hard: np.ndarray
    selected: list
    soft: Tensor | None = None


def pool_and_embed(x: Tensor, params: FramePrompterParams, cfg: FramePrompterConfig) -> Tensor:
    """[B, T, N, C] -> mean over channels -> per-frame MLP -> [B, T, N]."""
    if x.shape[1:] != (cfg.frames, cfg.patches, cfg.channels):
        raise ValueError(f"expected [B, {cfg.frames}, {cfg.patches}, {cfg.channels}], got {x.shape}")
    pooled = T.mean_axis(x, axis=3)
    return nn.mlp_apply(params.embed, pooled)


def segment_logits(embedded: Tensor, params: FramePrompterParams, cfg: FramePrompterConfig) -> Tensor:
    """[B, T, N] -> contiguous temporal chunks -> FC -> [B, S, T/S] logits."""
    b = embedded.shape[0]
    fps = cfg.frames_per_segment
    chunks = T.reshape(embedded, (b, cfg.segments, fps * cfg.patches))
    return nn.mlp_apply(params.select_head, chunks)


def _gumbel(rng: np.random.Generator, shape, noise: np.ndarray | None) -> np.ndarray:
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != tuple(shape):
            raise ValueError(f"noise shape {noise.shape} != logits shape {tuple(shape)}")
        return noise
    if rng is None:
        raise ValueError("rng is required when no noise override is given")
    return rng.gumbel(size=shape)


def _assemble_segmented(one_hot_seg: np.ndarray, cfg: FramePrompterConfig):
    """Per-segment one-hot [B, S, T/S] -> flat hard mask [B, T] + indices."""
    b = one_hot_seg.shape[0]
    hard = one_hot_seg.reshape(b, cfg.frames)
    pick = one_hot_seg.argmax(axis=2)  # [B, S]
    offsets = np.arange(cfg.segments) * cfg.frames_per_segment
    indices = pick + offsets  # strictly increasing across segments
    selected = [sorted(int(i) for i in row) for row in indices]
    return hard, selected


def gumbel_sample_hard(logits: Tensor, rng: np.random.Generator | None,
                       cfg: FramePrompterConfig, noise: np.ndarray | None = None) -> SelectionMask:
    """One hard frame per segment via Gumbel-max over log softmax(logits).

    Pass `noise=0` arrays to get the plain per-segment argmax (the inference
    path). Ties break toward the lowest index.
    """
    data = logits.data
    if not np.all(np.isfinite(data)):
        raise ValueError("gumbel_sample_hard requires finite logits")
    g = _gumbel(rng, data.shape, noise)
    shifted = data - data.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    z = logp + g
    pick = z.argmax(axis=-1)
    one_hot = np.zeros_like(data)
    np.put_along_axis(one_hot, pick[..., None], 1.0, axis=-1)
    hard, selected = _assemble_segmented(one_hot, cfg)
    return SelectionMask(hard=hard, selected=selected)


def gumbel_sample_soft(logits: Tensor, tau: float, rng: np.random.Generator | None,
                       cfg: FramePrompterConfig, straight_through: bool = True,
                       noise: np.ndarray | None = None) -> SelectionMask:
    """Relaxed per-segment selection: softmax((log p + g) / tau), flattened
    to the [B, T] `soft` mask.

    With straight_through, `soft` is hard + (relaxed - stop_gradient(relaxed)):
    its forward values equal the hard one-hot from the same noise draw
    bitwise, while gradients flow through the relaxed weights.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    g = _gumbel(rng, logits.shape, noise)
    hard_mask = gumbel_sample_hard(logits.detach(), None, cfg, noise=g)

    logp = T.log_softmax(logits, axis=-1)
    z = T.add(logp, Tensor(g)) * (1.0 / tau)
    soft_seg = T.softmax(z, axis=-1)  # [B, S, T/S]
    soft = T.reshape(soft_seg, (logits.shape[0], cfg.frames))
    if straight_through:
        soft = T.add(Tensor(hard_mask.hard), T.sub(soft, soft.detach()))
    return SelectionMask(hard=hard_mask.hard, selected=hard_mask.selected, soft=soft)


def tau_schedule(step: int, total_steps: int, cfg: FramePrompterConfig) -> float:
    """Geometric anneal tau_start -> tau_end over the training run."""
    if total_steps == 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return cfg.tau_start * (cfg.tau_end / cfg.tau_start) ** (step / total_steps)


def _per_token(weights: Tensor, n: int) -> Tensor:
    """[B, F] per-frame weights -> [B, F * N], each repeated for the frame's N tokens."""
    b, f = weights.shape
    return T.reshape(T.broadcast_to(T.reshape(weights, (b, f, 1)), (b, f, n)), (b, f * n))


def frame_keys(x_tokens: Tensor, mask: SelectionMask):
    """[B, T, N, d] frame tokens -> (keys [B, L, d], per-token key mask [B, L] or None).

    The path follows from the mask. A hard pick (no `mask.soft`) or a soft
    mask equal to `mask.hard` bitwise (a straight-through sample) gathers
    the S selected frames' tokens, L = S * N. With a soft mask, its values
    at those frames (exactly 1) become the key mask: `masked_log` adds 0 to
    the logits, and the selector's gradient still reaches the picked frames.
    Keeping every frame would give it nothing more, because `masked_log`
    has zero gradient at the unpicked frames' hard zeros. Only a strictly
    relaxed mask keeps every frame as a key, weighted by `mask.soft`,
    L = T * N.
    """
    b, t, n, d = x_tokens.shape
    soft = mask.soft
    if soft is not None and not np.array_equal(soft.data, mask.hard):
        return T.reshape(x_tokens, (b, t * n, d)), _per_token(soft, n)
    if not all(mask.selected):
        raise ValueError("no attendable keys: a batch row selected zero frames")
    idx = np.array(mask.selected)
    keys = T.reshape(T.gather_frames(x_tokens, idx), (b, idx.shape[1] * n, d))
    return keys, None if soft is None else _per_token(T.gather_frames(soft, idx), n)


def select_frames(video_features: Tensor, params: FramePrompterParams, cfg: FramePrompterConfig,
                  mode: str, tau: float | None = None,
                  rng: np.random.Generator | None = None,
                  noise: np.ndarray | None = None) -> SelectionMask:
    """Score the frames of [B, T, N, C] features and pick one per segment.

    mode "train": relaxed Gumbel sample at `tau`, straight-through per
    config, so `mask.soft` carries the selector's gradient. mode "infer":
    deterministic noiseless per-segment argmax, no `mask.soft`; `tau` is
    unused. `frame_keys` turns either mask into the keys the student reads.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    embedded = pool_and_embed(video_features, params, cfg)
    if mode == "train" and tau is None:
        raise ValueError("train mode requires tau")

    logits = segment_logits(embedded, params, cfg)
    if mode == "train":
        return gumbel_sample_soft(logits, tau, rng, cfg,
                                  straight_through=cfg.straight_through, noise=noise)
    return gumbel_sample_hard(logits.detach(), None, cfg, noise=np.zeros(logits.shape))
