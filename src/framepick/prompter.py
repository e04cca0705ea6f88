"""Text-guided differentiable frame selection.

Pipeline: mean-pool per-patch channels, embed each frame's pooled feature
vector, score the frames of each of S contiguous temporal segments, and
pick one frame per segment (`select_frames`, through `sample_frames`, the
one selection estimator). This module builds every `SelectionMask`, also
the no-selector arms' fixed pick (`uniform_mask`). `frame_keys` turns a
mask and per-frame features of any width into [B, L, width] keys. The
student forward calls it once, on the frozen visual features, projects
only the keys it returns, and fuses them with the question text through
`guide_attn` and through the student fusion.

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
        for name in ("patches", "channels", "d_model", "embed_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
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
    """One frame selection for a batch, built by `sample_frames` or
    `uniform_mask` (tests build masks by hand).

    hard: [B, T] 0/1 array with one 1 per segment, segment-major, so
    reshaping it to [B, S, T/S] gives each segment's one-hot; selected:
    per-row sorted frame indices, S each; soft: the differentiable [B, T]
    mask of a relaxed sample, else None (values equal `hard` bitwise under
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


def _mask(pick: np.ndarray, cfg: FramePrompterConfig) -> SelectionMask:
    """Per-segment offsets [B, S] -> the segment-major [B, T] one-hot and
    the frame indices, which increase across segments."""
    b = pick.shape[0]
    hard = np.zeros((b, cfg.segments, cfg.frames_per_segment))
    np.put_along_axis(hard, pick[..., None], 1.0, axis=-1)
    indices = pick + np.arange(cfg.segments) * cfg.frames_per_segment
    return SelectionMask(hard=hard.reshape(b, cfg.frames), selected=indices.tolist())


def uniform_mask(b: int, cfg: FramePrompterConfig) -> SelectionMask:
    """The fixed pick of the no-selector arms: each segment's middle frame,
    `synth.uniform_frame_indices(T, S)` in every row."""
    return _mask(np.full((b, cfg.segments), cfg.frames_per_segment // 2), cfg)


def sample_frames(logits: Tensor, cfg: FramePrompterConfig, tau: float | None = None,
                  rng: np.random.Generator | None = None,
                  noise: np.ndarray | None = None) -> SelectionMask:
    """One frame per segment from [B, S, T/S] logits: the argmax of
    z = log softmax(logits) + g.

    With `tau`, g is Gumbel noise (`noise`, else drawn from `rng`), and
    `soft` is softmax(z / tau) flattened to [B, T]; under
    `cfg.straight_through` it is hard + (soft - stop_gradient(soft)), equal
    to `hard` bitwise in the forward pass. Without `tau`, g = 0 on detached
    logits and there is no `soft`: the inference pick. Ties break low.
    """
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("sample_frames requires finite logits")
    if tau is None:
        return _mask(T.log_softmax(logits.detach(), axis=-1).data.argmax(axis=-1), cfg)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if noise is None:
        if rng is None:
            raise ValueError("rng is required when no noise override is given")
        noise = rng.gumbel(size=logits.shape)
    if np.shape(noise) != logits.shape:
        raise ValueError(f"noise shape {np.shape(noise)} != logits shape {logits.shape}")
    z = T.add(T.log_softmax(logits, axis=-1), Tensor(noise))
    mask = _mask(z.data.argmax(axis=-1), cfg)
    soft = T.reshape(T.softmax(z * (1.0 / tau), axis=-1), (logits.shape[0], cfg.frames))
    if cfg.straight_through:
        soft = T.add(Tensor(mask.hard), T.sub(soft, soft.detach()))
    mask.soft = soft
    return mask


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
    """[B, T, N, width] per-frame tokens or features of any width ->
    (keys [B, L, width], per-token key mask [B, L] or None).

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
    b, t, n, width = x_tokens.shape
    soft = mask.soft
    if soft is not None and not np.array_equal(soft.data, mask.hard):
        return T.reshape(x_tokens, (b, t * n, width)), _per_token(soft, n)
    if not all(mask.selected):
        raise ValueError("no attendable keys: a batch row selected zero frames")
    idx = np.array(mask.selected)
    keys = T.reshape(T.gather_frames(x_tokens, idx), (b, idx.shape[1] * n, width))
    return keys, None if soft is None else _per_token(T.gather_frames(soft, idx), n)


def select_frames(video_features: Tensor, params: FramePrompterParams, cfg: FramePrompterConfig,
                  tau: float | None = None, rng: np.random.Generator | None = None,
                  noise: np.ndarray | None = None) -> SelectionMask:
    """Score the frames of [B, T, N, C] features and pick one per segment
    with `sample_frames`: a relaxed Gumbel sample, straight-through per
    config, when `tau` is given (training), else the noiseless argmax
    (inference). `frame_keys` turns either mask into the student's keys.
    """
    logits = segment_logits(pool_and_embed(video_features, params, cfg), params, cfg)
    return sample_frames(logits, cfg, tau=tau, rng=rng, noise=noise)
