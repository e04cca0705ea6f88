"""Frame selection, text-blind for now.

Pipeline: mean-pool per-patch channels, embed each frame's pooled feature
vector, score every frame with one shared [N, 1] scorer, split the T
scores into S contiguous temporal segments of T/S, and pick one frame per
segment (`select_frames`, through `sample_frames`, the one pick rule). No
weight depends on T or S, so weights trained at one frame geometry run at
any other. The selector reads no text until ROADMAP item 3: the
question reaches only the student fusion, after the pick. This module
builds every `SelectionMask`, also the no-selector arms' fixed pick
(`uniform_mask`). `frame_keys` gathers the picked frames' tokens from
per-frame features of any width. The student forward calls it once, on
the frozen C-wide visual features; the student fusion reads the keys it
returns unprojected, with its projection on the query side
(`qformer.qformer_forward`), and fuses them with the question text.

The pick has one rule, in training and at inference: each segment's
argmax frame, so the student trains on the picks it is scored on. No
gradient flows through a pick. The selector learns from one term of the
student loss instead: the cross entropy of its segment scores
(`SelectionMask.logits`) against a label from the frozen teacher's
saliency (`trainer.teacher_targets`). This departs from the Gumbel-Softmax
relaxation of the paper, whose straight-through gradient never told the
selector to pick another frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor

@dataclass
class FramePrompterConfig:
    """Selector and fusion sizes. The patch count N is the dataset's
    (`DatasetSpec.patches`) and the channel count C the visual encoder's
    (`surrogates.CHANNELS`): the selector reads both from its input, and
    `FramePrompterParams.init` takes N as an argument."""

    frames: int = 32            # T, input frames
    segments: int = 4           # S, also the selected-frame count (one per segment)
    d_model: int = 64           # width of the fusion models; the text-blind selector does not read it
    embed_hidden: int = 32

    def __post_init__(self):
        for name in ("d_model", "embed_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not 1 <= self.segments <= self.frames:
            raise ValueError(f"need frames >= segments >= 1, got T={self.frames}, S={self.segments}")
        if self.frames % self.segments != 0:
            raise ValueError(f"segments must divide frames: T={self.frames}, S={self.segments}")

    @property
    def frames_per_segment(self) -> int:
        return self.frames // self.segments


@dataclass
class FramePrompterParams:
    """Learnable state of the selector: the frame embedding and the select
    head, one [N, 1] scorer shared by every frame. No text weights: the
    selector reads no question until ROADMAP item 3."""

    embed: nn.MlpParams
    scorer: Tensor

    @classmethod
    def init(cls, cfg: FramePrompterConfig, patches: int, rng: np.random.Generator) -> "FramePrompterParams":
        """Weights for N = `patches` tokens per frame."""
        n, h = patches, cfg.embed_hidden
        embed = nn.MlpParams([
            nn.fc_step(n, h, rng, bias=False),
            nn.ln_step(h),
            nn.act_step(),
            nn.fc_step(h, n, rng, bias=False),
        ])
        # small init keeps the initial per-segment distribution near uniform;
        # no bias, which would shift every score alike and move no pick
        scorer = Tensor(rng.normal(size=(n, 1)) * 0.01, requires_grad=True)
        return cls(embed=embed, scorer=scorer)

    def named(self, prefix: str) -> dict:
        out = self.embed.named(f"{prefix}.embed")
        out[f"{prefix}.scorer"] = self.scorer
        return out


@dataclass
class SelectionMask:
    """One frame selection for a batch, built by `sample_frames` or
    `uniform_mask` (tests build masks by hand).

    selected: per-row sorted frame indices, S each; logits: the selector's
    [B, S, T/S] segment scores the pick was taken from, None for
    `uniform_mask`.
    """

    selected: list
    logits: Tensor | None = None


def frame_scores(x: Tensor, params: FramePrompterParams, cfg: FramePrompterConfig) -> Tensor:
    """[B, T, N, C] -> mean over channels -> per-frame MLP -> one score per
    frame, [B, T, 1] -> the [B, S, T/S] scores of S contiguous segments."""
    if x.ndim != 4 or x.shape[1] != cfg.frames:
        raise ValueError(f"expected [B, {cfg.frames}, N, C], got {x.shape}")
    embedded = nn.mlp_apply(params.embed, T.mean_axis(x, axis=3))
    return T.reshape(T.matmul(embedded, params.scorer), (x.shape[0], cfg.segments, cfg.frames_per_segment))


def _mask(pick: np.ndarray, cfg: FramePrompterConfig, logits: Tensor | None = None) -> SelectionMask:
    """Per-segment offsets [B, S] -> the frame indices, which increase
    across segments."""
    indices = pick + np.arange(cfg.segments) * cfg.frames_per_segment
    return SelectionMask(selected=indices.tolist(), logits=logits)


def uniform_mask(b: int, cfg: FramePrompterConfig) -> SelectionMask:
    """The fixed pick of the no-selector arms: each segment's middle frame,
    `synth.uniform_frame_indices(T, S)` in every row."""
    return _mask(np.full((b, cfg.segments), cfg.frames_per_segment // 2), cfg)


def sample_frames(logits: Tensor, cfg: FramePrompterConfig, keep_graph: bool = False) -> SelectionMask:
    """One frame per segment from [B, S, T/S] logits: each segment's argmax,
    ties broken low. No gradient flows through a pick.

    The mask keeps the logits as its `logits`: with their graph given
    `keep_graph` (training, where the selector's label cross entropy reads
    them), else detached, so their graph is freed with the forward.
    """
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("sample_frames requires finite logits")
    return _mask(logits.data.argmax(axis=-1), cfg, logits if keep_graph else logits.detach())


def frame_keys(x_tokens: Tensor, mask: SelectionMask) -> Tensor:
    """[B, T, N, width] per-frame tokens or features of any width -> the
    selected frames' tokens, [B, S * N, width], in frame order: one
    `take_rows` of the [B * T * N, width] token rows."""
    b, t, n, width = x_tokens.shape
    if not all(mask.selected):
        raise ValueError("no attendable keys: a batch row selected zero frames")
    frames = np.array(mask.selected) + t * np.arange(b)[:, None]           # [B, S] rows of [B * T, ...]
    rows = (frames[:, :, None] * n + np.arange(n)).reshape(b, -1)          # [B, S * N]
    return T.take_rows(T.reshape(x_tokens, (b * t * n, width)), rows)


def select_frames(video_features: Tensor, params: FramePrompterParams, cfg: FramePrompterConfig,
                  keep_graph: bool = False) -> SelectionMask:
    """Score the frames of [B, T, N, C] features and pick one per segment with
    `sample_frames`; `keep_graph` keeps the mask's logits differentiable."""
    return sample_frames(frame_scores(video_features, params, cfg), cfg, keep_graph)
