"""Desk-scale stand-ins for the frozen pre-trained endpoints.

The visual encoder is a fixed random linear projection per patch (never
trained), the text encoder a small learnable embedding table with additive
positions, and the answer head a bilinear scorer over answer-choice
embeddings. Text encoder and answer head train during the teacher stage
only, mirroring the frozen-LLM boundary afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

# C, the visual encoder's channels per patch: the width of every video feature
CHANNELS = 8


@dataclass
class SurrogateVisualEncoder:
    """Fixed per-patch linear projection raw_dim -> channels. It reads any
    number of frames and patches; the selector's embed MLP checks N."""

    projection: Tensor  # [raw_dim, channels], requires_grad stays False

    @classmethod
    def init(cls, raw_dim: int, channels: int, seed: int) -> "SurrogateVisualEncoder":
        rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence((seed, 0x5EED))))
        proj = rng.normal(size=(raw_dim, channels)) / np.sqrt(raw_dim)
        return cls(projection=Tensor(proj, requires_grad=False))


def encode_video(raw: Tensor, enc: SurrogateVisualEncoder) -> Tensor:
    """[B, T, N, raw_dim] -> [B, T, N, C]; no gradient into the projection."""
    if raw.shape[-1] != enc.projection.shape[0]:
        raise ValueError(f"raw feature width {raw.shape[-1]} does not match projection {enc.projection.shape}")
    return T.matmul(raw, enc.projection)


@dataclass
class SurrogateTextEncoder:
    """Token embedding table plus additive positional embeddings."""

    embedding: Tensor   # [V, d_model]
    positional: Tensor  # [Lmax, d_model]

    @classmethod
    def init(cls, vocab: int, d_model: int, max_len: int, rng: np.random.Generator) -> "SurrogateTextEncoder":
        emb = Tensor(rng.normal(size=(vocab, d_model)), requires_grad=True)
        pos = Tensor(rng.normal(size=(max_len, d_model)) * 0.1, requires_grad=True)
        return cls(embedding=emb, positional=pos)

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.embedding": self.embedding, f"{prefix}.positional": self.positional}


def encode_text(tokens: np.ndarray, enc: SurrogateTextEncoder) -> Tensor:
    """[..., L] int token ids -> [..., L, d_model]: each id's embedding row
    plus its position's row, added by broadcasting over the leading axes.
    `take_rows` rejects ids that are not integers or not in the vocabulary."""
    tokens = np.asarray(tokens)
    if tokens.ndim < 1:
        raise ValueError(f"expected [..., L] token ids, got shape {tokens.shape}")
    length = tokens.shape[-1]
    if length > enc.positional.shape[0]:
        raise ValueError(f"sequence length {length} exceeds positional table {enc.positional.shape[0]}")
    return T.add(T.take_rows(enc.embedding, tokens), T.take_rows(enc.positional, np.arange(length)))


def encode_choices(choice_tokens: np.ndarray, enc: SurrogateTextEncoder) -> Tensor:
    """[B, A, Lc] token ids -> [B, A, d_model]: one `encode_text` call,
    mean-pooled over Lc."""
    return T.mean_axis(encode_text(choice_tokens, enc), axis=2)


@dataclass
class AnswerHead:
    """Bilinear scorer: pooled fusion vector against each choice embedding."""

    score: Tensor  # [d_model, d_model]

    @classmethod
    def init(cls, d_model: int, rng: np.random.Generator) -> "AnswerHead":
        return cls(score=Tensor(rng.normal(size=(d_model, d_model)) / np.sqrt(d_model),
                                requires_grad=True))

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.score": self.score}


def score_answers(x_llm: Tensor, choices: Tensor, head: AnswerHead) -> Tensor:
    """logit[b, a] = mean_t(x_llm[b, t])^T . score . choices[b, a] -> [B, A]."""
    b, a, d = choices.shape
    if a < 2:
        raise ValueError(f"need at least two answer choices, got {a}")
    if x_llm.shape[-1] != d or head.score.shape != (d, d):
        raise ValueError("fusion width, choice width and score matrix disagree")
    pooled = T.mean_axis(x_llm, axis=1)                       # [B, d]
    v = T.matmul(pooled, head.score)                          # [B, d]
    logits = T.matmul(choices, T.reshape(v, (b, d, 1)))       # [B, A, 1]
    return T.reshape(logits, (b, a))


def vqa_loss(logits: Tensor, answer_idx: np.ndarray) -> Tensor:
    """Multi-choice answer loss: cross-entropy over the choices."""
    return T.cross_entropy(logits, answer_idx)
