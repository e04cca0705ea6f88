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


@dataclass
class SurrogateVisualEncoder:
    """Fixed per-patch linear projection raw_dim -> channels."""

    projection: Tensor  # [raw_dim, channels], requires_grad stays False
    patches: int

    @classmethod
    def init(cls, raw_dim: int, channels: int, patches: int, seed: int) -> "SurrogateVisualEncoder":
        rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence((seed, 0x5EED))))
        proj = rng.normal(size=(raw_dim, channels)) / np.sqrt(raw_dim)
        return cls(projection=Tensor(proj, requires_grad=False), patches=patches)


def encode_video(raw: Tensor, enc: SurrogateVisualEncoder) -> Tensor:
    """[B, T, N, raw_dim] -> [B, T, N, C]; no gradient into the projection."""
    if raw.shape[-1] != enc.projection.shape[0]:
        raise ValueError(f"raw feature width {raw.shape[-1]} does not match projection {enc.projection.shape}")
    if raw.shape[-2] != enc.patches:
        raise ValueError(f"expected {enc.patches} patches per frame, got {raw.shape[-2]}")
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

    @property
    def vocab(self) -> int:
        return self.embedding.shape[0]

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.embedding": self.embedding, f"{prefix}.positional": self.positional}


def encode_text(tokens: np.ndarray, enc: SurrogateTextEncoder) -> Tensor:
    """[B, Lt] int token ids -> [B, Lt, d_model] (embedding + position)."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError(f"expected a [B, Lt] token batch, got shape {tokens.shape}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= enc.vocab):
        raise IndexError(f"token id out of vocabulary (V={enc.vocab})")
    lt = tokens.shape[1]
    if lt > enc.positional.shape[0]:
        raise ValueError(f"sequence length {lt} exceeds positional table {enc.positional.shape[0]}")
    emb = T.take_rows(enc.embedding, tokens)
    pos = T.reshape(T.narrow(enc.positional, 0, 0, lt), (1, lt, enc.positional.shape[1]))
    return T.add(emb, pos)


def encode_choices(choice_tokens: np.ndarray, enc: SurrogateTextEncoder) -> Tensor:
    """[B, A, Lc] token ids -> [B, A, d_model], mean-pooled over Lc."""
    choice_tokens = np.asarray(choice_tokens)
    b, a, lc = choice_tokens.shape
    flat = encode_text(choice_tokens.reshape(b * a, lc), enc)
    return T.mean_axis(T.reshape(flat, (b, a, lc, enc.embedding.shape[1])), axis=2)


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
