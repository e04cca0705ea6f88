"""Desk-scale stand-ins for the frozen pre-trained endpoints.

The visual encoder is a fixed random linear projection per patch (never
trained). The selector reads its channel mean with the mean folded into
the projection (`pool_video`), one [raw_dim] vector, so the student path
projects only the patches of the frames it picks. The text encoder is a
small learnable embedding table with additive positions, and the answer
head a bilinear scorer over answer-choice embeddings. Text encoder and
answer head train during the teacher stage only, mirroring the frozen-LLM
boundary afterwards. Each is one op (`tensor.embed_tokens`,
`tensor.answer_logits`), bitwise the composition of primitives it
replaces, so a request encodes its question in one op, its choices in two
and scores them in one.
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
    number of frames and patches; the selector's frame scorer checks N."""

    projection: Tensor  # [raw_dim, channels], requires_grad stays False

    @classmethod
    def init(cls, raw_dim: int, channels: int, seed: int) -> "SurrogateVisualEncoder":
        rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence((seed, 0x5EED))))
        proj = rng.normal(size=(raw_dim, channels)) / np.sqrt(raw_dim)
        return cls(projection=Tensor(proj, requires_grad=False))


def _check_width(raw: Tensor, enc: SurrogateVisualEncoder) -> None:
    if raw.shape[-1] != enc.projection.shape[0]:
        raise ValueError(f"raw feature width {raw.shape[-1]} does not match projection {enc.projection.shape}")


def encode_video(raw: Tensor, enc: SurrogateVisualEncoder) -> Tensor:
    """[..., raw_dim] patches -> [..., C] features, such as [B, T, N, raw_dim]
    -> [B, T, N, C] or a student's [B, S * N, raw_dim] picked patches ->
    [B, S * N, C]; no gradient into the projection."""
    _check_width(raw, enc)
    return T.matmul(raw, enc.projection)


def pool_video(raw: Tensor, enc: SurrogateVisualEncoder) -> Tensor:
    """[B, T, N, raw_dim] -> [B, T, N]: each patch's channel mean of
    `encode_video`, with the mean folded into the projection, so the raw
    patches meet one [raw_dim] vector and no C-wide feature is formed. It
    equals `encode_video(raw)`'s mean over C up to rounding. No op: the
    raw video and the frozen projection take no gradient."""
    _check_width(raw, enc)
    pooled = enc.projection.data.mean(axis=1)
    return Tensor(np.matmul(raw.data.reshape(-1, pooled.size), pooled).reshape(raw.shape[:-1]))


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
    One `tensor.embed_tokens` op, which rejects ids that are not integers or
    not in the vocabulary."""
    return T.embed_tokens(enc.embedding, enc.positional, tokens)


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
    """logit[b, a] = mean_t(x_llm[b, t])^T . score . choices[b, a] -> [B, A];
    one `tensor.answer_logits` op."""
    logits = T.answer_logits(x_llm, head.score, choices)
    if logits.shape[1] < 2:
        raise ValueError(f"need at least two answer choices, got {logits.shape[1]}")
    return logits


def vqa_loss(logits: Tensor, answer_idx: np.ndarray) -> Tensor:
    """Multi-choice answer loss: cross-entropy over the choices."""
    return T.cross_entropy(logits, answer_idx)
