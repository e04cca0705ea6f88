"""Query-token cross-modal fusion, instantiated once as teacher and once as
student, plus the FC + LayerNorm decoder and the MSE loss that distill the
all-frames teacher into the few-frames student.

Learnable query tokens are prepended to the visual tokens, one
self-attention block runs over the concatenation, and the post-self-attention
query positions serve as keys/values for cross-attention with the question
text. The output therefore always has one vector per text token, whatever
the number of visual tokens, and no weight depends on it.

Only the query positions of the self-attention block are ever read, so the
block is computed for those rows alone, and no visual token is projected to
d_model: the fusion takes the frozen C-wide features with the stage's
[C, d] projection, which joins Wk and Wv on the query side
(`qformer_forward`). That costs O(Q·(Q+Lv)·(Q+C) + Q·(Q+C)·d); at T=128
frames the widest array is [B, 520, 16], not [B, 520, 64]. The features
and the projection still receive gradient. Each of the two attentions is
one `tensor.attention` op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor


@dataclass
class QFormerParams:
    """Learnable queries plus one self-attention and one cross-attention block."""

    query_tokens: Tensor          # [Q, d_model]
    self_attn: nn.AttentionParams
    cross_attn: nn.AttentionParams
    patches: int                  # tokens per frame; only the benchmark's spans read it (ROADMAP item 2)

    @classmethod
    def init(cls, d_model: int, num_queries: int, patches: int, rng: np.random.Generator) -> "QFormerParams":
        if num_queries < 1:
            raise ValueError("need at least one query token")
        q = Tensor(rng.normal(size=(num_queries, d_model)), requires_grad=True)
        self_attn = nn.AttentionParams.init(d_model, rng)
        cross = nn.AttentionParams.init(d_model, rng)
        return cls(query_tokens=q, self_attn=self_attn, cross_attn=cross, patches=patches)

    @property
    def num_queries(self) -> int:
        return self.query_tokens.shape[0]

    def named(self, prefix: str) -> dict:
        out = {f"{prefix}.queries": self.query_tokens}
        out.update(self.self_attn.named(f"{prefix}.self"))
        out.update(self.cross_attn.named(f"{prefix}.cross"))
        return out


def qformer_forward(params: QFormerParams, visual_feats: Tensor, proj: Tensor, text_tokens: Tensor,
                    key_bias: Tensor | None = None) -> Tensor:
    """Fuse [B, Lv, C] visual features, projected by the [C, d] `proj`, with
    [B, Lt, d] text -> [B, Lt, d].

    `key_bias` ([B, Lv]) is added to the self-attention logits of the visual
    keys; the query-token keys take no bias. Any number of visual tokens is
    read.

    The self-attention block computes only the query rows, from the [Q, d]
    query tokens with no batch copy. Its keys are coeff @ basis, with
    basis = [query tokens; proj] ([Q + C, d]) and coeff =
    blockdiag(I_Q, visual_feats) ([B, Q + Lv, Q + C]); the product is not
    formed (`nn.cross_attention`'s `basis`), so the cost is
    O(Q·(Q+Lv)·(Q+C) + Q·(Q+C)·d) and no [B, Lv, d] token tensor exists.
    This equals projecting every token, running full self-attention and
    then keeping the query rows, up to rounding.
    """
    b, lv, c = visual_feats.shape
    q = params.num_queries
    basis = T.concat([params.query_tokens, proj], axis=0)
    query_rows = Tensor(np.broadcast_to(np.eye(q, q + c), (b, q, q + c)))
    visual_rows = T.concat([Tensor(np.zeros((b, lv, q))), visual_feats], axis=2)
    coeff = T.concat([query_rows, visual_rows], axis=1)

    bias = None
    if key_bias is not None:
        bias = T.concat([Tensor(np.zeros((b, q))), key_bias], axis=1)
    fused_queries = nn.cross_attention(params.self_attn, params.query_tokens, coeff,
                                       key_bias=bias, basis=basis)
    return nn.cross_attention(params.cross_attn, text_tokens, fused_queries)


@dataclass
class DistillDecoderParams:
    """Maps student fusion output into the teacher's feature space (both
    d_model wide): FC then LayerNorm."""

    decoder: nn.MlpParams

    @classmethod
    def init(cls, d: int, rng: np.random.Generator) -> "DistillDecoderParams":
        return cls(decoder=nn.MlpParams([nn.fc_step(d, d, rng), nn.ln_step(d)]))

    def named(self, prefix: str) -> dict:
        return self.decoder.named(f"{prefix}.fc_ln")


def distill_decode(dec: DistillDecoderParams, x_student: Tensor) -> Tensor:
    """Apply the decoder per token position."""
    return nn.mlp_apply(dec.decoder, x_student)


def distill_loss(dec: DistillDecoderParams, x_student: Tensor, x_teacher: Tensor) -> Tensor:
    """MSE(D(student), teacher) with the teacher target detached.

    Gradient reaches the student fusion stack and the decoder, never the
    teacher.
    """
    return T.mse(distill_decode(dec, x_student), x_teacher.detach())

