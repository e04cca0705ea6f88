"""Query-token cross-modal fusion, instantiated once as teacher and once as
student, plus the FC + LayerNorm decoder and the MSE loss that distill the
all-frames teacher into the few-frames student.

Learnable query tokens are prepended to the visual tokens, self-attention
runs over the concatenation, and the post-self-attention query positions
serve as keys/values for cross-attention with the question text. The output
therefore always has one vector per text token, whatever the frame budget.

Only the query positions of the last self-attention block are ever read, so
that block is computed for those rows alone: Q queries against all Q + Lv
keys, O(Q * L) instead of O(L^2). At T=128 frames that is 8 of 520 rows.
Visual tokens still receive gradient through the keys and values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor


@dataclass
class QFormerParams:
    """Learnable queries plus self/cross attention; depth self-attn blocks."""

    query_tokens: Tensor          # [Q, d_model]
    self_attn: list               # depth x AttentionParams
    cross_attn: nn.AttentionParams
    frame_budget: int             # max frames this instance may consume
    patches: int                  # tokens per frame

    @classmethod
    def init(cls, d_model: int, num_queries: int, frame_budget: int, patches: int,
             rng: np.random.Generator, num_heads: int = 1, depth: int = 1) -> "QFormerParams":
        if num_queries < 1:
            raise ValueError("need at least one query token")
        if depth < 1:
            raise ValueError(f"need at least one self-attention block, got depth={depth}")
        q = Tensor(rng.normal(size=(num_queries, d_model)), requires_grad=True)
        self_blocks = [nn.AttentionParams.init(d_model, num_heads, rng) for _ in range(depth)]
        cross = nn.AttentionParams.init(d_model, num_heads, rng)
        return cls(query_tokens=q, self_attn=self_blocks, cross_attn=cross,
                   frame_budget=frame_budget, patches=patches)

    @property
    def num_queries(self) -> int:
        return self.query_tokens.shape[0]

    def named(self, prefix: str) -> dict:
        out = {f"{prefix}.queries": self.query_tokens}
        for i, block in enumerate(self.self_attn):
            out.update(block.named(f"{prefix}.self{i}"))
        out.update(self.cross_attn.named(f"{prefix}.cross"))
        return out


def qformer_forward(params: QFormerParams, visual_tokens: Tensor, text_tokens: Tensor,
                    visual_key_mask: Tensor | None = None) -> Tensor:
    """Fuse [B, Lv, d] visual tokens with [B, Lt, d] text -> [B, Lt, d].

    `visual_key_mask` ([B, Lv], values in [0, 1]) weights visual keys in the
    self-attention; query-token positions are always attendable. The frame
    budget is enforced on the raw token count when no mask is given and on
    the per-row attendable count for exact 0/1 masks (straight-through);
    strictly relaxed masks are the budget's differentiable surrogate.

    Every self-attention block but the last updates the whole sequence. The
    last one computes only the query rows, as cross-attention from the query
    positions to the full sequence: nothing reads its visual rows. This
    equals full self-attention followed by `narrow` up to rounding (the BLAS
    sums a row subset of a matmul in a different order).
    """
    b, lv, d = visual_tokens.shape
    limit = params.frame_budget * params.patches
    if visual_key_mask is None:
        if lv > limit:
            raise ValueError(
                f"visual tokens ({lv}) exceed the frame budget "
                f"({params.frame_budget} frames x {params.patches} patches)")
    else:
        m = visual_key_mask.data
        if np.all((m == 0.0) | (m == 1.0)):
            worst = int(m.sum(axis=1).max())
            if worst > limit:
                raise ValueError(
                    f"masked-in tokens ({worst}) exceed the frame budget "
                    f"({params.frame_budget} frames x {params.patches} patches)")
    q = params.num_queries
    queries = T.broadcast_to(T.reshape(params.query_tokens, (1, q, d)), (b, q, d))
    seq = T.concat([queries, visual_tokens], axis=1)

    mask = None
    if visual_key_mask is not None:
        mask = T.concat([Tensor(np.ones((b, q))), visual_key_mask], axis=1)
    *body, last = params.self_attn
    for block in body:
        seq = nn.self_attention(block, seq, key_mask=mask)
    fused_queries = nn.cross_attention(last, T.narrow(seq, 1, 0, q), seq, key_mask=mask)
    return nn.cross_attention(params.cross_attn, text_tokens, fused_queries)


@dataclass
class DistillDecoderParams:
    """Maps student fusion output into the teacher's feature space: FC then LayerNorm."""

    decoder: nn.MlpParams

    @classmethod
    def init(cls, d_student: int, d_teacher: int, rng: np.random.Generator) -> "DistillDecoderParams":
        return cls(decoder=nn.MlpParams([nn.fc_step(d_student, d_teacher, rng), nn.ln_step(d_teacher)]))

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

