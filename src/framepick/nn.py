"""Attention and MLP building blocks shared by the frame selector and the
query-token fusion models.

Attention here is the bare single-head scaled-dot-product kind: no
residuals, no feed-forward sublayers, no positional terms (callers inject
positions as additive embeddings when they need them). An optional per-key
bias is added to the attention logits; a zero-valued bias that takes a
gradient measures how much each key matters to a loss (the teacher's frame
saliency in `trainer.teacher_targets`). Keys and values enter unprojected:
Wk and Wv act on the query side, so Q queries over L tokens cost
O(Q·L·d + Q·d²), no key/value projection of the L tokens. Keys may also
arrive factored, as coefficients over a small basis (`cross_attention`'s
`basis`); the basis then joins Wk and Wv on the query side, and the L
tokens are never formed at width d. Each attention is one op,
`tensor.attention`, bitwise the composition of primitives it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class AttentionParams:
    """Projection weights for one single-head attention block (no biases)."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor

    @classmethod
    def init(cls, d_model: int, rng: np.random.Generator) -> "AttentionParams":
        scale = 1.0 / math.sqrt(d_model)

        def w():
            return Tensor(rng.normal(size=(d_model, d_model)) * scale, requires_grad=True)

        return cls(wq=w(), wk=w(), wv=w(), wo=w())

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.wq": self.wq, f"{prefix}.wk": self.wk,
                f"{prefix}.wv": self.wv, f"{prefix}.wo": self.wo}


def cross_attention(params: AttentionParams, queries: Tensor, keys_values: Tensor,
                    key_bias: Tensor | None = None, basis: Tensor | None = None) -> Tensor:
    """softmax(Q K^T / sqrt(d) + key_bias) V, then Wo.

    queries: [b, Lq, d] or [Lq, d] (the same queries for every batch row);
    keys_values: [b, Lk, d]; key_bias: optional [b, Lk], added to every
    query's logits.

    Wk and Wv are applied on the query side: the logits are
    ((Xq Wq) Wk^T) X^T and the output is ((A X) Wv) Wo. That costs
    O(Q·L·d + Q·d²), no key/value projection of the L tokens, and equals
    the projected form up to rounding.

    With a [K, d] `basis`, keys_values holds [b, Lk, K] coefficients and the
    keys are X = keys_values @ basis, which is never formed: the basis goes
    on the query side too, so the logits are ((Xq Wq) Wk^T basis^T) X'^T
    and the output ((A X') basis) Wv Wo, for X' = keys_values. The cost is
    O(Q·L·K + Q·K·d + Q·d²), and no [b, Lk, d] array is formed.

    The whole attention is one op, `tensor.attention`, whose backward is
    written by hand and is bitwise that of composing the primitives.
    """
    key_width = params.d_model if basis is None else basis.shape[0]
    if queries.shape[-1] != params.d_model or keys_values.shape[-1] != key_width:
        raise ValueError(
            f"query width must equal d_model={params.d_model} and key width {key_width}, "
            f"got {queries.shape[-1]} / {keys_values.shape[-1]}")
    if key_bias is not None and key_bias.shape != keys_values.shape[:2]:
        raise ValueError(f"key_bias shape {key_bias.shape} does not match keys {keys_values.shape[:2]}")
    return T.attention(queries, params.wq, params.wk, params.wv, params.wo, keys_values,
                       1.0 / math.sqrt(params.d_model), key_bias=key_bias, basis=basis)


def self_attention(params: AttentionParams, tokens: Tensor, key_bias: Tensor | None = None) -> Tensor:
    """Cross-attention with queries == keys_values."""
    return cross_attention(params, tokens, tokens, key_bias=key_bias)


@dataclass
class MlpParams:
    """An ordered stack of fully-connected, layer-norm and relu steps.

    steps entries:
      ("fc", weight, bias_or_None)
      ("ln", gain, bias)         layer norm (eps `tensor.LAYER_NORM_EPS`)
      ("act",)                   the relu activation
    Consecutive fc shapes must compose; `mlp_apply` raises otherwise.
    """

    steps: list = field(default_factory=list)

    def named(self, prefix: str) -> dict:
        out = {}
        for i, step in enumerate(self.steps):
            if step[0] == "fc":
                out[f"{prefix}.{i}.w"] = step[1]
                if step[2] is not None:
                    out[f"{prefix}.{i}.b"] = step[2]
            elif step[0] == "ln":
                out[f"{prefix}.{i}.gain"] = step[1]
                out[f"{prefix}.{i}.bias"] = step[2]
        return out


def fc_step(d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True,
            scale: float | None = None):
    scale = 1.0 / math.sqrt(d_in) if scale is None else scale
    w = Tensor(rng.normal(size=(d_in, d_out)) * scale, requires_grad=True)
    b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None
    return ("fc", w, b)


def ln_step(d: int):
    return ("ln", Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True))


def act_step():
    return ("act",)


def mlp_apply(params: MlpParams, x: Tensor) -> Tensor:
    """Apply the declared steps in order; x is [..., d_in]."""
    for step in params.steps:
        kind = step[0]
        if kind == "fc":
            _, w, b = step
            if x.shape[-1] != w.shape[0]:
                raise ValueError(f"fc input width {x.shape[-1]} does not match weight {w.shape}")
            x = T.matmul(x, w)
            if b is not None:
                x = T.add(x, b)
        elif kind == "ln":
            _, gain, bias = step
            if x.shape[-1] != gain.shape[0]:
                raise ValueError(f"layer-norm width {gain.shape[0]} does not match input {x.shape[-1]}")
            x = T.layer_norm(x, gain, bias)
        elif kind == "act":
            x = T.relu(x)
        else:
            raise ValueError(f"unknown mlp step {kind!r}")
    return x
