"""Attention and MLP building blocks shared by the frame selector and the
query-token fusion models.

Attention here is the bare scaled-dot-product kind: no residuals, no
feed-forward sublayers, no positional terms (callers inject positions as
additive embeddings when they need them). Soft key masks enter the logits
additively through `masked_log`, so a hard 0/1 mask removes keys exactly
while a relaxed mask in (0, 1) keeps a well-defined gradient path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class AttentionParams:
    """Projection weights for one multi-head attention block (no biases)."""

    d_model: int
    num_heads: int
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor

    def __post_init__(self):
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"num_heads {self.num_heads} must divide d_model {self.d_model}")

    @classmethod
    def init(cls, d_model: int, num_heads: int, rng: np.random.Generator) -> "AttentionParams":
        scale = 1.0 / math.sqrt(d_model)

        def w():
            return Tensor(rng.normal(size=(d_model, d_model)) * scale, requires_grad=True)

        return cls(d_model=d_model, num_heads=num_heads, wq=w(), wk=w(), wv=w(), wo=w())

    def named(self, prefix: str) -> dict:
        return {f"{prefix}.wq": self.wq, f"{prefix}.wk": self.wk,
                f"{prefix}.wv": self.wv, f"{prefix}.wo": self.wo}


def _split_heads(x: Tensor, num_heads: int) -> Tensor:
    b, length, d = x.shape
    x = T.reshape(x, (b, length, num_heads, d // num_heads))
    return T.transpose(x, (0, 2, 1, 3))  # [b, h, L, dh]


def _merge_heads(x: Tensor) -> Tensor:
    b, h, length, dh = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), (b, length, h * dh))


def cross_attention(params: AttentionParams, queries: Tensor, keys_values: Tensor,
                    key_mask: Tensor | None = None, return_weights: bool = False):
    """softmax(Q K^T / sqrt(d_head) + log mask) V per head, then Wo.

    queries: [b, Lq, d]; keys_values: [b, Lk, d]; key_mask: optional [b, Lk]
    with entries in [0, 1] (hard 0/1 masks remove keys exactly).
    """
    if queries.shape[-1] != params.d_model or keys_values.shape[-1] != params.d_model:
        raise ValueError(
            f"token width must equal d_model={params.d_model}, got {queries.shape[-1]} / {keys_values.shape[-1]}")
    if key_mask is not None:
        if key_mask.shape != keys_values.shape[:2]:
            raise ValueError(f"key_mask shape {key_mask.shape} does not match keys {keys_values.shape[:2]}")
        if np.any(key_mask.data.sum(axis=1) == 0.0):
            raise ValueError("no attendable keys: a mask row is entirely zero")

    b, lk, _ = keys_values.shape
    dh = params.d_model // params.num_heads
    q = _split_heads(T.matmul(queries, params.wq), params.num_heads)
    k = _split_heads(T.matmul(keys_values, params.wk), params.num_heads)
    v = _split_heads(T.matmul(keys_values, params.wv), params.num_heads)

    logits = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    if key_mask is not None:
        logits = T.add(logits, T.reshape(T.masked_log(key_mask), (b, 1, 1, lk)))
    weights = T.softmax(logits, axis=-1)  # [b, h, Lq, Lk]
    context = _merge_heads(T.matmul(weights, v))
    out = T.matmul(context, params.wo)
    if return_weights:
        return out, weights
    return out


def self_attention(params: AttentionParams, tokens: Tensor,
                   key_mask: Tensor | None = None, return_weights: bool = False):
    """Cross-attention with queries == keys_values."""
    return cross_attention(params, tokens, tokens, key_mask=key_mask, return_weights=return_weights)


@dataclass
class MlpParams:
    """An ordered stack of fully-connected, layer-norm and relu steps.

    steps entries:
      ("fc", weight, bias_or_None)
      ("ln", gain, bias, eps)
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


def ln_step(d: int, eps: float = 1e-5):
    return ("ln", Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True), eps)


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
            _, gain, bias, eps = step
            if x.shape[-1] != gain.shape[0]:
                raise ValueError(f"layer-norm width {gain.shape[0]} does not match input {x.shape[-1]}")
            x = T.layer_norm(x, gain, bias, eps)
        elif kind == "act":
            x = T.relu(x)
        else:
            raise ValueError(f"unknown mlp step {kind!r}")
    return x
