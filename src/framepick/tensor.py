"""Reverse-mode automatic differentiation over dense float64 arrays.

Every learnable operation in this repo goes through the ops defined here, so
each analytic gradient can be checked against central finite differences
(see `grad_check`). Graphs are recorded per forward pass as parent links plus
backward closures and are freed after `backward` runs; there is no support
for higher-order gradients. Ops do not check their outputs for NaN or Inf;
the callers that must not see them check at their boundary (the stage loop
rejects a non-finite loss, AdamW a non-finite gradient and frame sampling
non-finite logits).

`attention` is single-head attention as one graph node with a
hand-written backward, where composing the other ops takes a dozen. It
runs the arrays, products and order of composing `matmul`, `transpose`,
`mul`, `reshape`, `add` and `softmax`, forward and backward, so its
results are bitwise those of the composition (tests/test_neural_blocks.py
keeps the composition as the reference); what it saves is the per-op
Tensor, closure and graph node.

Importing this module pins glibc's heap once, through `mallopt`:
M_MMAP_THRESHOLD goes to `HEAP_MMAP_THRESHOLD` (32 MiB, glibc's ceiling on
64-bit) and M_TRIM_THRESHOLD to `HEAP_TRIM_THRESHOLD` (256 MiB). By default
glibc serves each array above a dynamic mmap threshold from a fresh mmap
and returns freed memory at the top of the heap to the OS, so the
multi-megabyte arrays of a T=128 batch had their pages faulted in again on
every pass, and timings moved with how earlier work had left the heap.
With the pin those arrays come from the heap, and freed pages stay mapped
unless more than 256 MiB lies free at its top, so a steady-state pass
faults almost no pages. Where no C library with `mallopt` loads, the pin
does nothing and `HEAP_PINNED` is False.
"""

from __future__ import annotations

import ctypes

import numpy as np

# glibc's mallopt parameter numbers (<malloc.h>) and the values they are pinned to
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
HEAP_TRIM_THRESHOLD = 256 << 20
HEAP_MMAP_THRESHOLD = 32 << 20


def _pin_heap() -> bool:
    """Apply the heap pin; True if both `mallopt` calls took effect."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_ok = mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD) == 1
    trim_ok = mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD) == 1
    return mmap_ok and trim_ok


HEAP_PINNED = _pin_heap()


class Tensor:
    """Dense n-d float64 array with an optional gradient slot.

    `grad` is populated for `requires_grad` leaves by `backward`; tensors the
    loss never reached keep `grad = None`, which consumers read as zero.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bw", "_done")

    def __init__(self, data, requires_grad: bool = False):
        # an op output is already a float64 array; only other input is converted
        if type(data) is not np.ndarray or data.dtype != np.float64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._bw = None
        self._done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _op(data: np.ndarray, inputs, bw) -> Tensor:
    """Build an op output, recording parents/backward only on a grad path."""
    out = Tensor(data)
    parents = tuple(t for t in inputs if t.requires_grad)
    if parents:
        out.requires_grad = True
        out._parents = parents
        out._bw = bw
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise AssertionError(f"gradient shape {g.shape} != tensor shape {t.data.shape}")
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum out axes numpy broadcasting added or expanded."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if squeezed:
        g = g.sum(axis=squeezed, keepdims=True)
    return g.reshape(shape)


def _mean(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """`a.mean(axis)` without its dispatch: the same float64 sum and divide."""
    return np.add.reduce(a, axis, keepdims=keepdims) / a.shape[axis]


# ---------------------------------------------------------------------------
# elementwise arithmetic (with broadcasting)

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bw(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(g, b.data.shape))

    return _op(out_data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bw(g):
        _acc(a, _unbroadcast(g * b.data, a.data.shape))
        _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _op(out_data, (a, b), bw)


# ---------------------------------------------------------------------------
# shape ops

def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    in_shape = x.data.shape
    out_data = x.data.reshape(shape)

    def bw(g):
        _acc(x, g.reshape(in_shape))

    return _op(out_data, (x,), bw)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    out_data = x.data.transpose(axes)

    def bw(g):
        _acc(x, g.transpose(inverse))

    return _op(out_data, (x,), bw)


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p.data.shape[axis])

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _acc(p, g[tuple(sl)])

    return _op(out_data, tuple(parts), bw)


def take_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """The one row lookup: `table[ids]` for a [R, W] table and integer ids
    of any shape -> [*ids.shape, W]; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError("take_rows ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"row id out of range: ids in [{ids.min()}, {ids.max()}], table has {table.data.shape[0]} rows"
        )
    out_data = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        _acc(table, gt)

    return _op(out_data, (table,), bw)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul needs 2-d or stacked operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")
    out_data = np.matmul(a.data, b.data)

    def bw(g):
        # each product only for an operand that takes a gradient
        if a.requires_grad:
            _acc(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            _acc(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return _op(out_data, (a, b), bw)


def attention(queries: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, keys: Tensor,
              scale: float, key_bias: Tensor | None = None, basis: Tensor | None = None) -> Tensor:
    """Single-head attention as one op: softmax(s * scale + key_bias) over
    the keys, then Wo, with logits s = ((queries Wq) Wk^T [basis^T]) keys^T
    and values ((A keys) [basis]) Wv.

    queries: [Lq, d] (shared by every batch row) or [b, Lq, d]; keys:
    [b, Lk, d], or [b, Lk, K] coefficients over a [K, d] `basis`; key_bias:
    [b, Lk]. The arrays, products and their order are those of composing
    `matmul`, `transpose`, `mul`, `reshape`, `add` and `softmax`, forward
    and backward, so results are bitwise those of the composition. Gradient
    terms are added in the composition's order too: keys take their value
    term, then their query term (self-attention), then their logit term;
    the basis its value term, then its query term. `nn.cross_attention`
    checks the shapes.
    """
    b, lk = keys.data.shape[:2]
    q1 = np.matmul(queries.data, wq.data)
    q2 = np.matmul(q1, wk.data.T)
    q = q2 if basis is None else np.matmul(q2, basis.data.T)
    logits = np.matmul(q, keys.data.transpose(0, 2, 1)) * scale
    if key_bias is not None:
        logits = logits + key_bias.data.reshape(b, 1, lk)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    mixed0 = np.matmul(weights, keys.data)
    mixed = mixed0 if basis is None else np.matmul(mixed0, basis.data)
    h = np.matmul(mixed, wv.data)
    out_data = np.matmul(h, wo.data)
    inputs = (queries, wq, wk, wv, wo, keys) + tuple(t for t in (key_bias, basis) if t is not None)

    def bw(g):
        # each product only where an input takes a gradient through it
        query_side = any(t is not None and t.requires_grad for t in (queries, wq, wk, basis))
        logit_side = query_side or keys.requires_grad or (key_bias is not None and key_bias.requires_grad)
        if wo.requires_grad:
            _acc(wo, _unbroadcast(np.matmul(np.swapaxes(h, -1, -2), g), wo.data.shape))
        if not (logit_side or wv.requires_grad):
            return
        g = np.matmul(g, wo.data.T)
        if wv.requires_grad:
            _acc(wv, _unbroadcast(np.matmul(np.swapaxes(mixed, -1, -2), g), wv.data.shape))
        if not logit_side:
            return
        g = np.matmul(g, wv.data.T)
        if basis is not None:
            if basis.requires_grad:
                _acc(basis, _unbroadcast(np.matmul(np.swapaxes(mixed0, -1, -2), g), basis.data.shape))
            g = np.matmul(g, basis.data.T)
        if keys.requires_grad:
            _acc(keys, np.matmul(np.swapaxes(weights, -1, -2), g))
        g = np.matmul(g, np.swapaxes(keys.data, -1, -2))
        g = weights * (g - (g * weights).sum(axis=-1, keepdims=True))
        if key_bias is not None and key_bias.requires_grad:
            _acc(key_bias, _unbroadcast(g, (b, 1, lk)).reshape(b, lk))
        g = g * scale
        if keys.requires_grad:
            keys_grad = np.matmul(np.swapaxes(q, -1, -2), g).transpose(0, 2, 1)
        if query_side:
            g = _unbroadcast(np.matmul(g, keys.data), q.shape)
            if basis is not None:
                if basis.requires_grad:
                    _acc(basis, _unbroadcast(np.matmul(np.swapaxes(q2, -1, -2), g), basis.data.T.shape).T)
                g = np.matmul(g, basis.data)
            if wk.requires_grad:
                _acc(wk, _unbroadcast(np.matmul(np.swapaxes(q1, -1, -2), g), wk.data.T.shape).T)
            g = np.matmul(g, wk.data)
            if queries.requires_grad:
                _acc(queries, _unbroadcast(np.matmul(g, wq.data.T), queries.data.shape))
            if wq.requires_grad:
                _acc(wq, _unbroadcast(np.matmul(np.swapaxes(queries.data, -1, -2), g), wq.data.shape))
        if keys.requires_grad:
            _acc(keys, keys_grad)

    return _op(out_data, inputs, bw)


# ---------------------------------------------------------------------------
# reductions and normalizations

def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum())

    def bw(g):
        _acc(x, np.broadcast_to(g, x.data.shape).copy())

    return _op(out_data, (x,), bw)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ValueError(f"axis {axis} invalid for shape {x.data.shape}")
    axis = axis % x.data.ndim
    n = x.data.shape[axis]
    out_data = _mean(x.data, axis)

    def bw(g):
        _acc(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape) / n)

    return _op(out_data, (x,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax; rows along `axis` sum to 1."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _acc(x, out_data * (g - inner))

    return _op(out_data, (x,), bw)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def bw(g):
        _acc(x, g * (x.data > 0.0))

    return _op(out_data, (x,), bw)


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (variance plus
    LAYER_NORM_EPS), then affine."""
    if x.data.shape[-1] == 0:
        raise ValueError("layer_norm over an empty last dimension")
    mu = _mean(x.data, -1, keepdims=True)
    xc = x.data - mu
    var = _mean(xc * xc, -1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bw(g):
        _acc(gain, _unbroadcast(g * xhat, gain.data.shape))
        _acc(bias, _unbroadcast(g, bias.data.shape))
        gx = g * gain.data
        term = gx - _mean(gx, -1, keepdims=True) - xhat * _mean(gx * xhat, -1, keepdims=True)
        _acc(x, term * inv)

    return _op(out_data, (x, gain, bias), bw)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target]."""
    targets = np.asarray(targets)
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy expects [batch, classes] logits, got {logits.data.shape}")
    b, k = logits.data.shape
    if targets.shape != (b,):
        raise ValueError(f"targets shape {targets.shape} does not match batch {b}")
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise IndexError(f"target out of range for {k} classes")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    out_data = np.asarray(-logp[np.arange(b), targets].mean())
    soft = np.exp(logp)

    def bw(g):
        gl = soft.copy()
        gl[np.arange(b), targets] -= 1.0
        _acc(logits, gl * (g / b))

    return _op(out_data, (logits,), bw)


def mse(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mse shape mismatch: {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    n = diff.size
    out_data = np.asarray((diff * diff).mean())

    def bw(g):
        _acc(a, g * 2.0 * diff / n)
        _acc(b, g * (-2.0) * diff / n)

    return _op(out_data, (a, b), bw)


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss.

    Visits each recorded node exactly once in reverse topological order and
    sums gradients where a tensor feeds several consumers. Each node lets go
    of its inputs, closure and gradient as soon as its own backward has run,
    so a step's buffers are freed while later ones are still to be
    allocated; a second call on the same loss raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._done:
        raise RuntimeError("backward already called on this graph; rerun the forward pass")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()   # reverse topological order; drops the list's reference
        if node._bw is not None:
            node._bw(node.grad)
            node._bw = None
            node._parents = ()
            if node is not loss:
                node.grad = None
    loss._done = True


# ---------------------------------------------------------------------------
# finite-difference oracle

class GradCheckReport:
    """Outcome of one finite-difference comparison."""

    def __init__(self, name, max_rel_err, tol):
        self.name = name
        self.max_rel_err = float(max_rel_err)
        self.tol = float(tol)
        self.passed = self.max_rel_err <= self.tol

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"GradCheckReport({self.name}: max_rel_err={self.max_rel_err:.3e}, tol={self.tol:.0e}, {status})"


def grad_check(f, x: Tensor, eps: float = 1e-4, tol: float = 1e-5, name: str = "f") -> GradCheckReport:
    """Compare the analytic gradient of scalar-valued `f` at `x` against
    central finite differences.

    `f` must be deterministic (verified with two forward passes) and `x` is
    expected to sit away from non-smooth points of `f` (relu kinks, argmax
    ties); callers jitter their samples accordingly.
    """
    x = Tensor(x.data.copy(), requires_grad=True)
    out1 = f(x)
    out2 = f(Tensor(x.data.copy(), requires_grad=True))
    if not np.array_equal(out1.data, out2.data):
        raise RuntimeError("grad_check requires a deterministic function; two forward passes differ")
    if out1.data.size != 1:
        raise ValueError("grad_check requires a scalar-valued function")
    backward(out1)
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(Tensor(x.data)).item()
        flat[i] = orig - eps
        lo = f(Tensor(x.data)).item()
        flat[i] = orig
        num_flat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    max_rel = np.abs(analytic - numeric) / denom
    return GradCheckReport(name, max_rel.max() if max_rel.size else 0.0, tol)
