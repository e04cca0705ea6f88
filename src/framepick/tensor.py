"""Reverse-mode automatic differentiation over dense float64 arrays.

Every learnable operation in this repo goes through the ops defined here, so
each analytic gradient can be checked against central finite differences
(see `grad_check`). Graphs are recorded per forward pass as parent links plus
backward closures and are freed after `backward` runs; there is no support
for higher-order gradients.
"""

from __future__ import annotations

import numpy as np

_FINITE_CHECKS = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle NaN/Inf assertions after every forward op (slow, test-only)."""
    global _FINITE_CHECKS
    _FINITE_CHECKS = bool(enabled)


class Tensor:
    """Dense n-d float64 array with an optional gradient slot.

    `grad` is populated for `requires_grad` leaves by `backward`; tensors the
    loss never reached keep `grad = None`, which consumers read as zero.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bw", "_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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

    # Operators cover the small amount of scalar arithmetic the models need;
    # anything with a nontrivial gradient rule is a named op below.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _op(data: np.ndarray, inputs, bw) -> Tensor:
    """Build an op output, recording parents/backward only on a grad path."""
    if _FINITE_CHECKS and not np.all(np.isfinite(data)):
        raise FloatingPointError("non-finite values produced by a forward op")
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    if out.requires_grad:
        out._parents = tuple(t for t in inputs if t.requires_grad)
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


# ---------------------------------------------------------------------------
# elementwise arithmetic (with broadcasting)

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bw(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(g, b.data.shape))

    return _op(out_data, (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def bw(g):
        _acc(a, _unbroadcast(g, a.data.shape))
        _acc(b, _unbroadcast(-g, b.data.shape))

    return _op(out_data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bw(g):
        _acc(a, _unbroadcast(g * b.data, a.data.shape))
        _acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _op(out_data, (a, b), bw)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def bw(g):
        _acc(a, _unbroadcast(g / b.data, a.data.shape))
        _acc(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _op(out_data, (a, b), bw)


def exp(x: Tensor) -> Tensor:
    out_data = np.exp(x.data)

    def bw(g):
        _acc(x, g * out_data)

    return _op(out_data, (x,), bw)


def log(x: Tensor) -> Tensor:
    out_data = np.log(x.data)

    def bw(g):
        _acc(x, g / x.data)

    return _op(out_data, (x,), bw)


def masked_log(m: Tensor, floor: float = -1e9) -> Tensor:
    """log with log(0) mapped to `floor` and zero gradient at clamped entries.

    Used to turn attention masks in [0, 1] into additive logits: a hard zero
    removes a key exactly (softmax underflows to 0 after max subtraction).
    """
    positive = m.data > 0.0
    out_data = np.where(positive, np.log(np.where(positive, m.data, 1.0)), floor)

    def bw(g):
        _acc(m, np.where(positive, g / np.where(positive, m.data, 1.0), 0.0))

    return _op(out_data, (m,), bw)


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
    inverse = tuple(np.argsort(axes))
    out_data = np.transpose(x.data, axes)

    def bw(g):
        _acc(x, np.transpose(g, inverse))

    return _op(out_data, (x,), bw)


def broadcast_to(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    in_shape = x.data.shape
    out_data = np.broadcast_to(x.data, shape).copy()

    def bw(g):
        _acc(x, _unbroadcast(g, in_shape))

    return _op(out_data, (x,), bw)


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _acc(p, g[tuple(sl)])

    return _op(out_data, tuple(parts), bw)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; backward zero-pads."""
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out_data = x.data[sl].copy()

    def bw(g):
        full = np.zeros_like(x.data)
        full[sl] = g
        _acc(x, full)

    return _op(out_data, (x,), bw)


def take_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup `table[ids]`; backward scatter-adds into the table."""
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


def gather_frames(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select per-batch slices: out[b, s] = x[b, idx[b, s]] along axis 1."""
    idx = np.asarray(idx)
    batch = np.arange(x.data.shape[0])[:, None]
    out_data = x.data[batch, idx]

    def bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (batch, idx), g)
        _acc(x, gx)

    return _op(out_data, (x,), bw)


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
    out_data = x.data.mean(axis=axis)

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


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def bw(g):
        _acc(x, g - soft * g.sum(axis=axis, keepdims=True))

    return _op(out_data, (x,), bw)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def bw(g):
        _acc(x, g * (x.data > 0.0))

    return _op(out_data, (x,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if d == 0:
        raise ValueError("layer_norm over an empty last dimension")
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def bw(g):
        _acc(gain, _unbroadcast(g * xhat, gain.data.shape))
        _acc(bias, _unbroadcast(g, bias.data.shape))
        gx = g * gain.data
        term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
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

    Visits each recorded node exactly once in reverse topological order,
    sums gradients where a tensor feeds several consumers, then frees the
    graph; a second call on the same loss raises.
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
    for node in reversed(topo):
        if node._bw is not None:
            node._bw(node.grad)

    for node in topo:
        if node._bw is not None:
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
