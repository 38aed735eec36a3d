"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built eagerly (define-by-run) and discarded with the Python
objects that reference them.  ``backward`` walks a deterministic
topological order, so two runs over identical graphs produce bit-identical
adjoints.  Everything is single-threaded; ``Tensor.data`` may be shared
read-only, while parameter updates (``Adam.step``) require exclusive
access.

A node's backward closure receives the node's adjoint as its argument and
must never capture the node itself: a graph then holds no reference
cycle, so its arrays are freed as soon as the last reference drops rather
than whenever the cyclic garbage collector next runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import special
from .errors import ContractError, DomainError, ShapeError


class Tensor:
    """Graph node: a float64 ndarray plus a lazily allocated adjoint."""

    __slots__ = ("data", "grad", "op", "_parents", "_backward")

    def __init__(self, data, parents=(), op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.op = op
        self._parents = tuple(parents)
        self._backward = None  # each op assigns its closure after construction

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item: tensor has shape {self.shape}, not scalar")
        return self.data.item()

    def detach(self):
        """New leaf sharing this node's array; gradients stop here."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.shape})"

    # arithmetic operators; plain numbers and arrays are lifted to leaves
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    # method aliases for the unary/reduction ops
    def relu(self):
        return relu(self)

    def abs(self):
        return absolute(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log_(self)

    def sigmoid(self):
        return sigmoid(self)

    def softplus(self):
        return softplus(self)

    def softmax_rows(self):
        return softmax_rows(self)

    def digamma(self):
        return digamma(self)

    def lgamma(self):
        return lgamma(self)

    def clamp(self, lo=None, hi=None):
        return clamp(self, lo, hi)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean_(self, axis=axis, keepdims=keepdims)

    def transpose(self):
        return transpose(self)

    def reshape(self, shape):
        return reshape(self, shape)

    def take(self, index, axis):
        return take(self, index, axis)


def lift(x):
    """Wrap plain numbers/arrays as leaf tensors; passes tensors through."""
    return x if isinstance(x, Tensor) else Tensor(x)


_lift = lift


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _accum(t, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += _unbroadcast(g, t.data.shape)


def _check_broadcast(op, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from exc


# ---------------------------------------------------------------------------
# binary ops


def add(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast("add", a, b)
    out = Tensor(a.data + b.data, (a, b), "add")

    def bwd(grad):
        _accum(a, grad)
        _accum(b, grad)

    out._backward = bwd
    return out


def sub(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast("sub", a, b)
    out = Tensor(a.data - b.data, (a, b), "sub")

    def bwd(grad):
        _accum(a, grad)
        _accum(b, -grad)

    out._backward = bwd
    return out


def mul(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast("mul", a, b)
    out = Tensor(a.data * b.data, (a, b), "mul")

    def bwd(grad):
        _accum(a, grad * b.data)
        _accum(b, grad * a.data)

    out._backward = bwd
    return out


def div(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast("div", a, b)
    out = Tensor(a.data / b.data, (a, b), "div")

    def bwd(grad):
        _accum(a, grad / b.data)
        _accum(b, -grad * a.data / (b.data * b.data))

    out._backward = bwd
    return out


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-d, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError as exc:
        raise ShapeError(f"matmul: batch dims incompatible, {a.shape} @ {b.shape}") from exc
    out = Tensor(np.matmul(a.data, b.data), (a, b), "matmul")

    def bwd(grad):
        g = grad
        _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# unary ops


def neg(a):
    a = _lift(a)
    out = Tensor(-a.data, (a,), "neg")

    def bwd(grad):
        _accum(a, -grad)

    out._backward = bwd
    return out


def relu(a):
    a = _lift(a)
    out = Tensor(np.maximum(a.data, 0.0), (a,), "relu")
    # subgradient at 0 is 0: dead units stay dead deterministically
    active = a.data > 0.0

    def bwd(grad):
        _accum(a, grad * active)

    out._backward = bwd
    return out


def absolute(a):
    a = _lift(a)
    out = Tensor(np.abs(a.data), (a,), "abs")
    sign = np.sign(a.data)

    def bwd(grad):
        _accum(a, grad * sign)

    out._backward = bwd
    return out


def exp(a):
    a = _lift(a)
    value = np.exp(a.data)
    out = Tensor(value, (a,), "exp")

    def bwd(grad):
        _accum(a, grad * value)

    out._backward = bwd
    return out


def log_(a):
    a = _lift(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: input must be strictly positive")
    out = Tensor(np.log(a.data), (a,), "log")

    def bwd(grad):
        _accum(a, grad / a.data)

    out._backward = bwd
    return out


def _sigmoid(x):
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(a):
    a = _lift(a)
    s = _sigmoid(a.data)
    out = Tensor(s, (a,), "sigmoid")

    def bwd(grad):
        _accum(a, grad * s * (1.0 - s))

    out._backward = bwd
    return out


def softplus(a):
    a = _lift(a)
    out = Tensor(np.logaddexp(0.0, a.data), (a,), "softplus")

    def bwd(grad):
        _accum(a, grad * _sigmoid(a.data))

    out._backward = bwd
    return out


def softmax_rows(a):
    a = _lift(a)
    if a.data.ndim < 1:
        raise ShapeError("softmax_rows: needs at least one axis")
    z = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    s = z / z.sum(axis=-1, keepdims=True)
    out = Tensor(s, (a,), "softmax_rows")

    def bwd(grad):
        g = grad
        inner = (g * s).sum(axis=-1, keepdims=True)
        _accum(a, (g - inner) * s)

    out._backward = bwd
    return out


def digamma(a):
    a = _lift(a)
    out = Tensor(special.digamma(a.data), (a,), "digamma")

    def bwd(grad):
        _accum(a, grad * special.trigamma(a.data))

    out._backward = bwd
    return out


def lgamma(a):
    a = _lift(a)
    out = Tensor(special.lgamma(a.data), (a,), "lgamma")

    def bwd(grad):
        _accum(a, grad * special.digamma(a.data))

    out._backward = bwd
    return out


def clamp(a, lo=None, hi=None):
    a = _lift(a)
    out = Tensor(np.clip(a.data, lo, hi), (a,), "clamp")
    passthrough = np.ones_like(a.data, dtype=bool)
    if lo is not None:
        passthrough &= a.data > lo
    if hi is not None:
        passthrough &= a.data < hi

    def bwd(grad):
        _accum(a, grad * passthrough)

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# shape and reduction ops


def transpose(a):
    a = _lift(a)
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: needs >= 2 axes, got {a.shape}")
    out = Tensor(np.swapaxes(a.data, -1, -2), (a,), "transpose")

    def bwd(grad):
        _accum(a, np.swapaxes(grad, -1, -2))

    out._backward = bwd
    return out


def _expand_reduced(grad, in_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(grad, in_shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(ax % len(in_shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, in_shape)


def sum_(a, axis=None, keepdims=False):
    a = _lift(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), (a,), "sum")

    def bwd(grad):
        _accum(a, _expand_reduced(grad, a.data.shape, axis, keepdims))

    out._backward = bwd
    return out


def mean_(a, axis=None, keepdims=False):
    a = _lift(a)
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims), (a,), "mean")
    count = max(a.data.size // max(out.data.size, 1), 1)

    def bwd(grad):
        _accum(a, _expand_reduced(grad, a.data.shape, axis, keepdims) / count)

    out._backward = bwd
    return out


def reshape(a, shape):
    a = _lift(a)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")
    out = Tensor(a.data.reshape(shape), (a,), "reshape")

    def bwd(grad):
        _accum(a, grad.reshape(a.data.shape))

    out._backward = bwd
    return out


def stack(tensors, axis=0):
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ContractError("stack: needs at least one tensor")
    first = tensors[0].shape
    if any(t.shape != first for t in tensors):
        raise ShapeError(f"stack: mixed shapes {[t.shape for t in tensors]}")
    out = Tensor(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), "stack")

    def bwd(grad):
        for i, t in enumerate(tensors):
            _accum(t, np.take(grad, i, axis=axis))

    out._backward = bwd
    return out


def take(a, index, axis):
    a = _lift(a)
    if not 0 <= index < a.shape[axis]:
        raise ShapeError(f"take: index {index} out of range for axis {axis} of {a.shape}")
    out = Tensor(np.take(a.data, index, axis=axis), (a,), "take")

    def bwd(grad):
        g = np.zeros_like(a.data)
        sl = [slice(None)] * a.data.ndim
        sl[axis] = index
        g[tuple(sl)] = grad
        _accum(a, g)

    out._backward = bwd
    return out


# ---------------------------------------------------------------------------
# backward pass


def backward(root):
    """Populate adjoints of every node reachable from the scalar ``root``."""
    if root.size != 1:
        raise ContractError(f"backward: root must be scalar, got shape {root.shape}")
    topo = []
    visited = set()
    stack_ = [(root, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack_.append((node, True))
        for parent in node._parents:
            stack_.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with decoupled weight decay over a fixed parameter list."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=1e-5):
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.moment1 = [np.zeros_like(p.data) for p in self.params]
        self.moment2 = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update over all parameters; zeroes adjoints afterwards."""
        for p in self.params:
            if p.grad is None:
                raise ContractError("adam_step: parameter is missing its adjoint")
        self.step_count += 1
        b1, b2 = self.betas
        corr1 = 1.0 - b1 ** self.step_count
        corr2 = 1.0 - b2 ** self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            self.moment1[i] = b1 * self.moment1[i] + (1.0 - b1) * g
            self.moment2[i] = b2 * self.moment2[i] + (1.0 - b2) * g * g
            m_hat = self.moment1[i] / corr1
            v_hat = self.moment2[i] / corr2
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)
        self.zero_grad()

    def zero_grad(self):
        zero_grads(self.params)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Per-parameter maximum relative error of adjoints vs central differences."""

    rel_errors: dict = field(default_factory=dict)
    h: float = 1e-5
    tol: float = 1e-4

    @property
    def max_rel_error(self):
        return max(self.rel_errors.values()) if self.rel_errors else 0.0

    @property
    def passed(self):
        return self.max_rel_error < self.tol


def grad_check(f, params, h=1e-5, tol=1e-4):
    """Compare analytic adjoints of ``f()`` against central finite differences.

    ``f`` must be a zero-argument callable that rebuilds the scalar loss
    graph from the ``params`` leaves on every call; parameter data is
    perturbed in place, one entry at a time.
    """
    zero_grads(params)
    root = f()
    if root.size != 1:
        raise ContractError("grad_check: f() must return a scalar tensor")
    backward(root)
    analytic = [
        (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for p in params
    ]
    zero_grads(params)

    report = GradCheckReport(h=h, tol=tol)
    for idx, p in enumerate(params):
        flat = p.data.reshape(-1)
        ana = analytic[idx].reshape(-1)
        worst = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            f_plus = f().item()
            flat[j] = orig - h
            f_minus = f().item()
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(ana[j]), abs(numeric), 1e-6)
            worst = max(worst, abs(ana[j] - numeric) / denom)
        report.rel_errors[f"param{idx}"] = worst
    return report
