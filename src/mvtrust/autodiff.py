"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built eagerly (define-by-run) and discarded with the Python
objects that reference them.  ``backward`` walks a deterministic
topological order, so two runs over identical graphs produce bit-identical
adjoints.  Everything is single-threaded; ``Tensor.data`` may be shared
read-only, while parameter updates (``Adam.step``) require exclusive
access.

Every op is a ``Tensor`` method or operator that computes its forward value
and hands it to ``_node`` with its parents and one adjoint closure per
parent, in parent order.  Closure ``i`` maps the node's adjoint to the
adjoint of parent ``i``; that adjoint may still carry broadcast axes, which
``backward`` alone sums away before adding it into ``parent.grad``.  A
closure captures the arrays it needs, never the node itself: a graph then
holds no reference cycle, so its arrays are freed as soon as the last
reference drops rather than whenever the cyclic garbage collector next runs.

``transpose`` returns a view of its input.  numpy reduces an array that
is not C-ordered in memory order, so a sum over a transposed view can
differ from the same sum over a copy in the last bit; ``contiguous()``
copies a value into C order where that summation order matters.

Only tensors that require a gradient get one.  An explicit ``Tensor(data)``
leaf, such as a parameter, requires one.  ``lift()`` of a plain number or
array and ``detach()`` make constants, and ``_node`` returns a parentless
constant when no parent requires a gradient, so a constant never holds a
graph.  ``backward`` neither visits a constant nor calls the closure of a
constant parent, so no op computes an adjoint that would be dropped; a
fused loss node, below, is the exception.  Only ``_node``, ``dense`` and
``backward`` read ``requires_grad``.  Inside ``no_grad()`` every op returns
a constant, so inference builds no graph at all.

``backward`` stores a node's first adjoint into ``np.empty_like(data)`` and
adds later ones in with ``+=``.  The stored array takes the layout of the
node's value, as ``np.zeros_like`` would, not the layout of the adjoint.
A node reached through ``transpose`` receives a transposed adjoint; kept
in that layout, the sums in later closures and matmuls over it would run
in another memory order and move the last bit of a parameter.

A fused node (``fused``) stands for a whole composed graph, such as a
loss, in one node.  Its parent tuple may name a parent more than once: it
holds one entry per path by which the composed graph delivers an adjoint
to an outside node, in the order in which ``backward`` would deliver them.
One ``vjp`` maps the node's adjoint to every entry's adjoint at once,
running the composed graph's closures and reductions in their order; the
first closure ``backward`` calls runs it and the others take their entry
from its result, which drops each entry once it is taken, so a graph
with fused nodes is walked by ``backward`` once.  The entry of a constant
parent is never taken, so a ``vjp`` may leave it ``None``, as ``dense``
does.  ``backward``
then unbroadcasts and adds each entry on its own, so every sum into a
parent's ``grad`` runs in the composed graph's order and the adjoints are
bit-identical to it.  One topology breaks that: where an input feeds
another input that comes first in the parent tuple, as ``x`` does in
``conflict_degree(x + 1, x)``, the composed graph adds that path into
``x`` between its own two, so the same terms are summed in another order.
No caller in the package passes such inputs.  ``unbroadcast`` serves the
reductions inside a ``vjp``.

``dense`` is the fused node of a stack of dense layers.  Each activation
is one ``Activation`` whose adjoint reads only the activation's output, so
the ``Tensor`` methods and ``dense`` share it and ``dense`` can run the
activation in place.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DomainError, ShapeError


class Tensor:
    """Graph node: a float64 ndarray plus a lazily allocated adjoint.

    ``requires_grad`` is True for an explicit ``Tensor(data)`` and for every
    node built from one outside ``no_grad()``; see the module docstring.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_adjoints")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = True
        self._parents = ()
        self._adjoints = ()

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
        """Constant sharing this node's array; gradients stop here."""
        return _constant(self.data)

    # -- binary ops; plain numbers and arrays are lifted to constants --------

    def __add__(self, other):
        other = lift(other)
        _check_broadcast("add", self, other)
        return _node(self.data + other.data, (self, other), (lambda g: g, lambda g: g))

    def __sub__(self, other):
        other = lift(other)
        _check_broadcast("sub", self, other)
        return _node(self.data - other.data, (self, other), (lambda g: g, lambda g: -g))

    def __mul__(self, other):
        other = lift(other)
        _check_broadcast("mul", self, other)
        a, b = self.data, other.data
        return _node(a * b, (self, other), (lambda g: g * b, lambda g: g * a))

    def __truediv__(self, other):
        other = lift(other)
        _check_broadcast("div", self, other)
        a, b = self.data, other.data
        return _node(a / b, (self, other), (lambda g: g / b, lambda g: -g * a / (b * b)))

    def __matmul__(self, other):
        other = lift(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul: operands must be >= 2-d, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
        try:
            np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError as exc:
            raise ShapeError(f"matmul: batch dims incompatible, {a.shape} @ {b.shape}") from exc

        return _node(np.matmul(a, b), (self, other), (
            lambda g: np.matmul(g, np.swapaxes(b, -1, -2)),
            lambda g: np.matmul(np.swapaxes(a, -1, -2), g),
        ))

    def __rsub__(self, other):
        return lift(other) - self

    def __rmul__(self, other):
        return lift(other) * self

    def __rtruediv__(self, other):
        return lift(other) / self

    # -- elementwise unary ops -----------------------------------------------

    def __neg__(self):
        return _node(-self.data, (self,), (lambda g: -g,))

    def relu(self):
        return self._activate(RELU)

    def exp(self):
        value = np.exp(self.data)
        return _node(value, (self,), (lambda g: g * value,))

    def log(self):
        a = self.data
        if np.any(a <= 0.0):
            raise DomainError("log: input must be strictly positive")
        return _node(np.log(a), (self,), (lambda g: g / a,))

    def sigmoid(self):
        return self._activate(SIGMOID)

    def softmax_rows(self):
        if self.data.ndim < 1:
            raise ShapeError("softmax_rows: needs at least one axis")
        return self._activate(SOFTMAX_ROWS)

    def _activate(self, activation):
        value = activation.forward(self.data)
        return _node(value, (self,), (lambda g: activation.adjoint(g, value),))

    def clamp(self, lo=None, hi=None):
        passthrough = np.ones_like(self.data, dtype=bool)
        if lo is not None:
            passthrough &= self.data > lo
        if hi is not None:
            passthrough &= self.data < hi
        return _node(np.clip(self.data, lo, hi), (self,), (lambda g: g * passthrough,))

    # -- shape and reduction ops ---------------------------------------------

    def transpose(self, a=-2, b=-1):
        """Swap axes ``a`` and ``b``; the value is a view, not a copy."""
        if self.data.ndim < 2:
            raise ShapeError(f"transpose: needs >= 2 axes, got {self.shape}")
        return _node(np.swapaxes(self.data, a, b), (self,), (lambda g: np.swapaxes(g, a, b),))

    def contiguous(self):
        """C-ordered copy of the value; see the module docstring."""
        return _node(np.ascontiguousarray(self.data), (self,), (lambda g: g,))

    def sum(self, axis=None, keepdims=False):
        shape = self.shape
        return _node(
            self.data.sum(axis=axis, keepdims=keepdims),
            (self,),
            (lambda g: _expand_reduced(g, shape, axis, keepdims),),
        )

    def mean(self, axis=None, keepdims=False):
        shape = self.shape
        value = self.data.mean(axis=axis, keepdims=keepdims)
        count = max(self.data.size // max(value.size, 1), 1)
        return _node(value, (self,), (lambda g: _expand_reduced(g, shape, axis, keepdims) / count,))

    def reshape(self, shape):
        if int(np.prod(shape)) != self.data.size:
            raise ShapeError(f"reshape: cannot view {self.shape} as {tuple(shape)}")
        old = self.shape
        return _node(self.data.reshape(shape), (self,), (lambda g: g.reshape(old),))


def lift(x):
    """Wrap plain numbers/arrays as constants; passes tensors through."""
    return x if isinstance(x, Tensor) else _constant(x)


def _constant(value):
    out = Tensor(value)
    out.requires_grad = False
    return out


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Within the block every op returns a constant; the previous mode returns on exit."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _makes_node(parents):
    """False inside ``no_grad()`` and where no parent requires a gradient."""
    return _grad_mode.enabled and any(p.requires_grad for p in parents)


def _node(value, parents, adjoints):
    """The one constructor of interior nodes; ``adjoints`` holds one closure
    per parent, as the module docstring describes.

    The node is a parentless constant where ``_makes_node`` is False.
    """
    if not _makes_node(parents):
        return _constant(value)
    out = Tensor(value)
    out._parents = parents
    out._adjoints = adjoints
    return out


def fused(value, parents, vjp):
    """Interior node whose ``vjp(g)`` returns one adjoint per entry of
    ``parents``, computed once; see the module docstring."""
    adjoints = []

    def entry(i):
        def adjoint(g):
            if not adjoints:
                adjoints.extend(vjp(g))
            # backward takes each entry once; the node keeps none after that
            taken, adjoints[i] = adjoints[i], None
            return taken
        return adjoint

    return _node(value, parents, tuple(entry(i) for i in range(len(parents))))


def dense(x, weights, biases, output, split=False):
    """Dense layers ``h @ w + b`` over ``x``, ReLU after each but the last and
    the ``Activation`` ``output`` after it, as one fused node over the parent
    entries ``(x, w0, b0, w1, b1, ...)``.

    The forward is the composed graph's numpy sequence, with each layer's
    bias add and activation run in place on its matmul's result.  The vjp
    runs each layer's activation, add and matmul adjoints in reverse; it
    computes no entry of a constant parent and stops at the first layer
    with no entry to compute before it.  Where no node is made, no layer
    input is kept for it.  Each parent is one entry, and the node takes the
    place of the composed chain in ``backward``'s order, so the sums into
    a parameter that several calls share run as the composed graph ran
    them.

    With ``split`` it returns two nodes over one forward: the first takes
    ``x`` as a constant, so its adjoints reach only the parameters; the
    second takes the parameters as constants, so its adjoints reach only
    ``x``.
    """
    x = lift(x)
    if x.data.ndim < 2:
        raise ShapeError(f"dense: input must be >= 2-d, got {x.shape}")
    params = tuple(p for layer in zip(weights, biases) for p in layer)
    if split:
        groups = ((x.detach(), *params), (x, *(p.detach() for p in params)))
    else:
        groups = ((x, *params),)
    needs = [tuple(p.requires_grad for p in group) if _makes_node(group) else None
             for group in groups]
    ws = [w.data for w in weights]
    activations = [RELU] * (len(ws) - 1) + [output]
    # the input, then each layer's output: what the vjp reads
    values = [x.data] if any(needs) else None
    h = x.data
    for w, b, activation in zip(ws, biases, activations):
        h = np.matmul(h, w)
        h += b.data
        h = activation.forward(h, overwrite=True)
        if values is not None:
            values.append(h)

    def vjp(g, need):
        entries = [None] * len(need)
        for i in reversed(range(len(ws))):
            g = activations[i].adjoint(g, values[i + 1])
            if need[2 * i + 2]:
                entries[2 * i + 2] = g
            if need[2 * i + 1]:
                entries[2 * i + 1] = np.matmul(np.swapaxes(values[i], -1, -2), g)
            if not any(need[: 2 * i + 1]):
                break
            g = np.matmul(g, np.swapaxes(ws[i], -1, -2))
        else:
            entries[0] = g
        return entries

    nodes = tuple(
        _constant(h) if need is None else fused(h, group, lambda g, need=need: vjp(g, need))
        for group, need in zip(groups, needs)
    )
    return nodes if split else nodes[0]


def _check_broadcast(op, a, b):
    if a.shape == b.shape or not a.shape or not b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from exc


def unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _expand_reduced(grad, in_shape, axis, keepdims):
    """Broadcast the adjoint of a reduction over one int ``axis`` (or all) back to ``in_shape``."""
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis % len(in_shape))
    return np.broadcast_to(grad, in_shape)


def stack(tensors):
    tensors = tuple(lift(t) for t in tensors)
    if not tensors:
        raise ContractError("stack: needs at least one tensor")
    first = tensors[0].shape
    if any(t.shape != first for t in tensors):
        raise ShapeError(f"stack: mixed shapes {[t.shape for t in tensors]}")
    return _node(
        np.stack([t.data for t in tensors]),
        tensors,
        tuple((lambda g, i=i: g[i]) for i in range(len(tensors))),
    )


# ---------------------------------------------------------------------------
# activations


class Activation(NamedTuple):
    """An activation, written once for ``Tensor`` and ``dense``.

    ``forward(a, overwrite=False)`` is its value, computed into ``a`` itself
    where ``overwrite`` allows it; ``adjoint(g, value)`` maps the adjoint of
    that value to the adjoint of ``a`` and reads only the value.
    """

    forward: Callable
    adjoint: Callable


def _relu(a, overwrite=False):
    return np.maximum(a, 0.0, out=a if overwrite else None)


def _relu_adjoint(g, value):
    # value > 0 exactly where the input is; the subgradient at 0 is 0, so
    # dead units stay dead deterministically
    return g * (value > 0.0)


def _sigmoid(a, overwrite=False):
    z = np.exp(-np.abs(a))
    return np.where(a >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


def _softmax_rows(a, overwrite=False):
    z = np.exp(a - a.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _softmax_rows_adjoint(g, value):
    inner = (g * value).sum(axis=-1, keepdims=True)
    return (g - inner) * value


RELU = Activation(_relu, _relu_adjoint)
SIGMOID = Activation(_sigmoid, lambda g, value: g * value * (1.0 - value))
SOFTMAX_ROWS = Activation(_softmax_rows, _softmax_rows_adjoint)


# ---------------------------------------------------------------------------
# backward pass


def backward(root):
    """Populate adjoints of every node reachable from the scalar ``root``
    through nodes that require a gradient; constants keep ``grad`` None."""
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
            if parent.requires_grad:
                stack_.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        for parent, adjoint_of in zip(node._parents, node._adjoints):
            if not parent.requires_grad:
                continue
            adjoint = unbroadcast(adjoint_of(node.grad), parent.data.shape)
            if parent.grad is None:
                # parent.data's layout, not the adjoint's; see the module docstring
                parent.grad = np.empty_like(parent.data)
                parent.grad[...] = adjoint
            else:
                parent.grad += adjoint


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Adam:
    """Adam with decoupled weight decay over a fixed parameter list."""

    def __init__(self, params, lr=1e-3, weight_decay=1e-5):
        self.params = list(params)
        self.lr = lr
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
        b1, b2 = ADAM_BETAS
        corr1 = 1.0 - b1 ** self.step_count
        corr2 = 1.0 - b2 ** self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            self.moment1[i] = b1 * self.moment1[i] + (1.0 - b1) * g
            self.moment2[i] = b2 * self.moment2[i] + (1.0 - b2) * g * g
            m_hat = self.moment1[i] / corr1
            v_hat = self.moment2[i] / corr2
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + self.weight_decay * p.data)
        zero_grads(self.params)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f, params, h=1e-5):
    """Largest relative error of ``f()``'s analytic adjoints against central
    finite differences, over every entry of every parameter.

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

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        ana = ana.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            with no_grad():
                flat[j] = orig + h
                f_plus = f().item()
                flat[j] = orig - h
                f_minus = f().item()
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(ana[j]), abs(numeric), 1e-6)
            worst = max(worst, abs(ana[j] - numeric) / denom)
    return worst
