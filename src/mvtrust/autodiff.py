"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built eagerly (define-by-run) and discarded with the Python
objects that reference them.  ``backward`` walks a deterministic
topological order, so two runs over identical graphs produce bit-identical
adjoints.  Everything is single-threaded; ``Tensor.data`` may be shared
read-only, while parameter updates (``Adam.step``) require exclusive
access.

``fused`` makes every interior node, that of each ``Tensor`` op, ``stack``,
``dense`` and each loss alike, from its forward value, its parent entries
and one ``vjp(g)`` that maps the node's adjoint to one adjoint per entry,
in entry order.  ``backward`` calls each node's vjp once and only copies
or adds its entries: a vjp sums away the broadcast axes of its entries
itself, as ``dense`` does for its biases and ``_binary``, behind the binary
ops, for operands such as attention's (v, v) matrices.  A vjp captures the
arrays it needs, never the node itself: a graph then holds no reference
cycle, so its arrays are freed as soon as the last reference drops rather
than whenever the cyclic garbage collector next runs.

``transpose`` returns a view of its input.  numpy reduces an array that
is not C-ordered in memory order, so a sum over a transposed view can
differ from the same sum over a copy in the last bit; ``contiguous()``
copies a value into C order where that summation order matters.

Only tensors that require a gradient get one.  An explicit ``Tensor(data)``
leaf, such as a parameter, requires one.  ``lift()`` of a plain number or
array and ``detach()`` make constants, and ``fused`` returns a parentless
constant when no parent requires a gradient, so a constant never holds a
graph.  A vjp may compute the entry of a constant parent, or leave it
``None`` as ``dense`` does: ``backward`` drops it, and neither visits a
constant nor adds an adjoint into one.  Only ``_makes_node``, ``_binary``,
``dense`` and ``backward`` read ``requires_grad``.  Inside ``no_grad()``
every op returns a constant, so inference builds no graph at all.

``backward`` sets a node's ``grad`` back to None once its vjp has run, so
only leaves keep adjoints.  It copies a parent's first adjoint into
``np.empty_like(data)``, or into the parameter's slice of ``Adam.grads``
where an ``Adam`` packed it, and adds later ones in with ``+=``, so it never
stores or writes into an array a vjp returned.  The stored array takes the
layout of the node's value, as ``np.zeros_like`` would, not the layout of
the adjoint.  A node reached through ``transpose`` receives a transposed
adjoint; kept in that layout, the sums in later closures and matmuls over
it would run in another memory order and move the last bit of a parameter.

A fused node may stand for a whole composed graph, such as a loss.  It
names each parent once, and its vjp runs the composed graph's closures and
reductions in their order and returns one adjoint per parent: the sum of
the paths by which the composed graph reaches that parent, added in the
composed graph's order.  That is bit-identical to the composed graph only
where the merged sum is added into ``grad`` as the paths were: the
composed graph must add the node's paths into the parent before any other
adjoint, and then either the node's vjp runs before any other adjoint
reaches the parent, or exactly one other adjoint reaches it, since IEEE
addition commutes.  ``alpha_fused`` in ``pipeline.training_objective``,
which ``h1_loss`` and ``con_loss`` both read, meets the first case.
``unbroadcast`` serves the reductions inside a vjp.

``dense`` is the fused node of a stack of dense layers.  Each activation
is one ``Activation`` whose adjoint reads only the activation's output, so
``Tensor.activate`` and ``dense`` share it and ``dense`` can run the
activation in place.

``Adam`` packs the parameters it is given into one flat buffer: from then
on each parameter's ``data`` is a view of it, and ``step`` updates them
all with one run of in-place ufuncs.  Rebinding a packed parameter's
``data`` makes the next ``step`` raise ``ContractError``; write into the
view instead.

Heap policy.  On glibc, importing this module calls ``mallopt(M_TOP_PAD,
64 MiB)`` once, so that glibc keeps up to 64 MiB free above its heap top
rather than handing that memory back to the system whenever it is freed.
Each training step frees its graph before the next forward, and each
``evaluate`` frees its temporaries, such as the (3, 512, 64) arrays of
each row block.  Without the pad the next step or call faulted the same
pages in again.  On a 2-core x86-64 host with glibc 2.36 that was about
1,600 minor faults per full-batch epoch on the acceptance data, and 3,400
to 5,900 per 5,000-row ``evaluate`` after mini-batch training, measured
when ``evaluate`` ran one forward pass over all its rows.  With it both take almost none, and the numbers do
not change, because only where arrays live moves.  A smaller pad is not
enough: with 8 MiB a full-batch epoch took about 7,200 faults, and with
32 MiB about 1,200.  A likely cause is that once ``mallopt`` is called,
glibc stops raising its mmap threshold, so a large array that the padded
top cannot hold is ``mmap``-ed and faulted in on every allocation.  The
setting is process-wide and applies to every allocation of the host
program.  It is skipped where the libc is not glibc or has no ``mallopt``,
and a host program can override it by calling ``mallopt`` itself after the
import.
"""

from __future__ import annotations

import ctypes
import platform
import threading
from collections.abc import Callable
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import ContractError, ShapeError

_M_TOP_PAD = -2  # mallopt's parameter number in glibc's malloc.h
_TOP_PAD_BYTES = 64 << 20


def _keep_heap_top():
    """Make glibc keep 64 MiB free above its heap top; see the module
    docstring.  Does nothing where the libc is not glibc or has no
    ``mallopt``."""
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


_keep_heap_top()


class Tensor:
    """Graph node: a float64 ndarray plus a lazily allocated adjoint.

    ``requires_grad`` is True for an explicit ``Tensor(data)`` and for every
    node built from one outside ``no_grad()``; see the module docstring.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_adjoint")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = True
        self._parents = ()
        self._vjp = self._adjoint = None

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
        return _binary("add", np.add, self, other, lambda g, a, b: (g, g))

    def __mul__(self, other):
        return _binary("mul", np.multiply, self, other, lambda g, a, b: (g * b, g * a))

    def __truediv__(self, other):
        return _binary("div", np.divide, self, other, lambda g, a, b: (g / b, -g * a / (b * b)))

    def __matmul__(self, other):
        other = lift(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeError(f"matmul: operands must be >= 2-d, got {a.shape} @ {b.shape}")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
        if not all(m == k or 1 in (m, k) for m, k in zip(a.shape[-3::-1], b.shape[-3::-1])):
            raise ShapeError(f"matmul: batch dims incompatible, {a.shape} @ {b.shape}")

        return _binary("matmul", np.matmul, self, other, lambda g, a, b: (
            np.matmul(g, b.swapaxes(-1, -2)), np.matmul(a.swapaxes(-1, -2), g)))

    # -- activations ---------------------------------------------------------

    def activate(self, activation):
        """The ``Activation`` ``activation`` (``RELU``, ``SIGMOID`` or
        ``SOFTMAX_ROWS``) of the value; a row softmax needs at least one axis."""
        if activation is SOFTMAX_ROWS and self.data.ndim < 1:
            raise ShapeError("softmax_rows: needs at least one axis")
        value = activation.forward(self.data)
        return fused(value, (self,), lambda g: (activation.adjoint(g, value),))

    # -- shape and reduction ops ---------------------------------------------

    def transpose(self, a=-2, b=-1):
        """Swap axes ``a`` and ``b``; the value is a view, not a copy."""
        if self.data.ndim < 2:
            raise ShapeError(f"transpose: needs >= 2 axes, got {self.shape}")
        return fused(self.data.swapaxes(a, b), (self,), lambda g: (g.swapaxes(a, b),))

    def contiguous(self):
        """C-ordered copy of the value; see the module docstring."""
        return fused(np.ascontiguousarray(self.data), (self,), lambda g: (g,))

    def sum(self, axis=None, keepdims=False):
        _check_axis("sum", axis)
        shape = self.shape
        return fused(self.data.sum(axis=axis, keepdims=keepdims), (self,),
                     lambda g: (_expand_reduced(g, shape, axis, keepdims),))

    def mean(self, axis=None, keepdims=False):
        _check_axis("mean", axis)
        shape = self.shape
        # ndarray.mean's add.reduce and division, without its Python wrapper
        total = self.data.sum(axis=axis, keepdims=keepdims)
        count = self.data.size // max(total.size, 1)
        return fused(total / count, (self,),
                     lambda g: (_expand_reduced(g, shape, axis, keepdims) / count,))

    def reshape(self, shape):
        if int(np.prod(shape)) != self.data.size:
            raise ShapeError(f"reshape: cannot view {self.shape} as {tuple(shape)}")
        old = self.shape
        return fused(self.data.reshape(shape), (self,), lambda g: (g.reshape(old),))


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
    return _grad_mode.enabled and any([p.requires_grad for p in parents])


def fused(value, parents, vjp):
    """The one constructor of interior nodes: ``vjp(g)`` returns one adjoint
    per entry of ``parents``; see the module docstring.

    The node is a parentless constant where ``_makes_node`` is False.
    """
    if not _makes_node(parents):
        return _constant(value)
    out = Tensor(value)
    out._parents = parents
    out._vjp = vjp
    return out


def _binary(op, f, x, y, vjp):
    """The node of ``f`` over the arrays ``a`` and ``b`` of ``x`` and of ``y``
    lifted, or ``ShapeError`` where numpy cannot broadcast them; its vjp sums
    each entry of ``vjp(g, a, b)`` back to its operand's shape."""
    y = lift(y)
    a, b = x.data, y.data
    try:
        value = f(a, b)
    except ValueError as exc:
        raise ShapeError(f"{op}: cannot broadcast {a.shape} with {b.shape}") from exc
    return fused(value, (x, y), lambda g: [unbroadcast(e, p.shape) if p.requires_grad else None
                                           for e, p in zip(vjp(g, a, b), (x, y))])


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
    them.  The vjp sums each bias entry, and the weight entries of an input
    with batch axes, back to the parameter's shape with ``unbroadcast``.

    With ``split`` it returns two nodes over one forward: the first takes
    ``x`` as a constant, so its adjoints reach only the parameters; the
    second takes the parameters as constants, so its adjoints reach only
    ``x``.
    """
    x = lift(x)
    if x.data.ndim < 2:
        raise ShapeError(f"dense: input must be >= 2-d, got {x.shape}")
    if x.shape[-1] != weights[0].shape[0]:
        raise ShapeError(f"dense: input width {x.shape[-1]} does not match {weights[0].shape[0]}")
    params = [p for layer in zip(weights, biases) for p in layer]
    if split:
        groups = ((x.detach(), *params), (x, *[p.detach() for p in params]))
    else:
        groups = ((x, *params),)
    needs = [[p.requires_grad for p in group] if _makes_node(group) else None
             for group in groups]
    ws = [w.data for w in weights]
    last = len(ws) - 1
    # the input, then each layer's output: what the vjp reads
    values = [x.data] if any(needs) else None
    h = x.data
    for i, (w, b) in enumerate(zip(ws, biases)):
        h = np.matmul(h, w)
        h += b.data
        h = (output if i == last else RELU).forward(h, overwrite=True)
        if values is not None:
            values.append(h)

    def vjp(g, need):
        entries = [None] * len(need)
        for i in range(last, -1, -1):
            g = (output if i == last else RELU).adjoint(g, values[i + 1])
            if need[2 * i + 2]:
                entries[2 * i + 2] = unbroadcast(g, biases[i].shape)
            if need[2 * i + 1]:
                entries[2 * i + 1] = unbroadcast(np.matmul(values[i].swapaxes(-1, -2), g),
                                                 ws[i].shape)
            if not any(need[: 2 * i + 1]):
                break
            g = np.matmul(g, ws[i].swapaxes(-1, -2))
        else:
            entries[0] = g
        return entries

    nodes = [_constant(h) if need is None else
             fused(h, group, lambda g, need=need: vjp(g, need))
             for group, need in zip(groups, needs)]
    return nodes if split else nodes[0]


def _check_axis(op, axis):
    if axis is not None and not isinstance(axis, (int, np.integer)):
        raise ShapeError(f"{op}: axis must be an int or None, got {axis}")


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
    # the rows of the stacked adjoint are the entries, in order
    return fused(np.concatenate([t.data[None] for t in tensors]), tensors, lambda g: g)


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
    """Populate the adjoints of the leaves reachable from the scalar ``root``
    through nodes that require a gradient: a parameter packed by an ``Adam``
    in its slice of ``Adam.grads``, which the next ``backward`` overwrites,
    any other leaf in an array of its own.  Every node with parents, the root
    included, has ``grad`` None again once its vjp has run, and constants
    keep ``grad`` None; see the module docstring."""
    if root.size != 1:
        raise ContractError(f"backward: root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise ContractError("backward: root requires no gradient")
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
        if node._parents:  # a leaf has no vjp to call
            stack_.append((node, True))
        for parent in node._parents:
            if parent.requires_grad:
                stack_.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        entries = node._vjp(node.grad)
        node.grad = None
        for parent, entry in zip(node._parents, entries):
            if not parent.requires_grad:
                continue
            if parent.grad is None:
                # parent.data's layout, not the adjoint's; see the module docstring
                parent.grad = (np.empty_like(parent.data) if parent._adjoint is None
                               else parent._adjoint)
                parent.grad[...] = entry
            else:
                parent.grad += entry


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class Adam:
    """Adam with decoupled weight decay over a fixed parameter list.

    The constructor packs the parameters' values into one flat buffer,
    ``values``, in list order, and rebinds each ``p.data`` to its reshaped
    slice.  Both moments, two scratch arrays and the adjoints ``grads`` are
    flat arrays of the same length, allocated once.  ``backward`` writes each
    parameter's first adjoint straight into its slice of ``grads``, so its
    ``grad`` is a view there until the next ``backward`` overwrites it;
    ``step`` copies in an adjoint set by hand.  ``step`` then updates every
    parameter with one run of in-place ufuncs, each element through the
    same operations, in the same order, as a per-array update.  A parameter
    whose ``data`` is rebound after construction would silently stop
    training, so ``step`` raises for it.  An empty parameter list, and a
    parameter listed twice, are refused.
    """

    def __init__(self, params, lr=1e-3, weight_decay=1e-5):
        self.params = list(params)
        if not self.params:
            raise ContractError("adam: the parameter list is empty")
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        for i, p in enumerate(self.params):
            if any(p is other for other in self.params[:i]):
                raise ContractError(f"adam: parameter {i} is listed twice")
        size = sum(p.size for p in self.params)
        self.values, self.grads = np.empty(size), np.empty(size)
        start = 0
        for p in self.params:
            view, p._adjoint = (flat[start : start + p.size].reshape(p.shape)
                                for flat in (self.values, self.grads))
            view[...] = p.data
            p.data = view
            start += p.size
        self.moment1 = np.zeros(size)
        self.moment2 = np.zeros(size)
        self._scratch = np.empty(size), np.empty(size)

    def step(self):
        """One update over all parameters; zeroes adjoints afterwards."""
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractError("adam_step: parameter is missing its adjoint")
            if p.grad.shape != p.shape:
                raise ContractError(f"adam_step: parameter {i} has shape {p.shape}, "
                                    f"but its adjoint has shape {p.grad.shape}")
            if p.data.base is not self.values:
                raise ContractError("adam_step: parameter data was rebound after the "
                                    "optimizer packed it, so it would no longer train")
            if p.grad is not p._adjoint:  # an adjoint set by hand
                p._adjoint[...] = p.grad
        self.step_count += 1
        b1, b2 = ADAM_BETAS
        corr1 = 1.0 - b1 ** self.step_count
        corr2 = 1.0 - b2 ** self.step_count
        g, m1, m2, a, b = self.grads, self.moment1, self.moment2, *self._scratch
        # m1 = b1 * m1 + (1 - b1) * g
        np.multiply(m1, b1, out=m1)
        np.multiply(g, 1.0 - b1, out=a)
        np.add(m1, a, out=m1)
        # m2 = b2 * m2 + (1 - b2) * g * g
        np.multiply(m2, b2, out=m2)
        np.multiply(g, 1.0 - b2, out=a)
        np.multiply(a, g, out=a)
        np.add(m2, a, out=m2)
        # values -= lr * ((m1 / corr1) / (sqrt(m2 / corr2) + eps) + weight_decay * values)
        np.divide(m2, corr2, out=b)
        np.sqrt(b, out=b)
        np.add(b, ADAM_EPS, out=b)
        np.divide(m1, corr1, out=a)
        np.divide(a, b, out=a)
        np.multiply(self.values, self.weight_decay, out=b)
        np.add(a, b, out=a)
        np.multiply(a, self.lr, out=a)
        np.subtract(self.values, a, out=self.values)
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
