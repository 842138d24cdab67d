"""numpy-backed dense tensors with reverse-mode automatic differentiation.

The graph is a tape: an op whose result requires grad records its parents
and a backward closure on that result, and ``Tensor.backward`` walks the tape
in reverse topological order.  A result no gradient can reach records nothing,
so a forward over inputs that do not require grad (evaluation, with the
parameters' ``requires_grad`` off) keeps no op's inputs alive.  Closures hold
arrays, never their own result: the tape has no cycle and is freed by
reference counting.  Ops preserve the dtype of their inputs; gradient-checking
tests run everything in float64, training code in float32.
"""
from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """An operand shape violates an operation's contract."""


class NumericError(RuntimeError):
    """Non-finite values invalidated a computation."""


class Tensor:
    """A dense n-dimensional array with an optional same-shape gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if isinstance(data, Tensor):
            raise TypeError("cannot wrap a Tensor in a Tensor")
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.grad is not None})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    __rmul__ = __mul__

    # -- autodiff ----------------------------------------------------------

    def backward(self, grad=None):
        """Accumulate gradients of this tensor into every reachable parent."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without an explicit gradient needs a scalar root")
            grad = np.ones_like(self.data)
        order = _toposort(self)
        self.grad = grad if self.grad is None else self.grad + grad
        for t in reversed(order):
            if t._backward is not None:
                if t.grad is None:
                    raise NumericError("missing forward record in backward pass")
                t._backward(t.grad)


def _toposort(root):
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t, g):
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise ops --------------------------------------------------------


def add(a, b):
    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return Tensor(a.data + b.data, _parents=(a, b), _backward=backward)


def mul(a, b):
    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return Tensor(a.data * b.data, _parents=(a, b), _backward=backward)


def relu(a):
    """Elementwise max(0, x); subgradient at 0 is 0."""
    mask = a.data > 0
    return Tensor(a.data * mask, _parents=(a,), _backward=lambda g: _accum(a, g * mask))


def exp(a):
    e = np.exp(a.data)
    return Tensor(e, _parents=(a,), _backward=lambda g: _accum(a, g * e))


def clip_max(a, hi):
    """min(x, hi); gradient passes only where x < hi."""
    mask = a.data < hi
    return Tensor(np.minimum(a.data, hi), _parents=(a,),
                  _backward=lambda g: _accum(a, g * mask))


# -- shape ops ---------------------------------------------------------------


def reshape(a, shape):
    return Tensor(a.data.reshape(shape), _parents=(a,),
                  _backward=lambda g: _accum(a, g.reshape(a.shape)))


def transpose(a, axes):
    inverse = tuple(np.argsort(axes))
    return Tensor(a.data.transpose(axes), _parents=(a,),
                  _backward=lambda g: _accum(a, g.transpose(inverse)))


def _index(a, index):
    """``a.data[index]`` for an index that selects each element at most once."""
    def backward(g):
        gx = np.zeros_like(a.data)
        gx[index] = g
        _accum(a, gx)

    return Tensor(a.data[index], _parents=(a,), _backward=backward)


def narrow(a, axis, start, length):
    """Slice ``length`` elements from ``start`` along one axis."""
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    return _index(a, tuple(index))


def diagonal(a):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"diagonal needs a square matrix, got {a.shape}")
    idx = np.arange(a.shape[0])
    return _index(a, (idx, idx))


# -- reductions ---------------------------------------------------------------


def _spread(g, shape, axis, keepdims):
    """A reduction's upstream gradient, copied back out to the input ``shape``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tsum(a, axis=None, keepdims=False):
    return Tensor(a.data.sum(axis=axis, keepdims=keepdims), _parents=(a,),
                  _backward=lambda g: _accum(a, _spread(g, a.shape, axis, keepdims)))


def tmean(a, axis=None, keepdims=False):
    count = a.size if axis is None else a.shape[axis]
    return Tensor(a.data.mean(axis=axis, keepdims=keepdims), _parents=(a,),
                  _backward=lambda g: _accum(a, _spread(g, a.shape, axis, keepdims) / count))


# -- linear algebra -----------------------------------------------------------


def matmul(a, b):
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs two 2-D operands, got {a.shape} and {b.shape}")

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return Tensor(a.data @ b.data, _parents=(a, b), _backward=backward)


# -- log-softmax ---------------------------------------------------------------


def log_softmax(a, axis=-1):
    z = a.data - a.data.max(axis=axis, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def backward(g):
        _accum(a, g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    return Tensor(y, _parents=(a,), _backward=backward)


# -- lookup and normalization ---------------------------------------------------


def embedding(weight, ids):
    """Row lookup into ``weight`` by an integer index array."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= weight.shape[0]):
        raise ShapeError("embedding index out of range")

    def backward(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids, g)
        _accum(weight, gw)

    return Tensor(weight.data[ids], _parents=(weight,), _backward=backward)


def l2_normalize(a, axis=-1, eps=1e-12):
    """Scale vectors along ``axis`` to unit Euclidean norm."""
    norm = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True)) + eps
    unit = a.data / norm

    def backward(g):
        _accum(a, (g - unit * (g * unit).sum(axis=axis, keepdims=True)) / norm)

    return Tensor(unit, _parents=(a,), _backward=backward)
