"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tensor` wraps a dense ``numpy`` array plus an optional backward
closure. Operations build a DAG; :func:`backward` runs a single reverse sweep
from a scalar root and accumulates ``.grad`` arrays on every tensor that
requires gradients. Everything is 64-bit and deterministic: no op introduces
randomness, and reductions use numpy's fixed evaluation order.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import ShapeError

__all__ = [
    "Tensor",
    "astensor",
    "constant",
    "backward",
    "zero_grads",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "bmm",
    "tensor_sum",
    "sqrt",
    "softmax",
    "gather_rows",
    "Store",
    "transpose",
    "reshape",
]


class Tensor:
    """Dense float64 array with optional reverse-mode gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_pull", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._pull = None   # (buffer, rows, cols) once written into a Store

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # Arithmetic sugar; all dispatch to the module-level ops.
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

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def astensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def constant(x) -> Tensor:
    """A tensor that never tracks gradients (input data, masks, weights)."""
    return Tensor(x, requires_grad=False)


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._pull = None
    for parent in parents:
        if parent.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._vjp = vjp
            return out
    out.requires_grad = False
    out._parents = ()
    out._vjp = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def backward(root: Tensor) -> None:
    """Reverse sweep from a scalar root, accumulating into ``.grad``.

    Leaves (parameters, inputs) keep their gradients; an interior node's
    gradient is dropped once its vjp has passed it on, so a step's graph
    does not hold a second copy of every activation. A block written into a
    `Store` takes its rows of the store's gradient when the sweep reaches
    it, after every gather that read them.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        return

    # Iterative post-order topological sort (LSTM chains can be deep).
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, child_idx = stack.pop()
        if child_idx == 0:
            if id(node) in visited:
                continue
            visited.add(id(node))
        if child_idx < len(node._parents):
            stack.append((node, child_idx + 1))
            child = node._parents[child_idx]
            if id(child) not in visited and child.requires_grad:
                stack.append((child, 0))
        else:
            topo.append(node)

    # Gradient arrays this sweep allocated, by id: only these are summed into
    # in place. An array a vjp returned may be shared (`add` hands the same
    # `g` to both parents) or a read-only view, so it is never written to.
    owned: set[int] = set()
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._pull is not None:
            buffer, rows, cols = node._pull
            if buffer.grad is not None:
                pulled = buffer.grad[rows, cols]
                _accumulate(node, pulled, owned)
                pulled[...] = 0.0   # leave the buffer clear for another sweep
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        if node is not root:
            owned.discard(id(node.grad))
            node.grad = None
        for parent, grad in zip(node._parents, grads):
            if grad is not None and parent.requires_grad:
                _accumulate(parent, grad, owned)


def _accumulate(tensor: Tensor, grad: np.ndarray, owned: set[int]) -> None:
    if tensor.grad is None:
        if grad.base is None:
            tensor.grad = grad
        else:
            tensor.grad = grad.copy()
            owned.add(id(tensor.grad))
    elif id(tensor.grad) in owned:
        tensor.grad += grad
    else:
        tensor.grad = tensor.grad + grad
        if isinstance(tensor.grad, np.ndarray):   # not a numpy scalar
            owned.add(id(tensor.grad))


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _from_op(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return _from_op(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _from_op(data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data / b.data

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _from_op(data, (a, b), vjp)


def neg(a) -> Tensor:
    a = astensor(a)
    return _from_op(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    """Matrix product for the 1-D/2-D shape combinations numpy supports."""
    a, b = astensor(a), astensor(b)
    if a.data.ndim not in (1, 2) or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}") from exc
    a_nd, b_nd = a.data.ndim, b.data.ndim

    def vjp(g):
        if a_nd == 2 and b_nd == 2:
            return g @ b.data.T, a.data.T @ g
        if a_nd == 1 and b_nd == 2:
            return b.data @ g, np.outer(a.data, g)
        if a_nd == 2 and b_nd == 1:
            return np.outer(g, b.data), a.data.T @ g
        return g * b.data, g * a.data  # 1-D dot

    return _from_op(data, (a, b), vjp)


def bmm(a, b) -> Tensor:
    """Batched matrix product over a shared leading axis: (B, n, k) @ (B, k, m)."""
    a, b = astensor(a), astensor(b)
    if a.data.ndim != 3 or b.data.ndim != 3 or a.data.shape[0] != b.data.shape[0]:
        raise ShapeError(f"bmm needs (B, n, k) @ (B, k, m), got {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"bmm shape mismatch: {a.shape} @ {b.shape}") from exc

    def vjp(g):
        return g @ b.data.transpose(0, 2, 1), a.data.transpose(0, 2, 1) @ g

    return _from_op(data, (a, b), vjp)


# ---------------------------------------------------------------------------
# reductions and nonlinearities


def tensor_sum(a, axis: int | None = None) -> Tensor:
    a = astensor(a)
    data = a.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape),)

    return _from_op(data, (a,), vjp)


def sqrt(a) -> Tensor:
    a = astensor(a)
    data = np.sqrt(a.data)
    return _from_op(data, (a,), lambda g: (g * 0.5 / data,))


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis` (max-subtraction)."""
    a = astensor(a)
    if a.data.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * data).sum(axis=axis, keepdims=True)
        return ((g - inner) * data,)

    return _from_op(data, (a,), vjp)


# ---------------------------------------------------------------------------
# shape / selection


def _scatter_add(shape: tuple[int, ...], rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Zeros of `shape` plus each slice of `g` added at its row, in index
    order, as ``np.add.at`` would."""
    width = math.prod(shape[1:])
    targets = rows.ravel()
    if width != 1:
        targets = (targets[:, None] * width + np.arange(width)).ravel()
    return np.bincount(targets, weights=g.ravel(), minlength=math.prod(shape)).reshape(shape)


def gather_rows(a, indices) -> Tensor:
    """Select rows `a[indices]` (integer array); scatter-add on backward."""
    a = astensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def vjp(g):
        return (_scatter_add(a.data.shape, idx % a.data.shape[0], g),)

    return _from_op(data, (a,), vjp)


class _Buffer:
    """The gradient of one store: filled by its gathers' vjps, emptied by its
    blocks as backward reaches them. Nodes hold this, never the store, so
    a chart's graph has no reference cycle and is freed as soon as it is
    dropped."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Store:
    """Rows of one chart field, appended block by block and read by gathers.

    Each block, an op's output, is copied once into the next free rows (into
    columns `cols`; the others stay zero) and stays the graph node it was.
    `gather` reads any rows written so far, each row at most once per read or
    part, without concatenating the blocks again, and its vjp adds into
    one gradient buffer for the whole store. A block's rows of that buffer
    reach it when backward does, which is after every gather that read them:
    a gather's parents are all blocks written before it.
    """

    def __init__(self, rows: int, width: int):
        self.data = np.zeros((rows, width))
        self.size = 0                           # rows written so far
        self._blocks: tuple[Tensor, ...] = ()   # written blocks that need a gradient
        self._buffer = _Buffer()

    def write(self, block: Tensor, cols=slice(None)) -> None:
        if block.requires_grad and (block._pull is not None or block._vjp is None):
            raise ValueError("a block is an op's output, written into one store once")
        rows = slice(self.size, self.size + block.data.shape[0])
        self.data[rows, cols] = block.data
        self.size = rows.stop
        if block.requires_grad:
            block._pull = (self._buffer, rows, cols)
            self._blocks += (block,)

    def skip(self, rows: int) -> None:
        """Leave the next `rows` rows unwritten: they read as zero and take no
        gradient."""
        self.size += rows

    def gather(self, rows, cols=slice(None)) -> Tensor:
        """Rows `rows` of columns `cols`.

        `rows` is a slice, read as a view, an index array, read with one
        fancy index, or a tuple of parts (at, index): rows `at` (a slice, an
        index array or a boolean mask) of the result are the store's rows
        `index`. An index array or a part names no row twice, because the
        vjp adds its gradient with one fancy-index `+=`, which would keep
        only one term of a repeated row; different parts may name the same
        rows.
        """
        buffer, shape, parents = self._buffer, self.data.shape, self._blocks
        parts = isinstance(rows, tuple)
        if parts:
            size = sum(len(index) for _, index in rows)
            data = np.empty((size,) + self.data[0, cols].shape)
            for at, index in rows:
                data[at] = self.data[index, cols]
        else:
            data = self.data[rows, cols]

        def vjp(g):
            if buffer.grad is None:
                buffer.grad = np.zeros(shape)
            if parts:
                for at, index in rows:
                    buffer.grad[index, cols] += g[at]
            else:
                buffer.grad[rows, cols] += g
            return (None,) * len(parents)

        return _from_op(data, parents, vjp)


def transpose(a) -> Tensor:
    """Swap the last two axes (the matrix transpose of a 2-D or batched 3-D tensor)."""
    a = astensor(a)
    return _from_op(np.swapaxes(a.data, -1, -2), (a,),
                    lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = astensor(a)
    data = a.data.reshape(shape)
    return _from_op(data, (a,), lambda g: (g.reshape(a.data.shape),))
