"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tensor` wraps a dense ``numpy`` array plus an optional backward
closure. Every op of a training step is one node with a hand-written
vector-Jacobian product, built by ``_from_op`` in the module that owns it
(the context, chart and loss ops of ``nn``, ``chart`` and ``losses``). The
engine itself holds only what those nodes share: :func:`backward`, which
runs a single reverse sweep from a scalar root and accumulates ``.grad``
arrays on every tensor that requires gradients, the row gather
:func:`gather_rows`, and the write-once :class:`Store` the chart passes
read their cells from. Each block is written at the rows it fills. A chart
step takes its pairs as reads of the stores (:class:`Read`) rather than as
gathered tensors, and reads them again in its vjp, so a step's graph keeps
no per-pair copy of them. Everything is 64-bit and deterministic: no op
introduces randomness, and reductions use numpy's fixed evaluation order.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ShapeError

__all__ = ["Tensor", "constant", "backward", "zero_grads", "gather_rows", "Store", "Read",
           "rows_of"]


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
    # in place. An array a vjp returned may be shared (a vjp may hand its own
    # `g` on, as the test oracles' `add` does to both parents) or a read-only
    # view, so it is never written to.
    owned: set[int] = set()
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._pull is not None:
            buffer, rows, cols = node._pull
            if buffer.grad is not None:
                _accumulate(node, buffer.grad[rows, cols], owned)
                # by assignment: the rows an index array pulls are a copy
                buffer.grad[rows, cols] = 0.0   # leave the buffer clear for another sweep
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
# row reads


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows `a[indices]` (integer array); scatter-add on backward."""
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def vjp(g):
        grad = np.zeros(a.data.shape)
        np.add.at(grad, idx, g)
        return (grad,)

    return _from_op(data, (a,), vjp)


class _Buffer:
    """The gradient of one store: filled by the vjps of its reads, emptied by its
    blocks as backward reaches them. Nodes hold this, never the store, so
    a chart's graph has no reference cycle and is freed as soon as it is
    dropped."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


class Read:
    """Rows `rows` of columns `cols` of a store, as one op reads them.

    It holds the store's array, its gradient buffer and the blocks written
    before the read, never the store itself, so a node that keeps it adds no
    reference cycle. The rows it names are written already, and written rows
    never change, so a vjp can read them again instead of keeping a copy.
    `rows` is a slice, an index array or a tuple of parts, as in
    `Store.gather`.
    """

    __slots__ = ("data", "buffer", "blocks", "rows", "cols")

    def __init__(self, data: np.ndarray, buffer: _Buffer, blocks: tuple[Tensor, ...],
                 rows, cols):
        self.data, self.buffer, self.blocks = data, buffer, blocks
        self.rows, self.cols = rows, cols

    def values(self) -> np.ndarray:
        """The rows read: a view for a slice, else a new array."""
        if not isinstance(self.rows, tuple):
            return self.data[self.rows, self.cols]
        size = sum(len(index) for _, index in self.rows)
        out = np.empty((size,) + self.data[0, self.cols].shape)
        for at, index in self.rows:
            out[at] = self.data[index, self.cols]
        return out

    def add_grad(self, g: np.ndarray) -> None:
        """Add `g`, the gradient of the rows read, into the store's buffer."""
        buffer, rows, cols = self.buffer, self.rows, self.cols
        if buffer.grad is None:
            buffer.grad = np.zeros(self.data.shape)
        if isinstance(rows, tuple):
            for at, index in rows:
                buffer.grad[index, cols] += g[at]
        else:
            buffer.grad[rows, cols] += g


class Store:
    """Rows of one chart field, written block by block and read by ops.

    Each block, an op's output, is copied once into the rows it fills (a
    slice or an index array; into columns `cols`, the others stay zero) and
    stays the graph node it was. Rows no block fills read as zero and take
    no gradient, and written rows never change. An op reads any of them
    through a `Read`: the chart steps read their pairs that way and re-read
    them in their vjps, and `gather` turns a read into a node of its own.
    Either way the rows are read without concatenating the blocks again, and
    the vjp adds into one gradient buffer for the whole store. A block's
    rows of that buffer reach it when backward does, which is after every op
    that read them: a read's parents are all blocks written before it.
    """

    def __init__(self, rows: int, width: int):
        self.data = np.zeros((rows, width))
        self._blocks: tuple[Tensor, ...] = ()   # written blocks that need a gradient
        self._buffer = _Buffer()

    def write(self, block: Tensor, rows, cols=slice(None)) -> None:
        """Copy `block` into rows `rows` (a slice or an index array naming no
        row twice) of columns `cols`."""
        if block.requires_grad and (block._pull is not None or block._vjp is None):
            raise ValueError("a block is an op's output, written into one store once")
        self.data[rows, cols] = block.data
        if block.requires_grad:
            block._pull = (self._buffer, rows, cols)
            self._blocks += (block,)

    def read(self, rows, cols=slice(None)) -> Read:
        """Rows `rows` of columns `cols`, for an op to read (see `gather`)."""
        return Read(self.data, self._buffer, self._blocks, rows, cols)

    def gather(self, rows, cols=slice(None)) -> Tensor:
        """Rows `rows` of columns `cols`, as a node.

        `rows` is a slice, read as a view, an index array, read with one
        fancy index, or a tuple of parts (at, index): rows `at` (a slice, an
        index array or a boolean mask) of the result are the store's rows
        `index`. An index array or a part names no row twice, because the
        vjp adds its gradient with one fancy-index `+=`, which would keep
        only one term of a repeated row; different parts may name the same
        rows.
        """
        read = self.read(rows, cols)

        def vjp(g):
            read.add_grad(g)
            return (None,) * len(read.blocks)

        return _from_op(read.values(), read.blocks, vjp)


def rows_of(t: Tensor) -> Read:
    """A read of every row of a (rows, width) `t`, from a store of its own:
    how a check or a test feeds a tensor to an op that takes reads, such as
    `nn.chart_step`. A tensor that needs a gradient enters the store as an
    identity node, so it may be a leaf."""
    store = Store(*t.data.shape)
    store.write(_from_op(t.data, (t,), lambda g: (g,)) if t.requires_grad else t, slice(None))
    return store.read(slice(None))
