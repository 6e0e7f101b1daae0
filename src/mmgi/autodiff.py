"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A :class:`Tensor` wraps a dense ``numpy`` array plus an optional backward
closure. Every op of a training step is one node with a hand-written
vector-Jacobian product, built by ``_from_op`` in the module that owns it
(the context, chart and loss ops of ``nn``, ``chart`` and ``losses``); a
whole inside or outside pass is one such node, whose vjp sweeps its own
steps in reverse. The engine itself holds only what those nodes share:
:func:`backward`, which runs a single reverse sweep from a scalar root and
accumulates ``.grad`` arrays on every tensor that requires gradients, and
the row gather :func:`gather_rows`. Everything is 64-bit, and no op
introduces randomness. Results repeat bit for bit only at one BLAS thread
count, on one CPU and one numpy version: the summation order of a product
can change with any of them (between 1 and 2 threads, the gradient of
`vision_projection` in a train-plant step differs in its last bits).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ShapeError

__all__ = ["Tensor", "constant", "backward", "zero_grads", "gather_rows"]


class Tensor:
    """Dense float64 array with optional reverse-mode gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None

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
    out = Tensor(data)
    if any(parent.requires_grad for parent in parents):
        out.requires_grad, out._parents, out._vjp = True, parents, vjp
    return out


def backward(root: Tensor) -> None:
    """Reverse sweep from a scalar root, accumulating into ``.grad``.

    Leaves (parameters, inputs) keep their gradients; an interior node's
    gradient is dropped once its vjp has passed it on, so a step's graph
    does not hold a second copy of every activation.
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

    # A later gradient is summed into a new array, never into the stored one:
    # an array a vjp returned may be shared (a vjp may hand its own `g` on, as
    # the test oracles' `add` does to both parents) or a read-only view. A
    # view is copied when first stored, so a leaf's `.grad` owns its memory.
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        if node is not root:
            node.grad = None
        for parent, grad in zip(node._parents, grads):
            if grad is None or not parent.requires_grad:
                continue
            if parent.grad is not None:
                parent.grad = parent.grad + grad
            else:
                parent.grad = grad if grad.base is None else grad.copy()


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows `a[indices]` (integer array); scatter-add on backward."""
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def vjp(g):
        grad = np.zeros(a.data.shape)
        np.add.at(grad, idx, g)
        return (grad,)

    return _from_op(data, (a,), vjp)
