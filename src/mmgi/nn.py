"""Composition MLP, span scoring and pooling, LSTM recurrence, dropout, and
parameter initialization.

The model blocks the chart repeats for every span and split, and the pitch
LSTM, are single autodiff nodes with hand-written vector-Jacobian products:
one node per call rather than one per elementary op, which keeps a training
step's graph small. Their forward expressions are those of the elementary
ops they replace, in the same order, so their values are unchanged.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

__all__ = [
    "glorot_uniform",
    "mlp_compose",
    "bilinear_score",
    "softmax_pool",
    "lstm_forward",
    "dropout_mask",
]


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int | None = None, fan_out: int | None = None) -> np.ndarray:
    """uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    if fan_in is None:
        fan_in = shape[0]
    if fan_out is None:
        fan_out = shape[-1] if len(shape) > 1 else shape[0]
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def _linear_vjp(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                need_x: bool, need_w: bool) -> tuple:
    """Gradients of ``x @ w`` for a (d,) or (K, d) `x`: (dx, dw), None where
    not needed."""
    if x.ndim == 1:
        return (w @ g if need_x else None), (np.outer(x, g) if need_w else None)
    return (g @ w.T if need_x else None), (x.T @ g if need_w else None)


def _bias_vjp(g: np.ndarray) -> np.ndarray:
    return g if g.ndim == 1 else g.sum(axis=0)


def mlp_compose(left: Tensor, right: Tensor, w1: Tensor, b1: Tensor,
                w2: Tensor, b2: Tensor, *, keep: np.ndarray | None = None) -> Tensor:
    """Two-layer MLP over the concatenation of two span vectors.

    Accepts single vectors (d,) or batches (K, d); the concatenation happens
    along the last axis, so weights are (2d, hidden) and (hidden, d). `keep`
    is an optional dropout mask (see `dropout_mask`) on the hidden layer.
    """
    if left.data.shape != right.data.shape:
        raise ShapeError(
            f"compose inputs must share a shape, got {left.shape} vs {right.shape}"
        )
    if left.data.shape[-1] != w1.data.shape[0] // 2:
        raise ShapeError(
            f"compose input dim {left.data.shape[-1]} does not match weights "
            f"{w1.data.shape}"
        )
    x = np.concatenate([left.data, right.data], axis=-1)
    t = np.tanh(x @ w1.data + b1.data)
    h = t if keep is None else t * keep
    data = h @ w2.data + b2.data

    def vjp(g):
        g_h, g_w2 = _linear_vjp(h, w2.data, g, True, w2.requires_grad)
        if keep is not None:
            g_h = g_h * keep
        g_pre = g_h * (1.0 - t * t)
        need_x = left.requires_grad or right.requires_grad
        g_x, g_w1 = _linear_vjp(x, w1.data, g_pre, need_x, w1.requires_grad)
        g_left = g_right = None
        if need_x:
            g_left, g_right = np.split(g_x, 2, axis=-1)
        return g_left, g_right, g_w1, _bias_vjp(g_pre), g_w2, _bias_vjp(g)

    return ad._from_op(data, (left, right, w1, b1, w2, b2), vjp)


def bilinear_score(left: Tensor, w: Tensor, right: Tensor) -> Tensor:
    """Row-wise ``left[k] @ w @ right[k]`` of two (K, d) blocks: (K,) scores."""
    projected = left.data @ w.data
    data = (projected * right.data).sum(axis=1)

    def vjp(g):
        g = g[:, None]
        g_projected = g * right.data
        g_left, g_w = _linear_vjp(left.data, w.data, g_projected,
                                  left.requires_grad, w.requires_grad)
        return g_left, g_w, (g * projected if right.requires_grad else None)

    return ad._from_op(data, (left, w, right), vjp)


def softmax_pool(scores: Tensor, vectors: Tensor) -> tuple[Tensor, Tensor]:
    """Softmax over each row of (cells, K) scores, pooling two things: the
    weighted mean of the (cells * K, d) vectors, K rows per cell, and the
    expected score. Two nodes that share one softmax."""
    cells, count = scores.data.shape
    shifted = scores.data - scores.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=1, keepdims=True)
    stacked = vectors.data.reshape(cells, count, vectors.data.shape[1])
    pooled = (weights.reshape(cells, count, 1) * stacked).sum(axis=1)
    expected = (scores.data * weights).sum(axis=1)

    def through_softmax(g_weights):
        return (g_weights - (g_weights * weights).sum(axis=1, keepdims=True)) * weights

    def pooled_vjp(g):
        g = g[:, None, :]
        g_vectors = None
        if vectors.requires_grad:
            g_vectors = (g * weights[:, :, None]).reshape(vectors.data.shape)
        return through_softmax((g * stacked).sum(axis=2)), g_vectors

    def expected_vjp(g):
        g = g[:, None]
        return (g * weights + through_softmax(g * scores.data),)

    return (ad._from_op(pooled, (scores, vectors), pooled_vjp),
            ad._from_op(expected, (scores,), expected_vjp))


def lstm_forward(inputs: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """Single-layer unidirectional LSTM, zero initial state.

    Takes one (T, d) sequence or a (B, T, d) batch of sequences padded to a
    common T; the recurrence is causal, so padding after a sequence's end
    does not change its hidden states. The input projection of every step is
    one matmul; the backward pass runs backpropagation through time. Gate
    layout along the 4d axis: input, forget, cell, output. Returns the
    hidden states in the input's shape.
    """
    shape = inputs.data.shape
    if inputs.data.ndim not in (2, 3) or 0 in shape[:-1]:
        raise ValueError(f"lstm_forward needs a nonempty (T, d) or (B, T, d) sequence, "
                         f"got {inputs.shape}")
    d = shape[-1]
    if w_x.data.shape != (d, 4 * d):
        raise ShapeError(f"lstm weight shape {w_x.data.shape} does not match input dim {d}")
    batch, steps = (1,) + shape[:1] if inputs.data.ndim == 2 else shape[:2]
    x = inputs.data.reshape(batch * steps, d)
    projected = (x @ w_x.data + b.data).reshape(batch, steps, 4 * d)
    hidden = np.empty((batch, steps, d))
    cells = np.empty((batch, steps, d))
    squashed = np.empty((batch, steps, d))        # tanh(c_t)
    gates = np.empty((batch, steps, 4 * d))       # sigmoid(z), tanh(z) in the cell slice
    h = c = np.zeros((batch, d))
    for t in range(steps):
        z = projected[:, t] + h @ w_h.data
        sig = 1.0 / (1.0 + np.exp(-z))
        gc = np.tanh(z[:, 2 * d:3 * d])
        c = sig[:, d:2 * d] * c + sig[:, :d] * gc
        tc = np.tanh(c)
        h = sig[:, 3 * d:] * tc
        gates[:, t] = sig
        gates[:, t, 2 * d:3 * d] = gc
        hidden[:, t], cells[:, t], squashed[:, t] = h, c, tc
    data = hidden.reshape(shape)

    def vjp(g):
        g = g.reshape(batch, steps, d)
        g_z = np.empty((batch, steps, 4 * d))
        g_h = np.zeros((batch, d))
        g_c = np.zeros((batch, d))
        for t in range(steps - 1, -1, -1):
            s, tc = gates[:, t], squashed[:, t]
            g_h = g[:, t] + g_h
            g_c = g_c + g_h * s[:, 3 * d:] * (1.0 - tc * tc)
            gc = s[:, 2 * d:3 * d]
            c_prev = cells[:, t - 1] if t else 0.0
            g_gates = np.concatenate(
                [g_c * gc, g_c * c_prev, g_c * gc, g_h * tc], axis=1) * s * (1.0 - s)
            g_gates[:, 2 * d:3 * d] = g_c * s[:, :d] * (1.0 - gc * gc)
            g_z[:, t] = g_gates
            g_h = g_gates @ w_h.data.T
            g_c = g_c * s[:, d:2 * d]
        g_z = g_z.reshape(batch * steps, 4 * d)
        g_x, g_wx = _linear_vjp(x, w_x.data, g_z, inputs.requires_grad, w_x.requires_grad)
        g_wh = None
        if w_h.requires_grad:
            h_prev = np.concatenate([np.zeros((batch, 1, d)), hidden[:, :-1]], axis=1)
            g_wh = h_prev.reshape(batch * steps, d).T @ g_z
        return (None if g_x is None else g_x.reshape(shape)), g_wx, g_wh, g_z.sum(axis=0)

    return ad._from_op(data, (inputs, w_x, w_h, b), vjp)


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...],
                 rate: float) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability `rate`, else 1 / (1 - rate)."""
    if rng is None:
        raise ValueError("dropout in training mode requires an rng")
    return (rng.random(shape) >= rate) / (1.0 - rate)
