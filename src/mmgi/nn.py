"""Composition MLP, LSTM recurrence, dropout, and parameter initialization."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

__all__ = [
    "glorot_uniform",
    "mlp_compose",
    "lstm_forward",
    "dropout_mask",
    "l2_normalize",
]

NORM_EPS = 1e-8


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int | None = None, fan_out: int | None = None) -> np.ndarray:
    """uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    if fan_in is None:
        fan_in = shape[0]
    if fan_out is None:
        fan_out = shape[-1] if len(shape) > 1 else shape[0]
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


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
    x = ad.concat([left, right], axis=-1)
    h = ad.tanh(ad.matmul(x, w1) + b1)
    if keep is not None:
        h = h * keep
    return ad.matmul(h, w2) + b2


def lstm_forward(inputs: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """Single-layer unidirectional LSTM, zero initial state.

    Takes one (T, d) sequence or a (B, T, d) batch of sequences padded to a
    common T; the recurrence is causal, so padding after a sequence's end
    does not change its hidden states. The input projection of every step is
    one matmul. Gate layout along the 4d axis: input, forget, cell, output.
    Returns the hidden states in the input's shape.
    """
    shape = inputs.data.shape
    if inputs.data.ndim not in (2, 3) or 0 in shape[:-1]:
        raise ValueError(f"lstm_forward needs a nonempty (T, d) or (B, T, d) sequence, "
                         f"got {inputs.shape}")
    d = shape[-1]
    if w_x.data.shape != (d, 4 * d):
        raise ShapeError(f"lstm weight shape {w_x.data.shape} does not match input dim {d}")
    batch, steps = (1,) + shape[:1] if inputs.data.ndim == 2 else shape[:2]
    projected = ad.matmul(ad.reshape(inputs, (batch * steps, d)), w_x) + b
    projected = ad.reshape(projected, (batch, steps, 4 * d))
    h = ad.constant(np.zeros((batch, d)))
    c = ad.constant(np.zeros((batch, d)))
    outs = []
    for t in range(steps):
        z = ad.select(projected, (slice(None), t)) + ad.matmul(h, w_h)  # (B, 4d)
        gates = ad.sigmoid(z)
        gi = ad.select(gates, (slice(None), slice(0, d)))
        gf = ad.select(gates, (slice(None), slice(d, 2 * d)))
        gc = ad.tanh(ad.select(z, (slice(None), slice(2 * d, 3 * d))))
        go = ad.select(gates, (slice(None), slice(3 * d, 4 * d)))
        c = gf * c + gi * gc
        h = go * ad.tanh(c)
        outs.append(h)
    out = ad.stack(outs, axis=1)
    return out if inputs.data.ndim == 3 else ad.reshape(out, shape)


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...],
                 rate: float) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability `rate`, else 1 / (1 - rate)."""
    if rng is None:
        raise ValueError("dropout in training mode requires an rng")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def l2_normalize(v: Tensor) -> Tensor:
    """v / ||v||_2 with an epsilon-guarded norm."""
    norm = ad.sqrt(ad.tensor_sum(v * v) + NORM_EPS ** 2)
    return ad.div(v, norm)
