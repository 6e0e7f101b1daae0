"""The fused ops of a training step, and dropout and parameter
initialization.

The context ops are one autodiff node each, with a hand-written
vector-Jacobian product: the region projection, the bounding-box embedding
added to it (`project_regions`, `add_box_embedding`), the terminals
(`attend_clips` in the full setting, `normalize_clips` in the textless one)
and the pitch LSTM over a (B, T, d) batch (`lstm_forward`). The chart's ops
are plain numpy functions that return their output and, when asked, their
vjp: the chart pass that calls them is the node (see `chart`). One chart
step serves each inside length (all spans of one length) and each outside
distance (all spans at one distance to the root): it runs the compose MLP's
hidden layer, the bilinear score and the split softmax pooling over (K, d)
blocks of pairs, and the MLP's second layer once per pooled span
(`chart_step`); `span_features` gives what a parent reads of a block of
child spans. Their forward expressions are those of elementary ops, in the
same order, so the composite of those ops (see the test oracles) gives the
same values bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError

__all__ = [
    "glorot_uniform",
    "project_regions",
    "add_box_embedding",
    "attend_clips",
    "normalize_clips",
    "chart_step",
    "span_features",
    "lstm_forward",
    "dropout_mask",
]


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    """uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def _linear_vjp(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                need_x: bool, need_w: bool) -> tuple:
    """Gradients of ``x @ w`` for a (K, d) `x`: (dx, dw), None where not needed."""
    return (g @ w.T if need_x else None), (x.T @ g if need_w else None)


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by its max."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _pad(rows: np.ndarray, pad: np.ndarray | None, blocks: tuple[int, int]) -> np.ndarray:
    """(cells, width) rows -> (B, C, width) per-sentence blocks, by the row
    indices `pad` (None when every sentence has C rows)."""
    rows = np.ascontiguousarray(rows) if pad is None else rows[pad]
    return rows.reshape(blocks + (-1,))


def _unpad(blocked: np.ndarray, unpad: np.ndarray | None) -> np.ndarray:
    """Inverse of `_pad`: the rows of the real cells, in storage order."""
    flat = blocked.reshape(-1, blocked.shape[-1])
    return flat if unpad is None else flat[unpad]


def _unpad_vjp(g: np.ndarray, unpad: np.ndarray | None,
               blocks: tuple[int, int]) -> np.ndarray:
    """The gradient of `_unpad`'s blocks: zero in the padding rows."""
    if unpad is None:
        return g.reshape(blocks + g.shape[1:])
    full = np.zeros((blocks[0] * blocks[1],) + g.shape[1:])
    full[unpad] = g
    return full.reshape(blocks + g.shape[1:])


def project_regions(features: np.ndarray, w: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The (B*M, d_v) constant region features times `w`, as (B, M, d)."""
    return ad._from_op((features @ w.data).reshape(shape), (w,),
                       lambda g: (features.T @ g.reshape(features.shape[0], -1),))


def add_box_embedding(v_proj: Tensor, units: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """(B, M, d) `v_proj` plus the affine embedding `units @ w + b` of each
    region's unit box, given as (B*M, 4) rows."""
    boxes = units @ w.data + b.data

    def vjp(g):
        rows = g.reshape(boxes.shape)
        return g, units.T @ rows, rows.sum(axis=0)

    return ad._from_op(v_proj.data + boxes.reshape(v_proj.data.shape), (v_proj, w, b), vjp)


def attend_clips(words: Tensor, clips: np.ndarray, weights: tuple[Tensor, ...], *,
                 blocks: tuple[int, int], pad: np.ndarray | None = None,
                 unpad: np.ndarray | None = None, mask: np.ndarray | None = None) -> Tensor:
    """Full-setting terminals: each word attends over its own sentence's clips
    (cross-attention without scaling) and takes the attention-weighted value
    projection of the clips.

    `words` (positions, d_w) and the constant `clips` (positions, d_s) hold
    the sentences one after another; `weights` are the clip and word
    projections and the query, key and value matrices. Each sentence's rows
    are padded to `blocks` = (B, n_max) by the row indices `pad` and back by
    `unpad` (both None when every sentence has n_max positions), with `mask`
    (B, n_max) adding -inf to padding clips. Returns (positions, d) rows.
    """
    w_clip, w_word, w_q, w_k, w_v = weights
    clip_proj = clips @ w_clip.data
    word_proj = words.data @ w_word.data
    queries = _pad(word_proj @ w_q.data, pad, blocks)
    keys = _pad(clip_proj @ w_k.data, pad, blocks)
    values = _pad(clip_proj @ w_v.data, pad, blocks)
    logits = queries @ np.swapaxes(keys, -1, -2)
    if mask is not None:
        logits = logits + mask[:, None, :]
    att = _softmax(logits)

    def vjp(g):
        # a padding row's gradient is zero: its output is dropped, and the mask
        # gives its clip no attention
        g_out = _unpad_vjp(g, unpad, blocks)
        g_att = g_out @ np.swapaxes(values, -1, -2)
        g_logits = (g_att - (g_att * att).sum(axis=-1, keepdims=True)) * att
        g_q = _unpad(g_logits @ keys, unpad)
        g_k = _unpad(np.swapaxes(g_logits, -1, -2) @ queries, unpad)
        g_v = _unpad(np.swapaxes(att, -1, -2) @ g_out, unpad)
        g_word = g_q @ w_q.data.T
        g_clip = g_k @ w_k.data.T + g_v @ w_v.data.T
        return (g_word @ w_word.data.T, clips.T @ g_clip, words.data.T @ g_word,
                word_proj.T @ g_q, clip_proj.T @ g_k, clip_proj.T @ g_v)

    return ad._from_op(_unpad(att @ values, unpad), (words,) + tuple(weights), vjp)


def normalize_clips(clips: np.ndarray, w: Tensor) -> Tensor:
    """Textless terminals: each constant clip row's projection `clips @ w`,
    L2-normalized."""
    proj = clips @ w.data
    norms = np.sqrt((proj * proj).sum(axis=1) + 1e-16).reshape(-1, 1)
    unit = proj / norms

    def vjp(g):
        return (clips.T @ ((g - unit * (g * unit).sum(axis=1, keepdims=True)) / norms),)

    return ad._from_op(unit, (w,), vjp)


def _take(read: tuple) -> np.ndarray:
    """The rows a read (array, rows, cols) names: a view for a slice, else a
    new array. `rows` is a slice, an index array or a tuple of parts (at,
    index): rows `at` (a slice, an index array or a boolean mask) of the
    result are the array's rows `index`."""
    array, rows, cols = read
    if not isinstance(rows, tuple):
        return array[rows, cols]
    out = np.empty((sum(len(index) for _, index in rows),) + array[0, cols].shape)
    for at, index in rows:
        out[at] = array[index, cols]
    return out


def _add_at(grad: np.ndarray, read: tuple, g: np.ndarray) -> None:
    """Add `g`, the gradient of the rows `read` names, into `grad`, an array
    shaped like the one read. An index array or a part names no row twice:
    a fancy-index `+=` keeps one term of a repeated row. Different parts may
    name the same rows."""
    _, rows, cols = read
    if isinstance(rows, tuple):
        for at, index in rows:
            grad[index, cols] += g[at]
    else:
        grad[rows, cols] += g


def chart_step(left: tuple, right: tuple, weights: tuple[np.ndarray, ...], *, cells: int,
               keep: np.ndarray | None = None, rate: float = 0.0, regions: int = 0,
               voice: np.ndarray | None = None, pitch: np.ndarray | None = None,
               pool: np.ndarray | None = None, pool_rows: np.ndarray | None = None,
               lam: float = 0.0, grad: bool = True):
    """One inside or outside step on numpy arrays: ((cells, d + 1) rows of
    pooled vector and expected score, (cells, pairs per cell) pair scores,
    and the step's vjp, None unless `grad`).

    An inside step pairs the left and right children of each split of the
    spans of one length; an outside step pairs the parent and sibling of
    each context of the spans at one distance to the root. `left` and
    `right` are reads (array, rows, cols) of the K pairs, cell by cell (see
    `_take`). A left row is, with `regions` M > 0, its attention through the
    pair matrix (M), then its vector and score; a right row is its vector,
    its score and, with M > 0, its attention (M). `weights` are the compose
    MLP's (w1, b1, w2, b2) and the bilinear matrix. With `pitch` (B, T, d),
    both vectors gain `lam` times the mean pitch state over the cell's
    positions: for cell c, row `pool_rows[c]` of the (B, windows) means that
    the (windows, T) averaging matrix `pool` gives.

    A pair's score is, in this order, the bilinear score plus the pair term
    (the left row's pair columns dotted with the right row's attention) plus
    its `voice` term plus both rows' scores. Each cell's softmax over them
    pools the MLP's hidden layers, which the second layer maps once per cell,
    and the scores. In training, the boolean mask `keep` drops hidden units
    and the kept ones are scaled by 1 / (1 - `rate`).

    The vjp, `vjp(g, left_grad, right_grad)`, adds the pair rows' gradients
    into `left_grad` and `right_grad`, arrays shaped like the ones read (the
    same array when both sides read one), right before left, and returns
    the gradients of `pitch` (None without it) and of the weights. It keeps
    the unmasked hidden layer, the bilinear projection of the left vectors,
    the softmax and the small per-window pitch means, but no copy of the
    pairs' rows: it reads them again, so the rows it names must not change
    before it runs.
    """
    w1, b1, w2, b2, w_bil = weights
    d = w_bil.shape[0]
    scale = None if keep is None else 1.0 / (1.0 - rate)
    pooled = windows = spread = None
    if pitch is not None:
        spread = np.broadcast_to(pool, (pitch.shape[0],) + pool.shape)
        pooled = lam * (spread @ pitch)
        windows = pooled.shape[:2]

    def pairs() -> tuple[np.ndarray, ...]:
        """The left and right rows and the pairs' (pitch-shifted) vectors."""
        left_rows, right_rows = _take(left), _take(right)
        x, y = left_rows[:, regions:regions + d], right_rows[:, :d]
        if pooled is not None:
            shift = np.repeat(pooled.reshape(-1, d)[pool_rows], x.shape[0] // cells, axis=0)
            x, y = x + shift, y + shift
        return left_rows, right_rows, x, y

    left_rows, right_rows, x, y = pairs()
    tanh = x @ w1[:d]
    tanh += y @ w1[d:]
    tanh += b1
    np.tanh(tanh, out=tanh)
    projected = x @ w_bil
    scores = (projected * y).sum(axis=1)
    if regions:
        scores = scores + (left_rows[:, :regions] * right_rows[:, d + 1:]).sum(axis=1)
    if voice is not None:
        scores = scores + voice
    scores = ((scores + left_rows[:, regions + d]) + right_rows[:, d]).reshape(cells, -1)
    softmax = _softmax(scores)

    def hidden() -> np.ndarray:
        """The hidden layers with the dropout mask applied, (cells, pairs, hidden)."""
        masked = tanh if keep is None else (tanh * keep) * scale
        return masked.reshape(softmax.shape + (-1,))

    pooled_hidden = (softmax[:, :, None] * hidden()).sum(axis=1)
    out = np.empty((cells, d + 1))
    out[:, :-1] = pooled_hidden @ w2
    out[:, :-1] += b2
    out[:, -1] = (scores * softmax).sum(axis=1)
    if not grad:
        return out, scores, None

    def vjp(g, left_grad, right_grad):
        left_rows, right_rows, x, y = pairs()
        g_vector, g_score = g[:, :-1], g[:, -1:]
        g_pooled = g_vector @ w2.T
        # b2 adds the same term to every pair of a cell, which the softmax cancels
        g_softmax = np.einsum("csh,ch->cs", hidden(), g_pooled) + g_score * scores
        g_scores = (g_score * softmax
                    + (g_softmax - (g_softmax * softmax).sum(axis=1, keepdims=True))
                    * softmax).ravel()
        g_pre = (g_pooled[:, None, :] * softmax[:, :, None]).reshape(tanh.shape)
        if keep is not None:
            g_pre *= keep
            g_pre *= scale
        slope = tanh * tanh
        g_pre *= np.subtract(1.0, slope, out=slope)
        g_w1 = np.empty(w1.shape)
        g_w1[:d] = x.T @ g_pre
        g_w1[d:] = y.T @ g_pre
        g_bilinear = g_scores[:, None] * y
        g_x = g_bilinear @ w_bil.T
        g_x += g_pre @ w1[:d].T
        g_y = g_scores[:, None] * projected
        g_y += g_pre @ w1[d:].T
        # right before left: a row both sides read sums its two terms in this
        # order, the order the sweep reached separate gather nodes in
        if right_grad is not None:
            g_right = np.empty(right_rows.shape)
            g_right[:, :d], g_right[:, d] = g_y, g_scores
            if regions:
                g_right[:, d + 1:] = g_scores[:, None] * left_rows[:, :regions]
            _add_at(right_grad, right, g_right)
        if left_grad is not None:
            g_left = np.empty(left_rows.shape)
            g_left[:, regions:regions + d], g_left[:, regions + d] = g_x, g_scores
            if regions:
                g_left[:, :regions] = g_scores[:, None] * right_rows[:, d + 1:]
            _add_at(left_grad, left, g_left)
        g_pitch = None
        if pitch is not None:
            g_windows = np.zeros((windows[0] * windows[1], d))
            g_windows[pool_rows] = (g_x + g_y).reshape(cells, -1, d).sum(axis=1)
            g_pitch = np.swapaxes(spread, 1, 2) @ (lam * g_windows.reshape(windows + (d,)))
        return (g_pitch, g_w1, g_pre.sum(axis=0), pooled_hidden.T @ g_vector,
                g_vector.sum(axis=0), x.T @ g_bilinear)

    return out, scores, vjp


def span_features(rows: np.ndarray, v_proj: np.ndarray, region_sum: np.ndarray, *,
                  gamma: float, blocks: tuple[int, int], pad: np.ndarray | None = None,
                  unpad: np.ndarray | None = None, mask: np.ndarray | None = None,
                  pair: np.ndarray | None = None, grad: bool = True):
    """What a parent reads of a block of child spans, on numpy arrays: the
    rows, and their vjp (None unless `grad`).

    `rows` are (cells, d + 1) rows of span vector h and span score. Each
    sentence's spans attend over its own regions: padded to `blocks` = (B,
    C) per-sentence blocks by the row indices `pad` and back by `unpad`
    (both None when every sentence has C of them), against the (B, M, d)
    `v_proj` and `region_sum`, with `mask` (B, M) adding -inf to padding
    regions. Returns rows of h + gamma * u (u the attention-pooled region
    feature) and the span score; given the (B, M, M) `pair` matrices, the
    attention through the pair matrix comes first and the attention last,
    so the left and the right child of a pair each read one contiguous
    range of columns (see `chart_step`). The vjp, `vjp(g, rows_grad)`, adds
    the rows' gradient into `rows_grad` and returns those of `v_proj` and
    `region_sum`.
    """
    d = rows.shape[1] - 1
    h = rows[:, :d]
    hp = _pad(h, pad, blocks)
    logits = hp @ np.swapaxes(v_proj, -1, -2)
    if mask is not None:
        logits = logits + mask[:, None, :]
    att = _softmax(logits)
    regions = att.shape[-1]

    lead = regions if pair is not None else 0
    out = np.empty((rows.shape[0], d + 1 + 2 * lead))
    out[:, lead:lead + d] = h + gamma * _unpad(att @ region_sum, unpad)
    out[:, lead + d] = rows[:, d]
    if pair is not None:
        out[:, :lead] = _unpad(att @ pair, unpad)
        out[:, lead + d + 1:] = _unpad(att, unpad)
    if not grad:
        return out, None

    def vjp(g, rows_grad):
        g_u = _unpad_vjp(gamma * g[:, lead:lead + d], unpad, blocks)
        g_att = g_u @ np.swapaxes(region_sum, -1, -2)
        if pair is not None:
            g_att = g_att + _unpad_vjp(g[:, lead + d + 1:], unpad, blocks) \
                + _unpad_vjp(g[:, :lead], unpad, blocks) @ np.swapaxes(pair, -1, -2)
        g_logits = (g_att - (g_att * att).sum(axis=-1, keepdims=True)) * att
        # padding rows are dropped, so they get no gradient: read the real ones
        rows_grad[:, :d] += _unpad(g_logits @ v_proj, unpad) + g[:, lead:lead + d]
        rows_grad[:, d] += g[:, lead + d]
        return np.swapaxes(g_logits, -1, -2) @ hp, np.swapaxes(att, -1, -2) @ g_u

    return out, vjp


def lstm_forward(inputs: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """Single-layer unidirectional LSTM, zero initial state.

    Takes a (B, T, d) batch of sequences padded to a common T; the
    recurrence is causal, so padding after a sequence's end does not change
    its hidden states. The input projection of every step is one matmul; the
    backward pass runs backpropagation through time. Gate layout along the
    4d axis: input, forget, cell, output. Returns the (B, T, d) hidden
    states.
    """
    shape = inputs.data.shape
    if inputs.data.ndim != 3 or 0 in shape[:-1]:
        raise ValueError(f"lstm_forward needs a nonempty (B, T, d) batch of sequences, "
                         f"got {inputs.shape}")
    batch, steps, d = shape
    if w_x.data.shape != (d, 4 * d):
        raise ShapeError(f"lstm weight shape {w_x.data.shape} does not match input dim {d}")
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

    def vjp(g):
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

    return ad._from_op(hidden, (inputs, w_x, w_h, b), vjp)


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...],
                 rate: float) -> np.ndarray:
    """Inverted-dropout keep mask: False with probability `rate`, one uniform
    draw per unit. The op that applies it scales the kept units by
    1 / (1 - `rate`) (see `chart_step`)."""
    if rng is None:
        raise ValueError("dropout in training mode requires an rng")
    return rng.random(shape) >= rate
