"""Independent reference implementations used only by tests.

Everything here is plain numpy, written recursively, scalar-at-a-time or
loop by loop on purpose: these are the oracles the vectorized library code is
checked against, so they deliberately share no code with it. The exceptions
are the elementary autodiff ops (add, matmul, softmax and the rest, which
the library no longer builds: every op of a training step is a fused node)
and the composites built from them: the composite references of the fused
ops, the node-by-node context and chart passes and the composite training
loss. Those use the library's constants, terminals, plan padding, averaging
matrices and negative sampling, which the fused code leaves unchanged, so
that their gradients come from elementary vector-Jacobian products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mmgi import autodiff as ad
from mmgi.autodiff import Tensor
from mmgi.chart import Chart, init_terminals
from mmgi.errors import ShapeError
from mmgi.losses import NORM_EPS, LossReport, _sample_negatives, _segment_matrix
from mmgi.nn import chart_step, dropout_mask
from mmgi.optim import BETA1, BETA2, EPS


def fd_gradient(fn, arrays: dict[str, np.ndarray], eps: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of a scalar fn() over every coordinate."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for c in range(flat.size):
            orig = flat[c]
            flat[c] = orig + eps
            up = fn()
            flat[c] = orig - eps
            down = fn()
            flat[c] = orig
            gflat[c] = (up - down) / (2 * eps)
        grads[name] = g
    return grads


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def naive_softmax(v):
    e = np.exp(v - np.max(v))
    return e / e.sum()


def naive_mlp(left, right, w1, b1, w2, b2):
    hidden = np.tanh(np.concatenate([left, right]) @ w1 + b1)
    return hidden @ w2 + b2


def naive_lstm(inputs, wx, wh, b):
    d = inputs.shape[1]
    h = np.zeros(d)
    c = np.zeros(d)
    outs = []
    for x in inputs:
        z = x @ wx + h @ wh + b
        gi = np_sigmoid(z[:d])
        gf = np_sigmoid(z[d:2 * d])
        gc = np.tanh(z[2 * d:3 * d])
        go = np_sigmoid(z[3 * d:])
        c = gf * c + gi * gc
        h = go * np.tanh(c)
        outs.append(h)
    return np.stack(outs)


# ---------------------------------------------------------------------------
# elementary ops that only the composite references build
#
# The library fuses every block that used them into a node with its own vjp,
# so they live here, checked against finite differences in test_autodiff.
# They are called as functions: a Tensor has no arithmetic operators.


def astensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


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


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return ad._from_op(data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return ad._from_op(data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return ad._from_op(data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    data = a.data / b.data

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return ad._from_op(data, (a, b), vjp)


def neg(a) -> Tensor:
    a = astensor(a)
    return ad._from_op(-a.data, (a,), lambda g: (-g,))


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

    return ad._from_op(data, (a, b), vjp)


def bmm(a, b) -> Tensor:
    """Batched matrix product over a shared leading axis: (B, n, k) @ (B, k, m),
    or (n, k) @ (B, k, m) with one left matrix for every batch entry."""
    a, b = astensor(a), astensor(b)
    shared = a.data.ndim == 2
    if (a.data.ndim not in (2, 3) or b.data.ndim != 3
            or not shared and a.data.shape[0] != b.data.shape[0]):
        raise ShapeError(f"bmm needs (B, n, k) or (n, k) @ (B, k, m), "
                         f"got {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"bmm shape mismatch: {a.shape} @ {b.shape}") from exc

    def vjp(g):
        g_a = g @ b.data.transpose(0, 2, 1)
        return (g_a.sum(axis=0) if shared else g_a), np.swapaxes(a.data, -1, -2) @ g

    return ad._from_op(data, (a, b), vjp)


def vecdot(a, b) -> Tensor:
    """Dot products of two same-shape stacks of vectors along their last axis."""
    a, b = astensor(a), astensor(b)
    data = np.vecdot(a.data, b.data)

    def vjp(g):
        g = g[..., None]
        return g * b.data, g * a.data

    return ad._from_op(data, (a, b), vjp)


def tensor_sum(a, axis: int | None = None) -> Tensor:
    a = astensor(a)
    data = a.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape),)

    return ad._from_op(data, (a,), vjp)


def sqrt(a) -> Tensor:
    a = astensor(a)
    data = np.sqrt(a.data)
    return ad._from_op(data, (a,), lambda g: (g * 0.5 / data,))


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

    return ad._from_op(data, (a,), vjp)


def transpose(a) -> Tensor:
    """Swap the last two axes (the matrix transpose of a 2-D or batched 3-D tensor)."""
    a = astensor(a)
    return ad._from_op(np.swapaxes(a.data, -1, -2), (a,),
                       lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = astensor(a)
    data = a.data.reshape(shape)
    return ad._from_op(data, (a,), lambda g: (g.reshape(a.data.shape),))


def tanh(a):
    a = astensor(a)
    data = np.tanh(a.data)
    return ad._from_op(data, (a,), lambda g: (g * (1.0 - data * data),))


def sigmoid(a):
    a = astensor(a)
    data = 1.0 / (1.0 + np.exp(-a.data))
    return ad._from_op(data, (a,), lambda g: (g * data * (1.0 - data),))


def relu(a):
    a = astensor(a)
    data = np.maximum(a.data, 0.0)
    return ad._from_op(data, (a,), lambda g: (g * (a.data > 0.0),))


def log_softmax(a, axis: int = -1):
    a = astensor(a)
    if a.data.size == 0:
        raise ValueError("log_softmax of an empty vector is undefined")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def vjp(g):
        return (g - np.exp(data) * g.sum(axis=axis, keepdims=True),)

    return ad._from_op(data, (a,), vjp)


def tensor_mean(a, axis: int | None = None):
    a = astensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    data = a.data.mean(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.data.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, a.data.shape),)

    return ad._from_op(data, (a,), vjp)


def tensor_max(a, axis: int):
    """Max along `axis`; ties route the gradient to the smallest index."""
    a = astensor(a)
    idx = np.expand_dims(a.data.argmax(axis=axis), axis)
    data = np.take_along_axis(a.data, idx, axis=axis).squeeze(axis)

    def vjp(g):
        out = np.zeros_like(a.data)
        np.put_along_axis(out, idx, np.expand_dims(g, axis), axis=axis)
        return (out,)

    return ad._from_op(data, (a,), vjp)


def take_pairs(a, rows, cols):
    """Select `a[rows[i], cols[i]]` for each i, returning a 1-D tensor."""
    a = astensor(a)
    r = np.asarray(rows, dtype=np.intp)
    c = np.asarray(cols, dtype=np.intp)
    data = a.data[r, c]

    def vjp(g):
        out = np.zeros_like(a.data)
        np.add.at(out, (r, c), g)
        return (out,)

    return ad._from_op(data, (a,), vjp)


def select(a, key):
    """Basic (slice/integer) indexing `a[key]`; zero-filled scatter on backward."""
    a = astensor(a)
    data = a.data[key]

    def vjp(g):
        out = np.zeros_like(a.data)
        out[key] = g
        return (out,)

    return ad._from_op(data, (a,), vjp)


def stack(tensors, axis: int = 0):
    tensors = [astensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return ad._from_op(data, tuple(tensors), vjp)


def concat(tensors, axis: int = 0):
    tensors = [astensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def vjp(g):
        index = [slice(None)] * g.ndim
        pieces, start = [], 0
        for t in tensors:
            stop = start + t.data.shape[axis]
            index[axis] = slice(start, stop)
            pieces.append(g[tuple(index)])
            start = stop
        return pieces

    return ad._from_op(data, tuple(tensors), vjp)


# ---------------------------------------------------------------------------
# composite references of the fused autodiff ops
#
# The model blocks that `mmgi.nn` computes as single nodes, rebuilt from
# elementary ops as they were before fusion, but in the fused ops'
# association: the compose MLP's first layer as the sum of its halves' products
# with the left and the right rows, and, in the chart passes, its second layer
# applied after the split softmax pooling. The fused forward must match these
# bit for bit; their gradients come from the elementary ops' vjps.


def composite_mlp_hidden(left, right, w1, b1, keep=None):
    """The compose MLP's hidden layer of (K, d) row pairs, `keep` applied."""
    d = left.data.shape[1]
    h = tanh(add(add(matmul(left, select(w1, slice(0, d))),
                     matmul(right, select(w1, slice(d, None)))), b1))
    return h if keep is None else mul(h, keep)


def composite_mlp_compose(left, right, w1, b1, w2, b2, keep=None):
    return add(matmul(composite_mlp_hidden(left, right, w1, b1, keep), w2), b2)


def composite_bilinear_score(left, w, right):
    return vecdot(matmul(left, w), right)


def composite_softmax_pool(scores, vectors):
    cells, count = scores.data.shape
    width = vectors.data.shape[1]
    weights = softmax(scores, axis=1)
    stacked = reshape(vectors, (cells, count, width))
    pooled = reshape(bmm(reshape(weights, (cells, 1, count)), stacked), (cells, width))
    return pooled, vecdot(scores, weights)


def composite_lstm(inputs, w_x, w_h, b):
    batch, steps, d = inputs.data.shape
    projected = add(matmul(reshape(inputs, (batch * steps, d)), w_x), b)
    projected = reshape(projected, (batch, steps, 4 * d))
    h = ad.constant(np.zeros((batch, d)))
    c = ad.constant(np.zeros((batch, d)))
    outs = []
    for t in range(steps):
        z = add(select(projected, (slice(None), t)), matmul(h, w_h))
        gates = sigmoid(z)
        gi = select(gates, (slice(None), slice(0, d)))
        gf = select(gates, (slice(None), slice(d, 2 * d)))
        gc = tanh(select(z, (slice(None), slice(2 * d, 3 * d))))
        go = select(gates, (slice(None), slice(3 * d, 4 * d)))
        c = add(mul(gf, c), mul(gi, gc))
        h = mul(go, tanh(c))
        outs.append(h)
    return stack(outs, axis=1)


def bilinear_score(left, w, right):
    """Row-wise ``left[k] @ w @ right[k]`` of two (K, d) blocks, as one node:
    the scoring block of the node-by-node chart passes below."""
    projected = left.data @ w.data
    data = np.vecdot(projected, right.data)

    def vjp(g):
        g = g[:, None]
        g_projected = g * right.data
        return (g_projected @ w.data.T if left.requires_grad else None,
                left.data.T @ g_projected if w.requires_grad else None,
                g * projected if right.requires_grad else None)

    return ad._from_op(data, (left, w, right), vjp)


def softmax_pool(scores, vectors):
    """Softmax over each row of (cells, K) scores, pooling the weighted mean
    of the (cells * K, d) vectors and the expected score: two nodes that share
    one softmax, the pooling block of the node-by-node chart passes below."""
    cells, count = scores.data.shape
    shifted = scores.data - scores.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=1, keepdims=True)
    stacked = vectors.data.reshape(cells, count, vectors.data.shape[1])
    pooled = (weights.reshape(cells, 1, count) @ stacked)[:, 0]
    expected = np.vecdot(scores.data, weights)

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


def step_node(left, right, weights, left_rows=slice(None), right_rows=slice(None), **kw):
    """`mmgi.nn.chart_step` on the rows `left_rows` and `right_rows` of the
    tensors `left` and `right`, as a node of its own: how the tests take
    gradients of one step, which the chart passes run as numpy functions."""
    reads = ((left.data, left_rows, slice(None)), (right.data, right_rows, slice(None)))
    out, _, vjp = chart_step(*reads, tuple(w.data for w in weights), **kw)

    def node_vjp(g):
        grads = [np.zeros(left.data.shape), np.zeros(right.data.shape)]
        return (*grads, *vjp(g, *grads)[1:])

    return ad._from_op(out, (left, right) + tuple(weights), node_vjp)


# ---------------------------------------------------------------------------
# the context node by node
#
# `mmgi.chart.build_context`'s region tensors and `init_terminals` as they
# were before each became one node (`mmgi.nn.project_regions`,
# `add_box_embedding`, `attend_clips` and `normalize_clips`). The fused
# nodes must give the same values bit for bit and the same gradients up to
# the order of their sums.


def pad_blocks(block, plan, length: int):
    """(cells, ...) rows of one length -> (B, n_max - length + 1, ...) blocks."""
    if plan.uniform:
        shape = (len(plan.lengths), plan.n_max - length + 1) + block.data.shape[1:]
        return reshape(block, shape)
    return ad.gather_rows(block, plan.pad[length])


def unpad_blocks(blocks, plan, length: int):
    """Inverse of `pad_blocks`: the rows of the real spans, in storage order."""
    count, width = blocks.data.shape[:2]
    flat = reshape(blocks, (count * width,) + blocks.data.shape[2:])
    return flat if plan.uniform else ad.gather_rows(flat, plan.unpad[length])


def composite_context(examples, ctx, params, cfg) -> dict:
    """The projected regions, their sum with the box embeddings (None with
    region features off) and the terminals of `ctx`'s batch, which supplies
    the constant features and the word embedding rows."""
    count = len(examples)
    most = ctx.region_rows.data.shape[0] // count
    v_proj = reshape(matmul(ctx.region_rows, params["vision_projection"]), (count, most, cfg.d))
    region_sum = None
    if cfg.use_visual:
        units = np.zeros((count, most, 4))
        for b, ex in enumerate(examples):
            units[b, :ctx.region_counts[b]] = ex.regions.unit_boxes(ex.id, ctx.region_counts[b])
        boxes = add(matmul(ad.constant(units.reshape(count * most, 4)), params["bbox_embed_w"]),
                    params["bbox_embed_b"])
        region_sum = add(v_proj, reshape(boxes, (count, most, cfg.d)))
    clip_proj = matmul(ctx.clip_rows, params["clip_projection"])
    if cfg.mode == "textless":
        sq = tensor_sum(mul(clip_proj, clip_proj), axis=1)
        norms = reshape(sqrt(add(sq, 1e-16)), (ctx.clip_rows.data.shape[0], 1))
        terminals = div(clip_proj, norms)
    else:
        plan = ctx.plan
        word_proj = matmul(ctx.word_rows, params["word_projection"])
        queries = pad_blocks(matmul(word_proj, params["attn_q"]), plan, 1)
        keys = pad_blocks(matmul(clip_proj, params["attn_k"]), plan, 1)
        values = pad_blocks(matmul(clip_proj, params["attn_v"]), plan, 1)
        logits = bmm(queries, transpose(keys))
        if plan.position_mask is not None:
            logits = add(logits, plan.position_mask[:, None, :])
        terminals = unpad_blocks(bmm(softmax(logits, axis=-1), values), plan, 1)
    return {"v_proj": v_proj, "region_sum": region_sum, "terminals": terminals}


# ---------------------------------------------------------------------------
# the chart passes node by node
#
# `mmgi.chart.inside_pass` and `outside_pass` as they were before each step
# became one node: every block concatenated again per step, one node per
# gather, padding and feature term. The fused passes must give the same
# values bit for bit and the same gradients up to the order of their sums.


@dataclass
class ColumnChart:
    """A chart as the node-by-node passes build it: the span vectors and
    scores of each pass as tensors of their own, (spans, d) and (spans,),
    rows as in `mmgi.chart.Chart`; `split_in[l]` is block l's score tensor."""

    lengths: tuple
    ids: list
    plan: object
    h_in: Tensor
    s_in: Tensor
    split_in: dict = field(default_factory=dict)
    outside_masks: dict | None = None
    h_out: Tensor | None = None
    s_out: Tensor | None = None


def column_chart(chart: Chart) -> ColumnChart:
    """The columns of a fused chart's pass nodes as selections of them."""
    columns = {}
    for side, rows in (("in", chart.inside), ("out", chart.outside)):
        columns[f"h_{side}"] = select(rows, (slice(None), slice(0, -1)))
        columns[f"s_{side}"] = select(rows, (slice(None), -1))
    return ColumnChart(chart.plan.lengths, chart.ids, chart.plan, **columns)


def pass_chart(chart: ColumnChart) -> Chart:
    """A `mmgi.chart.Chart` whose pass nodes join the columns of `chart`:
    how the library's losses read a node-by-node chart."""
    passes = {side: concat([getattr(chart, f"h_{side}"),
                            reshape(getattr(chart, f"s_{side}"), (-1, 1))], axis=1)
              for side in ("in", "out")}
    return Chart(ids=chart.ids, plan=chart.plan,
                 inside=passes["in"], outside=passes["out"])


def visual_span_feature(h_in, v_proj, region_sum, mask=None):
    """Attention-pooled region feature: (u, attention weights over the regions).

    For a span (d,) or a block of spans (cells, d) against one image's
    (M, d) regions, or for per-sentence blocks (B, C, d) against each
    sentence's own (B, M, d) regions, with `mask` (B, M) adding -inf to
    padding regions.
    """
    product = bmm if h_in.data.ndim == 3 else matmul
    logits = product(h_in, transpose(v_proj))
    if mask is not None:
        logits = add(logits, mask[:, None, :])
    att = softmax(logits, axis=-1)
    return product(att, region_sum), att


def split_dropout_masks(plan, hidden: int, rate: float, rng) -> tuple[dict, dict]:
    """`mmgi.chart._dropout_masks` as it assembled the masks before: one draw,
    split into per-sentence pieces in draw order, concatenated per step. At
    distance r, the pieces of sentences with n = r + 1 go last. The masks are
    float, 0 or 1 / (1 - rate), as they were before the chart kept boolean
    masks and scaled in its steps."""
    blocks, rows = [], []   # (pass, length or distance, last), mask rows, in draw order
    for n in plan.lengths:
        for length in range(2, n + 1):
            blocks.append((0, length, False))
            rows.append((n - length + 1) * (length - 1))
        for length in range(n - 1, 0, -1):
            blocks.append((1, n - length, length == 1))
            rows.append((n - length + 1) * (n - length))
    keep = dropout_mask(rng, (sum(rows), hidden), rate) / (1.0 - rate)
    drawn: tuple[dict, dict] = ({}, {})
    for (kind, key, last), mask in zip(blocks, np.split(keep, np.cumsum(rows)[:-1])):
        drawn[kind].setdefault(key, ([], []))[last].append(mask)
    return tuple({key: np.concatenate(first + last) for key, (first, last) in d.items()}
                 for d in drawn)


def composite_inside_pass(ctx, params, cfg, training=False, rng=None):
    plan = ctx.plan
    terminals = init_terminals(ctx, params, cfg)
    inside_masks = outside_masks = None
    if training and cfg.dropout > 0.0:
        inside_masks, outside_masks = split_dropout_masks(
            plan, params["compose_in_w1"].data.shape[1], cfg.dropout, rng)
    gamma, lam = cfg.gamma, cfg.lam
    h_blocks = [terminals]
    s_blocks = [ad.constant(np.zeros(terminals.data.shape[0]))]
    child_blocks = []   # span vectors plus their region feature
    att_blocks = []     # region attention of each span
    pair_blocks = []    # that attention through the pair matrix
    voice = None
    if ctx.voice is not None:
        voice = ctx.voice[plan.span_sentence, plan.span_start - 1, plan.span_end - 1]

    def add_child_block(h, length):
        if ctx.region_sum is None:
            child_blocks.append(h)
            return
        u, att = visual_span_feature(pad_blocks(h, plan, length), ctx.v_proj,
                                     ctx.region_sum, ctx.region_mask)
        child_blocks.append(add(h, mul(gamma, unpad_blocks(u, plan, length))))
        att_blocks.append(unpad_blocks(att, plan, length))
        if ctx.pair_sub is not None:
            pair_blocks.append(unpad_blocks(bmm(att, ctx.pair_sub), plan, length))

    add_child_block(terminals, 1)
    split_in = {}
    for length in range(2, plan.n_max + 1):
        (left_rows, right_rows), block_rows = plan.inside[length]
        block = slice(plan.block_start[length], plan.block_start[length + 1])
        cells, splits = block.stop - block.start, length - 1
        children = concat(child_blocks)
        left = ad.gather_rows(children, left_rows)
        right = ad.gather_rows(children, right_rows)
        if ctx.pitch_seq is not None:
            pooled = mul(lam, bmm(plan.pool[length], ctx.pitch_seq))
            pooled = ad.gather_rows(reshape(pooled, (-1, pooled.data.shape[2])),
                                    np.repeat(block_rows, length - 1))
            left = add(left, pooled)
            right = add(right, pooled)

        hidden = composite_mlp_hidden(
            left, right, params["compose_in_w1"], params["compose_in_b1"],
            keep=None if inside_masks is None else inside_masks[length],
        )
        scores = bilinear_score(left, params["bilinear_inside"], right)
        if pair_blocks:
            scores = add(scores, vecdot(ad.gather_rows(concat(pair_blocks), left_rows),
                                        ad.gather_rows(concat(att_blocks), right_rows)))
        if voice is not None:
            scores = add(scores, np.repeat(voice[block], splits))
        span_scores = concat(s_blocks)
        scores = add(add(scores, ad.gather_rows(span_scores, left_rows)),
                     ad.gather_rows(span_scores, right_rows))
        scores = reshape(scores, (cells, splits))
        h, s = softmax_pool(scores, hidden)
        h = add(matmul(h, params["compose_in_w2"]), params["compose_in_b2"])
        split_in[length] = scores
        h_blocks.append(h)
        s_blocks.append(s)
        if length < plan.n_max:
            add_child_block(h, length)
    return ColumnChart(ctx.lengths, ctx.ids, plan, h_in=concat(h_blocks), s_in=concat(s_blocks),
                       split_in=split_in, outside_masks=outside_masks)


def part_rows(parts) -> np.ndarray:
    """The index array whose read parts (at, index) are `parts`."""
    rows = np.empty(sum(index.size for _, index in parts), dtype=np.intp)
    for at, index in parts:
        rows[at] = index
    return rows


def composite_outside_pass(chart, ctx, params, cfg, training=False):
    plan = chart.plan
    masks = chart.outside_masks if training else None
    count = len(chart.lengths)
    h_blocks = [mul(params["root_outside_bias"], np.ones((count, 1)))]   # distance 0 first
    s_blocks = [ad.constant(np.zeros(count))]
    # each span row's place among the cells in step order
    order = np.concatenate([plan.root_rows] + [plan.out_rows[r] for r in range(1, plan.n_max)])
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    for r in range(1, plan.n_max):
        parents, siblings, cells = plan.outside[r]
        parent_rows, sibling_rows = place[part_rows(parents)], part_rows(siblings)
        parent = ad.gather_rows(concat(h_blocks), parent_rows)
        sibling = ad.gather_rows(chart.h_in, sibling_rows)
        hidden = composite_mlp_hidden(
            parent, sibling, params["compose_out_w1"], params["compose_out_b1"],
            keep=None if masks is None else masks[r],
        )
        scores = add(add(bilinear_score(parent, params["bilinear_outside"], sibling),
                         ad.gather_rows(concat(s_blocks), parent_rows)),
                     ad.gather_rows(chart.s_in, sibling_rows))
        scores = reshape(scores, (cells, r))
        h, s = softmax_pool(scores, hidden)
        h = add(matmul(h, params["compose_out_w2"]), params["compose_out_b2"])
        h_blocks.append(h)
        s_blocks.append(s)
    chart.h_out = ad.gather_rows(concat(h_blocks), place)
    chart.s_out = ad.gather_rows(concat(s_blocks), place)
    return chart


def adam_step(m, v, param, grad, lr: float, t: int):
    """Step t of `mmgi.optim.Adam` on one parameter, in fresh arrays: the
    (m, v, param) after it, a None gradient taken as zero."""
    g = grad if grad is not None else 0.0
    m = BETA1 * m + (1.0 - BETA1) * g
    v = BETA2 * v + (1.0 - BETA2) * (g * g)
    step = lr * (m / (1.0 - BETA1 ** t)) / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)
    return m, v, param - step


# ---------------------------------------------------------------------------
# per-clip features, one clip at a time


def scalar_pitch_index(f0_values) -> int:
    """One clip's pitch embedding row: ``np.mean`` of the voiced f0, clamped
    to [50, 500], rounded half-up, as rows 1..451; 0 when all unvoiced."""
    voiced = [v for v in f0_values if v > 0.0]
    if not voiced:
        return 0
    avg = float(np.mean(voiced))
    clamped = min(max(avg, 50.0), 500.0)
    return int(np.floor(clamped + 0.5)) - 50 + 1


def per_clip(frames: np.ndarray, counts: np.ndarray) -> list[list]:
    """A track's flat frames (`SpeechTrack.f0` or `.vad`) split into one list
    per clip by its frame counts."""
    ends = np.cumsum(counts)
    return [frames[end - count:end].tolist() for count, end in zip(counts, ends)]


def scalar_vad_aggregate(track) -> tuple[np.ndarray, np.ndarray]:
    """Per clip (voice_time, nonvoice_time) of one track, clip by clip."""
    voice = np.empty(track.count)
    nonvoice = np.empty(track.count)
    for t, frames in enumerate(per_clip(track.vad, track.vad_counts)):
        on = sum(1 for f in frames if f)
        voice[t] = on * track.frame_period
        nonvoice[t] = (len(frames) - on) * track.frame_period
    return voice, nonvoice


def scalar_unit_box(bbox, width, height) -> np.ndarray:
    x0, y0, x1, y1 = (float(v) for v in bbox)
    return np.array([x0 / width, y0 / height, x1 / width, y1 / height])


def scalar_pair_matrix(category_sets, category_count: int) -> np.ndarray:
    """Pair relevance entry by entry: co-counts image by image, then each
    Co-Count(a, b) over row a's plus row b's co-count mass."""
    C = category_count
    co = np.zeros((C, C))
    for group in category_sets:
        for a in set(group):
            for b in set(group):
                if a != b:
                    co[a, b] += 1.0
    row_mass = co.sum(axis=1)
    values = np.zeros((C, C))
    for a in range(C):
        for b in range(C):
            denom = row_mass[a] + row_mass[b]
            if denom > 0:
                values[a, b] = co[a, b] / denom
    return values


def naive_chart(example, weights: dict[str, np.ndarray], cfg, pair_values,
                vocab_index) -> dict:
    """Recursive, memoized inside-outside recomputation of every chart cell.

    Returns {"h_in": {(i,j): vec}, "s_in": ..., "h_out": ..., "s_out": ...,
    "q": ...}.
    """
    textless = cfg.mode == "textless"
    feats = example.speech.clip_features
    n = feats.shape[0] if textless else len(example.tokens)

    # terminals
    clip_proj = feats @ weights["clip_projection"]
    if textless:
        terminals = np.stack([
            row / np.sqrt((row * row).sum() + 1e-16) for row in clip_proj
        ])
    else:
        word_rows = weights["word_embeddings"][[vocab_index[t] for t in example.tokens]]
        word_proj = word_rows @ weights["word_projection"]
        logits = (word_proj @ weights["attn_q"]) @ (clip_proj @ weights["attn_k"]).T
        attn = np.stack([naive_softmax(row) for row in logits])
        terminals = attn @ (clip_proj @ weights["attn_v"])

    keep = min(example.regions.count, cfg.roi_count)
    v_proj = example.regions.features[:keep] @ weights["vision_projection"]
    width, height = example.regions.image_size
    region_sum = None
    pair_sub = None
    if cfg.use_visual:
        units = np.stack([
            np.array([b[0] / width, b[1] / height, b[2] / width, b[3] / height])
            for b in example.regions.bboxes[:keep]
        ])
        region_sum = v_proj + (units @ weights["bbox_embed_w"] + weights["bbox_embed_b"])
        if pair_values is not None:
            cats = example.regions.categories[:keep]
            pair_sub = pair_values[np.ix_(cats, cats)]

    pitch = None
    if cfg.use_pitch:
        f0_frames = per_clip(example.speech.f0, example.speech.f0_counts)
        rows = np.array([scalar_pitch_index(fr) for fr in f0_frames])
        pitch = naive_lstm(weights["pitch_embedding"][rows], weights["pitch_lstm_wx"],
                           weights["pitch_lstm_wh"], weights["pitch_lstm_b"])

    voice = nonvoice = None
    if cfg.use_voice:
        period = example.speech.frame_period
        vad_frames = per_clip(example.speech.vad, example.speech.vad_counts)
        voice = np.array([sum(map(bool, fr)) * period for fr in vad_frames])
        nonvoice = np.array([(len(fr) - sum(map(bool, fr))) * period for fr in vad_frames])

    h_in: dict = {}
    s_in: dict = {}
    att: dict = {}
    u: dict = {}

    def span_att(i, j):
        if (i, j) not in att:
            weights_m = naive_softmax(v_proj @ inside(i, j)[0])
            att[(i, j)] = weights_m
            u[(i, j)] = weights_m @ region_sum
        return att[(i, j)], u[(i, j)]

    def voice_score(i, j):
        seg_nv = nonvoice[i - 1:j - 1]
        seg_v = voice[i - 1:j - 1]
        return -np_sigmoid(seg_nv.max() / (seg_v.mean() + 1e-6))

    def inside(i, j):
        if (i, j) in h_in:
            return h_in[(i, j)], s_in[(i, j)]
        if i == j:
            h_in[(i, j)] = terminals[i - 1]
            s_in[(i, j)] = 0.0
            return h_in[(i, j)], s_in[(i, j)]
        scores = []
        composed = []
        for k in range(i, j):
            hl, sl = inside(i, k)
            hr, sr = inside(k + 1, j)
            if cfg.use_visual:
                hl = hl + cfg.gamma * span_att(i, k)[1]
                hr = hr + cfg.gamma * span_att(k + 1, j)[1]
            if cfg.use_pitch:
                pooled = pitch[i - 1:j].mean(axis=0)
                hl = hl + cfg.lam * pooled
                hr = hr + cfg.lam * pooled
            composed.append(naive_mlp(hl, hr, weights["compose_in_w1"],
                                      weights["compose_in_b1"],
                                      weights["compose_in_w2"],
                                      weights["compose_in_b2"]))
            score = hl @ weights["bilinear_inside"] @ hr
            if pair_sub is not None:
                score += span_att(i, k)[0] @ pair_sub @ span_att(k + 1, j)[0]
            if cfg.use_voice:
                score += voice_score(i, j)
            score += sl + sr
            scores.append(score)
        scores = np.array(scores)
        w = naive_softmax(scores)
        h_in[(i, j)] = sum(w[idx] * composed[idx] for idx in range(len(w)))
        s_in[(i, j)] = float((scores * w).sum())
        return h_in[(i, j)], s_in[(i, j)]

    inside(1, n)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            inside(i, j)

    h_out: dict = {}
    s_out: dict = {}

    def outside(i, j):
        if (i, j) in h_out:
            return h_out[(i, j)], s_out[(i, j)]
        if (i, j) == (1, n):
            h_out[(i, j)] = weights["root_outside_bias"]
            s_out[(i, j)] = 0.0
            return h_out[(i, j)], s_out[(i, j)]
        scores = []
        composed = []
        for k in range(1, i):
            hp, sp = outside(k, j)
            hs, ss = inside(k, i - 1)
            composed.append(naive_mlp(hp, hs, weights["compose_out_w1"],
                                      weights["compose_out_b1"],
                                      weights["compose_out_w2"],
                                      weights["compose_out_b2"]))
            scores.append(hp @ weights["bilinear_outside"] @ hs + sp + ss)
        for k in range(j + 1, n + 1):
            hp, sp = outside(i, k)
            hs, ss = inside(j + 1, k)
            composed.append(naive_mlp(hp, hs, weights["compose_out_w1"],
                                      weights["compose_out_b1"],
                                      weights["compose_out_w2"],
                                      weights["compose_out_b2"]))
            scores.append(hp @ weights["bilinear_outside"] @ hs + sp + ss)
        scores = np.array(scores)
        w = naive_softmax(scores)
        h_out[(i, j)] = sum(w[idx] * composed[idx] for idx in range(len(w)))
        s_out[(i, j)] = float((scores * w).sum())
        return h_out[(i, j)], s_out[(i, j)]

    for i in range(1, n + 1):
        for j in range(i, n + 1):
            outside(i, j)

    q = {}
    for key, value in s_in.items():
        q[key] = value * s_out[key] / s_in[(1, n)]
    return {"h_in": h_in, "s_in": s_in, "h_out": h_out, "s_out": s_out, "q": q}


def loop_plan(lengths) -> dict:
    """The attributes of `mmgi.chart._Plan(lengths)`, built with one loop over
    span lengths and one over distances to the root, as the plan was built
    before it was vectorized over all spans."""
    n = np.array(lengths, dtype=np.intp)
    count, n_max = n.size, int(n.max())
    plan = {"lengths": lengths, "n_max": n_max, "uniform": bool(np.all(n == n_max))}
    sentences = np.arange(count)

    span_len = np.arange(n_max + 1)
    cells = np.maximum(n - span_len[:, None] + 1, 0)
    cells[0] = 0
    flat = cells.ravel()
    offsets = (np.cumsum(flat) - flat).reshape(cells.shape)
    block_start = np.concatenate([[0], np.cumsum(cells.sum(axis=1))])
    span_sentence = np.repeat(np.tile(sentences, n_max + 1), flat)
    span_start = np.arange(flat.sum()) - np.repeat(offsets.ravel(), flat) + 1
    span_length = np.repeat(np.repeat(span_len, count), flat)
    plan.update(offsets=offsets, block_start=block_start, span_sentence=span_sentence,
                span_start=span_start, span_end=span_start + span_length - 1,
                root_rows=offsets[n, sentences], position_owner=np.repeat(sentences, n),
                position_mask=None if plan["uniform"] else
                np.where(np.arange(n_max) < n[:, None], 0.0, -np.inf))

    pad, unpad, pool, inside = {}, {}, {}, {}
    for length in range(1, n_max + 1):
        rows = slice(block_start[length], block_start[length + 1])
        sent, start = span_sentence[rows], span_start[rows]
        width = n_max - length + 1
        padded_row = sent * width + start - 1
        if not plan["uniform"]:
            first = np.where(cells[length] > 0, offsets[length] - block_start[length], 0)
            last = np.maximum(cells[length] - 1, 0)
            pad[length] = first[:, None] + np.minimum(np.arange(width), last[:, None])
            unpad[length] = padded_row
        clip = np.arange(n_max)
        pool[length] = ((clip >= np.arange(width)[:, None])
                        & (clip < np.arange(width)[:, None] + length)) / length
        if length == 1:
            continue
        splits = length - 1
        sent, start = np.repeat(sent, splits), np.repeat(start, splits)
        s = np.tile(np.arange(splits), rows.stop - rows.start)
        left = offsets[s + 1, sent] + start - 1
        right = offsets[splits - s, sent] + start + s
        inside[length] = ((left, right), padded_row)
    plan.update(pad=pad, unpad=unpad, pool=pool, inside=inside)

    # at distance r, the sentences with n = r + 1 (single positions) go last
    order = [np.concatenate([np.flatnonzero(n != r + 1), np.flatnonzero(n == r + 1)])
             for r in range(n_max)]
    members = [sentences[n[sentences] > r] for r, sentences in enumerate(order)]
    plan["out_order"] = np.array(order)
    out_rows, outside, outside_lead = {}, {}, {}
    for r in range(1, n_max):
        cell_sent = np.repeat(members[r], r + 1)
        cell_start = np.tile(np.arange(1, r + 2), members[r].size)
        cell_end = cell_start + n[cell_sent] - r - 1
        out_rows[r] = offsets[n[cell_sent] - r, cell_sent] + cell_start - 1
        sent, i, j = (np.repeat(a, r) for a in (cell_sent, cell_start, cell_end))
        t = np.tile(np.arange(r), cell_sent.size)
        before = t < i - 1
        k = np.where(before, t + 1, j + 1 + t - (i - 1))
        p_start, p_end = np.where(before, k, i), np.where(before, j, k)
        s_start, s_end = np.where(before, k, j + 1), np.where(before, i - 1, k)
        parent = offsets[p_end - p_start + 1, sent] + p_start - 1
        sibling = offsets[s_end - s_start + 1, sent] + s_start - 1
        early, late = before, ~before
        outside[r] = (((early, parent[early]), (late, parent[late])),
                      ((early, sibling[early]), (late, sibling[late])),
                      cell_sent.size)
        outside_lead[r] = (r + 1) * np.count_nonzero(n > r + 1)
    plan.update(out_rows=out_rows, outside=outside, outside_lead=outside_lead)

    long = np.flatnonzero(span_length > 1)
    long = long[np.lexsort((plan["span_end"][long], span_start[long], span_sentence[long]))]
    plan.update(long_owner=span_sentence[long], long_start=span_start[long],
                long_end=plan["span_end"][long],
                long_sizes=np.bincount(span_sentence[long], minlength=count))
    return plan


def naive_sample_negatives(sizes, rng):
    """Contrastive negatives drawn one scalar at a time, in the library's order.

    Per sentence with spans (and another sentence with spans): one source
    sentence per span, then a span within each source, then an image per span.
    """
    count = len(sizes)
    offsets = np.cumsum(sizes) - sizes
    positives, neg_spans, neg_images, owners = [], [], [], []
    for e in range(count):
        others = [f for f in range(count) if f != e and sizes[f]]
        if not sizes[e] or not others:
            continue
        n_spans = int(sizes[e])
        src = rng.integers(0, len(others), size=n_spans)
        within = [rng.integers(0, sizes[others[s]]) for s in src]
        neg_imgs = [f for f in range(count) if f != e]
        picks = [neg_imgs[rng.integers(0, len(neg_imgs))] for _ in range(n_spans)]
        positives.extend(offsets[e] + c for c in range(n_spans))
        neg_spans.extend(offsets[others[s]] + w for s, w in zip(src, within))
        neg_images.extend(picks)
        owners.extend([e] * n_spans)
    if not positives:
        return None
    return tuple(np.array(part) for part in (positives, neg_spans, neg_images, owners))


# ---------------------------------------------------------------------------
# the training loss node by node
#
# `mmgi.losses` as it was before each objective became one node: every
# product, selection, max and softmax its own node. The fused objectives
# must give the same values bit for bit and the same gradients up to the
# order of their sums. They read a `ColumnChart` (see `column_chart`).


def composite_span_marginal(chart, i, j, sentence):
    """`mmgi.chart.span_marginal` as three gathers, a product and a quotient."""
    root = ad.gather_rows(chart.s_in, chart.plan.root_rows[sentence])
    rows = chart.plan.row(i, j, sentence)
    return div(mul(ad.gather_rows(chart.s_in, rows), ad.gather_rows(chart.s_out, rows)), root)


def reconstruction_loss(chart, ctx, params):
    positions = ctx.token_ids.size
    h_out = select(chart.h_out, slice(0, positions))
    logits = matmul(
        matmul(h_out, transpose(params["word_projection"])),
        transpose(params["word_embeddings"]),
    )
    log_probs = log_softmax(logits, axis=1)
    picked = take_pairs(log_probs, np.arange(positions), ctx.token_ids)
    return neg(tensor_mean(matmul(_segment_matrix(ctx.lengths), picked)))


def contrastive_loss(chart, ctx, margin, rng):
    plan = chart.plan
    count, regions, d = ctx.v_proj.data.shape
    regions_t = transpose(reshape(ctx.v_proj, (count * regions, d)))

    def best_region(rows):
        sims = reshape(matmul(rows, regions_t), (-1, count, regions))
        if ctx.region_mask is not None:
            sims = add(sims, ctx.region_mask)
        return tensor_max(sims, axis=2)

    per_example = None
    sampled = _sample_negatives(plan.long_sizes, rng) if plan.long_owner.size else None
    if sampled is not None:
        starts, ends, owner = plan.long_start, plan.long_end, plan.long_owner
        vecs = ad.gather_rows(add(chart.h_in, chart.h_out), plan.row(starts, ends, owner))
        marginals = composite_span_marginal(chart, starts, ends, owner)
        rel = mul(best_region(vecs), reshape(marginals, (-1, 1)))
        pos_rows, neg_rows, neg_images, hinge_owner = sampled
        positives = take_pairs(rel, pos_rows, hinge_owner)
        neg_span = take_pairs(rel, neg_rows, hinge_owner)
        neg_img = take_pairs(rel, pos_rows, neg_images)
        hinges = add(relu(add(sub(neg_span, positives), margin)),
                     relu(add(sub(neg_img, positives), margin)))
        per_example = matmul(np.eye(count)[:, hinge_owner], hinges)

    positions = plan.position_owner.size
    terminals = select(chart.h_in, slice(0, positions))
    log_probs = log_softmax(best_region(terminals), axis=1)
    own = take_pairs(log_probs, np.arange(positions), plan.position_owner)
    word = matmul(_segment_matrix(ctx.lengths, mean=False), own)
    per_example = neg(word) if per_example is None else sub(per_example, word)
    return tensor_mean(per_example), per_example.data.tolist()


def _cosine_rows(a, b):
    num = tensor_sum(mul(a, b), axis=1)
    na = sqrt(add(tensor_sum(mul(a, a), axis=1), NORM_EPS ** 2))
    nb = sqrt(add(tensor_sum(mul(b, b), axis=1), NORM_EPS ** 2))
    return div(num, mul(na, nb))


def representation_loss(ctx, params, cfg):
    speech = matmul(ctx.clip_rows, params["align_proj_speech"])
    vision = matmul(ctx.region_rows, params["align_proj_vision"])
    stride = ctx.region_rows.data.shape[0] // len(ctx.region_counts)
    global_term = sub(1.0, _cosine_rows(
        matmul(_segment_matrix(ctx.lengths), speech),
        matmul(_segment_matrix(ctx.region_counts, stride), vision)))
    if cfg.mode == "textless" or ctx.word_rows is None:
        return tensor_mean(global_term)
    text = matmul(ctx.word_rows, params["align_proj_text"])
    word_term = matmul(_segment_matrix(ctx.lengths), sub(1.0, _cosine_rows(speech, text)))
    return tensor_mean(add(word_term, global_term))


def composite_batch_loss(chart, ctx, params, cfg, rng):
    if cfg.mode == "textless":
        rec = ad.constant(0.0)
    else:
        rec = reconstruction_loss(chart, ctx, params)
    contrastive, _ = contrastive_loss(chart, ctx, cfg.margin, rng)
    rep = representation_loss(ctx, params, cfg)
    total = add(add(rec, mul(cfg.alpha1, contrastive)), mul(cfg.alpha2, rep))
    report = LossReport(float(rec.data), float(contrastive.data), float(rep.data),
                        float(total.data))
    return total, report


# ---------------------------------------------------------------------------
# trees


def enumerate_binary_trees(i: int, j: int):
    """Every binary tree over leaves i..j (1-based inclusive), as nested tuples."""
    if i == j:
        yield i
        return
    for k in range(i, j):
        for left in enumerate_binary_trees(i, k):
            for right in enumerate_binary_trees(k + 1, j):
                yield (left, right)


def tree_total(tree, local) -> float:
    """Sum of local(i, k, j) over internal nodes, accumulated child-first."""
    def walk(node):
        if isinstance(node, int):
            return node, node, 0.0
        li, lj, ls = walk(node[0])
        ri, rj, rs = walk(node[1])
        return li, rj, local(li, lj, rj) + ls + rs

    return walk(tree)[2]


def local_score(split_scores: dict, span_scores: dict, i: int, k: int, j: int) -> float:
    """Per-node score of splitting (i, j) at k: the cached decomposition score
    minus both children's span scores, so tree totals are sums of local terms."""
    return float(split_scores[(i, j)][k - i]) - float(span_scores[(i, k)]) \
        - float(span_scores[(k + 1, j)])


def chart_tables(split_scores: dict, span_scores: dict, n: int):
    """Dict tables keyed by span (i, j) in the chart's array form, as
    `Chart.split_tables` gives it: {l: (n-l+1, l-1) blocks} and the span
    scores of lengths 1..n, each by start."""
    blocks = {length: np.array([split_scores[(i, i + length - 1)]
                                for i in range(1, n - length + 2)], dtype=np.float64)
              for length in range(2, n + 1)}
    spans = [span_scores[(i, i + length - 1)]
             for length in range(1, n + 1) for i in range(1, n - length + 2)]
    return blocks, np.array(spans, dtype=np.float64)


def naive_cky(split_scores: dict, span_scores: dict, n: int):
    """Scalar CKY over the dict tables: (best tree, its total).

    Each candidate is local_score + best(left) + best(right), added in that
    order; on a tie the larger split point wins.
    """
    if n == 1:
        return 1, 0.0
    best = {(i, i): 0.0 for i in range(1, n + 1)}
    back = {}
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            best_val = -np.inf
            best_k = i
            for k in range(i, j):
                cand = local_score(split_scores, span_scores, i, k, j) \
                    + best[(i, k)] + best[(k + 1, j)]
                if cand >= best_val:
                    best_val = cand
                    best_k = k
            best[(i, j)] = best_val
            back[(i, j)] = best_k

    def build(i, j):
        if i == j:
            return i
        k = back[(i, j)]
        return (build(i, k), build(k + 1, j))

    return build(1, n), float(best[(1, n)])


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# metrics


def brute_force_span_match(pred_spans, gold_spans, alignment) -> tuple[int, int, int]:
    """O(P*G) matching oracle for the span-clip F1 counts."""
    matched_pred = set()
    matched_gold = set()
    for gi, gspan in enumerate(gold_spans):
        for pi, pspan in enumerate(pred_spans):
            if pi in matched_pred:
                continue
            head_ok = alignment.get(gspan[0] - 1) == pspan[0] - 1
            tail_ok = alignment.get(gspan[1] - 1) == pspan[1] - 1
            if head_ok and tail_ok:
                matched_pred.add(pi)
                matched_gold.add(gi)
                break
    tp = len(matched_gold)
    return tp, len(pred_spans) - tp, len(gold_spans) - tp
