"""Differentiable span chart: terminal init, fused inside pass, outside pass.

The chart holds, for every span (i, j) with 1 <= i <= j <= n, an inside
vector/score pair built bottom-up from its decompositions and an outside
vector/score pair built top-down from its contexts. Region, pitch, and
voice-activity features enter the inside pass only, and only additively:
with zero fusion weights, a zero pair matrix, and the voice term disabled,
the pass is exactly the text-only chart.

Both passes fill the chart one span length at a time. Every span of length
l has exactly l-1 splits and exactly n-l outside contexts, so all spans of
one length are composed, scored and normalized together: their children (or
parents and siblings) are gathered from the shorter (or longer) spans with
index arrays that depend only on (n, l).

Span indices are 1-based inclusive throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .corpus import ExampleBundle
from .errors import (AlignmentError, ChartError, DataValidationError,
                     DegenerateChartError)
from .features import (PairRelevanceMatrix, normalize_bbox, pitch_features,
                       vad_aggregate)
from .nn import mlp_compose

__all__ = [
    "ExampleContext",
    "Chart",
    "span_row",
    "build_context",
    "init_terminals",
    "visual_span_feature",
    "region_composition_score",
    "voice_activity_table",
    "inside_pass",
    "outside_pass",
    "span_marginal",
    "run_chart",
    "chart_dump",
]

ROOT_EPS = 1e-12


@dataclass
class ExampleContext:
    """Per-example tensors the passes consume; rebuilt per optimization step
    because projections are functions of the current parameters."""

    n: int
    token_ids: np.ndarray | None
    word_rows: Tensor | None        # (n, d_w) embedding rows
    clip_rows: Tensor               # (T, d_s) constants
    region_rows: Tensor             # (M, d_v) constants
    v_proj: Tensor                  # (M, d) projected region features
    region_sum: Tensor | None       # (M, d) v_proj + bbox embeds; None = fusion off
    pair_sub: Tensor | None         # (M, M) pair relevance for this image
    pitch_seq: Tensor | None        # (T, d)
    voice_time: np.ndarray | None   # (T,)
    nonvoice_time: np.ndarray | None


def span_row(n: int, i, j):
    """Row of span (i, j) in a chart's length-major storage.

    Spans are stored by length, and within a length by start: the spans of
    length l occupy n-l+1 consecutive rows. Works elementwise on integer
    arrays.
    """
    length = j - i + 1
    return (length - 1) * (n + 1) - (length - 1) * length // 2 + i - 1


@dataclass
class Chart:
    """Inside and outside blocks of one sentence, stacked length by length.

    Row ``span_row(n, i, j)`` of ``h_in``/``s_in``/``h_out``/``s_out`` holds
    span (i, j); the n-l+1 rows of length l are that length's block.
    ``split_in[l]`` holds the (n-l+1, l-1) decomposition scores of length l
    >= 2, column k-i for split point k. The outside fields stay None until
    the outside pass runs.
    """

    n: int
    h_in: Tensor | None = None      # (n(n+1)/2, d)
    s_in: Tensor | None = None      # (n(n+1)/2,)
    split_in: dict = field(default_factory=dict)
    h_out: Tensor | None = None
    s_out: Tensor | None = None

    def row(self, i, j):
        return span_row(self.n, i, j)

    def spans(self) -> list[tuple[int, int]]:
        """Every span, in storage order."""
        n = self.n
        return [(i, i + length - 1) for length in range(1, n + 1)
                for i in range(1, n - length + 2)]

    def split_tables(self) -> tuple[dict, dict]:
        """Plain-float decomposition and span score tables for decoding."""
        splits = {}
        for length, scores in self.split_in.items():
            for c, row in enumerate(scores.data.tolist()):
                splits[(c + 1, c + length)] = row
        spans = dict(zip(self.spans(), self.s_in.data.tolist()))
        return splits, spans


def build_context(example: ExampleBundle, params: dict[str, Tensor],
                  cfg: RunConfig, vocab_index: dict[str, int] | None,
                  pair_matrix: PairRelevanceMatrix | None) -> ExampleContext:
    """Project raw modalities once per example; regions are capped at roi_count."""
    textless = cfg.mode == "textless"
    n = example.speech.count if textless else len(example.tokens or [])

    token_ids = None
    word_rows = None
    if not textless:
        if example.tokens is None:
            raise AlignmentError(f"example {example.id}: full mode requires tokens")
        try:
            token_ids = np.array([vocab_index[t] for t in example.tokens], dtype=np.intp)
        except KeyError as exc:
            raise DataValidationError(
                f"example {example.id}: token {exc.args[0]!r} outside the vocabulary"
            ) from exc
        word_rows = ad.gather_rows(params["word_embeddings"], token_ids)

    clip_rows = ad.constant(example.speech.clip_features)

    keep = min(example.regions.count, cfg.roi_count)
    region_rows = ad.constant(example.regions.features[:keep])
    v_proj = ad.matmul(region_rows, params["vision_projection"])
    region_sum = pair_sub = None
    if cfg.use_visual:
        width, height = example.regions.image_size
        units = np.stack([
            normalize_bbox(example.regions.bboxes[m], width, height, index=m)
            for m in range(keep)
        ])
        boxes = ad.matmul(ad.constant(units), params["bbox_embed_w"]) + params["bbox_embed_b"]
        region_sum = v_proj + boxes
        if pair_matrix is not None:
            pair_sub = ad.constant(pair_matrix.submatrix(example.regions.categories[:keep]))

    pitch_seq = None
    if cfg.use_pitch:
        pitch_seq = pitch_features(
            example.speech, params["pitch_embedding"], params["pitch_lstm_wx"],
            params["pitch_lstm_wh"], params["pitch_lstm_b"],
        )

    voice_time = nonvoice_time = None
    if cfg.use_voice:
        voice_time, nonvoice_time = vad_aggregate(example.speech)

    return ExampleContext(
        n=n, token_ids=token_ids, word_rows=word_rows, clip_rows=clip_rows,
        region_rows=region_rows, v_proj=v_proj, region_sum=region_sum,
        pair_sub=pair_sub, pitch_seq=pitch_seq, voice_time=voice_time,
        nonvoice_time=nonvoice_time,
    )


# ---------------------------------------------------------------------------
# terminal initialization


def init_terminals(ctx: ExampleContext, params: dict[str, Tensor],
                   cfg: RunConfig) -> Tensor:
    """(n, d) terminal vectors.

    Full setting: each word attends over the clip sequence (cross-attention
    without scaling) and takes the attention-weighted value projection of the
    clips. Textless: the projected clip itself, L2-normalized.
    """
    clip_proj = ad.matmul(ctx.clip_rows, params["clip_projection"])  # (T, d)
    if cfg.mode == "textless":
        sq = ad.tensor_sum(clip_proj * clip_proj, axis=1)
        norms = ad.reshape(ad.sqrt(sq + 1e-16), (ctx.clip_rows.data.shape[0], 1))
        return ad.div(clip_proj, norms)
    if ctx.word_rows is None or ctx.word_rows.data.shape[0] != clip_proj.data.shape[0]:
        have = None if ctx.word_rows is None else ctx.word_rows.data.shape[0]
        raise AlignmentError(
            f"full setting requires one clip per token, got {have} tokens "
            f"vs {clip_proj.data.shape[0]} clips"
        )
    word_proj = ad.matmul(ctx.word_rows, params["word_projection"])  # (n, d)
    queries = ad.matmul(word_proj, params["attn_q"])
    keys = ad.matmul(clip_proj, params["attn_k"])
    values = ad.matmul(clip_proj, params["attn_v"])
    attention = ad.softmax(ad.matmul(queries, ad.transpose(keys)), axis=1)
    return ad.matmul(attention, values)


# ---------------------------------------------------------------------------
# fusion features


def visual_span_feature(h_in: Tensor, v_proj: Tensor,
                        region_sum: Tensor) -> tuple[Tensor, Tensor]:
    """Attention-pooled region feature of a span (d,) or of each row of a
    block of spans (cells, d): (u, attention weights over the regions)."""
    att = ad.softmax(ad.matmul(h_in, ad.transpose(v_proj)), axis=-1)
    return ad.matmul(att, region_sum), att


def region_composition_score(att_left: Tensor, att_right: Tensor,
                             pair_sub: Tensor) -> Tensor:
    """How plausibly two sub-spans' attended regions compose, via the pair
    matrix; row-wise for (rows, M) attention blocks."""
    return ad.tensor_sum(ad.matmul(att_left, pair_sub) * att_right, axis=-1)


def voice_activity_table(n: int, length: int, voice_time: np.ndarray,
                         nonvoice_time: np.ndarray) -> np.ndarray:
    """Speech-rhythm density of the n-length+1 spans of one length, by start.

    Span (i, j) ranges over clips i..j-1 and is penalized for its longest
    internal pause relative to its mean voiced time; a single position has
    an empty range and scores 0. Always in (-1, 0) otherwise.
    """
    cells = n - length + 1
    if length == 1:
        return np.zeros(cells)
    seg_nonvoice = sliding_window_view(nonvoice_time, length - 1)[:cells]
    seg_voice = sliding_window_view(voice_time, length - 1)[:cells]
    ratio = seg_nonvoice.max(axis=1) / (seg_voice.mean(axis=1) + 1e-6)
    return -1.0 / (1.0 + np.exp(-ratio))


# ---------------------------------------------------------------------------
# passes


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _inside_index(n: int, length: int) -> tuple[np.ndarray, ...]:
    """Child rows of every (span, split) pair of one length, and pitch pooling.

    Pairs run span by span (start ascending), splits k = i..j-1 within a
    span. Returns the storage rows of the left children (i, k) and right
    children (k+1, j), each pair's span (i - 1), and the (spans, n) matrix
    averaging clips i..j of each span.
    """
    cells, splits = n - length + 1, length - 1
    start = np.repeat(np.arange(1, cells + 1), splits)
    k = start + np.tile(np.arange(splits), cells)
    left = span_row(n, start, k)
    right = span_row(n, k + 1, start + length - 1)
    first, clip = np.arange(cells)[:, None], np.arange(n)
    pool = ((clip >= first) & (clip < first + length)) / length
    return _frozen(left, right, start - 1, pool)


@lru_cache(maxsize=None)
def _outside_index(n: int, length: int) -> tuple[np.ndarray, ...]:
    """Parent and sibling rows of every (span, context) pair of one length.

    Pairs run span by span (start ascending); within a span the contexts
    k < i (parent (k, j), sibling (k, i-1)) come before k > j (parent
    (i, k), sibling (j+1, k)), each in ascending k. Parent rows index the
    spans longer than `length`; sibling rows index the whole chart.
    """
    parents, siblings = [], []
    for i in range(1, n - length + 2):
        j = i + length - 1
        for k in range(1, i):
            parents.append(span_row(n, k, j))
            siblings.append(span_row(n, k, i - 1))
        for k in range(j + 1, n + 1):
            parents.append(span_row(n, i, k))
            siblings.append(span_row(n, j + 1, k))
    first_longer = span_row(n, 1, length + 1)
    return _frozen(np.array(parents, dtype=np.intp) - first_longer,
                   np.array(siblings, dtype=np.intp))


def _weighted(scores: Tensor, composed: Tensor) -> tuple[Tensor, Tensor]:
    """Per-span softmax over its (cells, K) candidates: the weighted mean of
    the (cells*K, d) composed vectors and the expected score."""
    cells, count = scores.data.shape
    weights = ad.softmax(scores, axis=1)
    vectors = ad.reshape(composed, (cells, count, composed.data.shape[1]))
    h = ad.tensor_sum(ad.reshape(weights, (cells, count, 1)) * vectors, axis=1)
    return h, ad.tensor_sum(scores * weights, axis=1)


def inside_pass(ctx: ExampleContext, params: dict[str, Tensor], cfg: RunConfig,
                training: bool = False,
                rng: np.random.Generator | None = None) -> Chart:
    """Fill inside vectors/scores bottom-up, caching decomposition scores.

    Each length is one batch over all of its (span, split) pairs; dropout
    masks are drawn span by span (start ascending), split by split, which
    fixes the rng stream a seeded run consumes.
    """
    n = ctx.n
    terminals = init_terminals(ctx, params, cfg)
    gamma, lam = cfg.gamma, cfg.lam
    h_blocks = [terminals]
    s_blocks = [ad.constant(np.zeros(n))]
    child_blocks: list[Tensor] = []   # span vectors plus their region feature
    att_blocks: list[Tensor] = []     # region attention of each span

    def add_child_block(h: Tensor) -> None:
        if ctx.region_sum is None:
            child_blocks.append(h)
            return
        u, att = visual_span_feature(h, ctx.v_proj, ctx.region_sum)
        child_blocks.append(h + gamma * u)
        att_blocks.append(att)

    add_child_block(terminals)
    split_in = {}
    for length in range(2, n + 1):
        left_rows, right_rows, owner, pool = _inside_index(n, length)
        cells, splits = n - length + 1, length - 1
        children = ad.concat(child_blocks)
        left = ad.gather_rows(children, left_rows)
        right = ad.gather_rows(children, right_rows)
        if ctx.pitch_seq is not None:
            pooled = lam * ad.matmul(ad.constant(pool), ctx.pitch_seq)
            pooled = ad.gather_rows(pooled, owner)
            left = left + pooled
            right = right + pooled

        composed = mlp_compose(
            left, right, params["compose_in_w1"], params["compose_in_b1"],
            params["compose_in_w2"], params["compose_in_b2"],
            dropout_rate=cfg.dropout, rng=rng, training=training,
        )
        scores = ad.tensor_sum(
            ad.matmul(left, params["bilinear_inside"]) * right, axis=1
        )
        if ctx.pair_sub is not None:
            atts = ad.concat(att_blocks)
            scores = scores + region_composition_score(
                ad.gather_rows(atts, left_rows), ad.gather_rows(atts, right_rows),
                ctx.pair_sub)
        if ctx.voice_time is not None:
            voice = voice_activity_table(n, length, ctx.voice_time, ctx.nonvoice_time)
            scores = scores + np.repeat(voice, splits)
        span_scores = ad.concat(s_blocks)
        scores = scores + ad.gather_rows(span_scores, left_rows) \
            + ad.gather_rows(span_scores, right_rows)
        scores = ad.reshape(scores, (cells, splits))
        if not np.all(np.isfinite(scores.data)):
            c, split = np.argwhere(~np.isfinite(scores.data))[0]
            raise ChartError(
                f"non-finite inside score at span ({c + 1}, {c + length}), "
                f"split k={c + 1 + split}"
            )
        h, s = _weighted(scores, composed)
        split_in[length] = scores
        h_blocks.append(h)
        s_blocks.append(s)
        if length < n:
            add_child_block(h)
    return Chart(n=n, h_in=ad.concat(h_blocks), s_in=ad.concat(s_blocks),
                 split_in=split_in)


def outside_pass(chart: Chart, ctx: ExampleContext, params: dict[str, Tensor],
                 cfg: RunConfig, training: bool = False,
                 rng: np.random.Generator | None = None) -> Chart:
    """Fill outside vectors/scores top-down.

    Each context of span (i, j) pairs a parent outside cell with a sibling
    inside cell: position k > j uses parent (i, k) and sibling (j+1, k);
    k < i uses parent (k, j) and sibling (k, i-1). The root has no context;
    its outside vector is a learned bias and its outside score is zero.
    Each length is one batch over all of its (span, context) pairs, drawing
    dropout masks in the context order of `_outside_index`.
    """
    n = chart.n
    bias = params["root_outside_bias"]
    h_blocks = [ad.reshape(bias, (1, bias.data.shape[0]))]   # longest first
    s_blocks = [ad.constant(np.zeros(1))]
    for length in range(n - 1, 0, -1):
        parent_rows, sibling_rows = _outside_index(n, length)
        cells, contexts = n - length + 1, n - length
        parent = ad.gather_rows(ad.concat(h_blocks[::-1]), parent_rows)
        sibling = ad.gather_rows(chart.h_in, sibling_rows)
        composed = mlp_compose(
            parent, sibling, params["compose_out_w1"],
            params["compose_out_b1"], params["compose_out_w2"],
            params["compose_out_b2"],
            dropout_rate=cfg.dropout, rng=rng, training=training,
        )
        scores = ad.tensor_sum(
            ad.matmul(parent, params["bilinear_outside"]) * sibling, axis=1
        ) + ad.gather_rows(ad.concat(s_blocks[::-1]), parent_rows) \
            + ad.gather_rows(chart.s_in, sibling_rows)
        scores = ad.reshape(scores, (cells, contexts))
        if not np.all(np.isfinite(scores.data)):
            c, bad = np.argwhere(~np.isfinite(scores.data))[0]
            raise ChartError(
                f"non-finite outside score at span ({c + 1}, {c + length}), "
                f"context {bad}"
            )
        h, s = _weighted(scores, composed)
        h_blocks.append(h)
        s_blocks.append(s)
    chart.h_out = ad.concat(h_blocks[::-1])
    chart.s_out = ad.concat(s_blocks[::-1])
    return chart


def span_marginal(chart: Chart, i, j) -> Tensor:
    """q(i, j): inside times outside score, normalized by the root inside score.

    `i` and `j` may be equal-shape integer arrays, giving one marginal per span.
    """
    root = ad.gather_rows(chart.s_in, chart.row(1, chart.n))
    if abs(float(root.data)) < ROOT_EPS:
        raise DegenerateChartError(
            f"root inside score {float(root.data):.3e} too small to normalize"
        )
    rows = chart.row(i, j)
    return ad.div(ad.gather_rows(chart.s_in, rows) * ad.gather_rows(chart.s_out, rows),
                  root)


def run_chart(example: ExampleBundle, params: dict[str, Tensor], cfg: RunConfig,
              vocab_index: dict[str, int] | None,
              pair_matrix: PairRelevanceMatrix | None,
              training: bool = False, rng: np.random.Generator | None = None,
              outside: bool = True) -> tuple[Chart, ExampleContext]:
    """Context + inside (+ optionally outside) in one call."""
    ctx = build_context(example, params, cfg, vocab_index, pair_matrix)
    chart = inside_pass(ctx, params, cfg, training=training, rng=rng)
    if outside:
        outside_pass(chart, ctx, params, cfg, training=training, rng=rng)
    return chart, ctx


def chart_dump(chart: Chart) -> dict:
    """JSON-friendly dump of all scores, marginals, and the argmax splits."""
    spans = chart.spans()
    keys = [f"{i},{j}" for i, j in spans]
    doc: dict = {"n": chart.n, "s_in": dict(zip(keys, chart.s_in.data.tolist())),
                 "s_out": {}, "q": {}, "argmax_k": {}}
    if chart.s_out is not None:
        starts, ends = np.array(spans).T
        doc["s_out"] = dict(zip(keys, chart.s_out.data.tolist()))
        doc["q"] = dict(zip(keys, span_marginal(chart, starts, ends).data.tolist()))
    for length, scores in chart.split_in.items():
        for c, k in enumerate(np.argmax(scores.data, axis=1).tolist()):
            doc["argmax_k"][f"{c + 1},{c + length}"] = c + 1 + k
    return doc
