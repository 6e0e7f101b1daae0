"""Differentiable span chart of a batch of sentences: context, terminal
init, fused inside pass, outside pass.

The chart holds, for every span (i, j) with 1 <= i <= j <= n of every
sentence, an inside vector/score pair built bottom-up from its decompositions
and an outside vector/score pair built top-down from its contexts. Region,
pitch, and voice-activity features enter the inside pass only, and only
additively: with zero fusion weights, a zero pair matrix, and the voice term
disabled, the pass is exactly the text-only chart.

The sentences of a batch share one chart. Every span of length l has exactly
l-1 splits in every sentence, so the inside pass composes, scores and
normalizes the spans of one length of all sentences together. Every span at
distance r = n - l from its root has exactly r outside contexts, so the
outside pass takes one step per distance. Each step runs the same fused
numpy function, `nn.chart_step`: an inside step pairs left with right
children, an outside step parents with siblings. It writes its rows once
into its pass's (spans, d + 1) array, at the span rows of its cells, and
later steps read the left children, the right children, the parents and the
siblings from those arrays by index arrays that depend only on the sentence
lengths (see `_Plan`). Each pass is one autodiff node: its vjp runs the
steps' vjps in reverse order (Eisner, "Inside-Outside and Forward-Backward
Algorithms Are Just Backprop", 2016), each reading its pairs again from the
pass arrays instead of keeping a copy, and summing their gradients into one
gradient array the vjp owns. The chart is those two nodes (see `Chart`);
its readers index the pass arrays' columns directly. Work that involves
one sentence's own image or speech (region attention, pair scores, pitch
pooling, word-to-clip attention) runs on per-sentence blocks padded to a
common size, with a -inf mask where padding would otherwise be attended
to, so its cost stays per sentence.

The context that feeds the passes is a few fused nodes as well (`nn`'s
region projection, box embedding sum, terminals and pitch LSTM, and the
word and pitch embedding lookups), and the span marginals are plain numpy:
the contrastive loss's node differentiates them itself.

In textless training the outside rows of single positions stay zero: the
reconstruction loss on words is their only reader, and there are no words.
The outside pass then composes only the cells of longer spans, which lead
each distance's step (see `outside_pass`).

A single example is a batch of one. Span indices are 1-based inclusive
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .corpus import ExampleBundle
from .errors import (AlignmentError, ChartError, DataValidationError,
                     DegenerateChartError)
from .features import PairRelevanceMatrix
from .nn import (add_box_embedding, attend_clips, chart_step, dropout_mask, lstm_forward,
                 normalize_clips, project_regions, span_features)

__all__ = [
    "BatchContext",
    "Chart",
    "check_dims",
    "build_context",
    "init_terminals",
    "sentence_plan",
    "inside_pass",
    "outside_pass",
    "span_marginal",
    "run_chart",
    "chart_dump",
]

ROOT_EPS = 1e-12
# index plans of single sentences kept, by length: one for every length a
# sentence may have under the default max_text_length, and one to spare
PLAN_CACHE = RunConfig.max_text_length + 1
# the attributes of a plan that only the outside pass and its dropout masks read
OUTSIDE_PART = frozenset({"out_order", "out_rows", "outside", "outside_lead"})


@dataclass
class BatchContext:
    """Per-batch tensors the passes consume. The projections are functions
    of the current parameters and are built again for every optimization
    step; the parameter-free arrays (`pair_sub`, `voice`, and the unit boxes
    and pitch rows behind `region_sum` and `pitch_seq`) only pad what each
    bundle keeps from its first use (see `features`).

    Position fields concatenate the sentences in batch order. Region fields
    are padded per image to the batch's largest region count M; pitch and
    voice fields are padded per sentence to the batch's n_max, since every
    position is one clip (`build_context` checks it).
    """

    ids: list[str]
    lengths: tuple[int, ...]        # n per sentence
    token_ids: np.ndarray | None    # (sum n,)
    word_rows: Tensor | None        # (sum n, d_w) embedding rows
    clip_rows: np.ndarray           # (sum n, d_s), read-only
    region_rows: np.ndarray         # (B*M, d_v), read-only, zero rows as padding
    region_counts: np.ndarray       # (B,) regions kept per image
    v_proj: Tensor | None = None    # (B, M, d) projected region features
    region_mask: np.ndarray | None = None   # (B, M): 0 for a region, -inf for padding
    region_sum: Tensor | None = None        # (B, M, d) v_proj + bbox embeds; None = fusion off
    pair_sub: np.ndarray | None = None      # (B, M, M) pair relevance within each image
    pitch_seq: Tensor | None = None         # (B, n_max, d)
    voice: np.ndarray | None = None         # (B, n_max, n_max) voice_activity_table
    plan: _Plan = field(init=False, repr=False)

    def __post_init__(self):
        self.plan = _plan(tuple(self.lengths))


class _Plan:
    """Index arrays of one batch's chart; they depend only on the lengths.

    Every array of the chart is indexed by span row, length-major: the block
    of length l holds the n-l+1 spans of every sentence with n >= l,
    sentence by sentence, by start within a sentence (`offsets[l, b]` is the
    row of sentence b's first span of length l). The outside step at
    distance r = n - l to the root takes its cells in the order of
    `out_rows[r]`, their span rows: sentence by sentence, except that the
    single positions of sentences with n = r + 1 come last
    (`outside_lead[r]` counts the cells before them).
    Per-sentence blocks of length l are (B, n_max - l + 1): each sentence's
    spans padded with copies of its last one (of row 0 when it is shorter
    than l), rows that `nn._unpad` drops again. Padding thus never
    feeds a real row of another sentence, and a non-finite input stays in
    its own sentence's rows.

    A plan built with `outside=False` (a cached single sentence's) builds
    its outside part (`OUTSIDE_PART`) at the first read of one of them.

    Sentences of one length (`uniform`; every parse) need no padding gathers.
    Padding them too parsed the parse-long benchmark 4% slower on a 2-core
    Xeon (medians 156.0 against 162.7 sentences/s over ten alternating pairs
    of 12 s runs, 4 of the 10 pairs the other way), so both paths stay.
    """

    def __init__(self, lengths: tuple[int, ...], outside: bool = True):
        n = np.array(lengths, dtype=np.intp)
        count, n_max = n.size, int(n.max())
        self.lengths, self.n_max = lengths, n_max
        self.uniform = bool(np.all(n == n_max))
        sentences = np.arange(count)

        span_len = np.arange(n_max + 1)
        cells = np.maximum(n - span_len[:, None] + 1, 0)
        cells[0] = 0
        flat = cells.ravel()
        self.offsets = (np.cumsum(flat) - flat).reshape(cells.shape)
        self.block_start = np.concatenate([[0], np.cumsum(cells.sum(axis=1))])
        self.span_sentence = np.repeat(np.tile(sentences, n_max + 1), flat)
        self.span_start = np.arange(flat.sum()) - np.repeat(self.offsets.ravel(), flat) + 1
        span_length = np.repeat(np.repeat(span_len, count), flat)
        self.span_end = self.span_start + span_length - 1
        self.root_rows = self.offsets[n, sentences]
        self.position_owner = np.repeat(sentences, n)
        self.position_mask = None if self.uniform else \
            np.where(np.arange(n_max) < n[:, None], 0.0, -np.inf)

        # per-sentence blocks of every length l: a span's row in its block, and
        # each sentence's spans padded with copies of its last one
        padded_row = self.span_sentence * (n_max - span_length + 1) + self.span_start - 1
        length = span_len[1:]
        first = np.where(cells[1:] > 0, self.offsets[1:] - self.block_start[1:-1, None], 0)
        pad = first[:, :, None] + np.minimum(np.arange(n_max),
                                             np.maximum(cells[1:] - 1, 0)[:, :, None])
        # pooling rows: window w of length l averages positions w..w+l-1
        widths = n_max - length + 1
        window = np.arange(widths.sum()) - np.repeat(np.cumsum(widths) - widths, widths)
        window_length = np.repeat(length, widths)[:, None]
        clip = np.arange(n_max)
        pool = ((clip >= window[:, None]) & (clip < window[:, None] + window_length)) \
            / window_length
        _freeze(pad, padded_row, pool)
        self.pad = {} if self.uniform else \
            {l: pad[l - 1, :, :n_max - l + 1] for l in range(1, n_max + 1)}
        self.unpad = {} if self.uniform else \
            dict(zip(range(1, n_max + 1), _pieces(padded_row, self.block_start[1:])))
        self.pool = dict(zip(range(1, n_max + 1),
                             _pieces(pool, np.concatenate([[0], np.cumsum(widths)]))))

        # (span, split) pairs of every span, split by split: split s of span
        # (i, j) pairs (i, k) with (k + 1, j), k = i + s. Per length: the left
        # and the right children's rows (a child of one length fixes its span
        # and split, so neither repeats a row), and each span's row in its
        # per-sentence block
        splits = span_length - 1
        sent, start, size = (np.repeat(a, splits) for a in
                             (self.span_sentence, self.span_start, span_length))
        s = np.arange(sent.size) - np.repeat(np.cumsum(splits) - splits, splits)
        left = self.offsets[s + 1, sent] + start - 1
        right = self.offsets[size - 1 - s, sent] + start + s
        bounds = np.cumsum(cells.sum(axis=1) * np.maximum(span_len - 1, 0))[1:]
        _freeze(left, right)
        self.inside = dict(zip(range(2, n_max + 1), zip(
            zip(_pieces(left, bounds), _pieces(right, bounds)),
            _pieces(padded_row, self.block_start[2:]))))

        # spans longer than one position, sentence by sentence, start-major
        long = np.flatnonzero(span_length > 1)
        long = long[np.lexsort((self.span_end[long], self.span_start[long],
                                self.span_sentence[long]))]
        self.long_owner = self.span_sentence[long]
        self.long_start, self.long_end = self.span_start[long], self.span_end[long]
        self.long_sizes = np.bincount(self.long_owner, minlength=count)
        _freeze(*(value for value in vars(self).values() if isinstance(value, np.ndarray)))
        if outside:
            self._build_outside()

    def __getattr__(self, name: str):
        """The outside part of a plan built without it, at its first read."""
        if name not in OUTSIDE_PART:
            raise AttributeError(name)
        self._build_outside()
        return vars(self)[name]

    def _build_outside(self) -> None:
        """The outside pass's index arrays: `out_order`, `out_rows`, `outside`
        and `outside_lead`."""
        n = np.array(self.lengths, dtype=np.intp)
        count, n_max = n.size, self.n_max
        # outside cells at distance r, sentence by sentence, except that the
        # sentences with n = r + 1, whose cells there are single positions,
        # come last: the other cells lead each step
        distance = np.arange(n_max)
        self.out_order = np.argsort(n == distance[:, None] + 1, axis=1, kind="stable")
        out_cells = np.where(n[self.out_order] > distance[:, None], distance[:, None] + 1, 0)
        out_flat = out_cells.ravel()
        cell_r = np.repeat(np.repeat(distance, count), out_flat)
        cell_sent = np.repeat(self.out_order.ravel(), out_flat)
        cell_start = np.arange(out_flat.sum()) - np.repeat(np.cumsum(out_flat) - out_flat,
                                                           out_flat) + 1
        cell_end = cell_start + n[cell_sent] - cell_r - 1
        # (span, context) pairs of every outside cell, by distance r to the
        # root: contexts k < i first, then k > j, each ascending. Per
        # distance, the span rows of its cells in step order, the parents'
        # and the siblings' rows as two parts each: the contexts before the
        # span, then after it (a row can be a parent before one span and
        # after another, but not twice on one side), and the number of cells
        sent, i, j = (np.repeat(a, cell_r) for a in (cell_sent, cell_start, cell_end))
        t = np.arange(sent.size) - np.repeat(np.cumsum(cell_r) - cell_r, cell_r)
        before = t < i - 1
        k = np.where(before, t + 1, j + 1 + t - (i - 1))
        pairs = (self.row(np.where(before, k, i), np.where(before, j, k), sent),
                 self.row(np.where(before, k, j + 1), np.where(before, i - 1, k), sent))
        per_distance = out_cells.sum(axis=1)
        cell_rows = self.row(cell_start, cell_end, cell_sent)
        _freeze(cell_rows)
        self.out_rows = dict(zip(range(1, n_max), _pieces(cell_rows, np.cumsum(per_distance))))
        pair_bounds = np.cumsum(per_distance * distance)
        self.outside = {
            r: _parts(early, parent, sibling) + (cells,)
            for r, parent, sibling, early, cells in zip(
                range(1, n_max), *(_pieces(a, pair_bounds) for a in pairs + (before,)),
                per_distance[1:].tolist())}
        # per distance, the cells of spans longer than one position
        lead = np.where(n > distance[:, None] + 1, distance[:, None] + 1, 0).sum(axis=1)
        self.outside_lead = dict(zip(range(1, n_max), lead[1:].tolist()))
        _freeze(self.out_order)

    def row(self, i, j, sentence=0):
        """Storage row of span (i, j) of a sentence; elementwise on arrays."""
        return self.offsets[np.asarray(j) - i + 1, sentence] + np.asarray(i) - 1

    def sentence_rows(self, sentence: int) -> np.ndarray:
        """Storage rows of one sentence's spans, by length then start."""
        return np.flatnonzero(self.span_sentence == sentence)

    def dropout_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Where the batched steps' dropout rows lie in draw order.

        Masks are drawn sentence by sentence (see `_dropout_masks`); the
        steps take inside lengths 2..n_max over the sentences in batch
        order, then outside distances 1..n_max-1 over them in `out_order`.
        Returns the permutation from step order to draw order and the bounds
        of each step's rows in step order.
        """
        n = np.array(self.lengths)
        length = np.arange(2, self.n_max + 1)[:, None]
        distance = np.arange(1, self.n_max)[:, None]
        sizes = np.concatenate([np.maximum(n - length + 1, 0) * (length - 1),
                                np.where(n > distance, (distance + 1) * distance, 0)])
        draw = sizes.T.ravel()            # sentence by sentence
        first = (np.cumsum(draw) - draw).reshape(sizes.T.shape).T
        order = np.concatenate([np.broadcast_to(np.arange(n.size), (self.n_max - 1, n.size)),
                                self.out_order[1:]])
        step = np.take_along_axis(sizes, order, axis=1).ravel()    # step by step
        first = np.take_along_axis(first, order, axis=1).ravel()
        perm = np.arange(step.sum()) + np.repeat(first - (np.cumsum(step) - step), step)
        return perm, np.cumsum(sizes.sum(axis=1))


def _freeze(*arrays: np.ndarray) -> None:
    """Make arrays read-only, and so every view of them: cached plans are shared."""
    for array in arrays:
        array.setflags(write=False)


def _parts(early: np.ndarray, *rows: np.ndarray) -> tuple:
    """Each of `rows` as two parts (at, index) of a read (see `nn._take`),
    where the mask `early` holds and where it does not; they share the two
    masks."""
    masks = early, ~early
    parts = tuple(tuple((at, index[at]) for at in masks) for index in rows)
    _freeze(*masks, *(index for side in parts for _, index in side))
    return parts


def _prefix(parts: tuple, size: int) -> tuple:
    """Parts of a read that read the first `size` rows of what `parts` read,
    as views."""
    return tuple((at[:size], index[:np.count_nonzero(at[:size])]) for at, index in parts)


def _pieces(array: np.ndarray, bounds: np.ndarray) -> list[np.ndarray]:
    """Consecutive pieces of `array` that end at `bounds`, the first at bounds[0]."""
    ends = bounds.tolist()
    return [array[start:end] for start, end in zip(ends, ends[1:])]


@lru_cache(maxsize=PLAN_CACHE)
def sentence_plan(n: int) -> _Plan:
    """The cached plan of a single sentence of n positions. Its outside part
    is built at its first read: parsing never reads it."""
    return _Plan((n,), outside=False)


def _plan(lengths: tuple[int, ...]) -> _Plan:
    """A batch's plan. A single sentence's (every parse) is cached by its
    length; a training batch's lengths rarely repeat, so its plan lives
    only as long as its context and chart."""
    return sentence_plan(lengths[0]) if len(lengths) == 1 else _Plan(lengths)


def _dropout_masks(plan: _Plan, hidden: int, rate: float,
                   rng: np.random.Generator) -> tuple[dict, dict]:
    """Dropout masks of the batched inside and outside steps.

    They are drawn sentence by sentence in batch order: a sentence's inside
    lengths 2..n (span by span, split by split), then its outside lengths
    n-1..1 (span by span, context by context). That is the order in which a
    sentence charted on its own draws them, so a seeded run consumes the
    same stream at any batch size. Returns {length: mask} and
    {distance: mask}, rows in the batched steps' order. The masks are
    boolean, one byte per hidden unit; `nn.chart_step` scales the kept units.
    """
    perm, bounds = plan.dropout_order()
    keep = dropout_mask(rng, (perm.size, hidden), rate)[perm]
    steps = _pieces(keep, np.concatenate([[0], bounds]))
    lengths = plan.n_max - 1
    return (dict(zip(range(2, plan.n_max + 1), steps[:lengths])),
            dict(zip(range(1, plan.n_max), steps[lengths:])))


@dataclass
class Chart:
    """Inside and outside charts of a batch of sentences: the two pass nodes.

    ``inside`` and ``outside`` each hold (spans, d + 1) rows, length-major:
    row ``plan.row(i, j, b)`` holds span (i, j) of sentence b, the spans of
    one length of all sentences form one block, and a row is the span's
    vector (columns ``[:-1]``) then its score (column ``-1``). The outside
    pass reads siblings from ``inside``; ``outside`` stays None until that
    pass runs. ``split_in[l]`` holds block l's (cells, l-1) decomposition
    scores, column k-i for split point k, as a read-only array: decoding
    reads it, and no gradient flows through it. ``len(chart)`` is the
    number of sentences.
    """

    ids: list[str]                  # example id per sentence
    plan: _Plan = field(repr=False)
    inside: Tensor | None = field(default=None, repr=False)
    outside: Tensor | None = field(default=None, repr=False)
    split_in: dict = field(default_factory=dict)
    outside_masks: dict | None = None   # dropout masks the inside pass drew for outside

    def __len__(self) -> int:
        return len(self.plan.lengths)

    def split_tables(self, sentence: int = 0) -> tuple[dict, np.ndarray]:
        """One sentence's decomposition scores {l: (n-l+1, l-1)} and its
        (n(n+1)/2,) span scores in storage order, as views of the chart's
        arrays (the span scores are a copy in a batch of several)."""
        plan, n = self.plan, self.plan.lengths[sentence]
        splits = {}
        for length in range(2, n + 1):
            first = plan.offsets[length, sentence] - plan.block_start[length]
            splits[length] = self.split_in[length][first:first + n - length + 1]
        spans = self.inside.data[:, -1] if len(self) == 1 else \
            self.inside.data[plan.sentence_rows(sentence), -1]
        return splits, spans


def check_dims(cfg: RunConfig, examples: list[ExampleBundle]) -> None:
    """Fail fast, naming the example, when a model's dims cannot consume its features."""
    for ex in examples:
        d_s = ex.speech.clip_features.shape[1]
        d_v = ex.regions.features.shape[1]
        if d_s != cfg.d_s:
            raise DataValidationError(
                f"example {ex.id}: clip features have dim {d_s}, the model expects {cfg.d_s}"
            )
        if d_v != cfg.d_v:
            raise DataValidationError(
                f"example {ex.id}: region features have dim {d_v}, the model expects {cfg.d_v}"
            )


def build_context(examples: ExampleBundle | list[ExampleBundle],
                  params: dict[str, Tensor], cfg: RunConfig,
                  vocab_index: dict[str, int] | None,
                  pair_matrix: PairRelevanceMatrix | None) -> BatchContext:
    """Project the raw modalities of one example or a batch once; regions are
    capped at roi_count. The parameter-free features are the ones each
    bundle keeps from its first use (see `features`), padded here, in one
    loop over the examples. Features of dims the model cannot consume, an
    unknown token and, in the full setting, a token count other than the
    clip count fail here, naming the example (see `check_dims`): every
    chart, parse and training step starts here."""
    if isinstance(examples, ExampleBundle):
        examples = [examples]
    check_dims(cfg, examples)
    textless = cfg.mode == "textless"
    lengths = tuple(ex.speech.count if textless else len(ex.tokens or [])
                    for ex in examples)

    token_ids = None
    word_rows = None
    if not textless:
        ids = []
        for ex in examples:
            if ex.tokens is None:
                raise AlignmentError(f"example {ex.id}: full mode requires tokens")
            try:
                ids.extend(vocab_index[t] for t in ex.tokens)
            except KeyError as exc:
                raise DataValidationError(
                    f"example {ex.id}: token {exc.args[0]!r} outside the vocabulary"
                ) from exc
            if len(ex.tokens) != ex.speech.count:
                raise AlignmentError(
                    f"example {ex.id}: full setting requires one clip per token, "
                    f"got {len(ex.tokens)} tokens vs {ex.speech.count} clips"
                )
        token_ids = np.array(ids, dtype=np.intp)
        word_rows = ad.gather_rows(params["word_embeddings"], token_ids)

    ids = [ex.id for ex in examples]
    clip_rows = np.concatenate([ex.speech.clip_features for ex in examples])
    count, clips = len(examples), max(ex.speech.count for ex in examples)
    keep = np.array([min(ex.regions.count, cfg.roi_count) for ex in examples])
    most = int(keep.max())
    # the kept features, zero after each example's clips and regions
    features = np.zeros((count, most, examples[0].regions.features.shape[1]))
    pitch_rows = np.zeros((count, clips), dtype=np.intp) if cfg.use_pitch else None
    voice = np.zeros((count, clips, clips)) if cfg.use_voice else None
    units = np.zeros((count, most, 4)) if cfg.use_visual else None
    pair_sub = None if units is None or pair_matrix is None else np.zeros((count, most, most))
    for b, ex in enumerate(examples):
        t, m = ex.speech.count, keep[b]
        features[b, :m] = ex.regions.features[:m]
        if pitch_rows is not None:
            pitch_rows[b, :t] = ex.speech.pitch_rows(ex.id)
        if voice is not None:
            voice[b, :t, :t] = ex.speech.voice_table(ex.id)
        if units is not None:
            units[b, :m] = ex.regions.unit_boxes(ex.id, m)
        if pair_sub is not None:
            pair_sub[b, :m, :m] = ex.regions.pair_submatrix(pair_matrix)[:m, :m]

    region_rows = features.reshape(count * most, -1)
    _freeze(clip_rows, region_rows)
    region_mask = None
    if np.any(keep != most):
        region_mask = np.where(np.arange(most) < keep[:, None], 0.0, -np.inf)
    v_proj = project_regions(region_rows, params["vision_projection"],
                             (count, most, cfg.d))
    region_sum = None
    if units is not None:
        region_sum = add_box_embedding(v_proj, units.reshape(count * most, 4),
                                       params["bbox_embed_w"], params["bbox_embed_b"])

    pitch_seq = None
    if pitch_rows is not None:
        rows = ad.gather_rows(params["pitch_embedding"], pitch_rows)
        pitch_seq = lstm_forward(rows, params["pitch_lstm_wx"], params["pitch_lstm_wh"],
                                 params["pitch_lstm_b"])

    return BatchContext(
        ids=ids, lengths=lengths, token_ids=token_ids,
        word_rows=word_rows, clip_rows=clip_rows,
        region_rows=region_rows, region_counts=keep, v_proj=v_proj,
        region_mask=region_mask, region_sum=region_sum, pair_sub=pair_sub,
        pitch_seq=pitch_seq, voice=voice,
    )


# ---------------------------------------------------------------------------
# terminal initialization


def init_terminals(ctx: BatchContext, params: dict[str, Tensor],
                   cfg: RunConfig) -> Tensor:
    """(sum n, d) terminal vectors, sentence by sentence.

    Full setting: each word attends over its own sentence's clip sequence
    (cross-attention without scaling) and takes the attention-weighted value
    projection of the clips. Textless: the projected clip itself,
    L2-normalized. One node either way (see `nn.attend_clips` and
    `nn.normalize_clips`).
    """
    if cfg.mode == "textless":
        return normalize_clips(ctx.clip_rows, params["clip_projection"])
    plan = ctx.plan
    weights = tuple(params[name] for name in ("clip_projection", "word_projection",
                                              "attn_q", "attn_k", "attn_v"))
    return attend_clips(ctx.word_rows, ctx.clip_rows, weights,
                        blocks=(len(plan.lengths), plan.n_max), pad=plan.pad.get(1),
                        unpad=plan.unpad.get(1), mask=plan.position_mask)


# ---------------------------------------------------------------------------
# passes


def _first_nonfinite(scores: np.ndarray) -> tuple[int, int] | None:
    if np.all(np.isfinite(scores)):
        return None
    cell, column = np.argwhere(~np.isfinite(scores))[0]
    return int(cell), int(column)


def _sum_into(totals: list, terms) -> None:
    """Add each of `terms` into its slot of `totals`, in place after the
    first, skipping None: summed in sweep order, as separate step nodes'
    gradients were. The terms are fresh arrays of a step's vjp."""
    for k, term in enumerate(terms):
        if term is None:
            continue
        if totals[k] is None:
            totals[k] = term
        else:
            totals[k] += term


def inside_pass(ctx: BatchContext, params: dict[str, Tensor], cfg: RunConfig,
                training: bool = False,
                rng: np.random.Generator | None = None) -> Chart:
    """Fill inside vectors/scores bottom-up, caching decomposition scores.

    Each length is one step over all of its (span, split) pairs in every
    sentence, and the whole pass is one node. Its output holds the vector
    and score of each span, (spans, d + 1) rows, length-major; its vjp runs
    the steps' vjps from the longest length down, on one gradient array of
    its own. With region features on, the steps read a second array of what
    a parent reads of a child: its vector plus gamma times its region
    feature, its score, and with a pair matrix its region attention and that
    attention through the pair matrix. When no input needs a gradient (every
    parse), the pass keeps no step's backward state. In training with
    dropout, the boolean masks of this pass and of the outside pass are
    drawn here, in the order `_dropout_masks` fixes.
    """
    plan = ctx.plan
    terminals = init_terminals(ctx, params, cfg)
    inside_masks = outside_masks = None
    if training and cfg.dropout > 0.0:
        inside_masks, outside_masks = _dropout_masks(
            plan, params["compose_in_w1"].data.shape[1], cfg.dropout, rng)
    count, (positions, d) = len(ctx.lengths), terminals.data.shape
    weights = tuple(params[name] for name in ("compose_in_w1", "compose_in_b1",
                                              "compose_in_w2", "compose_in_b2",
                                              "bilinear_inside"))
    visual = ctx.region_sum is not None
    pitch = None if ctx.pitch_seq is None else ctx.pitch_seq.data
    inputs = ((terminals,) + ((ctx.v_proj, ctx.region_sum) if visual else ())
              + (() if pitch is None else (ctx.pitch_seq,)) + weights)
    grad = any(t.requires_grad for t in inputs)
    spans = np.zeros((plan.block_start[-1], d + 1))
    spans[:positions, :d] = terminals.data
    children, regions = spans, 0
    features, steps = [], []   # the vjps of lengths 1.., and of lengths 2..
    if visual:
        if ctx.pair_sub is not None:
            regions = ctx.pair_sub.shape[1]
        children = np.empty((plan.block_start[-2], d + 1 + 2 * regions))

        def add_children(length: int) -> None:
            block = slice(plan.block_start[length], plan.block_start[length + 1])
            children[block], vjp = span_features(
                spans[block], ctx.v_proj.data, ctx.region_sum.data, gamma=cfg.gamma,
                blocks=(count, plan.n_max - length + 1), pad=plan.pad.get(length),
                unpad=plan.unpad.get(length), mask=ctx.region_mask, pair=ctx.pair_sub,
                grad=grad)
            features.append(vjp)

        add_children(1)
    voice = None
    if ctx.voice is not None:
        voice = ctx.voice[plan.span_sentence, plan.span_start - 1, plan.span_end - 1]
    split_in = {}
    # a left child reads its pair columns, vector and score, a right child
    # its vector, score and attention (see `span_features`)
    left_cols, right_cols = slice(0, regions + d + 1), slice(regions, None)
    for length in range(2, plan.n_max + 1):
        (lefts, rights), block_rows = plan.inside[length]
        block = slice(plan.block_start[length], plan.block_start[length + 1])
        spans[block], scores, vjp = chart_step(
            (children, lefts, left_cols), (children, rights, right_cols),
            tuple(w.data for w in weights), cells=block.stop - block.start,
            keep=None if inside_masks is None else inside_masks[length], rate=cfg.dropout,
            regions=regions,
            voice=None if voice is None else np.repeat(voice[block], length - 1),
            pitch=pitch, pool=plan.pool[length], pool_rows=block_rows, lam=cfg.lam,
            grad=grad)
        bad = _first_nonfinite(scores)
        if bad is not None:
            row = block.start + bad[0]
            start = int(plan.span_start[row])
            raise ChartError(
                f"example {ctx.ids[plan.span_sentence[row]]}: non-finite inside score "
                f"at span ({start}, {start + length - 1}), split k={start + bad[1]}"
            )
        _freeze(scores)
        split_in[length] = scores
        steps.append(vjp)
        if visual and length < plan.n_max:
            add_children(length)

    def vjp(g):
        g_spans = g.copy()
        g_children = g_spans if children is spans else np.zeros(children.shape)
        g_regions, g_steps = [None, None], [None] * 6   # v_proj, region_sum; pitch, weights
        for length in range(plan.n_max, 0, -1):
            block = slice(plan.block_start[length], plan.block_start[length + 1])
            if length <= len(features):
                _sum_into(g_regions, features[length - 1](g_children[block], g_spans[block]))
            if length > 1:
                _sum_into(g_steps, steps[length - 2](g_spans[block], g_children, g_children))
        return ((g_spans[:positions, :d],) + (tuple(g_regions) if visual else ())
                + tuple(g_steps[pitch is None:]))

    return Chart(ids=ctx.ids, plan=plan,
                 inside=ad._from_op(spans, inputs, vjp), split_in=split_in,
                 outside_masks=outside_masks)


def outside_pass(chart: Chart, ctx: BatchContext, params: dict[str, Tensor],
                 cfg: RunConfig, training: bool = False,
                 rng: np.random.Generator | None = None) -> Chart:
    """Fill outside vectors/scores top-down.

    Each context of span (i, j) pairs a parent outside cell with a sibling
    inside cell: position k > j uses parent (i, k) and sibling (j+1, k);
    k < i uses parent (k, j) and sibling (k, i-1). The root has no context;
    its outside vector is a learned bias and its outside score is zero.
    Each distance r to the root is one step over all (span, context) pairs
    of every sentence with n > r, reading parents from the pass's own rows
    and siblings from the inside pass's; both are indexed by span row. The
    whole pass is one node, as the inside pass is. In training, the dropout
    masks are the ones the inside pass drew, so it must have run in training
    too; `rng` is taken for symmetry with `inside_pass` and not used.

    Textless training leaves the outside rows of single positions at zero:
    only the reconstruction loss reads them, and textless mode has no words
    to reconstruct. Each step then runs on the cells that lead it (see
    `_Plan`), and a distance whose cells are all single positions runs no
    step. Full-mode training and eval passes compute every cell.
    """
    plan = chart.plan
    masks = chart.outside_masks if training else None
    every_cell = not training or cfg.mode != "textless"
    bias = params["root_outside_bias"]
    d = bias.data.shape[0]
    weights = tuple(params[name] for name in ("compose_out_w1", "compose_out_b1",
                                              "compose_out_w2", "compose_out_b2",
                                              "bilinear_outside"))
    inputs = (chart.inside, bias) + weights
    grad = any(t.requires_grad for t in inputs)
    inside = chart.inside.data
    outside = np.zeros((plan.block_start[-1], d + 1))
    outside[plan.root_rows, :d] = bias.data
    steps = []
    for r in range(1, plan.n_max):
        parents, siblings, cells = plan.outside[r]
        if not every_cell:
            cells = plan.outside_lead[r]
            parents, siblings = _prefix(parents, cells * r), _prefix(siblings, cells * r)
        if not cells:
            continue
        step, scores, vjp = chart_step(
            (outside, parents, slice(None)), (inside, siblings, slice(None)),
            tuple(w.data for w in weights), cells=cells,
            keep=None if masks is None else masks[r][:cells * r], rate=cfg.dropout, grad=grad)
        rows = plan.out_rows[r][:cells]
        bad = _first_nonfinite(scores)
        if bad is not None:
            span = rows[bad[0]]
            raise ChartError(
                f"example {ctx.ids[plan.span_sentence[span]]}: non-finite outside score "
                f"at span ({plan.span_start[span]}, {plan.span_end[span]}), "
                f"context {bad[1]}"
            )
        outside[rows] = step
        steps.append((rows, vjp))

    def vjp(g):
        g_outside = g.copy()
        g_inside = np.zeros(inside.shape)
        g_steps = [None] * 6   # no pitch; the weights
        for rows, step_vjp in reversed(steps):
            _sum_into(g_steps, step_vjp(g_outside[rows], g_outside, g_inside))
        return (g_inside, g_outside[plan.root_rows, :d].sum(axis=0)) + tuple(g_steps[1:])

    chart.outside = ad._from_op(outside, inputs, vjp)
    return chart


def span_marginal(chart: Chart, i, j, sentence=0) -> np.ndarray:
    """q(i, j): inside times outside score, normalized by the root inside score.

    `i`, `j` and `sentence` may be equal-shape integer arrays, giving one
    marginal per span. A root score too small to normalize raises
    DegenerateChartError naming its example. The contrastive loss's node
    differentiates the marginals.
    """
    inside = chart.inside.data
    root = inside[chart.plan.root_rows[sentence], -1]
    small = np.flatnonzero(np.abs(root) < ROOT_EPS)
    if small.size:
        raise DegenerateChartError(
            f"example {chart.ids[np.ravel(sentence)[small[0]]]}: root inside score "
            f"{np.ravel(root)[small[0]]:.3e} too small to normalize"
        )
    rows = chart.plan.row(i, j, sentence)
    return inside[rows, -1] * chart.outside.data[rows, -1] / root


def run_chart(examples: ExampleBundle | list[ExampleBundle],
              params: dict[str, Tensor], cfg: RunConfig,
              vocab_index: dict[str, int] | None,
              pair_matrix: PairRelevanceMatrix | None,
              training: bool = False, rng: np.random.Generator | None = None
              ) -> tuple[Chart, BatchContext]:
    """Context, inside and outside of one example or a batch."""
    ctx = build_context(examples, params, cfg, vocab_index, pair_matrix)
    chart = inside_pass(ctx, params, cfg, training=training, rng=rng)
    outside_pass(chart, ctx, params, cfg, training=training, rng=rng)
    return chart, ctx


def chart_dump(chart: Chart, sentence: int = 0) -> dict:
    """JSON-friendly dump of one sentence's scores, marginals, and argmax splits."""
    plan = chart.plan
    rows = plan.sentence_rows(sentence)
    starts, ends = plan.span_start[rows], plan.span_end[rows]
    keys = [f"{i},{j}" for i, j in zip(starts.tolist(), ends.tolist())]
    doc: dict = {"n": plan.lengths[sentence],
                 "s_in": dict(zip(keys, chart.inside.data[rows, -1].tolist())),
                 "s_out": {}, "q": {}, "argmax_k": {}}
    if chart.outside is not None:
        doc["s_out"] = dict(zip(keys, chart.outside.data[rows, -1].tolist()))
        doc["q"] = dict(zip(keys, span_marginal(chart, starts, ends, sentence).tolist()))
    splits, _ = chart.split_tables(sentence)
    for length, scores in splits.items():
        for i, k in enumerate(np.argmax(scores, axis=1).tolist(), start=1):
            doc["argmax_k"][f"{i},{i + length - 1}"] = i + k
    return doc
