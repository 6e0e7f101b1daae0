"""Training objectives: reconstruction, contrastive, and representation losses.

Each objective is computed per sentence and averaged over the batch, as one
graph node for the whole batch with a hand-written backward: per-sentence
sums and means are products with constant (B, rows) averaging matrices, and
a backward keeps only what its gradient reads. The chart objectives take the
chart's pass nodes as parents, reading vector columns and the score column
of their (spans, d + 1) rows (see `Chart`), and return one gradient array
per pass. The contrastive node reads the span scores and differentiates the
span marginals itself, and the weighted total is one more node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .chart import BatchContext, Chart, span_marginal
from .config import RunConfig

__all__ = [
    "LossReport",
    "reconstruction_loss",
    "contrastive_loss",
    "representation_loss",
    "batch_loss",
]

NORM_EPS = 1e-8


@dataclass
class LossReport:
    l_rec: float
    l_cl: float
    l_rep: float
    total: float


def _segment_matrix(counts, stride: int | None = None, mean: bool = True) -> np.ndarray:
    """(B, rows) matrix summing (or averaging) each sentence's rows.

    Rows are packed sentence after sentence, or `stride` apart with padding
    after each sentence's `counts[b]` rows.
    """
    counts = np.asarray(counts)
    width = counts if stride is None else np.full(counts.size, stride)
    matrix = np.repeat(np.eye(counts.size), width, axis=1)
    if stride is not None:
        matrix *= (np.arange(stride) < counts[:, None]).ravel()
    return matrix / counts[:, None] if mean else matrix


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, shifted by each row's max."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _log_softmax_vjp(log_probs: np.ndarray, cols: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of row i's input from `g[i]` on its entry `cols[i]`."""
    out = np.exp(log_probs) * -g[:, None]
    out[np.arange(cols.size), cols] += g
    return out


def reconstruction_loss(chart: Chart, ctx: BatchContext,
                        params: dict[str, Tensor]) -> Tensor:
    """Blank-filling NLL: each terminal's outside vector predicts its token.

    The outside vector is mapped back to word-embedding space through the
    transposed input projection and scored against the (tied) embedding
    table with a full softmax. Averaged over each sentence, then the batch.
    """
    if ctx.token_ids is None:
        raise ValueError("reconstruction loss requires tokens (full setting)")
    outside, w_proj, w_emb = chart.outside, params["word_projection"], params["word_embeddings"]
    tokens, count = ctx.token_ids, len(ctx.lengths)
    terminals = outside.data[:tokens.size, :-1]   # terminals lead the storage
    hidden = terminals @ w_proj.data.T
    log_probs = _log_softmax(hidden @ w_emb.data.T)
    mean = _segment_matrix(ctx.lengths)
    loss = -(mean @ log_probs[np.arange(tokens.size), tokens]).mean()

    def vjp(g):
        g_logits = _log_softmax_vjp(log_probs, tokens, mean.T @ np.full(count, -g / count))
        g_hidden = g_logits @ w_emb.data
        g_outside = np.zeros(outside.data.shape)
        g_outside[:tokens.size, :-1] = g_hidden @ w_proj.data
        return g_outside, g_hidden.T @ terminals, g_logits.T @ hidden

    return ad._from_op(loss, (outside, w_proj, w_emb), vjp)


def _sample_negatives(sizes: np.ndarray, rng: np.random.Generator):
    """One negative span and one negative image per span of each sentence.

    `sizes[e]` counts sentence e's spans, stored back to back. Per sentence
    with spans and another sentence with spans, in batch order: draw a
    source sentence per span, a span within each source, then an image per
    span. Returns (positive rows, negative span rows, negative images,
    owning sentence), each per hinge.
    """
    count = len(sizes)
    offsets = np.cumsum(sizes) - sizes
    positives, neg_spans, neg_images, owners = [], [], [], []
    for e in range(count):
        others = np.array([f for f in range(count) if f != e and sizes[f]], dtype=np.intp)
        if not sizes[e] or not others.size:
            continue
        n_spans = int(sizes[e])
        src = rng.integers(0, len(others), size=n_spans)
        within = rng.integers(0, sizes[others[src]])
        neg_imgs = np.array([f for f in range(count) if f != e], dtype=np.intp)
        picks = neg_imgs[rng.integers(0, len(neg_imgs), size=n_spans)]
        positives.append(offsets[e] + np.arange(n_spans))
        neg_spans.append(offsets[others[src]] + within)
        neg_images.append(picks)
        owners.append(np.full(n_spans, e, dtype=np.intp))
    if not positives:
        return None
    return tuple(np.concatenate(parts) for parts in (positives, neg_spans, neg_images, owners))


def _best_region(rows: np.ndarray, ctx: BatchContext) -> tuple[np.ndarray, np.ndarray]:
    """(R, d) vectors -> (R, B) best region similarity in each image, and the
    (R, B) index of that region (the first, on a tie)."""
    count, regions, d = ctx.v_proj.data.shape
    sims = (rows @ ctx.v_proj.data.reshape(count * regions, d).T).reshape(-1, count, regions)
    if ctx.region_mask is not None:
        sims = sims + ctx.region_mask
    best = sims.argmax(axis=2)
    return np.take_along_axis(sims, best[:, :, None], axis=2)[:, :, 0], best


def _best_region_vjp(rows: np.ndarray, best: np.ndarray, g: np.ndarray,
                     v_proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of `_best_region`'s rows and regions from `g` on its values."""
    count, regions, d = v_proj.shape
    g_sims = np.zeros(best.shape + (regions,))
    np.put_along_axis(g_sims, best[:, :, None], g[:, :, None], axis=2)
    g_sims = g_sims.reshape(-1, count * regions)
    return g_sims @ v_proj.reshape(count * regions, d), (g_sims.T @ rows).reshape(v_proj.shape)


def contrastive_loss(chart: Chart, ctx: BatchContext, margin: float,
                     rng: np.random.Generator) -> tuple[Tensor, list[float]]:
    """Span- and word-level contrastive objective over one batch.

    Span level: a span's image relevance is its best region similarity scaled
    by its chart marginal; each span is pushed above one sampled negative
    span (same image) and one sampled negative image (same span) by the
    margin. Word level: each terminal must pick out its own image among the
    batch's images under a softmax. A batch of one has no negatives: the
    span hinges are skipped and the word term is identically zero.

    Returns the batch-mean loss tensor plus per-example values.
    """
    plan, inside, outside, v_proj = chart.plan, chart.inside.data, chart.outside, ctx.v_proj
    count, owner = len(ctx.lengths), plan.position_owner
    sampled = _sample_negatives(plan.long_sizes, rng) if plan.long_owner.size else None
    if sampled is not None:
        rows = plan.row(plan.long_start, plan.long_end, plan.long_owner)
        roots = plan.root_rows[plan.long_owner]
        marginals = span_marginal(chart, plan.long_start, plan.long_end, plan.long_owner)
        sims, span_best = _best_region(inside[rows, :-1] + outside.data[rows, :-1], ctx)
        rel = sims * marginals.reshape(-1, 1)
        pos_rows, neg_rows, neg_images, hinge_owner = sampled
        positives = rel[pos_rows, hinge_owner]
        neg_span = rel[neg_rows, hinge_owner] - positives + margin
        neg_img = rel[pos_rows, neg_images] - positives + margin
        active = (neg_span > 0.0, neg_img > 0.0)
        hinges = np.maximum(neg_span, 0.0) + np.maximum(neg_img, 0.0)
        span_term = np.eye(count)[:, hinge_owner] @ hinges

    word_sims, word_best = _best_region(inside[:owner.size, :-1], ctx)
    log_probs = _log_softmax(word_sims)
    sums = _segment_matrix(ctx.lengths, mean=False)
    word = sums @ log_probs[np.arange(owner.size), owner]
    per_example = -word if sampled is None else span_term - word

    def vjp(g):
        g_example = np.full(count, g / count)
        g_word = _log_softmax_vjp(log_probs, owner, sums.T @ -g_example)
        g_inside = np.zeros(inside.shape)
        g_inside[:owner.size, :-1], g_v = _best_region_vjp(inside[:owner.size, :-1], word_best,
                                                           g_word, v_proj.data)
        if sampled is None:
            return g_inside, g_v
        g_rel = np.zeros(span_best.shape)
        g_neg_span, g_neg_img = (g_example[hinge_owner] * on for on in active)
        np.add.at(g_rel, (neg_rows, hinge_owner), g_neg_span)
        np.add.at(g_rel, (pos_rows, neg_images), g_neg_img)
        np.add.at(g_rel, (pos_rows, hinge_owner), -(g_neg_span + g_neg_img))
        g_vecs, g_regions = _best_region_vjp(inside[rows, :-1] + outside.data[rows, :-1],
                                             span_best, g_rel * marginals.reshape(-1, 1),
                                             v_proj.data)
        g_inside[rows, :-1] += g_vecs
        g_outside = np.zeros(outside.data.shape)
        g_outside[rows, :-1] = g_vecs
        # the marginals s_in[rows] * s_out[rows] / s_in[roots], s the score column
        g_marginals = (g_rel * sims).sum(axis=1)
        s_in, s_out, root = inside[rows, -1], outside.data[rows, -1], inside[roots, -1]
        g_inside[:, -1] = np.bincount(roots, -g_marginals * (s_in * s_out) / (root * root),
                                      minlength=inside.shape[0])
        g_inside[rows, -1] += g_marginals / root * s_out
        g_outside[rows, -1] = g_marginals / root * s_in
        return g_inside, g_v + g_regions, g_outside

    parents = (chart.inside, v_proj) + (() if sampled is None else (outside,))
    return ad._from_op(per_example.mean(), parents, vjp), per_example.tolist()


def _cosine_rows(a: np.ndarray, b: np.ndarray):
    """Row-wise cosine similarity with epsilon-guarded norms, and its vjp."""
    num = (a * b).sum(axis=1)
    na = np.sqrt((a * a).sum(axis=1) + NORM_EPS ** 2)
    nb = np.sqrt((b * b).sum(axis=1) + NORM_EPS ** 2)
    cos = num / (na * nb)

    def vjp(g):
        scale = (g / (na * nb))[:, None]
        return (scale * b - (g * cos / (na * na))[:, None] * a,
                scale * a - (g * cos / (nb * nb))[:, None] * b)

    return cos, vjp


def representation_loss(ctx: BatchContext, params: dict[str, Tensor],
                        cfg: RunConfig) -> Tensor:
    """Cross-modal alignment in a shared space, as (1 - cosine) distances.

    Full setting: per-position clip/word alignment plus a global
    speech/image alignment of averaged projections; textless keeps only the
    global term. Each term lies in [0, 2]; averaged over the batch.
    """
    w_speech, w_vision = params["align_proj_speech"], params["align_proj_vision"]
    clips, regions, count = ctx.clip_rows, ctx.region_rows, len(ctx.region_counts)
    speech = clips @ w_speech.data
    clip_mean = _segment_matrix(ctx.lengths)
    region_mean = _segment_matrix(ctx.region_counts, regions.shape[0] // count)
    cos, cos_vjp = _cosine_rows(clip_mean @ speech, region_mean @ (regions @ w_vision.data))
    terms = 1.0 - cos
    parents = (w_speech, w_vision)
    full = cfg.mode != "textless" and ctx.word_rows is not None
    if full:
        words, w_text = ctx.word_rows, params["align_proj_text"]
        word_cos, word_vjp = _cosine_rows(speech, words.data @ w_text.data)
        length_mean = _segment_matrix(ctx.lengths)
        terms = length_mean @ (1.0 - word_cos) + terms
        parents += (words, w_text)

    def vjp(g):
        g_terms = np.full(count, -g / count)
        g_speech, g_vision = cos_vjp(g_terms)
        g_speech = clip_mean.T @ g_speech
        text_grads = ()
        if full:
            g_word_speech, g_text = word_vjp(length_mean.T @ g_terms)
            g_speech = g_speech + g_word_speech
            text_grads = (g_text @ w_text.data.T, words.data.T @ g_text)
        return (clips.T @ g_speech, regions.T @ (region_mean.T @ g_vision)) + text_grads

    return ad._from_op(terms.mean(), parents, vjp)


def batch_loss(chart: Chart, ctx: BatchContext, params: dict[str, Tensor],
               cfg: RunConfig, rng: np.random.Generator) -> tuple[Tensor, LossReport]:
    """Total training loss of a batch's chart, averaged over its examples."""
    if cfg.mode == "textless":
        rec = ad.constant(0.0)
    else:
        rec = reconstruction_loss(chart, ctx, params)
    contrastive, _ = contrastive_loss(chart, ctx, cfg.margin, rng)
    rep = representation_loss(ctx, params, cfg)
    total = ad._from_op((rec.data + cfg.alpha1 * contrastive.data) + cfg.alpha2 * rep.data,
                        (rec, contrastive, rep),
                        lambda g: (g, cfg.alpha1 * g, cfg.alpha2 * g))
    report = LossReport(float(rec.data), float(contrastive.data), float(rep.data),
                        float(total.data))
    return total, report
