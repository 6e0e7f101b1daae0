"""Training objectives: reconstruction, contrastive, and representation losses.

Each objective is computed per sentence and averaged over the batch, with
one graph for the whole batch: per-sentence sums and means are products with
constant (B, rows) averaging matrices.
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
    alpha1: float
    alpha2: float

    @classmethod
    def build(cls, l_rec: float, l_cl: float, l_rep: float,
              alpha1: float, alpha2: float) -> "LossReport":
        return cls(l_rec, l_cl, l_rep, l_rec + alpha1 * l_cl + alpha2 * l_rep,
                   alpha1, alpha2)


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


def reconstruction_loss(chart: Chart, ctx: BatchContext,
                        params: dict[str, Tensor]) -> Tensor:
    """Blank-filling NLL: each terminal's outside vector predicts its token.

    The outside vector is mapped back to word-embedding space through the
    transposed input projection and scored against the (tied) embedding
    table with a full softmax. Averaged over each sentence, then the batch.
    """
    if ctx.token_ids is None:
        raise ValueError("reconstruction loss requires tokens (full setting)")
    positions = ctx.token_ids.size
    h_out = ad.select(chart.h_out, slice(0, positions))  # terminals lead the storage
    logits = ad.matmul(
        ad.matmul(h_out, ad.transpose(params["word_projection"])),
        ad.transpose(params["word_embeddings"]),
    )
    log_probs = ad.log_softmax(logits, axis=1)
    picked = ad.take_pairs(log_probs, np.arange(positions), ctx.token_ids)
    return -ad.tensor_mean(ad.matmul(_segment_matrix(ctx.lengths), picked))


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
    plan = chart.plan
    count, regions, d = ctx.v_proj.data.shape
    regions_t = ad.transpose(ad.reshape(ctx.v_proj, (count * regions, d)))

    def best_region(rows: Tensor) -> Tensor:
        """(R, d) vectors -> (R, B) best region similarity in each image."""
        sims = ad.reshape(ad.matmul(rows, regions_t), (-1, count, regions))
        if ctx.region_mask is not None:
            sims = sims + ctx.region_mask
        return ad.tensor_max(sims, axis=2)

    per_example = None
    sampled = _sample_negatives(plan.long_sizes, rng) if plan.long_owner.size else None
    if sampled is not None:
        starts, ends, owner = plan.long_start, plan.long_end, plan.long_owner
        vecs = ad.gather_rows(chart.h_in + chart.h_out, chart.row(starts, ends, owner))
        marginals = span_marginal(chart, starts, ends, owner)
        rel = best_region(vecs) * ad.reshape(marginals, (-1, 1))
        pos_rows, neg_rows, neg_images, hinge_owner = sampled
        positives = ad.take_pairs(rel, pos_rows, hinge_owner)
        neg_span = ad.take_pairs(rel, neg_rows, hinge_owner)
        neg_img = ad.take_pairs(rel, pos_rows, neg_images)
        hinges = ad.relu(neg_span - positives + margin) \
            + ad.relu(neg_img - positives + margin)
        per_sentence = np.eye(count)[:, hinge_owner]
        per_example = ad.matmul(per_sentence, hinges)

    positions = plan.position_owner.size
    terminals = ad.select(chart.h_in, slice(0, positions))
    log_probs = ad.log_softmax(best_region(terminals), axis=1)
    own = ad.take_pairs(log_probs, np.arange(positions), plan.position_owner)
    word = ad.matmul(_segment_matrix(ctx.lengths, mean=False), own)
    per_example = -word if per_example is None else per_example - word
    return ad.tensor_mean(per_example), per_example.data.tolist()


def _cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity with epsilon-guarded norms."""
    num = ad.tensor_sum(a * b, axis=1)
    na = ad.sqrt(ad.tensor_sum(a * a, axis=1) + NORM_EPS ** 2)
    nb = ad.sqrt(ad.tensor_sum(b * b, axis=1) + NORM_EPS ** 2)
    return ad.div(num, na * nb)


def representation_loss(ctx: BatchContext, params: dict[str, Tensor],
                        cfg: RunConfig) -> Tensor:
    """Cross-modal alignment in a shared space, as (1 - cosine) distances.

    Full setting: per-position clip/word alignment plus a global
    speech/image alignment of averaged projections; textless keeps only the
    global term. Each term lies in [0, 2]; averaged over the batch.
    """
    speech = ad.matmul(ctx.clip_rows, params["align_proj_speech"])
    vision = ad.matmul(ctx.region_rows, params["align_proj_vision"])
    stride = ctx.region_rows.data.shape[0] // len(ctx.region_counts)
    global_term = 1.0 - _cosine_rows(
        ad.matmul(_segment_matrix(ctx.clip_counts), speech),
        ad.matmul(_segment_matrix(ctx.region_counts, stride), vision))
    if cfg.mode == "textless" or ctx.word_rows is None:
        return ad.tensor_mean(global_term)
    text = ad.matmul(ctx.word_rows, params["align_proj_text"])
    word_term = ad.matmul(_segment_matrix(ctx.lengths), 1.0 - _cosine_rows(speech, text))
    return ad.tensor_mean(word_term + global_term)


def batch_loss(chart: Chart, ctx: BatchContext, params: dict[str, Tensor],
               cfg: RunConfig, rng: np.random.Generator) -> tuple[Tensor, LossReport]:
    """Total training loss of a batch's chart, averaged over its examples."""
    if cfg.mode == "textless":
        rec = ad.constant(0.0)
    else:
        rec = reconstruction_loss(chart, ctx, params)
    contrastive, _ = contrastive_loss(chart, ctx, cfg.margin, rng)
    rep = representation_loss(ctx, params, cfg)
    total = rec + cfg.alpha1 * contrastive + cfg.alpha2 * rep
    report = LossReport.build(float(rec.data), float(contrastive.data),
                              float(rep.data), cfg.alpha1, cfg.alpha2)
    return total, report
