"""Training objectives: reconstruction, contrastive, and representation losses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .chart import Chart, ExampleContext, span_marginal
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


def reconstruction_loss(chart: Chart, ctx: ExampleContext,
                        params: dict[str, Tensor]) -> Tensor:
    """Blank-filling NLL: each terminal's outside vector predicts its token.

    The outside vector is mapped back to word-embedding space through the
    transposed input projection and scored against the (tied) embedding
    table with a full softmax.
    """
    if ctx.token_ids is None:
        raise ValueError("reconstruction loss requires tokens (full setting)")
    n = chart.n
    h_out = ad.slice_axis0(chart.h_out, 0, n)  # terminals lead the storage order
    logits = ad.matmul(
        ad.matmul(h_out, ad.transpose(params["word_projection"])),
        ad.transpose(params["word_embeddings"]),
    )
    log_probs = ad.log_softmax(logits, axis=1)
    picked = ad.take_pairs(log_probs, np.arange(n), ctx.token_ids)
    return -ad.tensor_mean(picked)


def _span_list(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the spans longer than one position, start-major."""
    i, j = np.triu_indices(n, k=1)
    return i + 1, j + 1


def contrastive_loss(batch: list[tuple[Chart, ExampleContext]],
                     params: dict[str, Tensor], margin: float,
                     rng: np.random.Generator,
                     cfg: RunConfig) -> tuple[Tensor, list[float]]:
    """Span- and word-level contrastive objective over one batch.

    Span level: a span's image relevance is its best region similarity scaled
    by its chart marginal; each span is pushed above one sampled negative
    span (same image) and one sampled negative image (same span) by the
    margin. Word level: each terminal must pick out its own image among the
    batch's images under a softmax. A batch of one has no negatives: the
    span hinges are skipped and the word term is identically zero.

    Returns the batch-mean loss tensor plus per-example values.
    """
    count = len(batch)
    span_keys = [_span_list(chart.n) for chart, _ in batch]
    span_vecs: list[Tensor | None] = []
    rel: list[list[Tensor | None]] = [[None] * count for _ in range(count)]
    proj_t = [ad.transpose(ctx.v_proj) for _, ctx in batch]

    for e, (chart, _) in enumerate(batch):
        starts, ends = span_keys[e]
        if not starts.size:
            span_vecs.append(None)
            continue
        vecs = ad.gather_rows(chart.h_in + chart.h_out, chart.row(starts, ends))
        marginals = span_marginal(chart, starts, ends)
        span_vecs.append(vecs)
        for img in range(count):
            sim = ad.tensor_max(ad.matmul(vecs, proj_t[img]), axis=1)
            rel[e][img] = sim * marginals

    per_example: list[Tensor] = []
    for e, (chart, _) in enumerate(batch):
        parts: list[Tensor] = []
        others = [f for f in range(count) if f != e and span_vecs[f] is not None]
        if span_vecs[e] is not None and others:
            positives = rel[e][e]
            n_spans = span_keys[e][0].size
            # one negative span and one negative image per positive
            flat = ad.concat([rel[f][e] for f in others])
            sizes = [span_keys[f][0].size for f in others]
            offsets = np.cumsum([0] + sizes)
            src = rng.integers(0, len(others), size=n_spans)
            within = np.array([rng.integers(0, sizes[s]) for s in src])
            neg_span = ad.gather_rows(flat, offsets[src] + within)

            neg_imgs = [f for f in range(count) if f != e]
            img_pick = np.array([neg_imgs[rng.integers(0, len(neg_imgs))]
                                 for _ in range(n_spans)])
            stacked = ad.stack([rel[e][f] for f in range(count)])
            neg_img = ad.take_pairs(stacked, img_pick, np.arange(n_spans))

            parts.append(ad.tensor_sum(ad.relu(neg_span - positives + margin)))
            parts.append(ad.tensor_sum(ad.relu(neg_img - positives + margin)))

        terminals = ad.slice_axis0(chart.h_in, 0, chart.n)
        cols = [ad.tensor_max(ad.matmul(terminals, proj_t[f]), axis=1)
                for f in range(count)]
        log_probs = ad.log_softmax(ad.stack(cols, axis=1), axis=1)
        own = ad.take_pairs(log_probs, np.arange(chart.n),
                            np.full(chart.n, e, dtype=np.intp))
        parts.append(-ad.tensor_sum(own))

        total = parts[0]
        for part in parts[1:]:
            total = total + part
        per_example.append(total)

    batch_total = ad.tensor_mean(ad.stack(per_example))
    return batch_total, [float(t.data) for t in per_example]


def _cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity with epsilon-guarded norms."""
    num = ad.tensor_sum(a * b, axis=1)
    na = ad.sqrt(ad.tensor_sum(a * a, axis=1) + NORM_EPS ** 2)
    nb = ad.sqrt(ad.tensor_sum(b * b, axis=1) + NORM_EPS ** 2)
    return ad.div(num, na * nb)


def _cosine(a: Tensor, b: Tensor) -> Tensor:
    num = ad.tensor_sum(a * b)
    na = ad.sqrt(ad.tensor_sum(a * a) + NORM_EPS ** 2)
    nb = ad.sqrt(ad.tensor_sum(b * b) + NORM_EPS ** 2)
    return ad.div(num, na * nb)


def representation_loss(ctx: ExampleContext, params: dict[str, Tensor],
                        cfg: RunConfig) -> Tensor:
    """Cross-modal alignment in a shared space, as (1 - cosine) distances.

    Full setting: per-position clip/word alignment plus a global
    speech/image alignment of averaged projections; textless keeps only the
    global term. Each term lies in [0, 2].
    """
    speech = ad.matmul(ctx.clip_rows, params["align_proj_speech"])
    vision = ad.matmul(ctx.region_rows, params["align_proj_vision"])
    global_term = 1.0 - _cosine(ad.tensor_mean(speech, axis=0),
                                ad.tensor_mean(vision, axis=0))
    if cfg.mode == "textless" or ctx.word_rows is None:
        return global_term
    text = ad.matmul(ctx.word_rows, params["align_proj_text"])
    word_term = ad.tensor_mean(1.0 - _cosine_rows(speech, text))
    return word_term + global_term


def batch_loss(batch: list[tuple[Chart, ExampleContext]],
               params: dict[str, Tensor], cfg: RunConfig,
               rng: np.random.Generator) -> tuple[Tensor, LossReport]:
    """Total training loss for a batch, averaged over examples."""
    if cfg.mode == "textless":
        rec = ad.constant(0.0)
    else:
        rec_terms = [reconstruction_loss(chart, ctx, params) for chart, ctx in batch]
        rec = ad.tensor_mean(ad.stack(rec_terms))
    contrastive, _ = contrastive_loss(batch, params, cfg.margin, rng, cfg)
    rep_terms = [representation_loss(ctx, params, cfg) for _, ctx in batch]
    rep = ad.tensor_mean(ad.stack(rep_terms))
    total = rec + cfg.alpha1 * contrastive + cfg.alpha2 * rep
    report = LossReport.build(float(rec.data), float(contrastive.data),
                              float(rep.data), cfg.alpha1, cfg.alpha2)
    return total, report
