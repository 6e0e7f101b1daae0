"""Model-driven parsing and corpus-level evaluation helpers."""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor
from .chart import build_context, chart_dump, inside_pass, outside_pass
from .config import RunConfig
from .corpus import ExampleBundle
from .decode import cky_decode
from .errors import DataValidationError
from .features import PairRelevanceMatrix, build_pair_matrix
from .metrics import bracketing_f1
from .trees import Tree

__all__ = [
    "build_vocab",
    "corpus_pair_matrix",
    "parse_example",
    "parse_corpus",
    "heldout_sent_f1",
    "check_dims",
]


def build_vocab(examples: list[ExampleBundle]) -> list[str]:
    tokens: set[str] = set()
    for ex in examples:
        if ex.tokens:
            tokens.update(ex.tokens)
    return sorted(tokens)


def corpus_pair_matrix(examples: list[ExampleBundle]) -> PairRelevanceMatrix:
    """Pair relevance from the categories detected across a corpus's images,
    over categories 0 up to the largest one detected."""
    sets = [set(int(c) for c in ex.regions.categories) for ex in examples]
    return build_pair_matrix(sets, max(max(s) for s in sets if s) + 1)


def parse_example(example: ExampleBundle, params: dict[str, Tensor],
                  cfg: RunConfig, vocab_index: dict[str, int] | None,
                  pair_matrix: PairRelevanceMatrix | None,
                  with_scores: bool = False):
    """Decode one example's best tree from a fresh (eval-mode) inside chart.

    Returns the tree, or (tree, chart dump) when `with_scores` is set; the
    dump additionally runs the outside pass for the span marginals. The chart
    reads the parameters as constants (sharing their arrays), so parsing
    builds no gradient graph and frees each intermediate once it is used.
    """
    params = {name: ad.constant(p.data) for name, p in params.items()}
    ctx = build_context(example, params, cfg, vocab_index, pair_matrix)
    n = ctx.lengths[0]
    if n == 1:
        if with_scores:
            return 1, {"n": 1, "s_in": {"1,1": 0.0}, "s_out": {}, "q": {}, "argmax_k": {}}
        return 1
    chart = inside_pass(ctx, params, cfg, training=False)
    splits, spans = chart.split_tables()
    tree, _ = cky_decode(splits, spans, n)
    if with_scores:
        outside_pass(chart, ctx, params, cfg, training=False)
        return tree, chart_dump(chart)
    return tree


def parse_corpus(examples: list[ExampleBundle], params: dict[str, Tensor],
                 cfg: RunConfig, vocab: list[str] | None,
                 pair_matrix: PairRelevanceMatrix | None) -> list[Tree]:
    vocab_index = {t: i for i, t in enumerate(vocab)} if vocab else None
    return [parse_example(ex, params, cfg, vocab_index, pair_matrix)
            for ex in examples]


def heldout_sent_f1(examples: list[ExampleBundle], params: dict[str, Tensor],
                    cfg: RunConfig, vocab: list[str] | None,
                    pair_matrix: PairRelevanceMatrix | None) -> float | None:
    scored = [ex for ex in examples if ex.gold_brackets is not None and ex.n >= 2]
    if not scored:
        return None
    preds = parse_corpus(scored, params, cfg, vocab, pair_matrix)
    golds = [ex.gold_tree() for ex in scored]
    return bracketing_f1(preds, golds, mode="sentence")


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
