"""Bracketing F1, temporal IoU, clip alignment, and SCF1."""

from __future__ import annotations

import numpy as np

from .errors import DataValidationError
from .trees import Tree, bracket_set, leaf_count

__all__ = [
    "f1_from_counts",
    "bracketing_f1",
    "tiou",
    "align_clips",
    "scf1_counts",
    "scf1",
]

Span = tuple[int, int]
Interval = tuple[float, float]


def f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0  # nothing to predict and nothing predicted
    return 2.0 * tp / denom


def _pair_counts(pred: frozenset[Span], gold: frozenset[Span]) -> tuple[int, int, int]:
    tp = len(pred & gold)
    return tp, len(pred) - tp, len(gold) - tp


def bracketing_f1(pred_trees: list[Tree], gold_trees: list[Tree],
                  mode: str = "corpus") -> float:
    """PARSEVAL-style unlabeled F1 over trivial-span-free bracket sets.

    `corpus` pools TP/FP/FN over all sentences before the F1; `sentence`
    averages per-sentence F1 (an empty-vs-empty sentence scores 1).
    """
    if len(pred_trees) != len(gold_trees):
        raise DataValidationError(
            f"{len(pred_trees)} predictions vs {len(gold_trees)} references"
        )
    return _reduce(_tree_counts(pred_trees, gold_trees), mode)


def _tree_counts(pred_trees: list[Tree], gold_trees: list[Tree]):
    for idx, (pred, gold) in enumerate(zip(pred_trees, gold_trees)):
        if leaf_count(pred) != leaf_count(gold):
            raise DataValidationError(
                f"sentence {idx}: predicted tree has {leaf_count(pred)} leaves, "
                f"reference has {leaf_count(gold)}"
            )
        yield _pair_counts(bracket_set(pred), bracket_set(gold))


def _reduce(counts, mode: str) -> float:
    """F1 of per-sentence (TP, FP, FN) counts, which are read only once the
    mode is known to be valid: `corpus` pools them before the F1, `sentence`
    averages per-sentence F1. No sentences at all score 1 either way."""
    if mode not in ("corpus", "sentence"):
        raise ValueError(f"mode must be corpus|sentence, got {mode!r}")
    pooled = np.zeros(3, dtype=np.int64)
    per_sentence = []
    for sentence in counts:
        pooled += sentence
        per_sentence.append(f1_from_counts(*sentence))
    if mode == "corpus":
        return f1_from_counts(*(int(c) for c in pooled))
    return float(np.mean(per_sentence)) if per_sentence else 1.0


# ---------------------------------------------------------------------------
# temporal alignment


def tiou(a: Interval, b: Interval) -> float:
    """Intersection-over-union of two time intervals; disjoint pairs score 0."""
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def align_clips(pred_clips: list[Interval], gold_clips: list[Interval],
                threshold: float) -> dict[int, int]:
    """Greedy one-to-one mapping of gold clip index -> predicted clip index.

    Gold clips are traversed in temporal order; each takes the unconsumed
    prediction with the largest tIoU strictly above the threshold (ties go to
    the earliest prediction).
    """
    mapping: dict[int, int] = {}
    consumed: set[int] = set()
    for g, gold in enumerate(gold_clips):
        best_p = None
        best_score = threshold
        for p, pred in enumerate(pred_clips):
            if p in consumed:
                continue
            score = tiou(pred, gold)
            if score > best_score:
                best_score = score
                best_p = p
        if best_p is not None:
            mapping[g] = best_p
            consumed.add(best_p)
    return mapping


def scf1_counts(pred_tree: Tree, pred_clips: list[Interval],
                gold_tree: Tree, gold_clips: list[Interval],
                threshold: float) -> tuple[int, int, int]:
    """TP/FP/FN for one sentence's span-clip matching.

    A predicted span matches a gold span when the gold head clip aligns to the
    predicted head clip and likewise for the tails. Trivial spans (single
    clips) are discarded on both sides, as in bracketing F1.
    """
    if leaf_count(pred_tree) != len(pred_clips):
        raise DataValidationError("prediction tree does not cover its clips")
    if leaf_count(gold_tree) != len(gold_clips):
        raise DataValidationError("reference tree does not cover its clips")
    mapping = align_clips(pred_clips, gold_clips, threshold)
    pred_spans = bracket_set(pred_tree)
    gold_spans = bracket_set(gold_tree)
    tp = 0
    for gi, gj in gold_spans:
        head = mapping.get(gi - 1)
        tail = mapping.get(gj - 1)
        if head is None or tail is None:
            continue
        if (head + 1, tail + 1) in pred_spans:
            tp += 1
    return tp, len(pred_spans) - tp, len(gold_spans) - tp


def scf1(pairs: list[tuple[Tree, list[Interval], Tree, list[Interval]]],
         threshold: float, mode: str = "corpus") -> float:
    """Corpus or sentence SCF1 over (pred_tree, pred_clips, gold_tree, gold_clips)."""
    return _reduce((scf1_counts(*pair, threshold) for pair in pairs), mode)
