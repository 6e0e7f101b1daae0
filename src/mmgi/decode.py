"""Max-score binary tree extraction from cached span decomposition scores."""

from __future__ import annotations

import numpy as np

from .chart import sentence_plan
from .trees import Tree

__all__ = ["cky_decode"]


def cky_decode(split_scores: dict, span_scores: np.ndarray, n: int) -> tuple[Tree, float]:
    """Best binary tree under the summed local scores, with its total.

    The tables are one sentence's, in the chart's storage order (see
    `Chart.split_tables`): `split_scores[l]` is the (n-l+1, l-1) block of the
    decomposition scores of the spans of length l, by start, column k-i for
    split point k, and `span_scores` the (n(n+1)/2,) span scores, 0 at
    terminals. A decomposition score already folds in both children's span
    scores; subtracting them leaves the local score of the node alone, so
    tree totals are sums of local scores. Ties prefer the larger split point,
    so an all-tied table decodes to the fully left-branching tree.

    All spans of one length are decoded together, each candidate adding
    ``local + best(left) + best(right)`` in that order, so totals are the
    floats a scalar loop over the split points gives.
    """
    if n < 1:
        raise ValueError("cky_decode needs at least one leaf")
    plan = sentence_plan(n)
    spans = np.asarray(span_scores, dtype=np.float64)
    need = (n * (n + 1) // 2,)
    if spans.shape != need:
        raise ValueError(f"span scores have shape {spans.shape}, {n} leaves need {need}")
    best = np.zeros(spans.size)
    back = np.zeros(spans.size, dtype=np.intp)
    for length in range(2, n + 1):
        (left, right), _ = plan.inside[length]
        scores = np.asarray(split_scores[length], dtype=np.float64)
        if scores.shape != (n - length + 1, length - 1):
            raise ValueError(f"length {length}: split scores have shape {scores.shape}, "
                             f"{n} leaves need {(n - length + 1, length - 1)}")
        cand = scores.ravel() - spans[left] - spans[right] + best[left] + best[right]
        cand = cand.reshape(scores.shape)
        # argmax keeps the first maximum; scanning the splits backwards makes
        # the largest split point win a tie
        offset = length - 2 - np.argmax(cand[:, ::-1], axis=1)
        rows = slice(plan.block_start[length], plan.block_start[length + 1])
        best[rows] = cand[np.arange(cand.shape[0]), offset]
        back[rows] = offset
    first = plan.offsets[:, 0].tolist()
    back = back.tolist()

    def build(i: int, j: int) -> Tree:
        if i == j:
            return i
        k = i + back[first[j - i + 1] + i - 1]
        return (build(i, k), build(k + 1, j))

    return build(1, n), float(best[plan.root_rows[0]])
