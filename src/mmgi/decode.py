"""Max-score binary tree extraction from cached span decomposition scores."""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np

from .trees import Tree

__all__ = ["cky_decode"]


@lru_cache(maxsize=32)
def _plan(n: int):
    """Index arrays of CKY over n leaves into flat (n+1, n+1) span tables.

    Returns the table rows of every span (i, j) with i <= j, the keys of the
    split tables in length-major order, their left (i, k) and right
    (k + 1, j) child rows, and per length (2..n): the slice of those splits,
    the rows of its spans and their start points.
    """
    width = n + 1
    span_keys = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    span_rows = np.array([i * width + j for i, j in span_keys], dtype=np.intp)
    split_keys, lefts, rights, lengths = [], [], [], []
    cursor = 0
    for length in range(2, n + 1):
        starts = np.arange(1, n - length + 2)
        ends = starts + length - 1
        ks = starts[:, None] + np.arange(length - 1)
        split_keys.extend(zip(starts.tolist(), ends.tolist()))
        lefts.append((starts[:, None] * width + ks).ravel())
        rights.append(((ks + 1) * width + ends[:, None]).ravel())
        size = starts.size * (length - 1)
        lengths.append((slice(cursor, cursor + size), starts * width + ends, starts))
        cursor += size
    return (span_keys, span_rows, split_keys, np.concatenate(lefts),
            np.concatenate(rights), lengths)


def cky_decode(split_scores: dict, span_scores: dict, n: int) -> tuple[Tree, float]:
    """Best binary tree under the summed local scores, with its total.

    `split_scores[(i, j)]` holds the decomposition scores for k = i..j-1 and
    `span_scores[(i, j)]` the per-span scores (0 at terminals). A decomposition
    score already folds in both children's span scores; subtracting them
    leaves the local score of the node alone, so tree totals are sums of
    local scores. Ties prefer the larger split point, so an all-tied table
    decodes to the fully left-branching tree.

    All spans of one length are decoded together, each candidate adding
    ``local + best(left) + best(right)`` in that order, so totals are the
    floats a scalar loop over the split points gives.
    """
    if n < 1:
        raise ValueError("cky_decode needs at least one leaf")
    if n == 1:
        return 1, 0.0

    span_keys, span_rows, split_keys, lefts, rights, lengths = _plan(n)
    width = n + 1
    span = np.zeros(width * width)
    span[span_rows] = [span_scores[key] for key in span_keys]
    local = np.fromiter(chain.from_iterable(split_scores[key] for key in split_keys),
                        dtype=np.float64)
    if local.size != lefts.size:
        raise ValueError(f"split tables hold {local.size} scores, {n} leaves need {lefts.size}")
    local = local - span[lefts] - span[rights]
    best = np.zeros(width * width)
    back = np.zeros(width * width, dtype=np.intp)
    for length, (block, cells, starts) in enumerate(lengths, start=2):
        cand = (local[block] + best[lefts[block]] + best[rights[block]]).reshape(-1, length - 1)
        # argmax keeps the first maximum; scanning the splits backwards makes
        # the largest split point win a tie
        offset = length - 2 - np.argmax(cand[:, ::-1], axis=1)
        best[cells] = cand.ravel()[np.arange(0, cand.size, length - 1) + offset]
        back[cells] = starts + offset
    back = back.tolist()

    def build(i: int, j: int) -> Tree:
        if i == j:
            return i
        k = back[i * width + j]
        return (build(i, k), build(k + 1, j))

    return build(1, n), float(best[width + n])
