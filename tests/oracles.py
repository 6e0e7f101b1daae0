"""Independent reference implementations used only by tests.

Everything here is plain numpy, written recursively and scalar-at-a-time on
purpose: these are the oracles the vectorized library code is checked
against, so they deliberately share no code with it.
"""

from __future__ import annotations

import math

import numpy as np


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


def naive_pitch_row(frames) -> int:
    voiced = [v for v in frames if v > 0]
    if not voiced:
        return 0
    avg = sum(voiced) / len(voiced)
    avg = min(max(avg, 50.0), 500.0)
    return int(math.floor(avg + 0.5)) - 50 + 1


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
        rows = np.array([naive_pitch_row(fr) for fr in example.speech.f0_frames])
        pitch = naive_lstm(weights["pitch_embedding"][rows], weights["pitch_lstm_wx"],
                           weights["pitch_lstm_wh"], weights["pitch_lstm_b"])

    voice = nonvoice = None
    if cfg.use_voice:
        period = example.speech.frame_period
        voice = np.array([sum(map(bool, fr)) * period for fr in example.speech.vad_frames])
        nonvoice = np.array([(len(fr) - sum(map(bool, fr))) * period
                             for fr in example.speech.vad_frames])

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
