"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 6 and 8 train
scaled-down models and dominate the runtime (a few minutes total).
"""

import dataclasses
import time

import numpy as np
import pytest

from mmgi.chart import run_chart
from mmgi.config import RunConfig
from mmgi.decode import cky_decode
from mmgi.features import PairRelevanceMatrix
from mmgi.gradcheck import grad_check
from mmgi.inference import parse_corpus
from mmgi.metrics import bracketing_f1, scf1, tiou
from mmgi.params import build_params
from mmgi.synth import SynthConfig, generate_synthetic, right_chain_grammar
from mmgi.train import train
from mmgi.trees import baseline_tree, left_branching, random_tree
from mmgi.verify import end_to_end_fixture

from .conftest import random_bundle, tiny_config, tiny_vocab_index
from .oracles import (chart_tables, enumerate_binary_trees, local_score, naive_chart,
                      tree_total)
from .test_metrics import degraded_segmentation_pair


def _report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_gradient_integrity():
    """End-to-end gradient of the full fused loss vs central differences."""
    start = time.time()
    loss_fn, params, examples, cfg = end_to_end_fixture(seed=0)
    assert all(ex.n == 3 for ex in examples)
    assert cfg.use_visual and cfg.use_pitch and cfg.use_voice
    err = grad_check(loss_fn, params, probes_per_tensor=4, eps=1e-5,
                     rng=np.random.default_rng(99))
    elapsed = time.time() - start
    assert err < 1e-4, err
    assert elapsed < 60.0, elapsed
    _report(1, f"max relative FD error {err:.2e} in {elapsed:.1f}s")


def test_criterion_2_chart_oracle():
    """Inside and outside charts equal the naive recursion, 100 random seeds."""
    worst = 0.0
    for seed in range(100):
        n = 2 + seed % 4  # n in 2..5
        cfg = tiny_config()
        rng = np.random.default_rng(seed)
        bundle = random_bundle(rng, n, cfg)
        vocab_index = tiny_vocab_index([bundle])
        params = build_params(cfg, len(vocab_index),
                              np.random.default_rng(seed + 1))
        pair = PairRelevanceMatrix(
            np.random.default_rng(seed + 2).random((5, 5)) * 0.5)
        chart, _ = run_chart(bundle, params, cfg, vocab_index, pair)
        oracle = naive_chart(bundle, {k: p.data for k, p in params.items()},
                             cfg, pair.values, vocab_index)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                key = (i, j)
                inside = chart.inside.data[chart.plan.row(i, j)]
                outside = chart.outside.data[chart.plan.row(i, j)]
                for got, want in (
                    (inside[:-1], oracle["h_in"][key]),
                    (outside[:-1], oracle["h_out"][key]),
                    (inside[-1], oracle["s_in"][key]),
                    (outside[-1], oracle["s_out"][key]),
                ):
                    gap = np.max(np.abs(got - want))
                    worst = max(worst, float(gap))
                    assert np.allclose(got, want, atol=1e-8, rtol=1e-8), \
                        (seed, key)
    _report(2, f"100 seeds, n<=5, worst cell gap {worst:.2e}")


def test_criterion_3_cky_oracle():
    """Decoded tree score equals the exhaustive max over all binary trees."""
    checked = 0
    for trial in range(50):
        rng = np.random.default_rng(500 + trial)
        n = 2 + trial % 7  # n in 2..8
        splits = {}
        spans = {(i, i): 0.0 for i in range(1, n + 1)}
        for length in range(2, n + 1):
            for i in range(1, n - length + 2):
                j = i + length - 1
                splits[(i, j)] = rng.normal(size=j - i)
                spans[(i, j)] = float(rng.normal())
        tree, score = cky_decode(*chart_tables(splits, spans, n), n)

        def local(i, k, j):
            return local_score(splits, spans, i, k, j)

        best = max(tree_total(t, local) for t in enumerate_binary_trees(1, n))
        assert score == best  # exact equality
        checked += 1

    for n in range(2, 9):
        splits = {}
        spans = {(i, i): 0.0 for i in range(1, n + 1)}
        for length in range(2, n + 1):
            for i in range(1, n - length + 2):
                j = i + length - 1
                splits[(i, j)] = np.zeros(j - i)
                spans[(i, j)] = 0.0
        tree, _ = cky_decode(*chart_tables(splits, spans, n), n)
        assert tree == left_branching(n), n
    _report(3, f"{checked} random tables exact; ties decode left-branching")


def test_criterion_4_metric_fixtures():
    """Hand-worked F1/SCF1 fixtures and threshold monotonicity."""
    from mmgi.trees import right_branching

    lb3, rb3 = left_branching(3), right_branching(3)
    assert bracketing_f1([lb3], [rb3], "corpus") == pytest.approx(0.5)
    assert bracketing_f1([rb3], [rb3], "corpus") == 1.0
    assert tiou((0.0, 2.0), (1.0, 3.0)) == 1.0 / 3.0

    gold_clips = [(0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0)]
    pred_clips = [(0.0, 0.9), (0.9, 1.0), (1.0, 1.5), (1.5, 2.0)]
    tree = right_branching(4)
    got = scf1([(tree, pred_clips, tree, gold_clips)], 0.5, "corpus")
    assert got == pytest.approx(2 * 2 / (2 * 2 + 1 + 1))

    violations = 0
    for trial in range(200):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 9))
        gold, pred = degraded_segmentation_pair(rng, n)
        gold_tree = random_tree(n, rng)
        pred_tree = random_tree(n, rng)
        values = [scf1([(pred_tree, pred, gold_tree, gold)], p, "corpus")
                  for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        if any(a < b - 1e-12 for a, b in zip(values, values[1:])):
            violations += 1
    assert violations == 0
    _report(4, "fixtures exact; SCF1 non-increasing in p over 200 trials")


def test_criterion_5_fusion_reduction():
    """Zeroed fusion equals the fusion-free configuration bit for bit."""
    for seed in range(5):
        n = 3 + seed % 4
        cfg_zero = tiny_config(gamma=0.0, lam=0.0, use_voice=False)
        rng = np.random.default_rng(700 + seed)
        bundle = random_bundle(rng, n, cfg_zero)
        vocab_index = tiny_vocab_index([bundle])
        params = build_params(cfg_zero, len(vocab_index),
                              np.random.default_rng(800 + seed))
        fused, _ = run_chart(bundle, params, cfg_zero, vocab_index,
                             PairRelevanceMatrix(np.zeros((5, 5))))
        cfg_off = tiny_config(use_visual=False, use_pitch=False, use_voice=False)
        plain, _ = run_chart(bundle, params, cfg_off, vocab_index, None)
        assert np.array_equal(fused.inside.data, plain.inside.data)
        assert np.array_equal(fused.outside.data, plain.outside.data)
        for length in fused.split_in:
            assert np.array_equal(fused.split_in[length], plain.split_in[length])
    _report(5, "fusion terms are additive-only (5 seeds, bit-for-bit)")


# Scaled-down learning experiment: frozen seeds, tuned once. The low learning
# rate matters: the voice-activity and pitch cues are bounded data terms, and
# faster optimization drifts the learned span scores away from them.
PLANT_SYNTH = dict(sentence_count=250, seed=20250808, vocab_size=50,
                   d_s=32, d_v=40, pause_depth=1, pause_seconds=0.2)
PLANT_RUN = dict(d=32, d_w=32, d_v=40, d_s=32, d_a=16, batch=16, epochs=30,
                 lr=2e-4, dropout=0.1, seed=5)


def test_criterion_6_planted_structure_learning():
    """Full-modality training beats the random baseline by 10+ Sent-F1 points
    and zeroing the speech features at evaluation strictly hurts."""
    start = time.time()
    corpus = generate_synthetic(SynthConfig(**PLANT_SYNTH))
    assert 6.5 <= np.mean([ex.n for ex in corpus]) <= 9.5
    train_set, test_set = corpus[:200], corpus[200:250]
    golds = [ex.gold_tree() for ex in test_set]

    random_trees = [baseline_tree(ex.n, "random", seed=1000 + idx)
                    for idx, ex in enumerate(test_set)]
    random_f1 = bracketing_f1(random_trees, golds, "sentence")

    cfg = RunConfig(**PLANT_RUN).resolved()
    result = train(cfg, train_set)
    model_trees = parse_corpus(test_set, result.params, cfg, result.vocab,
                               result.pair_matrix)
    model_f1 = bracketing_f1(model_trees, golds, "sentence")

    ablated_cfg = dataclasses.replace(cfg, lam=0.0, use_voice=False)
    ablated_trees = parse_corpus(test_set, result.params, ablated_cfg,
                                 result.vocab, result.pair_matrix)
    ablated_f1 = bracketing_f1(ablated_trees, golds, "sentence")

    elapsed = time.time() - start
    assert model_f1 >= random_f1 + 0.10, (model_f1, random_f1)
    assert model_f1 > ablated_f1, (model_f1, ablated_f1)
    assert elapsed < 900.0, elapsed
    _report(6, f"model {model_f1:.3f} vs random {random_f1:.3f} "
               f"(+{model_f1 - random_f1:.3f}); speech-ablated {ablated_f1:.3f}; "
               f"{elapsed:.0f}s")


def test_criterion_7_right_branching_sanity():
    """Right-branching is perfect on right-chain gold and beats left-branching
    on the right-heavy default grammar."""
    chain = generate_synthetic(SynthConfig(
        sentence_count=30, seed=41, grammar=right_chain_grammar(),
        d_s=4, d_v=40))
    golds = [ex.gold_tree() for ex in chain]
    rb = [baseline_tree(ex.n, "right") for ex in chain]
    assert bracketing_f1(rb, golds, "corpus") == 1.0

    english_like = generate_synthetic(SynthConfig(
        sentence_count=80, seed=42, d_s=4, d_v=40))
    golds = [ex.gold_tree() for ex in english_like]
    rb_f1 = bracketing_f1([baseline_tree(ex.n, "right") for ex in english_like],
                          golds, "corpus")
    lb_f1 = bracketing_f1([baseline_tree(ex.n, "left") for ex in english_like],
                          golds, "corpus")
    assert rb_f1 > lb_f1
    _report(7, f"right-chain gold 1.0; right {rb_f1:.3f} > left {lb_f1:.3f}")


def test_criterion_8_textless_pipeline():
    """Textless end-to-end run; gold-as-prediction SCF1 = 1; degradation hurts."""
    corpus = generate_synthetic(SynthConfig(
        sentence_count=24, seed=11, d_s=12, d_v=40))

    gold_pairs = [(ex.gold_tree(), list(ex.speech.clips),
                   ex.gold_tree(), list(ex.speech.clips)) for ex in corpus]
    assert scf1(gold_pairs, 0.5, "corpus") == 1.0
    assert scf1(gold_pairs, 0.5, "sentence") == 1.0

    def degrade(clips, level, rng):
        cuts = [clips[0][0]] + [c[1] for c in clips]
        widths = [e - s for s, e in clips]
        moved = list(cuts)
        for b in range(1, len(clips)):
            room = level * min(widths[b - 1], widths[b])
            moved[b] = cuts[b] + rng.uniform(-room, room)
        return [(moved[i], max(moved[i + 1], moved[i] + 1e-4))
                for i in range(len(clips))]

    scores = []
    for level in (0.0, 0.35, 0.7, 1.0):
        rng = np.random.default_rng(99)
        pairs = [(ex.gold_tree(), degrade(ex.speech.clips, level, rng),
                  ex.gold_tree(), list(ex.speech.clips)) for ex in corpus]
        scores.append(scf1(pairs, 0.5, "corpus"))
    assert scores[0] == 1.0
    assert all(a > b for a, b in zip(scores, scores[1:])), scores

    cfg = RunConfig(d=12, d_w=12, d_v=40, d_s=12, d_a=8, batch=8, epochs=2,
                    lr=1e-3, dropout=0.0, seed=2, mode="textless").resolved()
    result = train(cfg, corpus)
    trees = parse_corpus(corpus, result.params, cfg, None, result.pair_matrix)
    model_pairs = [(tree, list(ex.speech.clips), ex.gold_tree(),
                    list(ex.speech.clips)) for tree, ex in zip(trees, corpus)]
    model_scf1 = scf1(model_pairs, 0.5, "corpus")
    assert 0.0 <= model_scf1 <= 1.0
    _report(8, f"gold-fed SCF1 1.0; degradation {scores}; "
               f"trained textless SCF1 {model_scf1:.3f}")


def test_criterion_9_reconstruction_overfit():
    """500 steps on one repeated 4-token sentence crush the blank-filling NLL."""
    grammar = {"S": [("NP", "NP2", 1.0)], "NP": [("Det", "Noun", 1.0)],
               "NP2": [("Det", "Noun", 1.0)]}
    corpus = generate_synthetic(SynthConfig(
        sentence_count=1, seed=5, vocab_size=12, d_s=6, d_v=10,
        grammar=grammar, scene_count=2, distractor_count=1))
    assert corpus[0].n == 4
    vocab_size = len(set(corpus[0].tokens))
    target = 0.1 * np.log(vocab_size)

    cfg = RunConfig(d=8, d_w=8, d_v=10, d_s=6, d_a=4, batch=1, epochs=500,
                    lr=5e-3, dropout=0.0, seed=3).resolved()
    result = train(cfg, corpus)
    final = result.metrics[-1]["l_rec"]
    vocab_check = len(result.vocab)
    assert vocab_check == vocab_size
    assert final < target, (final, target)
    _report(9, f"L_rec {final:.4f} < 0.1*ln({vocab_size}) = {target:.4f} "
               f"after 500 steps")
