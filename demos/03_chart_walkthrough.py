#!/usr/bin/env python3
"""Anatomy of a batch's span chart.

Charts three sentences together: the inside pass (bottom-up composition over
all spans and split points, fused with region/pitch/voice features, one span
length of every sentence at a time) and the outside pass (top-down context
vectors, one distance to the root at a time). Then prints the first
sentence's span marginals and decoded tree.
"""

import numpy as np

from mmgi.chart import chart_dump, run_chart
from mmgi.config import RunConfig
from mmgi.decode import cky_decode
from mmgi.inference import build_vocab, corpus_pair_matrix
from mmgi.params import build_params
from mmgi.synth import SynthConfig, generate_synthetic
from mmgi.trees import to_sexpr

corpus = generate_synthetic(SynthConfig(sentence_count=16, seed=1, d_s=16, d_v=40))
example = corpus[0]
cfg = RunConfig(d=16, d_w=16, d_v=40, d_s=16, d_a=8, dropout=0.0, seed=0).resolved()

vocab = build_vocab(corpus)
vocab_index = {t: i for i, t in enumerate(vocab)}
pair = corpus_pair_matrix(corpus)
params = build_params(cfg, len(vocab), np.random.default_rng(0))

chart, ctx = run_chart(corpus[:3], params, cfg, vocab_index, pair)
lengths = chart.plan.lengths
n = lengths[0]
print("tokens:", example.tokens)
print(f"one chart for {len(chart)} sentences of lengths {lengths}: "
      f"{chart.inside.shape[0]} cells = sum of n(n+1)/2, stored length by length in "
      f"{len(chart.split_in) + 1} blocks shared by the sentences")

dump = chart_dump(chart)
print("\nper-span inside/outside scores and marginals:")
for key in sorted(dump["q"], key=lambda k: tuple(map(int, k.split(",")))):
    print(f"  span {key:>5}: s_in {dump['s_in'][key]:+8.3f}"
          f"  s_out {dump['s_out'][key]:+8.3f}  q {dump['q'][key]:+8.3f}")

splits, spans = chart.split_tables()
tree, score = cky_decode(splits, spans, n)
print("\ndecoded tree:", to_sexpr(tree, example.tokens))
print("gold tree:   ", to_sexpr(example.gold_tree(), example.tokens))
print("(an untrained model decodes mostly from the voice-activity scores)")
