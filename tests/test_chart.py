"""Chart passes against the independent recursive oracle, plus the span ops."""

import copy
import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmgi import autodiff as ad
from mmgi.autodiff import Tensor
from mmgi.chart import (OUTSIDE_PART, _dropout_masks, _Plan, _prefix, build_context,
                        chart_dump, init_terminals, inside_pass, outside_pass, run_chart,
                        sentence_plan, span_marginal)
from mmgi.decode import cky_decode
from mmgi.errors import (AlignmentError, ChartError, DataValidationError,
                         DegenerateChartError)
from mmgi.features import UNVOICED_INDEX, PairRelevanceMatrix, voice_activity_table
from mmgi.gradcheck import grad_check
from mmgi.inference import parse_example
from mmgi.losses import batch_loss
from mmgi.nn import chart_step, lstm_forward
from mmgi.params import build_params

from .conftest import random_bundle, tiny_config, tiny_vocab_index, with_clip, with_f0
from .oracles import (ColumnChart, add, composite_context, composite_inside_pass,
                      composite_outside_pass, loop_plan, matmul, mul, naive_chart, naive_mlp,
                      np_sigmoid, part_rows, pass_chart, per_clip, reshape,
                      scalar_pitch_index, scalar_unit_box,
                      scalar_vad_aggregate, select, softmax, split_dropout_masks, tensor_sum,
                      transpose, visual_span_feature)
from .test_features import PAIRWISE_CLIP


def _setup(seed, n, cfg=None, **bundle_kw):
    cfg = cfg or tiny_config()
    rng = np.random.default_rng(seed)
    bundle = random_bundle(rng, n, cfg, **bundle_kw)
    vocab_index = tiny_vocab_index([bundle])
    params = build_params(cfg, len(vocab_index), np.random.default_rng(seed + 1))
    pair = PairRelevanceMatrix(np.random.default_rng(seed + 2).random((5, 5)) * 0.5)
    return cfg, bundle, vocab_index, params, pair


def test_build_context_names_the_example_without_tokens_or_with_an_unknown_one():
    cfg, bundle, vocab_index, params, pair = _setup(3, 4, ex_id="strays")
    del vocab_index[bundle.tokens[2]]
    with pytest.raises(DataValidationError,
                       match=f"example strays: token '{bundle.tokens[2]}' outside the vocab"):
        build_context(bundle, params, cfg, vocab_index, pair)
    bundle.tokens = None
    with pytest.raises(AlignmentError, match="example strays: full mode requires tokens"):
        build_context(bundle, params, cfg, vocab_index, pair)


# ---------------------------------------------------------------------------
# terminals


def test_terminals_single_position_is_value_projection():
    cfg, bundle, vocab_index, params, pair = _setup(0, 1)
    ctx = build_context(bundle, params, cfg, vocab_index, pair)
    h = init_terminals(ctx, params, cfg)
    clip_proj = bundle.speech.clip_features @ params["clip_projection"].data
    expect = clip_proj @ params["attn_v"].data
    assert np.allclose(h.data, expect, atol=1e-12)


def test_terminals_attention_rows_sum_to_one():
    cfg, bundle, vocab_index, params, pair = _setup(1, 4)
    ctx = build_context(bundle, params, cfg, vocab_index, pair)
    word_proj = matmul(ctx.word_rows, params["word_projection"])
    clip_proj = matmul(ctx.clip_rows, params["clip_projection"])
    logits = matmul(matmul(word_proj, params["attn_q"]),
                    transpose(matmul(clip_proj, params["attn_k"])))
    rows = softmax(logits, axis=1).data
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_terminals_textless_unit_norm():
    cfg, bundle, vocab_index, params, pair = _setup(2, 3, tiny_config(mode="textless"))
    ctx = build_context(bundle, params, cfg, None, pair)
    h = init_terminals(ctx, params, cfg)
    assert np.allclose(np.linalg.norm(h.data, axis=1), 1.0, atol=1e-9)


def test_terminals_length_mismatch_rejected():
    cfg, bundle, vocab_index, params, pair = _setup(3, 3, ex_id="short")
    bundle.tokens = bundle.tokens[:2]
    vocab_index = tiny_vocab_index([bundle])
    with pytest.raises(AlignmentError, match="example short: full setting requires one clip "
                                             "per token, got 2 tokens vs 3 clips"):
        build_context(bundle, params, cfg, vocab_index, pair)


# (config overrides, (n, region count) per sentence, with a pair matrix)
CONTEXT_CASES = {
    "full_mixed": ({}, [(5, 2), (3, 4), (7, 1), (2, 3)], True),
    "full_equal": ({}, [(4, 2), (4, 3), (4, 2)], True),
    "textless_mixed": ({"mode": "textless"}, [(5, 2), (3, 4), (7, 1)], True),
    "no_visual": ({"use_visual": False}, [(5, 2), (3, 4), (2, 1)], True),
    "no_pair": ({}, [(6, 3), (2, 1), (4, 2)], False),
    "full_batch_of_one": ({}, [(5, 3)], True),
    "textless_batch_of_one": ({"mode": "textless"}, [(4, 2)], True),
}


def _context_step(composite, bundles, params, cfg, vocab_index, pair):
    """The context's projected regions, region sums and terminals, fused or
    node by node, and the parameter gradients of a fixed probe of them."""
    copies = {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}
    ctx = build_context(bundles, copies, cfg, vocab_index, pair)
    if composite:
        outputs = composite_context(bundles, ctx, copies, cfg)
    else:
        outputs = {"v_proj": ctx.v_proj, "region_sum": ctx.region_sum,
                   "terminals": init_terminals(ctx, copies, cfg)}
    outputs = {name: out for name, out in outputs.items() if out is not None}
    probe_rng = np.random.default_rng(72)
    loss = ad.constant(0.0)
    for name in sorted(outputs):
        probe = probe_rng.normal(size=outputs[name].data.shape)
        loss = add(loss, tensor_sum(mul(outputs[name], probe)))
    ad.backward(loss)
    return ctx, outputs, {name: p.grad for name, p in copies.items()}


@pytest.mark.parametrize("case", sorted(CONTEXT_CASES))
def test_fused_context_equals_the_node_by_node_context(case):
    overrides, shapes, with_pair = CONTEXT_CASES[case]
    cfg = tiny_config(**overrides)
    bundles, vocab_index, params, pair = _mixed_batch(71, shapes, cfg, with_pair)
    ctx, fused, fused_grads = _context_step(False, bundles, params, cfg, vocab_index, pair)
    _, ref, ref_grads = _context_step(True, bundles, params, cfg, vocab_index, pair)
    if case.endswith("mixed"):
        assert ctx.plan.position_mask is not None and ctx.region_mask is not None
    names = ["v_proj", "region_sum", "terminals"] if cfg.use_visual else ["v_proj", "terminals"]
    assert list(fused) == list(ref) == names
    for name, expect in ref.items():
        assert np.array_equal(fused[name].data, expect.data), name
    for name, expect in ref_grads.items():
        got = fused_grads[name]
        if expect is None or not expect.any():
            assert got is None or not got.any(), name
            continue
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect)), name


# ---------------------------------------------------------------------------
# fusion features


def test_visual_span_feature_single_region():
    rng = np.random.default_rng(4)
    h = Tensor(rng.normal(size=4))
    v_proj = Tensor(rng.normal(size=(1, 4)))
    region_sum = Tensor(rng.normal(size=(1, 4)))
    u, att = visual_span_feature(h, v_proj, region_sum)
    assert np.allclose(att.data, [1.0])
    assert np.allclose(u.data, region_sum.data[0], atol=1e-14)


def test_visual_span_feature_identical_regions():
    rng = np.random.default_rng(5)
    h = Tensor(rng.normal(size=4))
    row = rng.normal(size=4)
    srow = rng.normal(size=4)
    u, att = visual_span_feature(h, Tensor(np.stack([row, row])),
                                 Tensor(np.stack([srow, srow])))
    assert np.allclose(att.data, [0.5, 0.5])
    assert np.allclose(u.data, srow, atol=1e-14)


def test_visual_span_feature_matches_naive_sum():
    rng = np.random.default_rng(6)
    h = Tensor(rng.normal(size=5))
    v_proj = rng.normal(size=(3, 5))
    region_sum = rng.normal(size=(3, 5))
    u, att = visual_span_feature(h, Tensor(v_proj), Tensor(region_sum))
    logits = np.array([v_proj[m] @ h.data for m in range(3)])
    weights = np.exp(logits - logits.max())
    weights = weights / weights.sum()
    expect = sum(weights[m] * region_sum[m] for m in range(3))
    assert np.allclose(u.data, expect, atol=1e-12)
    assert np.allclose(att.data, weights, atol=1e-12)


def test_voice_activity_score_values():
    # voice_activity_table(...)[i - 1, j - 1] scores span (i, j)
    voice = np.array([0.5, 0.5])
    silence = np.zeros(2)
    assert voice_activity_table(voice, silence)[0, 1] == pytest.approx(-0.5)
    # worked case: single clip in range, nonvoice 0.5 vs voice 0.5
    got = voice_activity_table(np.array([0.5, 0.5]), np.array([0.5, 0.0]))[0, 1]
    assert got == pytest.approx(-np_sigmoid(0.5 / (0.5 + 1e-6)))
    assert got == pytest.approx(-0.7311, abs=1e-4)
    assert voice_activity_table(voice, silence)[1, 1] == 0.0


def test_voice_activity_score_range_and_monotonicity():
    rng = np.random.default_rng(8)
    voice = rng.uniform(0.1, 0.5, size=6)
    for _ in range(50):
        nonvoice = rng.uniform(0.0, 1.0, size=6)
        value = voice_activity_table(voice, nonvoice)[0, 5]
        assert -1.0 < value < 0.0
    # non-increasing in the largest pause, holding voice fixed
    values = [voice_activity_table(voice, np.full(6, level))[0, 5]
              for level in np.linspace(0.0, 1.0, 20)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# passes vs the naive recursive oracle


def _assert_sentence_matches_oracle(chart, sentence, oracle):
    """Every cell of one sentence of a chart equals the naive recursion's."""
    inside, outside = chart.inside.data, chart.outside.data
    for key in oracle["s_in"]:
        row = chart.plan.row(*key, sentence)
        for name, got in (("h_in", inside[row, :-1]), ("s_in", inside[row, -1]),
                          ("h_out", outside[row, :-1]), ("s_out", outside[row, -1])):
            assert np.allclose(got, oracle[name][key], atol=1e-8, rtol=1e-8), \
                (name, sentence, key)
        if chart.plan.lengths[sentence] >= 2:
            assert np.allclose(float(span_marginal(chart, *key, sentence)),
                               oracle["q"][key], atol=1e-8, rtol=1e-8), ("q", sentence, key)


def _assert_matches_naive_oracle(cfg, bundle, vocab_index, params, pair):
    chart, _ = run_chart(bundle, params, cfg, vocab_index, pair)
    weights = {k: p.data for k, p in params.items()}
    oracle = naive_chart(bundle, weights, cfg, pair.values, vocab_index)
    _assert_sentence_matches_oracle(chart, 0, oracle)


@pytest.mark.parametrize("seed,n", [(11, 2), (12, 3), (13, 4), (14, 5), (15, 5)])
def test_chart_matches_naive_oracle(seed, n):
    _assert_matches_naive_oracle(*_setup(seed, n))


def test_chart_matches_naive_oracle_on_a_pairwise_mean_clip():
    # np.mean sums these 10 voiced frames pairwise, to pitch row 151; a
    # left-to-right sum gives row 152
    cfg, bundle, vocab_index, params, pair = _setup(16, 3)
    assert cfg.use_pitch
    bundle.speech = with_clip(bundle.speech, 1, list(PAIRWISE_CLIP),
                              [True] * len(PAIRWISE_CLIP))
    _assert_matches_naive_oracle(cfg, bundle, vocab_index, params, pair)


def test_chart_matches_naive_oracle_textless():
    cfg = tiny_config(mode="textless")
    rng = np.random.default_rng(21)
    bundle = random_bundle(rng, 4, cfg)
    params = build_params(cfg, 1, np.random.default_rng(22))
    pair = PairRelevanceMatrix(np.random.default_rng(23).random((5, 5)))
    chart, _ = run_chart(bundle, params, cfg, None, pair)
    oracle = naive_chart(bundle, {k: p.data for k, p in params.items()},
                         cfg, pair.values, None)
    for key in oracle["s_in"]:
        row = chart.plan.row(*key)
        assert np.allclose(chart.inside.data[row, -1], oracle["s_in"][key], atol=1e-8)
        assert np.allclose(chart.outside.data[row, :-1], oracle["h_out"][key], atol=1e-8)


@given(shapes=st.lists(st.tuples(st.integers(2, 8), st.integers(1, 4)),
                      min_size=1, max_size=4),
       modalities=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       with_pair=st.booleans(), textless=st.booleans(),
       pairwise=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 7)),
       seed=st.integers(0, 2**16))
@example(shapes=[(3, 2), (5, 4), (2, 1)], modalities=(True, True, True), with_pair=True,
         textless=False, pairwise=(1, 2), seed=0)
@settings(max_examples=100, deadline=None)
def test_batch_chart_matches_naive_oracle(shapes, modalities, with_pair, textless,
                                          pairwise, seed):
    # sentence by sentence, at criterion 2's tolerance; region and clip counts
    # differ across the batch, and `pairwise` puts PAIRWISE_CLIP in one clip
    use_visual, use_pitch, use_voice = modalities
    cfg = tiny_config(use_visual=use_visual, use_pitch=use_pitch, use_voice=use_voice,
                      mode="textless" if textless else "full")
    rng = np.random.default_rng(seed)
    bundles = [random_bundle(rng, n, cfg, regions=regions, ex_id=f"h{k}")
               for k, (n, regions) in enumerate(shapes)]
    if pairwise is not None:
        bundle = bundles[pairwise[0] % len(bundles)]
        clip = pairwise[1] % bundle.speech.count
        bundle.speech = with_clip(bundle.speech, clip, list(PAIRWISE_CLIP),
                                  [True] * len(PAIRWISE_CLIP))
    vocab_index = None if textless else tiny_vocab_index(bundles)
    params = build_params(cfg, 1 if textless else len(vocab_index),
                          np.random.default_rng(seed + 1))
    pair_values = np.random.default_rng(seed + 2).random((5, 5)) if with_pair else None
    pair = None if pair_values is None else PairRelevanceMatrix(pair_values)
    chart, _ = run_chart(bundles, params, cfg, vocab_index, pair)
    weights = {k: p.data for k, p in params.items()}
    for b, bundle in enumerate(bundles):
        oracle = naive_chart(bundle, weights, cfg, pair_values, vocab_index)
        _assert_sentence_matches_oracle(chart, b, oracle)


def test_inside_two_tokens_single_split():
    cfg, bundle, vocab_index, params, pair = _setup(31, 2)
    ctx = build_context(bundle, params, cfg, vocab_index, pair)
    chart = inside_pass(ctx, params, cfg)
    assert np.allclose(softmax(chart.split_in[2][0]).data, [1.0])
    # recompute h_{1,2} directly: fused children through the composition MLP
    pooled = ctx.pitch_seq.data[0, 0:2].mean(axis=0)
    terminals = select(chart.inside, (slice(0, 2), slice(0, -1)))
    u, _ = visual_span_feature(terminals, select(ctx.v_proj, 0), select(ctx.region_sum, 0))
    left = terminals.data[0] + cfg.gamma * u.data[0] + cfg.lam * pooled
    right = terminals.data[1] + cfg.gamma * u.data[1] + cfg.lam * pooled
    expect = naive_mlp(left, right, params["compose_in_w1"].data,
                       params["compose_in_b1"].data, params["compose_in_w2"].data,
                       params["compose_in_b2"].data)
    assert np.allclose(chart.inside.data[chart.plan.row(1, 2), :-1], expect, atol=1e-12)


def test_chart_shape_invariants():
    cfg, bundle, vocab_index, params, pair = _setup(32, 4)
    chart, _ = run_chart(bundle, params, cfg, vocab_index, pair)
    assert chart.inside.shape == chart.outside.shape == (4 * 5 // 2, cfg.d + 1)
    assert chart.split_in[4][0].shape == (3,)
    for scores in chart.split_in.values():
        for row in scores:
            assert abs(softmax(Tensor(row)).data.sum() - 1.0) <= 1e-12


def test_outside_two_tokens_context_formula():
    cfg, bundle, vocab_index, params, pair = _setup(33, 2)
    chart, ctx = run_chart(bundle, params, cfg, vocab_index, pair)
    inside, outside, row = chart.inside.data, chart.outside.data, chart.plan.row
    expect = naive_mlp(params["root_outside_bias"].data, inside[row(2, 2), :-1],
                       params["compose_out_w1"].data, params["compose_out_b1"].data,
                       params["compose_out_w2"].data, params["compose_out_b2"].data)
    assert np.allclose(outside[row(1, 1), :-1], expect, atol=1e-12)
    assert outside[row(1, 2), -1] == 0.0
    assert np.array_equal(outside[row(1, 2), :-1], params["root_outside_bias"].data)


def test_span_marginal_contract():
    cfg, bundle, vocab_index, params, pair = _setup(34, 3)
    chart, _ = run_chart(bundle, params, cfg, vocab_index, pair)
    assert float(span_marginal(chart, 1, 3)) == 0.0  # root outside score is 0
    first = span_marginal(chart, 1, 2)
    second = span_marginal(chart, 1, 2)
    assert np.array_equal(first, second)

    dump = chart_dump(chart)
    root = dump["s_in"]["1,3"]
    for key, q in dump["q"].items():
        assert q == pytest.approx(dump["s_in"][key] * dump["s_out"][key] / root,
                                  abs=1e-12)

    chart.inside.data[chart.plan.row(1, 3), -1] = 0.0
    with pytest.raises(DegenerateChartError):
        span_marginal(chart, 1, 2)


def test_degenerate_root_score_names_its_example():
    # a batch of 4 with one sentence's root inside score zeroed: the span
    # marginals of the loss and of a dump name that sentence's example only
    cfg = tiny_config()
    bundles, vocab_index, params, pair = _mixed_batch(73, [(4, 2), (3, 1), (5, 3), (2, 2)],
                                                      cfg)
    chart, ctx = run_chart(bundles, params, cfg, vocab_index, pair)
    chart.inside.data[chart.plan.root_rows[2], -1] = 0.0
    message = r"^example m2: root inside score 0\.000e\+00 too small to normalize$"
    with pytest.raises(DegenerateChartError, match=message):
        batch_loss(chart, ctx, params, cfg, np.random.default_rng(0))
    with pytest.raises(DegenerateChartError, match=message):
        chart_dump(chart, 2)
    assert chart_dump(chart, 1)["q"]


def test_fusion_terms_are_additive_only():
    # zero fusion weights + zero pair matrix + voice off == fusion disabled
    cfg_zero = tiny_config(gamma=0.0, lam=0.0, use_voice=False)
    rng = np.random.default_rng(35)
    bundle = random_bundle(rng, 4, cfg_zero)
    vocab_index = tiny_vocab_index([bundle])
    params = build_params(cfg_zero, len(vocab_index), np.random.default_rng(36))
    zero_pair = PairRelevanceMatrix(np.zeros((5, 5)))
    fused, _ = run_chart(bundle, params, cfg_zero, vocab_index, zero_pair)

    cfg_off = tiny_config(use_visual=False, use_pitch=False, use_voice=False)
    plain, _ = run_chart(bundle, params, cfg_off, vocab_index, None)
    assert np.array_equal(fused.inside.data, plain.inside.data)
    assert np.array_equal(fused.outside.data, plain.outside.data)


def test_chart_deterministic_given_inputs():
    cfg, bundle, vocab_index, params, pair = _setup(37, 3)
    a, _ = run_chart(bundle, params, cfg, vocab_index, pair)
    b, _ = run_chart(bundle, params, cfg, vocab_index, pair)
    assert np.array_equal(a.inside.data, b.inside.data)



def test_training_dropout_draws_one_uniform_per_hidden_unit_in_cell_order():
    n = 6
    cfg, bundle, vocab_index, params, pair = _setup(39, n, tiny_config(dropout=0.3))
    rng = np.random.default_rng(5)
    run_chart(bundle, params, cfg, vocab_index, pair, training=True, rng=rng)
    hidden = params["compose_in_w1"].data.shape[1]
    inside = sum((n - length + 1) * (length - 1) for length in range(1, n + 1))
    outside = sum((n - length + 1) * (n - length) for length in range(1, n + 1))
    fresh = np.random.default_rng(5)
    fresh.random((inside + outside) * hidden)
    assert rng.bit_generator.state == fresh.bit_generator.state


@given(lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       hidden=st.integers(1, 5), rate=st.sampled_from([0.1, 0.3, 0.5]),
       seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_dropout_masks_match_the_split_and_concatenate_assembly(lengths, hidden, rate, seed):
    plan = _Plan(tuple(lengths))
    rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _dropout_masks(plan, hidden, rate, rng)
    expect = split_dropout_masks(plan, hidden, rate, old_rng)
    for masks, want in zip(got, expect):
        assert list(masks) == list(want)
        for key in want:
            # one byte per unit; the step scales the kept ones as the float
            # masks did
            assert masks[key].dtype == bool, key
            assert np.array_equal(masks[key] * (1.0 / (1.0 - rate)), want[key]), key
    assert rng.bit_generator.state == old_rng.bit_generator.state


def _mixed_batch(seed, shapes, cfg, with_pair=True):
    rng = np.random.default_rng(seed)
    bundles = [random_bundle(rng, n, cfg, regions=regions, ex_id=f"m{k}")
               for k, (n, regions) in enumerate(shapes)]
    vocab_index = None if cfg.mode == "textless" else tiny_vocab_index(bundles)
    params = build_params(cfg, 1 if vocab_index is None else len(vocab_index),
                          np.random.default_rng(seed + 1))
    pair = PairRelevanceMatrix(np.random.default_rng(seed + 2).random((5, 5))) \
        if with_pair else None
    return bundles, vocab_index, params, pair


def _step(passes, bundles, params, cfg, vocab_index, pair, seed):
    """One training step's chart and loss through the given (inside, outside)
    passes, with its parameter gradients."""
    inside, outside = passes
    ctx = build_context(bundles, params, cfg, vocab_index, pair)
    rng = np.random.default_rng(seed)
    chart = inside(ctx, params, cfg, training=True, rng=rng)
    outside(chart, ctx, params, cfg, training=True)
    # the losses read a node-by-node chart through pass nodes that join its columns
    read = pass_chart(chart) if isinstance(chart, ColumnChart) else chart
    total, _ = batch_loss(read, ctx, params, cfg, np.random.default_rng(seed + 1))
    ad.zero_grads(params.values())
    ad.backward(total)
    return chart, total, {name: p.grad for name, p in params.items()}


@pytest.mark.parametrize("bad", [0, 1, 3])
def test_nonfinite_outside_score_names_its_example_and_span(bad):
    # mixed lengths: at distance 1 the cells of sentence 3 (n = 2) are single
    # positions and come after those of the later sentences 4 and 5
    cfg = tiny_config()
    shapes = [(5, 2), (3, 1), (7, 3), (2, 2), (4, 1), (6, 3)]
    bundles, vocab_index, params, pair = _mixed_batch(67, shapes, cfg)
    ctx = build_context(bundles, params, cfg, vocab_index, pair)
    chart = inside_pass(ctx, params, cfg)
    chart.inside.data[chart.plan.sentence_rows(bad)] = np.nan
    with pytest.raises(ChartError) as caught:
        outside_pass(chart, ctx, params, cfg)
    # every distance-1 cell of the sentence reads a non-finite sibling; the
    # first is span (1, n - 1)
    n = shapes[bad][0]
    assert str(caught.value) == (f"example m{bad}: non-finite outside score at span "
                                 f"(1, {n - 1}), context 0")
    assert all(f"m{k}" not in str(caught.value) for k in range(len(shapes)) if k != bad)


@given(shapes=st.lists(st.tuples(st.integers(2, 8), st.integers(1, 4)),
                      min_size=2, max_size=5),
       modalities=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       with_pair=st.booleans(), textless=st.booleans(),
       dropout=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_fused_passes_equal_the_node_by_node_passes(shapes, modalities, with_pair,
                                                     textless, dropout, seed):
    use_visual, use_pitch, use_voice = modalities
    cfg = tiny_config(use_visual=use_visual, use_pitch=use_pitch, use_voice=use_voice,
                      dropout=dropout, mode="textless" if textless else "full")
    bundles, vocab_index, params, pair = _mixed_batch(seed, shapes, cfg, with_pair)
    fused, fused_total, fused_grads = _step((inside_pass, outside_pass), bundles, params,
                                            cfg, vocab_index, pair, seed)
    ref, ref_total, ref_grads = _step((composite_inside_pass, composite_outside_pass),
                                      bundles, params, cfg, vocab_index, pair, seed)
    # textless training leaves the outside rows of single positions at zero;
    # the node-by-node pass computes them
    skipped = (fused.plan.span_start == fused.plan.span_end) & textless
    inside, outside = fused.inside.data, fused.outside.data
    columns = {"h_in": inside[:, :-1], "s_in": inside[:, -1],
               "h_out": outside[:, :-1], "s_out": outside[:, -1]}
    for name, got in columns.items():
        expect = getattr(ref, name).data
        if name in ("h_out", "s_out"):
            assert not got[skipped].any(), name
            got, expect = got[~skipped], expect[~skipped]
        assert np.array_equal(got, expect), name
    assert list(fused.split_in) == list(ref.split_in)
    for length, scores in ref.split_in.items():
        assert np.array_equal(fused.split_in[length], scores.data), length
    assert fused_total.data == ref_total.data
    # the same gradients, summed in another order; no gradient equals a zero
    # one (a textless batch of n = 2 builds no outside step)
    for name, expect in ref_grads.items():
        got = fused_grads[name]
        if expect is None or got is None:
            assert all(g is None or not g.any() for g in (got, expect)), name
            continue
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect)), name


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("shapes", [[(5, 2), (3, 1), (7, 3), (2, 2), (6, 4), (7, 1)],
                                    [(5, 2), (5, 3), (5, 1), (5, 4)]], ids=["mixed", "equal"])
def test_textless_training_reads_no_outside_row_of_a_single_position(monkeypatch, shapes,
                                                                     dropout):
    # textless training leaves these rows at zero; no objective may read them
    cfg = tiny_config(mode="textless", dropout=dropout)
    bundles, vocab_index, params, pair = _mixed_batch(63, shapes, cfg)

    def step(poison):
        rng = np.random.default_rng(64)
        chart, ctx = run_chart(bundles, params, cfg, vocab_index, pair, training=True,
                               rng=rng)
        single = chart.plan.span_start == chart.plan.span_end
        assert not chart.outside.data[single].any()
        if poison:
            chart.outside.data[single] = np.nan
        total, _ = batch_loss(chart, ctx, params, cfg, np.random.default_rng(65))
        ad.zero_grads(params.values())
        ad.backward(total)
        return chart, ctx, rng, total.data, {name: p.grad for name, p in params.items()}

    chart, ctx, rng, total, grads = step(poison=False)
    *_, poisoned_total, poisoned_grads = step(poison=True)
    assert np.isfinite(poisoned_total) and poisoned_total == total
    for name, grad in grads.items():
        got = poisoned_grads[name]
        assert (got is None) == (grad is None), name
        if grad is not None:
            assert np.all(np.isfinite(got)) and np.array_equal(got, grad), name

    # the masks of every pair are drawn, the skipped ones too
    drawn = np.random.default_rng(64)
    if dropout:
        split_dropout_masks(chart.plan, params["compose_in_w1"].data.shape[1], dropout, drawn)
    assert rng.bit_generator.state == drawn.bit_generator.state

    # a distance whose cells are all single positions runs no step, and the
    # pass is one node either way: the same nodes in training and eval
    plan = chart.plan
    empty = [r for r, cells in plan.outside_lead.items() if not cells]
    assert empty == [plan.n_max - 1]
    counts, steps = {}, []
    original, original_step = ad._from_op, chart_step

    def counted_step(*args, **kwargs):
        steps.append(kwargs["cells"])
        return original_step(*args, **kwargs)

    for training in (True, False):
        built = []
        monkeypatch.setattr(ad, "_from_op", lambda *args: built.append(None) or original(*args))
        monkeypatch.setattr("mmgi.chart.chart_step", counted_step)
        outside_pass(chart, ctx, params, cfg, training=training)
        monkeypatch.undo()
        counts[training] = len(built)
    every = [plan.outside[r][2] for r in plan.outside]
    assert steps == [cells for cells in plan.outside_lead.values() if cells] + every
    assert counts[False] == counts[True], counts


def test_training_loss_gradient_on_a_mixed_batch():
    # criterion 1 checks sentences of n = 3; here every chart path at once:
    # n = 2..7, unequal region and clip counts, padding in every per-length
    # block, all modalities with a pair matrix, dropout with reseeded masks
    cfg = tiny_config(dropout=0.3)
    assert cfg.use_visual and cfg.use_pitch and cfg.use_voice
    shapes = [(4, 2), (2, 1), (7, 4), (3, 3), (6, 1), (5, 4)]
    bundles, vocab_index, params, pair = _mixed_batch(57, shapes, cfg)
    assert len({ex.speech.count for ex in bundles}) == len(bundles)

    def loss():
        chart, ctx = run_chart(bundles, params, cfg, vocab_index, pair, training=True,
                               rng=np.random.default_rng(58))
        return batch_loss(chart, ctx, params, cfg, np.random.default_rng(59))[0]

    err = grad_check(loss, params, probes_per_tensor=4, eps=1e-5,
                     rng=np.random.default_rng(60))
    assert err < 1e-4, err


# 16 sentences of n = 5..14 and their region counts
BUDGET_SHAPES = [(n, 1 + k % 5)
                 for k, n in enumerate(list(range(5, 15)) + [5, 8, 9, 11, 13, 14])]


def test_step_graph_stays_under_its_node_budget(monkeypatch):
    # every modality and dropout; the node-by-node passes built 825 nodes
    # that need a gradient for this step
    cfg = tiny_config(dropout=0.1, batch=16)
    bundles, vocab_index, params, pair = _mixed_batch(61, BUDGET_SHAPES, cfg)
    built = []
    original = ad._from_op

    def counted(*args, **kwargs):
        node = original(*args, **kwargs)
        built.append(node.requires_grad)
        return node

    monkeypatch.setattr(ad, "_from_op", counted)
    chart, ctx = run_chart(bundles, params, cfg, vocab_index, pair, training=True,
                           rng=np.random.default_rng(0))
    batch_loss(chart, ctx, params, cfg, np.random.default_rng(1))
    monkeypatch.undo()
    assert sum(built) <= 0.52 * 825, sum(built)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("use_visual", [True, False], ids=["visual", "no_visual"])
@pytest.mark.parametrize("mode", ["full", "textless"])
def test_every_node_a_training_step_builds_is_reachable_from_its_loss(monkeypatch, mode,
                                                                      use_visual, dropout):
    # a node no loss reads is work for nothing: every pass and context node
    # must lead to the loss
    cfg = tiny_config(mode=mode, use_visual=use_visual, dropout=dropout, batch=6)
    bundles, vocab_index, params, pair = _mixed_batch(66, BUDGET_SHAPES[:6], cfg)
    built = []
    original = ad._from_op
    monkeypatch.setattr(ad, "_from_op", lambda *args: built.append(original(*args)) or built[-1])
    chart, ctx = run_chart(bundles, params, cfg, vocab_index, pair, training=True,
                           rng=np.random.default_rng(0))
    loss, _ = batch_loss(chart, ctx, params, cfg, np.random.default_rng(1))
    monkeypatch.undo()
    seen, todo = {id(loss)}, [loss]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    assert built and all(id(node) in seen for node in built), \
        [node.shape for node in built if id(node) not in seen]


@pytest.mark.parametrize("mode", ["full", "textless"])
def test_context_builds_at_most_six_nodes_that_need_a_gradient(monkeypatch, mode):
    # the word and pitch lookups, the pitch LSTM, the region projection, its
    # sum with the box embeddings and the terminals; elementary ops built 24
    # for this batch in full mode and 15 in textless mode
    cfg = tiny_config(dropout=0.1, batch=16, mode=mode)
    bundles, vocab_index, params, pair = _mixed_batch(61, BUDGET_SHAPES, cfg)
    built = []
    original = ad._from_op

    def counted(*args, **kwargs):
        node = original(*args, **kwargs)
        built.append(node.requires_grad)
        return node

    monkeypatch.setattr(ad, "_from_op", counted)
    init_terminals(build_context(bundles, params, cfg, vocab_index, pair), params, cfg)
    monkeypatch.undo()
    assert sum(built) <= 6, sum(built)


def _step_graph_bytes() -> int:
    """Bytes a d = 32 training step of BUDGET_SHAPES holds until backward."""
    cfg = tiny_config(dropout=0.1, batch=16, d=32)
    bundles, vocab_index, params, pair = _mixed_batch(61, BUDGET_SHAPES, cfg)
    tracemalloc.start()
    try:
        chart, ctx = run_chart(bundles, params, cfg, vocab_index, pair, training=True,
                               rng=np.random.default_rng(0))
        # the loss is kept: a step holds its graph until backward
        loss, _ = batch_loss(chart, ctx, params, cfg, np.random.default_rng(1))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


def test_step_graph_stays_under_its_memory_budget():
    # the same step at d = 32: its graph held 30,863,489 bytes when every
    # (span, split) pair's MLP input, pre-activation, masked hidden layer and
    # output, and every gathered child's unread columns, stayed alive until
    # backward
    held = _step_graph_bytes()
    assert held <= 0.75 * 30_863_489, held


def test_step_graph_keeps_no_pair_copies():
    # the same step held 17,764,680 bytes when each chart step kept its
    # gathered pair rows, their pitch-shifted vectors and float dropout masks
    # until backward
    held = _step_graph_bytes()
    assert held <= 0.6 * 17_764_680, held


def test_step_graph_is_freed_by_reference_counting_alone(monkeypatch):
    # a vjp that kept its own node would close a node -> vjp -> node cycle,
    # which only the cyclic collector frees: a step's graph, the passes' row
    # arrays and the arrays their vjps keep must go as soon as their last
    # reference does
    cfg = tiny_config(dropout=0.1, batch=16)
    bundles, vocab_index, params, pair = _mixed_batch(61, BUDGET_SHAPES[:6], cfg)
    made = []
    original = ad._from_op

    def recorded(data, *args):
        node = original(data, *args)
        made.append(weakref.ref(node))
        if isinstance(data, np.ndarray):   # not a numpy scalar
            made.append(weakref.ref(data))
        return node

    monkeypatch.setattr(ad, "_from_op", recorded)
    gc.disable()
    try:
        chart, ctx = run_chart(bundles, params, cfg, vocab_index, pair, training=True,
                               rng=np.random.default_rng(0))
        loss, _ = batch_loss(chart, ctx, params, cfg, np.random.default_rng(1))
        ad.backward(loss)
        monkeypatch.undo()
        passes = (chart.inside, chart.outside)
        pass_rows = [weakref.ref(node.data) for node in passes]
        assert all(ref() is not None for ref in made)
        del chart, ctx, loss, passes
        alive = [ref for ref in made + pass_rows if ref() is not None]
    finally:
        gc.enable()
    assert not alive, len(alive)


@pytest.mark.parametrize("textless", [False, True])
def test_each_chart_pass_is_one_node_whatever_the_length(monkeypatch, textless):
    # the steps are numpy functions that build no node: the terminals and one
    # node per pass, at every length
    cfg = tiny_config(dropout=0.1, mode="textless" if textless else "full")
    built, steps = {}, []

    def recorded_step(*args, **kwargs):
        out = chart_step(*args, **kwargs)
        steps.append(out[0])
        return out

    for n in (3, 7):
        cfg, bundle, vocab_index, params, pair = _setup(44, n, cfg)
        ctx = build_context(bundle, params, cfg, vocab_index, pair)
        nodes = built[n] = []
        make = ad._from_op
        monkeypatch.setattr(ad, "_from_op", lambda *args: nodes.append(make(*args)) or nodes[-1])
        monkeypatch.setattr("mmgi.chart.chart_step", recorded_step)
        chart = inside_pass(ctx, params, cfg, training=True, rng=np.random.default_rng(0))
        outside_pass(chart, ctx, params, cfg, training=True)
        monkeypatch.undo()
        assert all(node.requires_grad for node in nodes)
        assert not any(isinstance(step, Tensor) for step in steps)
        inside, outside = chart.inside, chart.outside
        assert nodes[1:] == [inside, outside]
        weights = tuple(params[name] for name in ("compose_in_w1", "compose_in_b1",
                                                  "compose_in_w2", "compose_in_b2",
                                                  "bilinear_inside"))
        context = (() if ctx.region_sum is None else (ctx.v_proj, ctx.region_sum)) \
            + (() if ctx.pitch_seq is None else (ctx.pitch_seq,))
        assert inside._parents == (nodes[0],) + context + weights
        assert outside._parents[:2] == (inside, params["root_outside_bias"])
    assert len(built[3]) == len(built[7]) == 3


def test_a_second_backward_over_a_step_gives_the_same_gradients():
    # the passes' vjps sum into arrays of their own and change nothing they
    # keep, so a second sweep over the same graph gives the same gradients
    cfg = tiny_config(dropout=0.3)
    bundles, vocab_index, params, pair = _mixed_batch(62, [(5, 2), (3, 1), (6, 3)], cfg)
    chart, ctx = run_chart(bundles, params, cfg, vocab_index, pair, training=True,
                           rng=np.random.default_rng(0))
    loss, _ = batch_loss(chart, ctx, params, cfg, np.random.default_rng(1))
    sweeps = []
    for _ in range(2):
        ad.zero_grads(params.values())
        ad.backward(loss)
        sweeps.append({name: p.grad for name, p in params.items()})
    for name, grad in sweeps[0].items():
        assert grad is not None and np.array_equal(sweeps[1][name], grad), name


def test_loss_graph_stays_under_its_budget(monkeypatch):
    # the same step at d = 32: the loss built 84 nodes that need a gradient and
    # held 2,361,283 bytes when each objective was a graph of elementary ops,
    # with the (rows, B, M) region similarities kept for backward
    cfg = tiny_config(dropout=0.1, batch=16, d=32)
    bundles, vocab_index, params, pair = _mixed_batch(61, BUDGET_SHAPES, cfg)
    chart, ctx = run_chart(bundles, params, cfg, vocab_index, pair, training=True,
                           rng=np.random.default_rng(0))
    tracemalloc.start()
    try:
        loss, _ = batch_loss(chart, ctx, params, cfg, np.random.default_rng(1))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    built = []
    original = ad._from_op

    def counted(*args, **kwargs):
        node = original(*args, **kwargs)
        built.append(node.requires_grad)
        return node

    monkeypatch.setattr(ad, "_from_op", counted)
    batch_loss(chart, ctx, params, cfg, np.random.default_rng(1))
    monkeypatch.undo()
    assert sum(built) <= 12, sum(built)
    assert held <= 0.4 * 2_361_283, held


@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
@example(lengths=[12] * 4)
def test_plan_gather_parts_name_each_row_once(lengths):
    # a store gather adds each index array's or part's gradient with one
    # fancy-index `+=`, which keeps one term of a repeated row
    plan = _Plan(tuple(lengths))
    for children, _ in plan.inside.values():
        for index in children:
            assert np.unique(index).size == index.size
    steps = [side for parents, siblings, _ in plan.outside.values()
             for side in (parents, siblings)]
    # the parts textless training reads: the first cells * r pairs of each side
    for r, cells in plan.outside_lead.items():
        for full in plan.outside[r][:2]:
            lead = _prefix(full, cells * r)
            assert sum(index.size for _, index in lead) == cells * r
            assert np.array_equal(part_rows(lead), part_rows(full)[:cells * r])
            steps.append(lead)
    for parts in steps:
        size = sum(index.size for _, index in parts)
        read = np.concatenate([np.arange(size)[at] for at, _ in parts])
        assert np.array_equal(np.sort(read), np.arange(size))   # each row read once
        for _, index in parts:
            assert np.unique(index).size == index.size
    # joined, the contexts before a span and those after it can repeat a
    # parent: span (1, 1) of n = 2 has parent (1, 2) after it, (2, 2) before
    if max(lengths) >= 2:
        parents = [part_rows(parents) for parents, *_ in plan.outside.values()]
        assert any(np.unique(rows).size < rows.size for rows in parents)


@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
@example(lengths=[1, 3, 1, 2])
def test_outside_steps_write_every_span_row_once(lengths):
    # the outside store is indexed by span row: the root and the steps'
    # cells fill each row once, and a step's cells of spans longer than one
    # position lead it
    plan = _Plan(tuple(lengths))
    rows = np.concatenate([plan.root_rows] + [plan.out_rows[r] for r in range(1, plan.n_max)])
    assert np.array_equal(np.sort(rows), np.arange(plan.block_start[-1]))
    n = np.array(lengths)
    assert np.array_equal(plan.span_end[plan.root_rows] - plan.span_start[plan.root_rows] + 1, n)
    for r, cells in plan.out_rows.items():
        assert cells.size == plan.outside[r][2]
        length = plan.span_end[cells] - plan.span_start[cells] + 1
        assert np.array_equal(length, n[plan.span_sentence[cells]] - r)
        lead = plan.outside_lead[r]
        assert np.all(length[:lead] > 1) and np.all(length[lead:] == 1)


def test_graph_nodes_grow_linearly_in_sentence_length(monkeypatch):
    counts = {}
    for n in (8, 16):
        cfg, bundle, vocab_index, params, pair = _setup(40, n, tiny_config(dropout=0.1))
        ctx = build_context(bundle, params, cfg, vocab_index, pair)
        built = []
        original = ad._from_op

        def counted(*args, **kwargs):
            built.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(ad, "_from_op", counted)
        rng = np.random.default_rng(0)
        chart = inside_pass(ctx, params, cfg, training=True, rng=rng)
        outside_pass(chart, ctx, params, cfg, training=True, rng=rng)
        monkeypatch.undo()
        counts[n] = len(built)
    assert counts[16] <= 2.5 * counts[8], counts


def test_batch_chart_equals_per_sentence_charts():
    # mixed lengths (n=2 up to the longest) and region counts, dropout on
    cfg = tiny_config(dropout=0.3)
    rng = np.random.default_rng(41)
    shapes = [(5, 3), (2, 2), (7, 3), (3, 1), (7, 4), (4, 3)]
    bundles = [random_bundle(rng, n, cfg, regions=regions, ex_id=f"b{k}")
               for k, (n, regions) in enumerate(shapes)]
    vocab_index = tiny_vocab_index(bundles)
    params = build_params(cfg, len(vocab_index), np.random.default_rng(42))
    pair = PairRelevanceMatrix(np.random.default_rng(43).random((5, 5)))

    batch_rng = np.random.default_rng(44)
    chart, _ = run_chart(bundles, params, cfg, vocab_index, pair, training=True,
                         rng=batch_rng)
    single_rng = np.random.default_rng(44)
    for b, bundle in enumerate(bundles):
        alone, _ = run_chart(bundle, params, cfg, vocab_index, pair, training=True,
                             rng=single_rng)
        for i, j in zip(alone.plan.span_start.tolist(), alone.plan.span_end.tolist()):
            got, want = chart.plan.row(i, j, b), alone.plan.row(i, j)
            for name in ("inside", "outside"):
                assert np.allclose(getattr(chart, name).data[got],
                                   getattr(alone, name).data[want],
                                   atol=1e-12, rtol=1e-12), (b, i, j, name)
        splits, _ = chart.split_tables(b)
        want_splits, _ = alone.split_tables()
        assert splits.keys() == want_splits.keys()
        for length, block in splits.items():
            assert block.shape == want_splits[length].shape, (b, length)
            assert np.allclose(block, want_splits[length], atol=1e-12, rtol=1e-12), (b, length)
    assert batch_rng.bit_generator.state == single_rng.bit_generator.state


def test_batch_split_tables_decode_as_a_parse_alone():
    # mixed lengths n=2..9 and region counts: each sentence's tables sit at
    # its own offsets in the shared blocks
    cfg = tiny_config()
    rng = np.random.default_rng(51)
    shapes = [(5, 3), (2, 2), (9, 4), (3, 1), (7, 2), (4, 3), (8, 1), (6, 4)]
    bundles = [random_bundle(rng, n, cfg, regions=regions, ex_id=f"p{k}")
               for k, (n, regions) in enumerate(shapes)]
    vocab_index = tiny_vocab_index(bundles)
    params = build_params(cfg, len(vocab_index), np.random.default_rng(52))
    pair = PairRelevanceMatrix(np.random.default_rng(53).random((5, 5)))
    chart = inside_pass(build_context(bundles, params, cfg, vocab_index, pair), params, cfg)
    for b, bundle in enumerate(bundles):
        tree, dump = parse_example(bundle, params, cfg, vocab_index, pair, with_scores=True)
        assert cky_decode(*chart.split_tables(b), bundle.n)[0] == tree, b
        assert chart_dump(chart, b)["argmax_k"] == dump["argmax_k"], b


def test_sentence_plans_stay_cached_across_forty_lengths():
    # a parse cycling through more lengths than the cache held missed on
    # every sentence
    sentence_plan.cache_clear()
    for _ in range(3):
        for n in range(2, 42):
            sentence_plan(n)
    info = sentence_plan.cache_info()
    sentence_plan.cache_clear()
    assert info.hits >= 80, info


def test_parsing_leaves_the_outside_part_of_its_plan_unbuilt():
    n = 9
    cfg, bundle, vocab_index, params, pair = _setup(57, n)
    sentence_plan.cache_clear()
    tree = parse_example(bundle, params, cfg, vocab_index, pair)
    plan = sentence_plan(n)
    assert OUTSIDE_PART.isdisjoint(vars(plan))
    # a dump runs the outside pass, which builds the part at its first read
    scored, dump = parse_example(bundle, params, cfg, vocab_index, pair, with_scores=True)
    assert scored == tree and OUTSIDE_PART <= vars(plan).keys()
    _assert_same(vars(plan), vars(_Plan((n,))), "plan")
    ctx = build_context(bundle, params, cfg, vocab_index, pair)
    ctx.plan = _Plan((n,))
    chart = inside_pass(ctx, params, cfg)
    assert dump == chart_dump(outside_pass(chart, ctx, params, cfg))
    sentence_plan.cache_clear()


def test_split_tables_of_one_sentence_are_views_of_the_chart():
    cfg, bundle, vocab_index, params, pair = _setup(54, 5)
    chart = inside_pass(build_context(bundle, params, cfg, vocab_index, pair), params, cfg)
    splits, spans = chart.split_tables()
    assert list(splits) == [2, 3, 4, 5]
    for length, block in splits.items():
        assert block.shape == (6 - length, length - 1)
        assert np.shares_memory(block, chart.split_in[length])
    assert spans.shape == (15,) and np.shares_memory(spans, chart.inside.data)


def test_split_scores_and_context_rows_are_read_only_arrays():
    # no gradient flows through them: plain arrays that no reader can change
    cfg, bundle, vocab_index, params, pair = _setup(55, 4)
    chart, ctx = run_chart(bundle, params, cfg, vocab_index, pair)
    for array in (ctx.clip_rows, ctx.region_rows, *chart.split_in.values()):
        assert type(array) is np.ndarray and not array.flags.writeable


def test_graph_nodes_of_a_step_do_not_grow_with_batch_size(monkeypatch):
    cfg = tiny_config(dropout=0.1, batch=16)
    rng = np.random.default_rng(45)
    bundles = [random_bundle(rng, int(n), cfg, regions=int(regions), ex_id=f"g{k}")
               for k, (n, regions) in enumerate(zip(rng.integers(2, 10, size=16),
                                                    rng.integers(1, 5, size=16)))]
    longest = max(bundles, key=lambda ex: ex.n)
    vocab_index = tiny_vocab_index(bundles)
    params = build_params(cfg, len(vocab_index), np.random.default_rng(46))
    pair = PairRelevanceMatrix(np.random.default_rng(47).random((5, 5)))
    counts = {}
    for examples in (bundles, [longest]):
        built = []
        original = ad._from_op

        def counted(*args, **kwargs):
            built.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(ad, "_from_op", counted)
        chart, ctx = run_chart(examples, params, cfg, vocab_index, pair, training=True,
                               rng=np.random.default_rng(0))
        batch_loss(chart, ctx, params, cfg, np.random.default_rng(1))
        monkeypatch.undo()
        counts[len(examples)] = len(built)
    assert counts[16] <= 1.5 * counts[1], counts


def _assert_same(got, expect, where):
    if isinstance(expect, dict):
        assert list(got) == list(expect), where
        for key in expect:
            _assert_same(got[key], expect[key], f"{where}[{key}]")
    elif isinstance(expect, tuple):
        assert isinstance(got, tuple) and len(got) == len(expect), where
        for k, (a, b) in enumerate(zip(got, expect)):
            _assert_same(a, b, f"{where}.{k}")
    elif isinstance(expect, np.ndarray):
        assert got.dtype == expect.dtype and got.shape == expect.shape, where
        assert np.array_equal(got, expect), where
        assert not got.flags.writeable, where
    else:
        assert got == expect, where


_LENGTH_RNG = np.random.default_rng(46)
PLAN_LENGTHS = [(1,), (2,), (9,), (4, 4, 4), (1, 1), (1, 6), (6, 1, 3), (14,) * 16] + [
    tuple(int(n) for n in _LENGTH_RNG.integers(1, 17, size=_LENGTH_RNG.integers(2, 17)))
    for _ in range(12)]


@pytest.mark.parametrize("lengths", PLAN_LENGTHS, ids=str)
def test_plan_matches_loop_oracle(lengths):
    plan = vars(_Plan(lengths))
    expect = loop_plan(lengths)
    assert plan.keys() == expect.keys()
    for name, value in expect.items():
        _assert_same(plan[name], value, name)


def test_batch_context_features_match_per_clip_oracles():
    cfg = tiny_config(use_pitch=True, use_voice=True, use_visual=True)
    rng = np.random.default_rng(47)
    bundles = [random_bundle(rng, n, cfg, regions=regions, ex_id=f"c{k}")
               for k, (n, regions) in enumerate([(3, 2), (6, 4), (2, 1), (5, 3)])]
    # an all-unvoiced clip takes the unvoiced row, as the padding does
    bundles[2].speech = with_clip(bundles[2].speech, 1, [0.0, 0.0], [False, False])
    vocab_index = tiny_vocab_index(bundles)
    params = build_params(cfg, len(vocab_index), np.random.default_rng(48))
    ctx = build_context(bundles, params, cfg, vocab_index, None)
    clips = max(ex.speech.count for ex in bundles)
    assert ctx.voice.shape == (len(bundles), clips, clips)
    rows = np.full((len(bundles), clips), UNVOICED_INDEX)
    units = np.zeros((len(bundles), 4, 4))
    for b, ex in enumerate(bundles):
        count = ex.speech.count
        table = voice_activity_table(*scalar_vad_aggregate(ex.speech))
        assert np.array_equal(ctx.voice[b, :count, :count], table)
        assert not ctx.voice[b, count:].any() and not ctx.voice[b, :, count:].any()
        rows[b, :count] = [scalar_pitch_index(frames)
                           for frames in per_clip(ex.speech.f0, ex.speech.f0_counts)]
        width, height = ex.regions.image_size
        units[b, :ex.regions.count] = [scalar_unit_box(box, width, height)
                                       for box in ex.regions.bboxes]
    assert rows[2, 1:].tolist() == [UNVOICED_INDEX] * (clips - 1)
    pitch = lstm_forward(ad.gather_rows(params["pitch_embedding"], rows),
                         params["pitch_lstm_wx"], params["pitch_lstm_wh"],
                         params["pitch_lstm_b"])
    assert np.array_equal(ctx.pitch_seq.data, pitch.data)
    boxes = add(matmul(ad.constant(units.reshape(-1, 4)), params["bbox_embed_w"]),
                params["bbox_embed_b"])
    expect = add(ctx.v_proj, reshape(boxes, (len(bundles), 4, cfg.d)))
    assert np.array_equal(ctx.region_sum.data, expect.data)


def _kept_features(bundle):
    return (bundle.speech._pitch_rows, bundle.speech._voice_times, bundle.speech._voice_table,
            bundle.regions._units, bundle.regions._pairs)


@given(shapes=st.lists(st.tuples(st.integers(2, 7), st.integers(1, 5)), min_size=1,
                       max_size=6),
       textless=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_kept_features_chart_as_fresh_ones(shapes, textless, seed):
    # random batches of a random corpus, each charted twice: the first pass
    # computes the parameter-free features the bundles keep, the second reads
    # them; both must equal a chart of fresh copies, which keep nothing, under
    # two region caps and two pair matrices
    cfg = tiny_config(mode="textless" if textless else "full", roi_count=5)
    bundles, vocab_index, params, pair = _mixed_batch(seed, shapes, cfg)
    fresh = copy.deepcopy(bundles)
    rng = np.random.default_rng(seed)
    other = PairRelevanceMatrix(rng.random((5, 5)))
    order = rng.permutation(len(bundles))
    batches = np.split(order, np.flatnonzero(rng.random(order.size - 1) < 0.5) + 1)
    for roi_count, matrix in [(5, pair), (2, other), (5, other), (2, pair)]:
        run = dataclasses.replace(cfg, roi_count=roi_count)
        for batch in batches:
            expect_chart, expect = run_chart(copy.deepcopy([fresh[b] for b in batch]), params,
                                             run, vocab_index, matrix)
            for _ in range(2):
                chart, ctx = run_chart([bundles[b] for b in batch], params, run, vocab_index,
                                       matrix)
                assert all(value is not None for b in batch
                           for value in _kept_features(bundles[b]))
                for name in ("voice", "pair_sub"):
                    assert np.array_equal(getattr(ctx, name), getattr(expect, name)), name
                for name in ("region_sum", "pitch_seq", "v_proj"):
                    assert np.array_equal(getattr(ctx, name).data,
                                          getattr(expect, name).data), name
                for name in ("inside", "outside"):
                    assert np.array_equal(getattr(chart, name).data,
                                          getattr(expect_chart, name).data), name
                assert chart.split_in.keys() == expect_chart.split_in.keys()
                for length, scores in chart.split_in.items():
                    assert np.array_equal(scores, expect_chart.split_in[length])
    assert not any(value is not None for ex in fresh for value in _kept_features(ex))


def test_a_bundle_never_validated_fails_at_every_use():
    cfg = tiny_config(roi_count=3)
    rng = np.random.default_rng(58)
    bad_box, bad_f0, late_box = (random_bundle(rng, 4, cfg, regions=4, ex_id=name)
                                 for name in ("box", "f0", "late"))
    bad_box.regions.bboxes[2] = (30.0, 10.0, 20.0, 40.0)
    bad_f0.speech = with_f0(bad_f0.speech, 1, 3, -7.0)
    late_box.regions.bboxes[3] = (30.0, 10.0, 20.0, 40.0)   # beyond roi_count
    bundles = [bad_box, bad_f0, late_box]
    vocab_index = tiny_vocab_index(bundles)
    params = build_params(cfg, len(vocab_index), np.random.default_rng(59))
    for _ in range(2):
        with pytest.raises(DataValidationError,
                           match=r"example box: region 2 .*\(30.0, 10.0, 20.0, 40.0\)"):
            build_context(bad_box, params, cfg, vocab_index, None)
        with pytest.raises(DataValidationError, match="example f0: clip 1 .* -7.0"):
            build_context(bad_f0, params, cfg, vocab_index, None)
        build_context(late_box, params, cfg, vocab_index, None)
    with pytest.raises(DataValidationError, match="example late: region 3"):
        build_context(late_box, params, dataclasses.replace(cfg, roi_count=4), vocab_index,
                      None)


def test_batch_context_names_the_bad_example():
    cfg = tiny_config()
    rng = np.random.default_rng(49)
    bundles = [random_bundle(rng, 3, cfg, ex_id=f"v{k}") for k in range(3)]
    vocab_index = tiny_vocab_index(bundles)
    params = build_params(cfg, len(vocab_index), np.random.default_rng(50))
    speech = bundles[1].speech
    bundles[1].speech = with_f0(speech, 2, 0, -40.0)
    with pytest.raises(DataValidationError, match="example v1: clip 2 .* -40.0"):
        build_context(bundles, params, cfg, vocab_index, None)
    bundles[1].speech = with_f0(speech, 2, 0, 0.0)
    bundles[2].regions.bboxes[1] = (10.0, 10.0, 5.0, 30.0)
    with pytest.raises(DataValidationError, match=r"example v2: region 1 .*\(10.0, 10.0, 5.0"):
        build_context(bundles, params, cfg, vocab_index, None)
