"""Reconstruction, contrastive, and representation objectives."""

import dataclasses

import numpy as np
import pytest

from mmgi.autodiff import Tensor, backward
from mmgi.chart import BatchContext, Chart, run_chart, sentence_plan, span_marginal
from mmgi.features import PairRelevanceMatrix
from mmgi.losses import (_sample_negatives, batch_loss, contrastive_loss, reconstruction_loss,
                         representation_loss)
from mmgi.params import build_params

from .conftest import random_bundle, tiny_config, tiny_vocab_index
from .oracles import column_chart, composite_batch_loss, naive_sample_negatives
from .oracles import contrastive_loss as composite_contrastive_loss


def _identity_params(v, d):
    """Embeddings and projections set to identities so logits are the outside
    vectors themselves."""
    return {
        "word_embeddings": Tensor(np.eye(v, d)),
        "word_projection": Tensor(np.eye(d, d)),
    }


def _fake_chart_ctx(h_rows, token_ids):
    n = len(token_ids)
    # the terminal rows lead the chart; a zero score column follows the vectors
    outside = Tensor(np.hstack([h_rows, np.zeros((n, 1))]))
    chart = Chart(lengths=(n,), ids=["fake"], plan=sentence_plan(n), outside=outside)
    ctx = BatchContext(
        ids=["fake"], lengths=(n,), token_ids=np.array(token_ids), word_rows=None,
        clip_rows=np.zeros((n, 2)), clip_counts=(n,), region_rows=np.zeros((1, 2)),
        region_counts=np.array([1]))
    return chart, ctx


def test_reconstruction_uniform_predictor_gives_log_vocab():
    v = d = 7
    chart, ctx = _fake_chart_ctx(np.zeros((3, d)), [0, 3, 6])
    loss = reconstruction_loss(chart, ctx, _identity_params(v, d))
    assert float(loss.data) == pytest.approx(np.log(v), abs=1e-14)


def test_reconstruction_confident_predictor_gives_zero():
    v = d = 5
    rows = np.stack([1000.0 * np.eye(d)[t] for t in (1, 4)])
    chart, ctx = _fake_chart_ctx(rows, [1, 4])
    loss = reconstruction_loss(chart, ctx, _identity_params(v, d))
    assert float(loss.data) == 0.0


def test_reconstruction_nonnegative_random():
    rng = np.random.default_rng(0)
    v = d = 6
    chart, ctx = _fake_chart_ctx(rng.normal(size=(4, d)), [0, 2, 3, 5])
    loss = reconstruction_loss(chart, ctx, _identity_params(v, d))
    assert float(loss.data) > 0.0


def test_reconstruction_requires_tokens():
    chart, ctx = _fake_chart_ctx(np.zeros((2, 3)), [0, 1])
    ctx.token_ids = None
    with pytest.raises(ValueError):
        reconstruction_loss(chart, ctx, _identity_params(3, 3))


# ---------------------------------------------------------------------------
# contrastive


def _two_example_batch(seed=0, n=2):
    """Both examples charted as one batch, plus the first charted alone."""
    cfg = tiny_config(batch=2)
    rng = np.random.default_rng(seed)
    bundles = [random_bundle(rng, n, cfg, ex_id=f"e{k}") for k in range(2)]
    vocab_index = tiny_vocab_index(bundles)
    params = build_params(cfg, len(vocab_index), np.random.default_rng(seed + 1))
    pair = PairRelevanceMatrix(np.random.default_rng(seed + 2).random((5, 5)))
    batch = run_chart(bundles, params, cfg, vocab_index, pair)
    single = run_chart(bundles[0], params, cfg, vocab_index, pair)
    return cfg, params, batch, single


def test_contrastive_two_span_two_image_manual_expansion():
    cfg, params, (chart, ctx), _ = _two_example_batch(seed=3)
    rng_used = np.random.default_rng(77)
    total, per_example = contrastive_loss(chart, ctx, cfg.margin, rng_used)

    # manual recomputation from raw chart quantities (n=2: one span each)
    margin = cfg.margin
    expect_total = 0.0
    vp = list(ctx.v_proj.data)
    vectors = chart.inside.data[:, :-1] + chart.outside.data[:, :-1]
    for e in range(2):
        other = 1 - e
        vec = vectors[chart.plan.row(1, 2, e)]
        q = float(span_marginal(chart, 1, 2, e))
        other_vec = vectors[chart.plan.row(1, 2, other)]
        other_q = float(span_marginal(chart, 1, 2, other))
        pos = (vp[e] @ vec).max() * q
        neg_span = (vp[e] @ other_vec).max() * other_q  # other span, this image
        neg_img = (vp[other] @ vec).max() * q           # this span, other image
        l_span = max(0.0, neg_span - pos + margin) + max(0.0, neg_img - pos + margin)
        l_word = 0.0
        for i in (1, 2):
            term = chart.inside.data[chart.plan.row(i, i, e), :-1]
            sims = np.array([(vp[f] @ term).max() for f in range(2)])
            l_word += -(sims[e] - np.log(np.exp(sims - sims.max()).sum())
                        - sims.max())
        expect_total += l_span + l_word
        assert per_example[e] == pytest.approx(l_span + l_word, abs=1e-10)
    assert float(total.data) == pytest.approx(expect_total / 2.0, abs=1e-10)


def test_contrastive_singleton_batch_is_zero():
    cfg, params, _, (chart, ctx) = _two_example_batch(seed=4)
    total, per_example = contrastive_loss(chart, ctx, cfg.margin,
                                          np.random.default_rng(0))
    assert float(total.data) == pytest.approx(0.0, abs=1e-12)
    assert per_example == [pytest.approx(0.0, abs=1e-12)]


def test_contrastive_hinge_monotone_in_margin():
    cfg, params, (chart, ctx), _ = _two_example_batch(seed=5, n=3)
    values = []
    for margin in (0.0, 0.5, 1.0, 2.0):
        total, _ = contrastive_loss(chart, ctx, margin, np.random.default_rng(9))
        values.append(float(total.data))
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_contrastive_span_hinges_nonnegative():
    cfg, params, (chart, ctx), _ = _two_example_batch(seed=6, n=3)
    total, per_example = contrastive_loss(chart, ctx, 1.0, np.random.default_rng(2))
    assert np.isfinite(total.data)


def test_negative_sampling_matches_scalar_draws():
    sizes_rng = np.random.default_rng(17)
    for trial in range(60):
        count = int(sizes_rng.integers(1, 9))
        sizes = sizes_rng.integers(0, 40, size=count)
        if trial % 5 == 0:
            sizes[sizes_rng.integers(0, count)] = 0
        got_rng = np.random.default_rng(trial)
        want_rng = np.random.default_rng(trial)
        got = _sample_negatives(sizes, got_rng)
        want = naive_sample_negatives(sizes, want_rng)
        if want is None:
            assert got is None
        else:
            for part, expect in zip(got, want):
                assert np.array_equal(part, expect)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# ---------------------------------------------------------------------------
# representation


def _ctx_for_repr(clips, words, regions):
    n = clips.shape[0]
    return BatchContext(
        ids=["repr"], lengths=(n,), token_ids=np.zeros(n, dtype=np.intp),
        word_rows=Tensor(words) if words is not None else None,
        clip_rows=clips, clip_counts=(n,), region_rows=regions,
        region_counts=np.array([regions.shape[0]]))


def _eye_align(d):
    return {
        "align_proj_speech": Tensor(np.eye(d)),
        "align_proj_text": Tensor(np.eye(d)),
        "align_proj_vision": Tensor(np.eye(d)),
    }


def test_representation_identical_vectors_zero():
    cfg = tiny_config()
    rows = np.array([[1.0, 0.0], [0.0, 2.0]])
    ctx = _ctx_for_repr(rows, rows.copy(), rows.copy())
    loss = representation_loss(ctx, _eye_align(2), cfg)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)


def test_representation_orthogonal_vectors_one_per_term():
    cfg = tiny_config()
    clips = np.array([[1.0, 0.0]])
    words = np.array([[0.0, 1.0]])
    regions = np.array([[0.0, 3.0]])
    ctx = _ctx_for_repr(clips, words, regions)
    loss = representation_loss(ctx, _eye_align(2), cfg)
    assert float(loss.data) == pytest.approx(2.0, abs=1e-9)  # 1 + 1


def test_representation_antiparallel_two_per_term():
    cfg = tiny_config(mode="textless")
    clips = np.array([[1.0, 0.0]])
    regions = np.array([[-2.0, 0.0]])
    ctx = _ctx_for_repr(clips, None, regions)
    loss = representation_loss(ctx, _eye_align(2), cfg)
    assert float(loss.data) == pytest.approx(2.0, abs=1e-9)


def test_representation_textless_drops_word_term():
    cfg_full = tiny_config()
    cfg_textless = tiny_config(mode="textless")
    rng = np.random.default_rng(11)
    clips = rng.normal(size=(3, 4))
    words = rng.normal(size=(3, 4))
    regions = rng.normal(size=(2, 4))
    full = representation_loss(_ctx_for_repr(clips, words, regions),
                               _eye_align(4), cfg_full)
    textless = representation_loss(_ctx_for_repr(clips, None, regions),
                                   _eye_align(4), cfg_textless)
    assert float(full.data) > float(textless.data) - 1e-12
    assert 0.0 <= float(textless.data) <= 2.0


@pytest.mark.parametrize("seed", range(4))
def test_representation_terms_bounded(seed):
    cfg = tiny_config(mode="textless")
    rng = np.random.default_rng(seed)
    ctx = _ctx_for_repr(rng.normal(size=(4, 3)), None, rng.normal(size=(3, 3)))
    loss = representation_loss(ctx, _eye_align(3), cfg)
    assert 0.0 <= float(loss.data) <= 2.0


# ---------------------------------------------------------------------------
# total


def test_loss_report_identity():
    # the report's total is the root's value: rec + alpha1 * cl + alpha2 * rep,
    # summed left to right, under weights that differ from the defaults
    cfg, params, (chart, ctx), _ = _two_example_batch(seed=7, n=3)
    cfg = dataclasses.replace(cfg, alpha1=0.75, alpha2=0.25)
    total, report = batch_loss(chart, ctx, params, cfg, np.random.default_rng(1))
    assert report.total == float(total.data)
    assert report.total == report.l_rec + 0.75 * report.l_cl + 0.25 * report.l_rep


def test_batch_loss_matches_report_exactly():
    cfg, params, (chart, ctx), _ = _two_example_batch(seed=7, n=3)
    total, report = batch_loss(chart, ctx, params, cfg, np.random.default_rng(1))
    assert report.total == report.l_rec + cfg.alpha1 * report.l_cl \
        + cfg.alpha2 * report.l_rep
    assert float(total.data) == pytest.approx(report.total, abs=1e-12)


def test_batch_loss_textless_has_zero_reconstruction():
    cfg = tiny_config(mode="textless", batch=2)
    rng = np.random.default_rng(8)
    bundles = [random_bundle(rng, 3, cfg, ex_id=f"t{k}") for k in range(2)]
    params = build_params(cfg, 1, np.random.default_rng(9))
    pair = PairRelevanceMatrix(np.random.default_rng(10).random((5, 5)))
    chart, ctx = run_chart(bundles, params, cfg, None, pair)
    total, report = batch_loss(chart, ctx, params, cfg, np.random.default_rng(2))
    assert report.l_rec == 0.0
    assert np.isfinite(total.data)


# ---------------------------------------------------------------------------
# fused objectives against the node-by-node composite


def _mixed_case(mode, shapes, seed=21):
    """A training step's chart over sentences of (n, region count) `shapes`,
    with dropout and every modality."""
    cfg = tiny_config(mode=mode, batch=len(shapes), dropout=0.1)
    rng = np.random.default_rng(seed)
    bundles = [random_bundle(rng, n, cfg, regions=regions, ex_id=f"m{k}")
               for k, (n, regions) in enumerate(shapes)]
    vocab_index = None if mode == "textless" else tiny_vocab_index(bundles)
    params = build_params(cfg, 1 if vocab_index is None else len(vocab_index),
                          np.random.default_rng(seed + 1))
    pair = PairRelevanceMatrix(np.random.default_rng(seed + 2).random((5, 5)))
    chart, ctx = run_chart(bundles, params, cfg, vocab_index, pair, training=True,
                           rng=np.random.default_rng(seed + 3))
    return cfg, params, chart, ctx


def _two_example_case(seed, n, single=False):
    cfg, params, batch, alone = _two_example_batch(seed, n)
    return (cfg, params) + (alone if single else batch)


UNEQUAL_REGIONS = [(4, 2), (2, 1), (7, 4), (3, 3), (5, 1)]
LOSS_CASES = {
    "full_unequal_regions": lambda: _mixed_case("full", UNEQUAL_REGIONS),
    "textless_unequal_regions": lambda: _mixed_case("textless", UNEQUAL_REGIONS),
    "full_batch_of_one": lambda: _mixed_case("full", [(6, 3)]),
    "textless_batch_of_one": lambda: _mixed_case("textless", [(6, 3)]),
    # the batches the tests above chart
    **{f"two_examples_seed{seed}_n{n}": (lambda seed=seed, n=n: _two_example_case(seed, n))
       for seed, n in [(3, 2), (5, 3), (6, 3), (7, 3)]},
    "two_examples_seed4_alone": lambda: _two_example_case(4, 2, single=True),
}


def _loss_with_leaf_inputs(loss_fn, cfg, params, chart, ctx):
    """`loss_fn`'s total and report over copies of the chart's pass arrays and
    the context's tensors as leaves, with the gradient of each leaf and
    parameter."""
    fields = {name: Tensor(getattr(chart, name).data.copy(), requires_grad=True)
              for name in ("inside", "outside")}
    leaf_chart = Chart(lengths=chart.lengths, ids=chart.ids, plan=chart.plan, **fields)
    inputs = {"v_proj": Tensor(ctx.v_proj.data.copy(), requires_grad=True)}
    if ctx.word_rows is not None:
        inputs["word_rows"] = Tensor(ctx.word_rows.data.copy(), requires_grad=True)
    leaf_ctx = dataclasses.replace(ctx, **inputs)
    copies = {name: Tensor(p.data.copy(), requires_grad=True) for name, p in params.items()}
    total, report = loss_fn(leaf_chart, leaf_ctx, copies, cfg, np.random.default_rng(31))
    backward(total)
    grads = {**{f"chart.{k}": t.grad for k, t in fields.items()},
             **{f"ctx.{k}": t.grad for k, t in inputs.items()},
             **{k: t.grad for k, t in copies.items()}}
    return total, report, grads


@pytest.mark.parametrize("case", sorted(LOSS_CASES))
def test_fused_loss_matches_the_composite(case):
    cfg, params, chart, ctx = LOSS_CASES[case]()
    if "unequal" in case:
        assert ctx.region_mask is not None
    if case.endswith(("_of_one", "_alone")):
        assert len(chart) == 1
    fused_total, fused_report, fused_grads = _loss_with_leaf_inputs(
        batch_loss, cfg, params, chart, ctx)
    ref_total, ref_report, ref_grads = _loss_with_leaf_inputs(
        lambda chart, *args: composite_batch_loss(column_chart(chart), *args),
        cfg, params, chart, ctx)
    assert fused_total.data == ref_total.data
    assert fused_report == ref_report
    fused_examples = contrastive_loss(chart, ctx, cfg.margin, np.random.default_rng(32))[1]
    ref_examples = composite_contrastive_loss(column_chart(chart), ctx, cfg.margin,
                                              np.random.default_rng(32))[1]
    assert fused_examples == ref_examples
    for name, expect in ref_grads.items():
        got = fused_grads[name]
        if expect is None or not expect.any():
            assert got is None or not got.any(), name
            continue
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect)), name
