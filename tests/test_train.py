"""Training loop determinism, edge cases, and failure diagnostics."""

import gc
import importlib
import json
import weakref

import numpy as np
import pytest

from mmgi.chart import run_chart
from mmgi.errors import ChartError, DataValidationError, TrainingError
from mmgi.optim import Adam
from mmgi.inference import (build_vocab, corpus_pair_matrix, heldout_sent_f1, parse_corpus,
                            parse_example)
from mmgi.synth import SynthConfig, generate_synthetic
from mmgi.train import train, usable_examples

from .conftest import tiny_config


def _corpus(count=8, seed=5, **kw):
    base = dict(sentence_count=count, seed=seed, d_s=5, d_v=8,
                distractor_count=1, scene_count=2)
    base.update(kw)
    return generate_synthetic(SynthConfig(**base))


def _cfg(**kw):
    base = dict(d=6, d_w=6, d_v=8, d_s=5, d_a=4, batch=4, epochs=2,
                dropout=0.0, lr=1e-3, seed=11)
    base.update(kw)
    return tiny_config(**base)


def test_zero_learning_rate_keeps_parameters():
    corpus = _corpus()
    cfg = _cfg(lr=0.0, epochs=1)
    result = train(cfg, corpus)
    from mmgi.params import build_params
    init = build_params(cfg, len(result.vocab), np.random.default_rng([cfg.seed, 0]))
    for name, p in result.params.items():
        assert np.array_equal(p.data, init[name].data), name


def test_same_seed_identical_metrics():
    corpus = _corpus()
    cfg = _cfg(dropout=0.1)
    a = train(cfg, corpus, heldout=corpus[:3])
    b = train(cfg, corpus, heldout=corpus[:3])
    assert a.metrics == b.metrics
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_heldout_f1_recorded_and_losses_finite():
    corpus = _corpus(count=10)
    cfg = _cfg()
    result = train(cfg, corpus, heldout=corpus[:4])
    assert len(result.metrics) == cfg.epochs
    for record in result.metrics:
        assert np.isfinite(record["total"])
        assert record["total"] == pytest.approx(
            record["l_rec"] + cfg.alpha1 * record["l_cl"]
            + cfg.alpha2 * record["l_rep"], abs=1e-9)
        assert 0.0 <= record["heldout_sent_f1"] <= 1.0


def test_textless_training_completes():
    corpus = _corpus()
    cfg = _cfg(mode="textless", epochs=1)
    result = train(cfg, corpus)
    assert result.vocab is None
    assert result.metrics[0]["l_rec"] == 0.0
    trees = parse_corpus(corpus, result.params, cfg, None, result.pair_matrix)
    assert len(trees) == len(corpus)


def test_long_and_single_token_sentences_skipped():
    corpus = _corpus()
    cfg = _cfg(max_text_length=6)
    kept = usable_examples(cfg, corpus)
    assert all(2 <= ex.n <= 6 for ex in kept)


def test_nonfinite_input_aborts_with_example_id():
    corpus = _corpus(count=4)
    corpus[2].speech.clip_features[0, 0] = np.nan
    cfg = _cfg(epochs=1, batch=4)
    with pytest.raises(TrainingError, match=corpus[2].id) as caught:
        train(cfg, corpus)
    # the whole batch is charted together, but only the offending id is named
    for ex in corpus[:2] + corpus[3:]:
        assert ex.id not in str(caught.value)


def test_degenerate_root_score_aborts_with_example_id(monkeypatch):
    # the loss cannot normalize the span marginals of a sentence whose root
    # inside score is zero: training stops and names that sentence's example
    corpus = _corpus(count=4)
    train_module = importlib.import_module("mmgi.train")
    run_chart = train_module.run_chart
    zeroed = []

    def zero_one_root(*args, **kwargs):
        chart, ctx = run_chart(*args, **kwargs)
        chart.s_in.data[chart.plan.root_rows[2]] = 0.0
        zeroed.append(ctx.ids[2])
        return chart, ctx

    monkeypatch.setattr(train_module, "run_chart", zero_one_root)
    with pytest.raises(TrainingError, match="root inside score") as caught:
        train(_cfg(epochs=1, batch=4), corpus)
    assert str(caught.value).startswith(f"example {zeroed[0]}: ")
    assert all(ex.id not in str(caught.value) for ex in corpus if ex.id != zeroed[0])


def test_step_graph_released_before_next_step(monkeypatch):
    train_module = importlib.import_module("mmgi.train")
    original = train_module.batch_loss
    losses = []

    def watched(chart, *args, **kwargs):
        if losses:
            assert losses[0]() is None, "step 1's loss is still alive"
        total, report = original(chart, *args, **kwargs)
        losses.append(weakref.ref(total))
        return total, report

    monkeypatch.setattr(train_module, "batch_loss", watched)
    train(_cfg(epochs=1, batch=4), _corpus(count=8))
    assert len(losses) == 2


def test_step_graph_freed_before_adam_steps(monkeypatch):
    # Adam reads only the gradients; reference counting alone frees the graph
    train_module = importlib.import_module("mmgi.train")
    run_chart, adam_step = train_module.run_chart, Adam.step
    charts, alive = [], []

    def recorded(*args, **kwargs):
        chart, ctx = run_chart(*args, **kwargs)
        charts.append(weakref.ref(chart))
        return chart, ctx

    def step(optimizer):
        alive.append(charts[-1]() is not None)
        adam_step(optimizer)

    monkeypatch.setattr(train_module, "run_chart", recorded)
    monkeypatch.setattr(Adam, "step", step)
    gc.disable()
    try:
        train(_cfg(epochs=1, batch=4), _corpus(count=8))
    finally:
        gc.enable()
    assert alive == [False, False]


def test_mixed_feature_dims_fail_before_training():
    corpus = _corpus(count=6)
    wide = corpus[3].speech.clip_features
    corpus[3].speech.clip_features = np.hstack([wide, wide[:, :1]])
    with pytest.raises(DataValidationError, match=f"example {corpus[3].id}: clip"):
        train(_cfg(epochs=1), corpus[:2], heldout=corpus[2:])
    with pytest.raises(DataValidationError, match=f"example {corpus[3].id}: clip"):
        train(_cfg(epochs=1), corpus)


def _model_of_other_dims(examples, **dims):
    """A model of `dims` (d_s or d_v) and what it needs to chart `examples`."""
    from mmgi.params import build_params
    cfg = _cfg(**dims).resolved()
    vocab = build_vocab(examples)
    params = build_params(cfg, len(vocab), np.random.default_rng(0))
    return params, cfg, vocab, corpus_pair_matrix(examples)


@pytest.mark.parametrize("dims", [{"d_s": 4}, {"d_v": 9}], ids=["clip", "region"])
def test_parse_corpus_names_the_example_whose_feature_dims_do_not_fit(dims):
    corpus = _corpus(count=3)
    params, cfg, vocab, pair = _model_of_other_dims(corpus, **dims)
    kind = "clip" if "d_s" in dims else "region"
    with pytest.raises(DataValidationError, match=f"^example {corpus[0].id}: {kind} features"):
        parse_corpus(corpus, params, cfg, vocab, pair)


def test_parse_example_with_scores_names_the_example_whose_feature_dims_do_not_fit():
    corpus = _corpus(count=3)
    params, cfg, vocab, pair = _model_of_other_dims(corpus, d_s=4)
    vocab_index = {t: i for i, t in enumerate(vocab)}
    with pytest.raises(DataValidationError, match=f"^example {corpus[1].id}: clip features "
                                                  "have dim 5, the model expects 4$"):
        parse_example(corpus[1], params, cfg, vocab_index, pair, with_scores=True)


def test_run_chart_names_the_example_whose_feature_dims_do_not_fit():
    corpus = _corpus(count=3)
    params, cfg, vocab, pair = _model_of_other_dims(corpus, d_s=4)
    vocab_index = {t: i for i, t in enumerate(vocab)}
    with pytest.raises(DataValidationError, match=f"^example {corpus[0].id}: clip features"):
        run_chart(corpus, params, cfg, vocab_index, pair, training=True,
                  rng=np.random.default_rng(0))


def test_checkpoint_written(tmp_path):
    corpus = _corpus(count=6)
    cfg = _cfg(epochs=1)
    train(cfg, corpus, out_dir=tmp_path)
    assert (tmp_path / "checkpoint.npz").exists()
    assert (tmp_path / "metrics.jsonl").exists()
    assert (tmp_path / "config.json").exists()
    from mmgi.params import load_checkpoint
    params, cfg2, vocab, step, adam_state, pair = load_checkpoint(
        tmp_path / "checkpoint.npz")
    assert step > 0
    assert pair is not None
    assert sorted(vocab) == vocab


def test_metrics_of_finished_epochs_survive_a_failed_run(tmp_path, monkeypatch):
    corpus = _corpus(count=8)
    cfg = _cfg(epochs=3)
    whole = train(cfg, corpus)
    train_module = importlib.import_module("mmgi.train")
    run_chart = train_module.run_chart
    batches = 2 * -(-len(usable_examples(cfg, corpus)) // cfg.batch)   # epochs 0 and 1
    charted = []

    def chart_until_epoch_2(*args, **kwargs):
        charted.append(None)
        if len(charted) > batches:
            raise ChartError("stopped in epoch 2")
        return run_chart(*args, **kwargs)

    monkeypatch.setattr(train_module, "run_chart", chart_until_epoch_2)
    with pytest.raises(TrainingError, match="stopped in epoch 2"):
        train(cfg, corpus, out_dir=tmp_path)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == whole.metrics[:2]
    assert not (tmp_path / "checkpoint.npz").exists()


def test_training_without_usable_examples_fails():
    # sentences longer than max_text_length are skipped: here all of them
    corpus = _corpus(count=4)
    cfg = _cfg(max_text_length=min(ex.n for ex in corpus) - 1)
    with pytest.raises(TrainingError, match="no usable examples after length filtering"):
        train(cfg, corpus)


def test_vocab_and_pair_matrix_shapes():
    corpus = _corpus(count=6)
    vocab = build_vocab(corpus)
    assert vocab == sorted(set(t for ex in corpus for t in ex.tokens))
    pair = corpus_pair_matrix(corpus)
    assert pair.values.shape[0] == pair.values.shape[1]
    assert np.all(pair.values >= 0) and np.all(pair.values <= 1)


def test_heldout_none_when_no_gold():
    corpus = _corpus(count=4)
    for ex in corpus:
        ex.gold_brackets = None
    cfg = _cfg()
    from mmgi.params import build_params
    params = build_params(cfg, 4, np.random.default_rng(0))
    assert heldout_sent_f1(corpus, params, cfg, ["a"], None) is None


def test_parsing_builds_no_gradient_graph(monkeypatch):
    from mmgi import autodiff as ad
    from mmgi.chart import build_context, chart_dump, inside_pass, outside_pass
    from mmgi.decode import cky_decode
    from mmgi.inference import parse_example
    from mmgi.params import build_params

    corpus = [ex for ex in _corpus(count=6) if ex.n >= 2]
    cfg = _cfg()
    vocab = build_vocab(corpus)
    vocab_index = {t: i for i, t in enumerate(vocab)}
    pair = corpus_pair_matrix(corpus)
    params = build_params(cfg, len(vocab), np.random.default_rng(3))
    sentinels = {name: np.zeros(1) for name in params}
    for name, p in params.items():
        p.grad = sentinels[name]

    tracked = []
    original = ad._from_op

    def counting(data, parents, vjp):
        out = original(data, parents, vjp)
        tracked.append(out.requires_grad)
        return out

    monkeypatch.setattr(ad, "_from_op", counting)

    def charted(ex):
        """Tree and dump from a chart over the trainable parameters themselves."""
        ctx = build_context(ex, params, cfg, vocab_index, pair)
        chart = inside_pass(ctx, params, cfg)
        tree, _ = cky_decode(*chart.split_tables(), ctx.lengths[0])
        outside_pass(chart, ctx, params, cfg)
        return tree, chart_dump(chart)

    expected = [charted(ex) for ex in corpus]
    assert any(tracked)
    tracked.clear()
    trees = [parse_example(ex, params, cfg, vocab_index, pair) for ex in corpus]
    scored = [parse_example(ex, params, cfg, vocab_index, pair, with_scores=True)
              for ex in corpus]
    assert tracked and not any(tracked)
    assert trees == [tree for tree, _ in expected]
    assert scored == expected
    for name, p in params.items():
        assert p.requires_grad and p.grad is sentinels[name], name
