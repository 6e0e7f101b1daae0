"""Composition MLP, LSTM, dropout, Adam, gradcheck harness, checkpoints."""

import dataclasses
import json
import re
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgi import autodiff as ad
from mmgi.autodiff import Tensor, backward
from mmgi.config import RunConfig, config_hash
from mmgi.errors import CheckpointError
from mmgi.gradcheck import grad_check
from mmgi.nn import chart_step, dropout_mask, glorot_uniform, lstm_forward
from mmgi.optim import Adam
from mmgi.params import (PITCH_VOCAB, TEXT_ONLY, build_params, load_checkpoint,
                         save_checkpoint)

from .conftest import tiny_config
from .oracles import (adam_step, add, bilinear_score, composite_bilinear_score,
                      composite_lstm, composite_mlp_compose, composite_softmax_pool, concat,
                      mul, naive_lstm, naive_mlp, select, softmax_pool, step_node,
                      tensor_sum)


def _mlp_params(rng, d):
    return {
        "w1": Tensor(rng.normal(size=(2 * d, d)) * 0.5, requires_grad=True),
        "b1": Tensor(rng.normal(size=(d,)) * 0.5, requires_grad=True),
        "w2": Tensor(rng.normal(size=(d, d)) * 0.5, requires_grad=True),
        "b2": Tensor(rng.normal(size=(d,)) * 0.5, requires_grad=True),
    }


def compose_rows(left, right, w1, b1, w2, b2, keep=None, rate=0.0):
    """The compose MLP of K (left, right) row pairs, as `nn.chart_step` runs
    it: with one context per span, the split softmax weighs each composed row
    by exactly 1, so the step's vector columns are the MLP's output."""
    count, d = left.data.shape
    score = ad.constant(np.zeros((count, 1)))
    out = step_node(concat([left, score], axis=1), concat([right, score], axis=1),
                    (w1, b1, w2, b2, Tensor(np.zeros((d, d)))), cells=count, keep=keep,
                    rate=rate)
    return select(out, (slice(None), slice(0, d)))


def test_mlp_zero_params_zero_output(rng):
    d = 4
    z = Tensor(np.zeros((2 * d, d)))
    b = Tensor(np.zeros(d))
    z2 = Tensor(np.zeros((d, d)))
    out = compose_rows(Tensor(rng.normal(size=(3, d))), Tensor(rng.normal(size=(3, d))),
                       z, b, z2, b)
    assert np.array_equal(out.data, np.zeros((3, d)))


def test_mlp_deterministic(rng):
    d = 4
    p = _mlp_params(rng, d)
    left = Tensor(rng.normal(size=(3, d)))
    right = Tensor(rng.normal(size=(3, d)))
    a = compose_rows(left, right, p["w1"], p["b1"], p["w2"], p["b2"]).data
    b = compose_rows(left, right, p["w1"], p["b1"], p["w2"], p["b2"]).data
    assert np.array_equal(a, b)


def test_mlp_matches_naive_and_gradient(rng):
    d = 5
    p = _mlp_params(rng, d)
    p["left"] = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    p["right"] = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    out = compose_rows(p["left"], p["right"], p["w1"], p["b1"], p["w2"], p["b2"])
    for row in range(3):
        expect = naive_mlp(p["left"].data[row], p["right"].data[row], p["w1"].data,
                           p["b1"].data, p["w2"].data, p["b2"].data)
        assert np.allclose(out.data[row], expect, atol=1e-14)

    probe = np.random.default_rng(0).normal(size=(3, d))
    err = grad_check(
        lambda: tensor_sum(mul(compose_rows(p["left"], p["right"], p["w1"],
                                            p["b1"], p["w2"], p["b2"]), probe)),
        p, probes_per_tensor=8, eps=1e-5)
    assert err < 1e-4


def test_mlp_batched_rows_match_single(rng):
    d = 4
    p = _mlp_params(rng, d)
    lefts = rng.normal(size=(3, d))
    rights = rng.normal(size=(3, d))
    batched = compose_rows(Tensor(lefts), Tensor(rights), p["w1"], p["b1"],
                           p["w2"], p["b2"]).data
    for row in range(3):
        single = compose_rows(Tensor(lefts[row:row + 1]), Tensor(rights[row:row + 1]),
                              p["w1"], p["b1"], p["w2"], p["b2"]).data
        assert np.allclose(batched[row], single[0], atol=1e-12)


def test_lstm_shapes_and_zero_case(rng):
    d = 3
    wx = Tensor(np.zeros((d, 4 * d)))
    wh = Tensor(np.zeros((d, 4 * d)))
    b = Tensor(np.zeros(4 * d))
    out = lstm_forward(Tensor(np.zeros((1, 1, d))), wx, wh, b)
    assert out.data.shape == (1, 1, d)
    out = lstm_forward(Tensor(np.zeros((2, 5, d))), wx, wh, b)
    assert np.array_equal(out.data, np.zeros((2, 5, d)))
    for shape in ((0, 5, d), (2, 0, d), (5, d)):
        with pytest.raises(ValueError, match="nonempty"):
            lstm_forward(Tensor(np.zeros(shape)), wx, wh, b)


def test_lstm_matches_naive_and_gradient(rng):
    d = 3
    p = {
        "wx": Tensor(rng.normal(size=(d, 4 * d)) * 0.5, requires_grad=True),
        "wh": Tensor(rng.normal(size=(d, 4 * d)) * 0.5, requires_grad=True),
        "b": Tensor(rng.normal(size=(4 * d,)) * 0.5, requires_grad=True),
        "x": Tensor(rng.normal(size=(2, 6, d)), requires_grad=True),
    }
    out = lstm_forward(p["x"], p["wx"], p["wh"], p["b"])
    for row in range(2):
        expect = naive_lstm(p["x"].data[row], p["wx"].data, p["wh"].data, p["b"].data)
        assert np.allclose(out.data[row], expect, atol=1e-13)

    probe = np.random.default_rng(1).normal(size=(2, 6, d))
    err = grad_check(
        lambda: tensor_sum(mul(lstm_forward(p["x"], p["wx"], p["wh"], p["b"]), probe)),
        p, probes_per_tensor=8, eps=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# fused ops against their composite references


def _fused_cases():
    """name -> (fused, composite, {input: array}, constant inputs). Each op
    takes the named inputs in order; the LSTM batch is padded after the
    shorter sequences' ends."""
    rng = np.random.default_rng(5)
    d, hidden, k = 4, 6, 7
    mlp = {"left": rng.normal(size=(k, d)), "right": rng.normal(size=(k, d)),
           "w1": rng.normal(size=(2 * d, hidden)) * 0.5, "b1": rng.normal(size=hidden),
           "w2": rng.normal(size=(hidden, d)) * 0.5, "b2": rng.normal(size=d)}
    keep = dropout_mask(rng, (k, hidden), 0.3)   # the composite takes it scaled
    lstm = {"x": rng.normal(size=(3, 5, d)), "wx": rng.normal(size=(d, 4 * d)) * 0.5,
            "wh": rng.normal(size=(d, 4 * d)) * 0.5, "b": rng.normal(size=4 * d)}
    lstm["x"][1, 2:] = 0.0
    lstm["x"][2, 4:] = 0.0
    pool = {"scores": rng.normal(size=(3, 4)), "vectors": rng.normal(size=(12, d))}
    bilinear = {"left": mlp["left"], "w": rng.normal(size=(d, d)), "right": mlp["right"]}

    def fused_keep(*ts):
        return compose_rows(*ts, keep=keep, rate=0.3)

    def composite_keep(*ts):
        return composite_mlp_compose(*ts, keep=keep / (1.0 - 0.3))

    return {
        "mlp_rows": (compose_rows, composite_mlp_compose, mlp, ()),
        "mlp_rows_dropout": (fused_keep, composite_keep, mlp, ()),
        "mlp_constant_weights": (fused_keep, composite_keep, mlp, ("w1", "b2")),
        "mlp_constant_inputs": (compose_rows, composite_mlp_compose, mlp, ("left", "right")),
        "bilinear": (bilinear_score, composite_bilinear_score, bilinear, ()),
        "bilinear_constant_w": (bilinear_score, composite_bilinear_score, bilinear, ("w",)),
        "softmax_pool": (softmax_pool, composite_softmax_pool, pool, ()),
        "softmax_pool_constant_vectors": (softmax_pool, composite_softmax_pool, pool,
                                          ("vectors",)),
        "lstm_padded_batch": (lstm_forward, composite_lstm, lstm, ()),
        "lstm_constant_weights": (lstm_forward, composite_lstm, lstm, ("wh", "b")),
        "lstm_constant_inputs": (lstm_forward, composite_lstm, lstm, ("x",)),
    }


FUSED = _fused_cases()


def _tensors(arrays, constants):
    return {name: Tensor(value.copy(), requires_grad=name not in constants)
            for name, value in arrays.items()}


def _loss(outputs, probes):
    outputs = outputs if isinstance(outputs, tuple) else (outputs,)
    total = ad.constant(0.0)
    for out, probe in zip(outputs, probes):
        total = add(total, tensor_sum(mul(out, probe)))
    return total


def _probes(op, arrays):
    outputs = op(*(Tensor(v) for v in arrays.values()))
    outputs = outputs if isinstance(outputs, tuple) else (outputs,)
    rng = np.random.default_rng(9)
    return [rng.normal(size=out.data.shape) for out in outputs]


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_matches_composite(name):
    fused, composite, arrays, constants = FUSED[name]
    probes = _probes(fused, arrays)
    runs = []
    for op in (fused, composite):
        tensors = _tensors(arrays, constants)
        outputs = op(*tensors.values())
        backward(_loss(outputs, probes))
        outputs = outputs if isinstance(outputs, tuple) else (outputs,)
        runs.append(([out.data for out in outputs],
                     {k: t.grad for k, t in tensors.items()}))
    (fused_out, fused_grads), (ref_out, ref_grads) = runs
    for got, expect in zip(fused_out, ref_out):
        assert np.array_equal(got, expect)           # bit for bit
    for key, expect in ref_grads.items():
        got = fused_grads[key]
        if expect is None:
            assert got is None, key
            continue
        assert got.shape == expect.shape, key
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect)), key


@pytest.mark.parametrize("name", sorted(FUSED))
def test_fused_op_gradient_matches_finite_differences(name):
    fused, _, arrays, constants = FUSED[name]
    probes = _probes(fused, arrays)
    tensors = _tensors(arrays, constants)
    trainable = {k: t for k, t in tensors.items() if t.requires_grad}
    err = grad_check(lambda: _loss(fused(*tensors.values()), probes), trainable,
                     probes_per_tensor=10, eps=1e-5)
    assert err < 1e-5
    for key in constants:
        assert tensors[key].grad is None


def test_fused_ops_build_one_node_each(monkeypatch):
    made = []
    make = ad._from_op

    def counted(*args):
        made.append(args[0].shape)
        return make(*args)

    monkeypatch.setattr(ad, "_from_op", counted)
    for name in ("bilinear", "lstm_padded_batch"):
        fused, _, arrays, _ = FUSED[name]
        fused(*_tensors(arrays, ()).values())
    fused, _, arrays, _ = FUSED["softmax_pool"]
    fused(*_tensors(arrays, ()).values())
    # a chart step is a numpy function: the pass that runs it is the node
    mlp = FUSED["mlp_rows"][2]
    sides = [(np.hstack([mlp[side], np.ones((7, 1))]), slice(None), slice(None))
             for side in ("left", "right")]
    out = chart_step(*sides, (mlp["w1"], mlp["b1"], mlp["w2"], mlp["b2"], np.eye(4)), cells=1)
    assert isinstance(out[0], np.ndarray)
    assert len(made) == 4


def test_chart_step_gradients_ignore_rows_written_after_its_reads():
    # a step reads its pairs again from its pass's arrays in backward; a pass
    # writes each row once, and rows written after the step's block, or never
    # read by it, change nothing
    rng = np.random.default_rng(12)
    d, hidden, cells, pairs = 4, 5, 2, 6
    shapes = ((2 * d, hidden), (hidden,), (hidden, d), (d,), (d, d))
    weights = tuple(rng.normal(size=shape) * 0.4 for shape in shapes)
    rows = [rng.normal(size=(pairs, d + 1)) for _ in range(2)]
    later = rng.normal(size=(3, d + 1))
    keep = dropout_mask(rng, (pairs, hidden), 0.3)
    probe = rng.normal(size=(cells, d + 1))

    def gradients(write_later: bool) -> list:
        arrays = [np.zeros((pairs + 3, d + 1)) for _ in rows]
        for array, block in zip(arrays, rows):
            array[:pairs] = block
        # an index read and a read in two parts, as the outside pass's
        left = (arrays[0], np.array([5, 0, 3, 1, 4, 2]), slice(None))
        right = (arrays[1], ((slice(0, 3), np.array([2, 0, 1])),
                             (slice(3, 6), np.array([4, 5, 3]))), slice(None))
        out, _, vjp = chart_step(left, right, weights, cells=cells, keep=keep, rate=0.3)
        if write_later:
            for array in arrays:
                array[pairs:] = 2.0 * later
        grads = [np.zeros(array.shape) for array in arrays]
        step = vjp(probe, *grads)
        assert not any(grad[pairs:].any() for grad in grads)
        return grads + list(step[1:])

    for got, want in zip(gradients(True), gradients(False)):
        assert np.array_equal(got, want)


def test_chart_step_gives_a_row_both_sides_read_both_gradients():
    # an inside step reads left and right children from one array: a row that
    # is the right child of one pair and the left child of another takes the
    # sum of both terms, right before left
    rng = np.random.default_rng(13)
    d, hidden = 3, 4
    weights = tuple(Tensor(rng.normal(size=shape) * 0.5, requires_grad=True)
                    for shape in ((2 * d, hidden), (hidden,), (hidden, d), (d,), (d, d)))
    shared = rng.normal(size=(3, d + 1))
    lefts, rights = np.array([0, 1]), np.array([1, 2])
    probe = rng.normal(size=(1, d + 1))
    out, _, vjp = chart_step((shared, lefts, slice(None)), (shared, rights, slice(None)),
                             tuple(w.data for w in weights), cells=1)
    grad = np.zeros(shared.shape)
    vjp(probe, grad, grad)
    # the same step on two separate copies of the rows, as a node
    left, right = (Tensor(shared.copy(), requires_grad=True) for _ in range(2))
    node = step_node(left, right, weights, lefts, rights, cells=1)
    assert np.array_equal(node.data, out)
    backward(tensor_sum(mul(node, probe)))
    assert np.array_equal(grad, right.grad + left.grad)
    assert grad[1].any() and left.grad[1].any() and right.grad[1].any()


def test_padded_lstm_padding_gets_no_gradient():
    _, _, arrays, _ = FUSED["lstm_padded_batch"]
    tensors = _tensors(arrays, ())
    out = lstm_forward(*tensors.values())
    real = np.ones((3, 5, 1))
    real[1, 2:] = real[2, 4:] = 0.0
    backward(tensor_sum(mul(out, real)))
    assert not tensors["x"].grad[1, 2:].any() and not tensors["x"].grad[2, 4:].any()
    assert tensors["x"].grad[1, :2].all()


def test_dropout_scales_and_is_seeded(rng):
    out1 = dropout_mask(np.random.default_rng(9), (200, 10), 0.3)
    out2 = dropout_mask(np.random.default_rng(9), (200, 10), 0.3)
    assert out1.dtype == bool and np.array_equal(out1, out2)
    assert abs((~out1).mean() - 0.3) < 0.05
    # the step that applies a mask scales the kept units by 1 / (1 - rate):
    # with one pair per cell and an identity second layer, its vectors are
    # the hidden layer itself
    d = 4
    w1 = Tensor(rng.normal(size=(2 * d, d)))
    b1, b2, w2 = Tensor(rng.normal(size=d)), Tensor(np.zeros(d)), Tensor(np.eye(d))
    left, right = Tensor(rng.normal(size=(3, d))), Tensor(rng.normal(size=(3, d)))
    plain = compose_rows(left, right, w1, b1, w2, b2).data
    kept = compose_rows(left, right, w1, b1, w2, b2, keep=np.ones((3, d), dtype=bool),
                        rate=0.3).data
    assert np.allclose(kept, plain / 0.7, rtol=1e-15, atol=0)


def test_glorot_bounds(rng):
    w = glorot_uniform(rng, (50, 30), 50, 30)
    bound = np.sqrt(6.0 / 80.0)
    assert np.abs(w).max() <= bound


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_grad_keeps_params():
    p = {"w": Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)}
    before = p["w"].data.copy()
    opt = Adam(p, lr=0.1)
    opt.step()
    assert np.array_equal(p["w"].data, before)
    assert opt.step_count == 1


def test_adam_descends_quadratic():
    p = {"w": Tensor(np.array([5.0]), requires_grad=True)}
    opt = Adam(p, lr=0.1)
    for _ in range(500):
        opt.zero_grad()
        loss = tensor_sum(mul(p["w"], p["w"]))
        backward(loss)
        opt.step()
    assert abs(float(p["w"].data[0])) < 1e-2
    assert opt.step_count == 500


def test_adam_moments_have_param_shapes():
    p = {"w": Tensor(np.zeros((3, 2)), requires_grad=True)}
    opt = Adam(p)
    assert opt.m["w"].shape == (3, 2)
    assert opt.v["w"].shape == (3, 2)


def test_adam_updates_its_moments_in_place():
    rng = np.random.default_rng(31)
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 2)}
    params = {k: Tensor(rng.normal(size=shape), requires_grad=True)
              for k, shape in shapes.items()}
    opt = Adam(params, lr=1e-2)
    moments = {k: (opt.m[k], opt.v[k]) for k in params}
    expect = {k: (np.zeros(shape), np.zeros(shape), params[k].data.copy())
              for k, shape in shapes.items()}
    for t in range(1, 31):
        for k, p in params.items():
            p.grad = None if rng.random() < 0.3 else \
                rng.normal(size=shapes[k]) * 10.0 ** rng.integers(-4, 3)
            expect[k] = adam_step(*expect[k], p.grad, opt.lr, t)
        shared = {k: p.data for k, p in params.items()}
        kept = {k: data.copy() for k, data in shared.items()}
        opt.step()
        for k, p in params.items():
            assert opt.m[k] is moments[k][0] and opt.v[k] is moments[k][1], k
            m, v, data = expect[k]
            assert np.array_equal(opt.m[k], m) and np.array_equal(opt.v[k], v), (t, k)
            assert np.array_equal(p.data, data), (t, k)
            # a parse charting with the old arrays still reads them unchanged
            assert np.array_equal(shared[k], kept[k]), (t, k)


# ---------------------------------------------------------------------------
# gradcheck harness on analytic cases


def test_grad_check_constant_and_linear():
    p = {"x": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
    err = grad_check(lambda: add(tensor_sum(mul(p["x"], 0.0)), 2.0), p)
    assert err == 0.0
    slope = ad.constant(np.array([3.0, -1.5]))
    err = grad_check(lambda: tensor_sum(mul(slope, p["x"])), p)
    assert err < 1e-8


# ---------------------------------------------------------------------------
# parameters and checkpoints


def test_pitch_parameters_take_the_chart_width():
    cfg = tiny_config()
    params = build_params(cfg, vocab_size=11, rng=np.random.default_rng(0))
    assert params["pitch_embedding"].data.shape == (PITCH_VOCAB, cfg.d)
    assert params["pitch_lstm_wx"].data.shape == (cfg.d, 4 * cfg.d)
    assert params["pitch_lstm_b"].data.shape == (4 * cfg.d,)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = tiny_config()
    params = build_params(cfg, vocab_size=7, rng=np.random.default_rng(3))
    opt = Adam(params, lr=cfg.lr)
    for p in params.values():
        p.grad = np.ones_like(p.data) * 0.25
    opt.step()
    pair = np.random.default_rng(0).random((5, 5))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, params, cfg, vocab=[f"t{i}" for i in range(7)],
                    optimizer=opt, pair_matrix=pair)
    loaded, cfg2, vocab, step, adam_state, pair2 = load_checkpoint(path)
    assert step == 1 and vocab[0] == "t0" and cfg2.d == cfg.d
    for name, p in params.items():
        assert np.array_equal(loaded[name].data, p.data), name
        assert np.array_equal(adam_state["m"][name], opt.m[name])
        assert np.array_equal(adam_state["v"][name], opt.v[name])
    assert np.array_equal(pair2, pair)


def _saved(tmp_path, cfg, vocab, **replace):
    """Save freshly built params with some tensors replaced (None drops one)."""
    params = build_params(cfg, len(vocab) if vocab else 1, np.random.default_rng(0))
    for name, data in replace.items():
        if data is None:
            del params[name]
        else:
            params[name] = Tensor(data)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, params, cfg, vocab)
    return path


def test_checkpoint_wrong_shape_names_the_tensor(tmp_path):
    path = _saved(tmp_path, tiny_config(), ["a", "b"], attn_q=np.zeros((3, 3)))
    with pytest.raises(CheckpointError, match=r"attn_q has shape \(3, 3\)"):
        load_checkpoint(path)


def test_checkpoint_missing_tensor_names_the_tensor(tmp_path):
    path = _saved(tmp_path, tiny_config(), ["a", "b"], bilinear_inside=None)
    with pytest.raises(CheckpointError, match="bilinear_inside"):
        load_checkpoint(path)


def test_textless_checkpoint_is_validated(tmp_path):
    cfg = tiny_config(mode="textless")
    load_checkpoint(_saved(tmp_path, cfg, None))
    with pytest.raises(CheckpointError, match="pitch_lstm_b"):
        load_checkpoint(_saved(tmp_path, cfg, None, pitch_lstm_b=None))
    with pytest.raises(CheckpointError, match="clip_projection"):
        load_checkpoint(_saved(tmp_path, cfg, None, clip_projection=np.zeros((2, 2))))


def test_textless_params_keep_the_full_draw_without_the_text_only_tensors():
    cfg = tiny_config()
    full = build_params(cfg, 1, np.random.default_rng(8))
    textless = build_params(tiny_config(mode="textless"), 1, np.random.default_rng(8))
    assert TEXT_ONLY == {"word_embeddings", "word_projection", "attn_q", "attn_k", "attn_v",
                         "align_proj_text"}
    assert list(textless) == [name for name in full if name not in TEXT_ONLY]
    for name, p in textless.items():
        assert np.array_equal(p.data, full[name].data), name


def test_textless_checkpoint_roundtrip_and_text_only_tensor(tmp_path):
    cfg = tiny_config(mode="textless")
    params = build_params(cfg, 1, np.random.default_rng(9))
    opt = Adam(params, lr=cfg.lr)
    for p in params.values():
        p.grad = np.full_like(p.data, 0.5)
    opt.step()
    path = tmp_path / "textless.npz"
    save_checkpoint(path, params, cfg, None, optimizer=opt)
    with np.load(path) as archive:
        assert not any(key.endswith(tuple(TEXT_ONLY)) for key in archive.files)
    loaded, _, vocab, step, adam_state, _ = load_checkpoint(path)
    assert vocab is None and step == 1 and list(loaded) == list(params)
    for name, p in params.items():
        assert np.array_equal(loaded[name].data, p.data), name
        assert np.array_equal(adam_state["m"][name], opt.m[name]), name
    # a textless checkpoint written before the text-only tensors were dropped
    older = tmp_path / "older.npz"
    save_checkpoint(older, {**params, "attn_q": Tensor(np.zeros((cfg.d, cfg.d)))}, cfg, None)
    with pytest.raises(CheckpointError,
                       match=f"{re.escape(str(older))}: unexpected tensor attn_q"):
        load_checkpoint(older)


def test_checkpoint_config_with_a_non_finite_float_names_the_field(tmp_path):
    cfg = dataclasses.replace(tiny_config(), margin=float("nan"))
    path = _saved(tmp_path, cfg, ["a"])
    with pytest.raises(CheckpointError,
                       match=f"{re.escape(str(path))}: margin must be finite"):
        load_checkpoint(path)


def test_checkpoint_load_errors_name_the_path_or_tensor(tmp_path):
    missing = tmp_path / "absent.npz"
    with pytest.raises(CheckpointError, match=f"checkpoint not found: {re.escape(str(missing))}"):
        load_checkpoint(missing)
    bare = tmp_path / "bare.npz"
    np.savez(bare, weights=np.zeros(2))
    with pytest.raises(CheckpointError,
                       match=f"{re.escape(str(bare))} is not a checkpoint \\(missing metadata"):
        load_checkpoint(bare)
    path = _saved(tmp_path, tiny_config(), ["a", "b"], surplus=np.zeros(2))
    with pytest.raises(CheckpointError,
                       match=f"{re.escape(str(path))}: unexpected tensor surplus$"):
        load_checkpoint(path)
    path = _saved(tmp_path, tiny_config(), ["a", "b"])
    _edit_meta(path, lambda meta: meta.pop("config"))
    with pytest.raises(CheckpointError,
                       match=f"{re.escape(str(path))}: metadata has no config block"):
        load_checkpoint(path)


def _replace_meta(path, replace) -> None:
    """Rewrite a saved checkpoint's metadata as `replace(meta)`."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = replace(json.loads(bytes(arrays["__meta__"]).decode()))
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def _edit_meta(path, edit) -> None:
    """Rewrite a saved checkpoint's metadata in place through `edit(meta)`."""
    def replace(meta):
        edit(meta)
        return meta
    _replace_meta(path, replace)


def test_checkpoint_tampered_config_fails_the_hash(tmp_path):
    path = _saved(tmp_path, tiny_config(), ["a", "b"])
    _edit_meta(path, lambda meta: meta["config"].update(gamma=0.25))
    with pytest.raises(CheckpointError, match="config hash"):
        load_checkpoint(path)
    path = _saved(tmp_path, tiny_config(), ["a", "b"])
    _edit_meta(path, lambda meta: meta.update(config_hash="0" * 16))
    with pytest.raises(CheckpointError, match="config hash '0000000000000000'"):
        load_checkpoint(path)


def test_checkpoint_config_fields_are_named(tmp_path):
    path = _saved(tmp_path, tiny_config(), ["a", "b"])
    _edit_meta(path, lambda meta: meta["config"].update(beam=4))
    with pytest.raises(CheckpointError, match="unknown config field 'beam'"):
        load_checkpoint(path)
    path = _saved(tmp_path, tiny_config(), ["a", "b"])
    _edit_meta(path, lambda meta: meta["config"].pop("margin"))
    with pytest.raises(CheckpointError, match="config field 'margin' is missing"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("dropout", "x"), ("mode", 3),
                                          ("use_visual", "no"), ("batch", 2.5)])
def test_checkpoint_config_field_of_the_wrong_type_fails_with_its_hash_recomputed(
        tmp_path, field, value):
    path = _saved(tmp_path, tiny_config(), ["a", "b"])

    def retype(meta):
        meta["config"][field] = value
        cfg = RunConfig(**meta["config"])
        meta["config_hash"] = config_hash(cfg, {"vocab_size": len(meta["vocab"])})

    _edit_meta(path, retype)
    with pytest.raises(CheckpointError, match=f"{re.escape(str(path))}: {field}"):
        load_checkpoint(path)


CORRUPTIONS = {
    "truncated_to_half": lambda raw: raw[:len(raw) // 2],
    "truncated_by_10_bytes": lambda raw: raw[:-10],
    "bit_flipped_mid_file": lambda raw: raw[:len(raw) // 2]
    + bytes([raw[len(raw) // 2] ^ 0x10]) + raw[len(raw) // 2 + 1:],
    "zeroed": lambda raw: bytes(len(raw)),
    "empty": lambda raw: b"",
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_raises_checkpoint_error_naming_the_path(tmp_path, corruption):
    path = _saved(tmp_path, tiny_config(), ["a", "b"])
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


@cache
def _fuzz_checkpoint() -> bytes:
    """A checkpoint with Adam moments and a pair matrix, as bytes."""
    cfg = tiny_config()
    params = build_params(cfg, 3, np.random.default_rng(5))
    opt = Adam(params, lr=cfg.lr)
    for p in params.values():
        p.grad = np.full_like(p.data, 0.5)
    opt.step()
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "ck.npz"
        save_checkpoint(path, params, cfg, ["a", "b", "c"], optimizer=opt,
                        pair_matrix=np.eye(5))
        return path.read_bytes()


# a byte anywhere, or among the last 512, where the zip directory lies
_BYTE_AT = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.integers(1, 512))


@given(flips=st.lists(st.tuples(_BYTE_AT, st.integers(1, 255)), min_size=1, max_size=4))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_byte_flipped_checkpoint_raises_only_checkpoint_error(flips):
    # a load may succeed, since some bytes are not read, but the only error
    # that may escape is the library's, naming the path
    raw = bytearray(_fuzz_checkpoint())
    for at, mask in flips:
        raw[int(at * len(raw)) if isinstance(at, float) else -at] ^= mask
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "ck.npz"
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            assert str(path) in str(exc), str(exc)


BAD_METADATA = {
    "a_list": lambda meta: [],
    "no_step": lambda meta: {key: value for key, value in meta.items() if key != "step"},
    "vocab_a_number": lambda meta: dict(meta, vocab=5),
    "vocab_of_numbers": lambda meta: dict(meta, vocab=[1, 2]),
    "step_a_string": lambda meta: dict(meta, step="x"),
    "step_a_boolean": lambda meta: dict(meta, step=True),
    "step_negative": lambda meta: dict(meta, step=-1),
}


@pytest.mark.parametrize("case", sorted(BAD_METADATA))
def test_bad_checkpoint_metadata_raises_checkpoint_error_naming_the_path(tmp_path, case):
    # an intact archive whose metadata JSON is rewritten: nothing but the
    # library's error may escape, and nothing malformed may load
    path = _saved(tmp_path, tiny_config(), ["a", "b"])
    _replace_meta(path, BAD_METADATA[case])
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_params_finite_after_steps():
    cfg = tiny_config()
    params = build_params(cfg, vocab_size=5, rng=np.random.default_rng(1))
    opt = Adam(params, lr=1e-2)
    grad_rng = np.random.default_rng(2)
    for _ in range(5):
        for p in params.values():
            p.grad = grad_rng.normal(size=p.data.shape)
        opt.step()
    for name, p in params.items():
        assert np.all(np.isfinite(p.data)), name
