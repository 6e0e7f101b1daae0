"""Gradients of the engine's row gather, and of the elementary
ops the composite references build, against the finite-difference oracle,
plus the softmax contract and the engine's gradient accumulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmgi import autodiff as ad
from mmgi.autodiff import Tensor, backward
from mmgi.errors import ShapeError

from .oracles import (add, bmm, concat, div, fd_gradient, log_softmax, matmul, mul, neg,
                      relu, reshape, select, sigmoid, softmax, sqrt, stack, sub, take_pairs,
                      tanh, tensor_max, tensor_mean, tensor_sum, transpose)

RTOL = 1e-4


def check_op(build, arrays, probe_seed=0):
    """Analytic gradient of sum(weights * op(...)) vs central differences."""
    tensors = {k: Tensor(v.copy(), requires_grad=True) for k, v in arrays.items()}
    probe_rng = np.random.default_rng(probe_seed)
    out_shape = build(tensors).data.shape
    weights = probe_rng.normal(size=out_shape)

    def scalar_from(ts):
        return tensor_sum(mul(build(ts), weights))

    loss = scalar_from(tensors)
    backward(loss)

    def fd_fn():
        fresh = {k: Tensor(arrays[k]) for k in arrays}
        return float(scalar_from(fresh).data)

    reference = fd_gradient(fd_fn, arrays)
    for name in arrays:
        analytic = tensors[name].grad
        assert analytic is not None, name
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(reference[name])), 1e-8)
        assert (np.abs(analytic - reference[name]) / scale).max() < RTOL, name


OPS = {
    "add_broadcast": (lambda t: add(t["a"], t["b"]), {"a": (3, 4), "b": (4,)}),
    "sub": (lambda t: sub(t["a"], t["b"]), {"a": (3, 4), "b": (3, 4)}),
    "mul_broadcast": (lambda t: mul(t["a"], t["b"]), {"a": (3, 4), "b": (3, 1)}),
    "div": (lambda t: div(t["a"], add(mul(t["b"], t["b"]), 1.0)), {"a": (4,), "b": (4,)}),
    "neg": (lambda t: neg(t["a"]), {"a": (5,)}),
    "matmul_22": (lambda t: matmul(t["a"], t["b"]), {"a": (3, 4), "b": (4, 2)}),
    "matmul_12": (lambda t: matmul(t["a"], t["b"]), {"a": (4,), "b": (4, 2)}),
    "matmul_21": (lambda t: matmul(t["a"], t["b"]), {"a": (3, 4), "b": (4,)}),
    "matmul_11": (lambda t: matmul(t["a"], t["b"]), {"a": (4,), "b": (4,)}),
    "sum_all": (lambda t: tensor_sum(t["a"]), {"a": (3, 4)}),
    "sum_axis": (lambda t: tensor_sum(t["a"], axis=1), {"a": (3, 4)}),
    "mean_axis": (lambda t: tensor_mean(t["a"], axis=0), {"a": (3, 4)}),
    "max_axis": (lambda t: tensor_max(t["a"], axis=1), {"a": (3, 4)}),
    "tanh": (lambda t: tanh(t["a"]), {"a": (3, 3)}),
    "sigmoid": (lambda t: sigmoid(t["a"]), {"a": (6,)}),
    "sqrt": (lambda t: sqrt(add(mul(t["a"], t["a"]), 0.1)), {"a": (5,)}),
    "relu": (lambda t: relu(t["a"]), {"a": (7,)}),
    "softmax_vec": (lambda t: softmax(t["a"]), {"a": (6,)}),
    "softmax_rows": (lambda t: softmax(t["a"], axis=1), {"a": (3, 5)}),
    "log_softmax": (lambda t: log_softmax(t["a"], axis=1), {"a": (3, 5)}),
    "concat": (lambda t: concat([t["a"], t["b"]], axis=0), {"a": (2, 3), "b": (4, 3)}),
    "stack": (lambda t: stack([t["a"], t["b"], t["a"]]), {"a": (4,), "b": (4,)}),
    "gather_rows": (lambda t: ad.gather_rows(t["a"], np.array([0, 2, 2, 1])), {"a": (4, 3)}),
    "gather_rows_2d_index": (lambda t: ad.gather_rows(t["a"], np.array([[0, 2], [2, 2], [3, 0]])),
                             {"a": (4, 3)}),
    "gather_rows_vector": (lambda t: ad.gather_rows(t["a"], np.array([[4, 1, 1], [0, 4, 1]])),
                           {"a": (5,)}),
    "gather_rows_scalar": (lambda t: mul(ad.gather_rows(t["a"], 3), t["a"]), {"a": (5,)}),
    "concat_many": (lambda t: concat([t["a"], t["b"], t["a"]]), {"a": (2, 3), "b": (1, 3)}),
    "mul_broadcast_3d": (lambda t: mul(t["a"], t["b"]), {"a": (2, 3, 1), "b": (2, 3, 4)}),
    "sum_axis1_3d": (lambda t: tensor_sum(t["a"], axis=1), {"a": (2, 3, 4)}),
    "sum_last_axis": (lambda t: tensor_sum(t["a"], axis=-1), {"a": (3, 4)}),
    "reshape_3d": (lambda t: reshape(t["a"], (2, 3, 4)), {"a": (6, 4)}),
    "take_pairs": (lambda t: take_pairs(t["a"], np.array([0, 1, 1]),
                                        np.array([2, 0, 0])), {"a": (3, 4)}),
    "select_rows": (lambda t: select(t["a"], slice(1, 3)), {"a": (5, 3)}),
    "transpose": (lambda t: transpose(t["a"]), {"a": (3, 4)}),
    "transpose_3d": (lambda t: transpose(t["a"]), {"a": (2, 3, 4)}),
    "bmm": (lambda t: bmm(t["a"], t["b"]), {"a": (2, 3, 4), "b": (2, 4, 5)}),
    "select_time_step": (lambda t: select(t["a"], (slice(None), 1)), {"a": (2, 3, 4)}),
    "select_last_axis": (lambda t: select(t["a"], (slice(None), slice(2, 5))),
                         {"a": (3, 6)}),
    "reshape": (lambda t: reshape(t["a"], (6,)), {"a": (2, 3)}),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradient_matches_finite_differences(name):
    build, shapes = OPS[name]
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    arrays = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    check_op(build, arrays)


def test_softmax_basics():
    assert np.allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])
    two_thirds = softmax(Tensor([np.log(2.0), 0.0])).data
    assert np.allclose(two_thirds, [2 / 3, 1 / 3], atol=1e-15)


def test_softmax_empty_rejected():
    with pytest.raises(ValueError):
        softmax(Tensor(np.zeros(0)))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12),
       st.floats(-100, 100))
@settings(max_examples=100, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(values, shift):
    v = np.array(values)
    s = softmax(Tensor(v)).data
    assert np.all(s >= 0)
    assert abs(s.sum() - 1.0) <= 1e-12
    shifted = softmax(Tensor(v + shift)).data
    assert np.allclose(s, shifted, atol=1e-12)


def test_backward_requires_scalar_root():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(add(t, 1.0))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def test_bmm_shape_mismatch():
    with pytest.raises(ShapeError):
        bmm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))
    with pytest.raises(ShapeError):
        bmm(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3, 2))))


def test_backward_frees_interior_gradients():
    leaf = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    interior = tanh(mul(leaf, 2.0))
    root = tensor_sum(mul(interior, interior))
    backward(root)
    assert leaf.grad is not None
    assert np.allclose(leaf.grad, 2 * interior.data * (1 - interior.data ** 2) * 2.0)
    assert interior.grad is None


def test_forward_is_deterministic():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    first = softmax(matmul(Tensor(a), Tensor(a)), axis=1).data
    second = softmax(matmul(Tensor(a), Tensor(a)), axis=1).data
    assert np.array_equal(first, second)


def test_max_gradient_ties_go_to_first():
    t = Tensor(np.array([[1.0, 1.0, 0.5]]), requires_grad=True)
    out = tensor_sum(tensor_max(t, axis=1))
    backward(out)
    assert np.array_equal(t.grad, [[1.0, 0.0, 0.0]])


def _grads(build, **arrays):
    tensors = {k: Tensor(np.array(v, dtype=float), requires_grad=True)
               for k, v in arrays.items()}
    backward(build(**tensors))
    return {k: t.grad for k, t in tensors.items()}


def test_gradient_of_a_tensor_used_twice():
    x = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(_grads(lambda x: tensor_sum(add(x, x)), x=x)["x"], [2.0, 2.0, 2.0])
    assert np.array_equal(_grads(lambda x: tensor_sum(mul(x, x)), x=x)["x"], 2 * x)
    # three uses: the third contribution is added in place into the second's sum
    got = _grads(lambda x: tensor_sum(add(add(x, x), mul(x, 2.0))), x=x)["x"]
    assert np.array_equal(got, [4.0, 4.0, 4.0])


@pytest.mark.parametrize("order", ["shared_first", "shared_last"])
def test_shared_gradient_array_is_never_written_in_place(order):
    """`add` hands one gradient array to both of its parents. One parent, p,
    then gathers more gradient; summing that in place would also change the
    other parent's gradient, and through it x's."""
    def build(x, y):
        p, q = tanh(x), mul(y, 2.0)
        shared = tensor_sum(add(p, q))
        more = add(tensor_sum(mul(p, 3.0)), tensor_sum(sigmoid(p)))
        return add(shared, more) if order == "shared_first" else add(more, shared)

    x, y = np.array([0.3, -0.7]), np.array([1.5, 0.2])
    got = _grads(build, x=x, y=y)
    p = np.tanh(x)
    sig = 1.0 / (1.0 + np.exp(-p))
    assert np.allclose(got["x"], (1.0 + 3.0 + sig * (1.0 - sig)) * (1.0 - p * p),
                       rtol=1e-14, atol=0.0)
    assert np.array_equal(got["y"], [2.0, 2.0])


def test_broadcast_gradient_views_are_copied_before_summing():
    x = np.arange(6.0).reshape(2, 3)
    got = _grads(lambda x: add(add(tensor_sum(x), tensor_sum(mul(x, 2.0))),
                               tensor_sum(tensor_sum(x, axis=1))), x=x)["x"]
    assert np.array_equal(got, np.full((2, 3), 4.0))
    assert got.flags.writeable and got.base is None


def test_second_backward_leaves_the_first_gradient_alone():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    backward(add(add(tensor_sum(mul(x, 3.0)), tensor_sum(x)), tensor_sum(x)))
    first = x.grad
    kept = first.copy()
    backward(add(add(tensor_sum(mul(x, 3.0)), tensor_sum(x)), tensor_sum(x)))
    assert np.array_equal(first, kept)
    assert np.array_equal(x.grad, 2 * kept)
