import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvae import engine
from rvae.engine import Tensor


def fd_scalar(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


def check_op(build, x):
    """Compare tape gradient of sum(op(x)) against central differences."""
    t = Tensor(x)
    out = engine.tsum(build(t))
    out.backward()
    numeric = fd_scalar(lambda: engine.tsum(build(Tensor(x))).value, x)
    np.testing.assert_allclose(t.grad, numeric, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("build", [
    lambda t: engine.exp(t),
    lambda t: engine.log(engine.add(engine.mul(t, t), 1.0)),
    lambda t: engine.relu(t),
    lambda t: engine.sigmoid(t),
    lambda t: engine.softplus(t),
    lambda t: engine.mul(t, engine.exp(engine.neg(t))),
    lambda t: engine.log_softmax(t),
    lambda t: engine.slice_cols(t, 1, 3),
])
def test_elementwise_ops_match_finite_differences(build):
    x = np.random.default_rng(0).normal(size=(4, 5))
    check_op(build, x)


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a_val, b_val = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    a, b = Tensor(a_val), Tensor(b_val)
    out = engine.tsum(engine.matmul(a, b))
    out.backward()
    np.testing.assert_allclose(a.grad, fd_scalar(lambda: (a_val @ b_val).sum(), a_val), atol=1e-7)
    np.testing.assert_allclose(b.grad, fd_scalar(lambda: (a_val @ b_val).sum(), b_val), atol=1e-7)


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        engine.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_take_rows_scatters_gradient():
    e = Tensor(np.arange(12.0).reshape(4, 3))
    idx = np.array([1, 1, 3])
    out = engine.tsum(engine.take_rows(e, idx))
    out.backward()
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(e.grad, expected)


def test_gather_cols_scatters_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    out = engine.tsum(engine.gather_cols(x, np.array([2, 0])))
    out.backward()
    np.testing.assert_array_equal(x.grad, [[0, 0, 1], [1, 0, 0]])
    assert out.value == 5.0


def test_gather_cols_gradient_matches_add_at_with_repeated_columns():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(6, 4)))
    idx = np.array([2, 2, 0, 3, 2, 0])  # columns repeat across rows
    weights = rng.normal(size=6)
    engine.tsum(engine.mul(engine.gather_cols(x, idx), weights)).backward()
    expected = np.zeros((6, 4))
    np.add.at(expected, (np.arange(6), idx), weights)
    np.testing.assert_array_equal(x.grad, expected)


def test_concat_splits_gradient():
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))
    out = engine.tsum(engine.mul(engine.concat([a, b], axis=1), np.arange(10.0).reshape(2, 5)))
    out.backward()
    np.testing.assert_array_equal(a.grad, [[0, 1], [5, 6]])
    np.testing.assert_array_equal(b.grad, [[2, 3, 4], [7, 8, 9]])


def test_clip_blocks_gradient_outside_range():
    x = Tensor(np.array([-2.0, 0.5, 3.0]))
    out = engine.tsum(engine.clip(x, -1.0, 1.0))
    out.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_broadcast_add_unbroadcasts():
    a, b = Tensor(np.ones((3, 2))), Tensor(np.ones(2))
    engine.tsum(engine.add(a, b)).backward()
    np.testing.assert_array_equal(b.grad, [3.0, 3.0])


def test_backward_requires_scalar_or_seed():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        t.backward()
    t2 = engine.mul(Tensor(np.ones(3)), 2.0)
    t2.backward(seed=np.ones(3))  # fine with an explicit seed


def test_repeated_backward_resets_gradients():
    x = Tensor(np.array(2.0))
    out = engine.mul(x, 3.0)
    out.backward()
    first = x.grad.copy()
    out.backward()
    np.testing.assert_array_equal(x.grad, first)


def test_repeated_backward_through_shared_nodes_gives_equal_gradients():
    w = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
    h = engine.matmul(Tensor(np.ones((2, 3))), w)
    out = engine.tsum(engine.mul(engine.slice_cols(h, 0, 2), engine.slice_cols(h, 1, 3)))
    out.backward()
    first = w.grad.copy()
    out.backward()
    np.testing.assert_array_equal(w.grad, first)


def test_shared_node_accumulates_gradient():
    x = Tensor(np.array(1.5))
    out = engine.add(engine.mul(x, x), x)  # x^2 + x, derivative 2x + 1
    out.backward()
    assert float(x.grad) == pytest.approx(4.0, abs=1e-12)


def test_node_used_twice_in_one_op_gets_summed_gradient():
    a = Tensor(np.array([1.0, -2.0, 3.0]))
    engine.tsum(engine.add(a, a)).backward()
    np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    engine.tsum(engine.mul(x, x)).backward()
    np.testing.assert_array_equal(x.grad, [2.0, -4.0, 6.0])


def test_node_feeding_several_slices_gets_summed_gradient():
    h = Tensor(np.arange(8.0).reshape(2, 4))
    parts = [engine.slice_cols(h, 0, 3), engine.slice_cols(h, 1, 4), engine.slice_cols(h, 2, 3)]
    engine.tsum(engine.concat(parts, axis=1)).backward()
    np.testing.assert_array_equal(h.grad, [[1, 2, 3, 1], [1, 2, 3, 1]])


def test_backward_leaves_the_seed_unchanged():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    out = engine.add(engine.add(x, x), 0.0)
    seed = np.array([0.5, -1.0, 2.0])
    kept = seed.copy()
    out.backward(seed=seed)
    np.testing.assert_array_equal(seed, kept)
    np.testing.assert_array_equal(x.grad, 2 * kept)
    assert not np.shares_memory(x.grad, seed)


def test_permute_cols_routes_gradient_back():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    out = engine.permute_cols(a, np.array([2, 0, 1]))
    np.testing.assert_array_equal(out.value, [[2, 0, 1], [5, 3, 4]])
    engine.tsum(engine.mul(out, np.array([10.0, 20.0, 30.0]))).backward()
    np.testing.assert_array_equal(a.grad, [[20, 30, 10], [20, 30, 10]])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_log_softmax_rows_normalize(seed):
    x = np.random.default_rng(seed).normal(size=(3, 4)) * 10
    out = engine.log_softmax(Tensor(x)).value
    np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)
