import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvae.engine import Tensor
from rvae.errors import TrainingError
from rvae.nn import DenseNet, Rng, adam_step, init_adam

from conftest import assert_grads_close, finite_difference, softmax


def forward(net, x):
    """One row through DenseNet.apply."""
    return net.apply(Tensor(np.atleast_2d(x))).value[0]


def forward_backward(net, x, upstream):
    """Parameter and input gradients of upstream . net(x) for one row."""
    x_t = Tensor(np.atleast_2d(x))
    net.apply(x_t).backward(seed=np.atleast_2d(upstream))
    grads = {name: t.grad for name, t in net.params().items()}
    return grads, x_t.grad[0]


def test_forward_identity_layer():
    net = DenseNet([2, 2], ["identity"])
    net.layers[0].W.value = np.eye(2)
    np.testing.assert_array_equal(forward(net, np.array([1.0, 2.0])), [1.0, 2.0])


def test_forward_zero_weights_returns_bias():
    bias = np.array([0.5, -1.5, 3.0])
    net = DenseNet([4, 3], ["identity"])
    net.layers[0].b.value = bias
    for seed in (0, 1):
        x = np.random.default_rng(seed).normal(size=4)
        np.testing.assert_array_equal(forward(net, x), bias)


def test_forward_matches_hand_matmul_chain():
    rng = Rng(11)
    net = DenseNet([3, 5, 2], ["relu", "identity"], rng)
    x = np.array([0.3, -1.2, 0.7])
    w0, b0 = net.layers[0].W.value, net.layers[0].b.value
    w1, b1 = net.layers[1].W.value, net.layers[1].b.value
    expected = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
    np.testing.assert_allclose(forward(net, x), expected, rtol=1e-15)


def test_forward_dimension_mismatch():
    net = DenseNet([3, 2], ["identity"], Rng(0))
    with pytest.raises(ValueError, match="does not match first layer"):
        forward(net, np.ones(4))


def test_backward_linear_rows():
    # y = W x with loss = y[0]: dL/dW is x on row 0 outputs, zero elsewhere
    net = DenseNet([3, 2], ["identity"])
    w = net.layers[0].W.value
    x = np.array([1.0, 2.0, 3.0])
    grads, x_grad = forward_backward(net, x, np.array([1.0, 0.0]))
    np.testing.assert_array_equal(grads["net.W0"][:, 0], x)
    np.testing.assert_array_equal(grads["net.W0"][:, 1], 0.0)
    np.testing.assert_array_equal(x_grad, w[:, 0])


def test_backward_matches_finite_differences():
    net = DenseNet([4, 6, 3], ["relu", "identity"], Rng(5))
    x = Rng(6).normal(4)
    upstream = np.array([1.0, -0.5, 2.0])

    def loss():
        return float(forward(net, x) @ upstream)

    analytic, _ = forward_backward(net, x, upstream)
    numeric = finite_difference(lambda: loss(), net.params())
    assert_grads_close(analytic, numeric)


def test_relu_blocks_gradient_at_negative_preactivation():
    # single unit with a strongly negative preactivation
    net = DenseNet([1, 1], ["relu"])
    net.layers[0].W.value = np.array([[1.0]])
    net.layers[0].b.value = np.array([-5.0])
    grads, x_grad = forward_backward(net, np.array([1.0]), np.array([1.0]))
    assert grads["net.W0"][0, 0] == 0.0
    assert x_grad[0] == 0.0


def test_densenet_validates_layer_spec():
    with pytest.raises(ValueError, match="one activation per layer"):
        DenseNet([2, 3, 1], ["relu"])
    with pytest.raises(ValueError, match="unknown activation"):
        DenseNet([2, 2], ["tanh"])


# -- Adam -------------------------------------------------------------------

def scalar_adam_reference(theta, g, lr, b1, b2, eps, steps=1):
    m = v = 0.0
    for t in range(1, steps + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return theta


def test_adam_zero_gradient_is_identity():
    params = {"w": Tensor(np.array([1.0, -2.0, 3.0]))}
    state = init_adam(params, lr=0.01)
    before = params["w"].value.copy()
    adam_step(params, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(params["w"].value, before)
    assert state.step_count == 1


def test_adam_single_step_matches_scalar_reference():
    g = 0.37
    params = {"w": Tensor(np.array([2.0]))}
    state = init_adam(params, lr=0.05)
    adam_step(params, {"w": np.array([g])}, state)
    expected = scalar_adam_reference(2.0, g, 0.05, 0.9, 0.999, 1e-8)
    np.testing.assert_allclose(params["w"].value, [expected], rtol=1e-12)


def test_adam_multiple_steps_match_scalar_reference():
    g = -1.2
    params = {"w": Tensor(np.array([0.5]))}
    state = init_adam(params, lr=0.01)
    for _ in range(7):
        adam_step(params, {"w": np.array([g])}, state)
    expected = scalar_adam_reference(0.5, g, 0.01, 0.9, 0.999, 1e-8, steps=7)
    np.testing.assert_allclose(params["w"].value, [expected], rtol=1e-10)


def test_adam_weight_decay_shrinks_parameters():
    params = {"w": Tensor(np.array([1.0, -1.0]))}
    state = init_adam(params, lr=0.001, weight_decay=0.1)
    adam_step(params, {"w": np.zeros(2)}, state)
    assert np.all(np.abs(params["w"].value) < 1.0)


def test_adam_rejects_non_finite_gradient_with_name():
    params = {"encoder.W0": Tensor(np.ones(2))}
    state = init_adam(params)
    with pytest.raises(TrainingError, match="encoder.W0"):
        adam_step(params, {"encoder.W0": np.array([1.0, np.nan])}, state)


def test_adam_names_a_non_finite_gradient_in_a_later_parameter():
    params = {"a": Tensor(np.ones((2, 2))), "b": Tensor(np.ones(3)), "c": Tensor(np.ones(1))}
    state = init_adam(params)
    grads = {"a": np.ones((2, 2)), "b": np.array([0.0, np.inf, 0.0]), "c": np.array([np.nan])}
    with pytest.raises(TrainingError, match="'b'"):
        adam_step(params, grads, state)


def reference_adam(values, grad_steps, lr, weight_decay, b1=0.9, b2=0.999, eps=1e-8):
    """The per-parameter update, one parameter at a time, as a reference."""
    values = {k: v.copy() for k, v in values.items()}
    m = {k: np.zeros_like(v) for k, v in values.items()}
    v_ = {k: np.zeros_like(v) for k, v in values.items()}
    for t, grads in enumerate(grad_steps, start=1):
        for name, p in values.items():
            g = grads[name]
            if weight_decay != 0.0:
                g = g + weight_decay * p
            m[name] *= b1
            m[name] += (1.0 - b1) * g
            v_[name] *= b2
            v_[name] += (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1 ** t)
            v_hat = v_[name] / (1.0 - b2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return values


@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_flat_adam_matches_per_parameter_update_bit_for_bit(weight_decay):
    rng = np.random.default_rng(4)
    shapes = {"W": (5, 3), "b": (3,), "s": (), "E": (4, 2)}
    start = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    steps = [{k: rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3) for k, shape in shapes.items()}
             for _ in range(6)]
    params = {k: Tensor(v.copy()) for k, v in start.items()}
    state = init_adam(params, lr=0.003, weight_decay=weight_decay)
    for grads in steps:
        adam_step(params, grads, state)
    expected = reference_adam(start, steps, 0.003, weight_decay)
    for name, p in params.items():
        assert p.value.shape == shapes[name]
        np.testing.assert_array_equal(p.value, expected[name], err_msg=name)


def test_adam_rejects_a_parameter_rebound_after_init():
    params = {"w": Tensor(np.ones(2))}
    state = init_adam(params)
    params["w"].value = np.ones(2)
    with pytest.raises(ValueError, match="'w'"):
        adam_step(params, {"w": np.ones(2)}, state)


def test_adam_step_allocates_nothing_as_long_as_the_parameters():
    # about 70k parameters, the size of the default recipe on the demo table
    rng = np.random.default_rng(5)
    shapes = {"W0": (111, 400), "b0": (400,), "W1": (400, 64), "E": (4, 50)}
    params = {k: Tensor(rng.normal(size=shape)) for k, shape in shapes.items()}
    grads = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    state = init_adam(params, weight_decay=0.01)
    adam_step(params, grads, state)
    tracemalloc.start()
    try:
        adam_step(params, grads, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.flat.size > 70_000
    assert peak < state.flat.nbytes


# -- rng ------------------------------------------------------------------

def test_rng_same_seed_same_stream():
    np.testing.assert_array_equal(Rng(9).normal(10), Rng(9).normal(10))


def test_rng_derive_is_deterministic_and_distinct():
    a = Rng(9).derive(3).normal(4)
    b = Rng(9).derive(3).normal(4)
    c = Rng(9).derive(4).normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def numpy_state(seed, keys=None):
    seq = (np.random.SeedSequence(seed) if keys is None
           else np.random.SeedSequence(entropy=seed, spawn_key=tuple(keys)))
    return np.random.PCG64(seq).state


SEEDS = [0, 1, 5001, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 96 + 12345]


@pytest.mark.parametrize("seed", SEEDS)
def test_rng_seeds_exactly_as_numpy_seed_sequence(seed):
    assert Rng(seed).gen.bit_generator.state == numpy_state(seed)
    for keys in [(0,), (3, 2, 1), (2 ** 33, 0), (7, 2 ** 64 + 3, 9)]:
        assert Rng(seed).derive(*keys).gen.bit_generator.state == numpy_state(seed, keys)


def test_rng_derive_nests_spawn_keys():
    nested = Rng(5).derive(1).derive(2)
    assert nested.gen.bit_generator.state == numpy_state(5, (1, 2))
    assert nested.gen.bit_generator.state != Rng(5).derive(2).gen.bit_generator.state
    np.testing.assert_array_equal(nested.normal(4), Rng(5).derive(1, 2).normal(4))


@pytest.mark.parametrize("make", [
    lambda: Rng(-1),
    lambda: Rng(3).derive(-2),
    lambda: Rng(3).derive(1, -1),
])
def test_rng_rejects_negative_seeds_keys_and_wide_rows(make):
    with pytest.raises(ValueError):
        make()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_softmax_outputs_probability_simplex(seed, cols):
    x = np.random.default_rng(seed).normal(size=(3, cols)) * 20
    p = softmax(x, axis=1)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
