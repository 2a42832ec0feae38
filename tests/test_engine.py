"""The engine's nodes and the reference tape's one-op nodes against finite
differences, and each fused node against the one-op chain it stands for."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvae import engine
from rvae.engine import Tensor
from rvae.model import kl_bernoulli

import reference_tape as tape


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
    out = tape.tsum(build(t))
    out.backward(1.0)
    numeric = fd_scalar(lambda: tape.tsum(build(Tensor(x))).value, x)
    np.testing.assert_allclose(t.grad, numeric, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("build", [
    lambda t: tape.exp(t),
    lambda t: tape.log(tape.add(tape.mul(t, t), 1.0)),
    lambda t: tape.relu(t),
    lambda t: tape.sigmoid(t),
    lambda t: tape.softplus(t),
    lambda t: tape.mul(t, tape.exp(tape.neg(t))),
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
    out = tape.tsum(engine.matmul(a, b))
    out.backward(1.0)
    np.testing.assert_allclose(a.grad, fd_scalar(lambda: (a_val @ b_val).sum(), a_val), atol=1e-7)
    np.testing.assert_allclose(b.grad, fd_scalar(lambda: (a_val @ b_val).sum(), b_val), atol=1e-7)


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        engine.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_take_rows_scatters_gradient():
    e = Tensor(np.arange(12.0).reshape(4, 3))
    idx = np.array([1, 1, 3])
    out = tape.tsum(engine.take_rows(e, idx))
    out.backward(1.0)
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(e.grad, expected)


def test_gather_cols_scatters_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    out = tape.tsum(engine.gather_cols(x, np.array([2, 0])))
    out.backward(1.0)
    np.testing.assert_array_equal(x.grad, [[0, 0, 1], [1, 0, 0]])
    assert out.value == 5.0


def test_gather_cols_gradient_matches_add_at_with_repeated_columns():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(6, 4)))
    idx = np.array([2, 2, 0, 3, 2, 0])  # columns repeat across rows
    weights = rng.normal(size=6)
    tape.tsum(tape.mul(engine.gather_cols(x, idx), weights)).backward(1.0)
    expected = np.zeros((6, 4))
    np.add.at(expected, (np.arange(6), idx), weights)
    np.testing.assert_array_equal(x.grad, expected)


def test_concat_splits_gradient():
    a, b = Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3)))
    out = tape.tsum(tape.mul(engine.concat([a, b], axis=1), np.arange(10.0).reshape(2, 5)))
    out.backward(1.0)
    np.testing.assert_array_equal(a.grad, [[0, 1], [5, 6]])
    np.testing.assert_array_equal(b.grad, [[2, 3, 4], [7, 8, 9]])


def test_clip_blocks_gradient_outside_range():
    x = Tensor(np.array([-2.0, 0.5, 3.0]))
    out = tape.tsum(tape.clip(x, -1.0, 1.0))
    out.backward(1.0)
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_broadcast_add_unbroadcasts():
    a, b = Tensor(np.ones((3, 2))), Tensor(np.ones(2))
    tape.tsum(tape.add(a, b)).backward(1.0)
    np.testing.assert_array_equal(b.grad, [3.0, 3.0])


def test_backward_requires_a_seed_of_the_output_shape():
    t = Tensor(np.ones(3))
    with pytest.raises(TypeError):
        t.backward()
    with pytest.raises(ValueError):
        t.backward(1.0)
    t2 = tape.mul(Tensor(np.ones(3)), 2.0)
    t2.backward(seed=np.ones(3))
    # the root keeps the seed it was given, though it is an inner node's kind
    np.testing.assert_array_equal(t2.grad, np.ones(3))


def test_repeated_backward_resets_gradients():
    x = Tensor(np.array(2.0))
    out = tape.mul(x, 3.0)
    out.backward(1.0)
    first = x.grad.copy()
    out.backward(1.0)
    np.testing.assert_array_equal(x.grad, first)


def test_repeated_backward_through_shared_nodes_gives_equal_gradients():
    w = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
    w.grad_buffer = np.zeros_like(w.value)  # as init_adam gives a parameter
    x = Tensor(np.ones((2, 3)))
    h = engine.matmul(x, w)
    left, right = engine.slice_cols(h, 0, 2), engine.slice_cols(h, 1, 3)
    prod = tape.mul(left, right)
    out = tape.tsum(prod)
    out.backward(1.0)
    first = {"w": w.grad.copy(), "x": x.grad.copy()}
    # backward drops every inner node's gradient once its closure has run;
    # the leaves and the root keep theirs, a parameter's in its buffer
    for inner in (h, left, right, prod):
        assert inner.grad is None
    assert w.grad is w.grad_buffer
    assert x.grad is not None
    np.testing.assert_array_equal(out.grad, 1.0)
    out.backward(1.0)
    for inner in (h, left, right, prod):
        assert inner.grad is None
    assert w.grad is w.grad_buffer
    np.testing.assert_array_equal(w.grad, first["w"])
    np.testing.assert_array_equal(x.grad, first["x"])


def test_shared_node_accumulates_gradient():
    x = Tensor(np.array(1.5))
    out = tape.add(tape.mul(x, x), x)  # x^2 + x, derivative 2x + 1
    out.backward(1.0)
    assert float(x.grad) == pytest.approx(4.0, abs=1e-12)


def test_node_used_twice_in_one_op_gets_summed_gradient():
    a = Tensor(np.array([1.0, -2.0, 3.0]))
    tape.tsum(tape.add(a, a)).backward(1.0)
    np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    tape.tsum(tape.mul(x, x)).backward(1.0)
    np.testing.assert_array_equal(x.grad, [2.0, -4.0, 6.0])


def test_node_feeding_several_slices_gets_summed_gradient():
    h = Tensor(np.arange(8.0).reshape(2, 4))
    parts = [engine.slice_cols(h, 0, 3), engine.slice_cols(h, 1, 4), engine.slice_cols(h, 2, 3)]
    tape.tsum(engine.concat(parts, axis=1)).backward(1.0)
    np.testing.assert_array_equal(h.grad, [[1, 2, 3, 1], [1, 2, 3, 1]])


def test_backward_leaves_the_seed_unchanged():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    out = tape.add(tape.add(x, x), 0.0)
    seed = np.array([0.5, -1.0, 2.0])
    kept = seed.copy()
    out.backward(seed=seed)
    np.testing.assert_array_equal(seed, kept)
    np.testing.assert_array_equal(x.grad, 2 * kept)
    assert not np.shares_memory(x.grad, seed)


def test_permute_cols_routes_gradient_back():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    out = tape.permute_cols(a, np.array([2, 0, 1]))
    np.testing.assert_array_equal(out.value, [[2, 0, 1], [5, 3, 4]])
    tape.tsum(tape.mul(out, np.array([10.0, 20.0, 30.0]))).backward(1.0)
    np.testing.assert_array_equal(a.grad, [[20, 30, 10], [20, 30, 10]])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_log_softmax_rows_normalize(seed):
    x = np.random.default_rng(seed).normal(size=(3, 4)) * 10
    out = engine.log_softmax(Tensor(x)).value
    np.testing.assert_allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)


def test_kl_bernoulli_from_logits_matches_value_form():
    logits = Tensor(np.array([[-3.0, 0.0, 2.5, 40.0, -40.0]]))
    alpha = 0.9
    kl = tape.kl_bernoulli_from_logits(logits, alpha)
    direct = kl_bernoulli(engine.stable_sigmoid(logits.value), alpha)
    np.testing.assert_allclose(kl.value, direct, atol=1e-9)
    tape.tsum(kl).backward(1.0)
    assert np.all(np.isfinite(logits.grad))


# -- fused ops ----------------------------------------------------------------

def weighted_sum(out, seed):
    """A scalar loss whose upstream gradient differs per output entry."""
    weights = np.random.default_rng(seed).normal(size=out.shape)
    return tape.tsum(tape.mul(out, weights))


@pytest.mark.parametrize("relu", [False, True])
def test_dense_matches_matmul_add_relu_chain_exactly(relu):
    rng = np.random.default_rng(20)
    x_val, w_val, b_val = rng.normal(size=(6, 5)), rng.normal(size=(5, 4)), rng.normal(size=4)
    fused = [Tensor(x_val.copy()), Tensor(w_val.copy()), Tensor(b_val.copy())]
    chain = [Tensor(x_val.copy()), Tensor(w_val.copy()), Tensor(b_val.copy())]
    out_fused = engine.dense(*fused, relu=relu)
    out_chain = tape.add(engine.matmul(chain[0], chain[1]), chain[2])
    if relu:
        out_chain = tape.relu(out_chain)
    np.testing.assert_array_equal(out_fused.value, out_chain.value)
    weighted_sum(out_fused, 21).backward(1.0)
    weighted_sum(out_chain, 21).backward(1.0)
    for f, c in zip(fused, chain):
        np.testing.assert_array_equal(f.grad, c.grad)


def onehot_input(lead, codes, sizes, zero_mask=None):
    """[lead | onehot(codes[:, 0]) | ...] with masked blocks left at zero."""
    n = codes.shape[0]
    x = np.zeros((n, lead.shape[1] + sum(sizes)))
    x[:, :lead.shape[1]] = lead
    col = lead.shape[1]
    for j, size in enumerate(sizes):
        keep = np.ones(n, bool) if zero_mask is None else ~zero_mask[:, j]
        x[np.arange(n)[keep], col + codes[keep, j]] = 1.0
        col += size
    return x


def embedded_chain(lead, codes, w, b, tables, zero_mask, relu):
    """The layer on the concatenated embeddings: [lead | E_0[c_0] | ...] @ w + b."""
    parts = [Tensor(lead)] if lead.shape[1] else []
    for j, t in enumerate(tables):
        emb = engine.take_rows(t, codes[:, j])
        if zero_mask is not None:
            emb = tape.mul(emb, (~zero_mask[:, j]).astype(float)[:, None])
        parts.append(emb)
    x = parts[0] if len(parts) == 1 else engine.concat(parts, axis=1)
    return engine.dense(x, w, b, relu=relu)


ONEHOT_CASES = {
    "mixed": (2, [3, 4], False),
    "zero-masked": (2, [3, 4], True),
    "no categoricals": (3, [], False),
    "no reals": (0, [2, 7], True),
}


@pytest.mark.parametrize("case", list(ONEHOT_CASES))
@pytest.mark.parametrize("relu", [False, True])
def test_onehot_dense_matches_concatenated_embeddings(case, relu):
    n_lead, sizes, masked = ONEHOT_CASES[case]
    rng = np.random.default_rng(30)
    dim, hidden, n = 5, 6, 8
    lead = rng.normal(size=(n, n_lead))
    codes = np.stack([rng.integers(0, c, size=n) for c in sizes], axis=1) if sizes \
        else np.zeros((n, 0), dtype=np.int64)
    zero_mask = rng.uniform(size=codes.shape) < 0.4 if masked else None
    w_val = rng.normal(size=(n_lead + dim * len(sizes), hidden))
    b_val = rng.normal(size=hidden)
    table_vals = [rng.normal(size=(c, dim)) for c in sizes]

    def params():
        return Tensor(w_val.copy()), Tensor(b_val.copy()), [Tensor(v.copy()) for v in table_vals]

    w1, b1, t1 = params()
    w2, b2, t2 = params()
    x = onehot_input(lead, codes, sizes, zero_mask)
    out_fold = engine.onehot_dense(x, w1, b1, t1, relu=relu)
    out_ref = embedded_chain(lead, codes, w2, b2, t2, zero_mask, relu)
    np.testing.assert_allclose(out_fold.value, out_ref.value, rtol=0, atol=1e-12)
    weighted_sum(out_fold, 31).backward(1.0)
    weighted_sum(out_ref, 31).backward(1.0)
    for f, r in zip([w1, b1, *t1], [w2, b2, *t2]):
        np.testing.assert_allclose(f.grad, r.grad, rtol=0, atol=1e-12)


def test_onehot_dense_rejects_a_mismatched_input_width():
    w, b = Tensor(np.zeros((2 + 3, 4))), Tensor(np.zeros(4))
    table = Tensor(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="does not match the folded weight"):
        engine.onehot_dense(np.zeros((1, 2 + 4)), w, b, [table])


def test_onehot_dense_gradients_accumulate_into_a_shared_table():
    # two layers reading one table (the encoder and the gate encoder)
    rng = np.random.default_rng(40)
    table = Tensor(rng.normal(size=(3, 2)))
    x = onehot_input(np.zeros((4, 0)), np.array([[0], [2], [2], [1]]), [3])
    layers = [(Tensor(rng.normal(size=(2, 5))), Tensor(np.zeros(5))) for _ in range(2)]
    grads = []
    for w, b in layers:
        weighted_sum(engine.onehot_dense(x, w, b, [table]), 41).backward(1.0)
        grads.append(table.grad)
    both = tape.add(engine.onehot_dense(x, *layers[0], [table]),
                    engine.onehot_dense(x, *layers[1], [table]))
    weighted_sum(both, 41).backward(1.0)
    np.testing.assert_allclose(table.grad, grads[0] + grads[1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("start", [0, 3])
def test_block_log_softmax_at_matches_per_block_chain(start):
    rng = np.random.default_rng(50)
    sizes, n = [2, 7], 6
    a_val = rng.normal(size=(n, start + sum(sizes))) * 3.0
    idx = np.stack([rng.integers(0, c, size=n) for c in sizes], axis=1)
    fused, chain = Tensor(a_val.copy()), Tensor(a_val.copy())
    out_fused = tape.block_log_softmax_at(fused, start, sizes, idx)
    cols, col = [], start
    for j, c in enumerate(sizes):
        ll = engine.gather_cols(engine.log_softmax(engine.slice_cols(chain, col, col + c)),
                                idx[:, j])
        cols.append(tape.reshape(ll, (n, 1)))
        col += c
    out_chain = engine.concat(cols, axis=1)
    np.testing.assert_allclose(out_fused.value, out_chain.value, rtol=0, atol=1e-12)
    weighted_sum(out_fused, 51).backward(1.0)
    weighted_sum(out_chain, 51).backward(1.0)
    np.testing.assert_allclose(fused.grad, chain.grad, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(fused.grad[:, :start], 0.0)


def test_block_softmax_blocks_sum_to_one():
    x = np.random.default_rng(60).normal(size=(5, 9)) * 10.0
    probs = engine.block_softmax(x, [2, 7])
    np.testing.assert_allclose(probs[:, :2].sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(probs[:, 2:].sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.log(probs[:, 2:]), engine.log_softmax(Tensor(x[:, 2:])).value,
                               atol=1e-12)


def fused_op_cases():
    rng = np.random.default_rng(70)
    x = Tensor(rng.normal(size=(4, 3)))
    w, b = Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=5))
    yield "dense", {"x": x, "w": w, "b": b}, lambda: engine.dense(x, w, b, relu=True)
    lead = rng.normal(size=(4, 2))
    codes = np.array([[0, 6], [1, 2], [1, 0], [0, 6]])
    mask = np.array([[False, False], [True, False], [False, True], [False, False]])
    xo = onehot_input(lead, codes, [2, 7], mask)
    wo, bo = Tensor(rng.normal(size=(2 + 2 * 3, 5))), Tensor(rng.normal(size=5))
    tables = [Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(7, 3)))]
    yield ("onehot_dense", {"w": wo, "b": bo, "t0": tables[0], "t1": tables[1]},
           lambda: engine.onehot_dense(xo, wo, bo, tables, relu=True))
    a = Tensor(rng.normal(size=(4, 1 + 2 + 7)))
    yield "block_log_softmax_at", {"a": a}, \
        lambda: tape.block_log_softmax_at(a, 1, [2, 7], codes)


@pytest.mark.parametrize("case", [c[0] for c in fused_op_cases()])
def test_fused_ops_match_finite_differences(case):
    from conftest import assert_grads_close, finite_difference

    _, params, build = next(c for c in fused_op_cases() if c[0] == case)
    weighted_sum(build(), 71).backward(1.0)
    analytic = {name: t.grad.copy() for name, t in params.items()}
    numeric = finite_difference(lambda: float(weighted_sum(build(), 71).value), params)
    assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-6)
