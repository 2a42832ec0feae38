"""The reference tape: one-op autodiff nodes over :class:`rvae.engine.Tensor`.

The models run fused nodes (:mod:`rvae.engine`, :func:`rvae.model.gated_rows`),
each of which makes the numpy operations of a chain of these one-op nodes
in the same order. Tests build those chains here and compare the fused
nodes against them bit for bit; ``conftest.reference_objective`` is the
whole training objective built this way.
"""

from __future__ import annotations

import math

import numpy as np

from rvae.engine import Tensor, _wrap, block_log_probs, stable_sigmoid


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value + b.value, (a, b))

    def bw(g):
        a._acc(_unbroadcast(g, a.value.shape))
        b._acc(_unbroadcast(g, b.value.shape))

    out._bw = bw
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value - b.value, (a, b))

    def bw(g):
        a._acc(_unbroadcast(g, a.value.shape))
        b._acc(-_unbroadcast(g, b.value.shape))

    out._bw = bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.value * b.value, (a, b))

    def bw(g):
        a._acc(_unbroadcast(g * b.value, a.value.shape))
        b._acc(_unbroadcast(g * a.value, b.value.shape))

    out._bw = bw
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.value, (a,))
    out._bw = lambda g: a._acc(-g)
    return out


def exp(a: Tensor) -> Tensor:
    val = np.exp(a.value)
    out = Tensor(val, (a,))
    # the closure holds the value, not `out`: a node that refers to itself
    # keeps its whole tape alive until the cycle collector runs
    out._bw = lambda g: a._acc(g * val)
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.value), (a,))
    out._bw = lambda g: a._acc(g / a.value)
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.value, 0.0), (a,))
    out._bw = lambda g: a._acc(g * (a.value > 0.0))
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = stable_sigmoid(a.value)
    out = Tensor(s, (a,))
    out._bw = lambda g: a._acc(g * s * (1.0 - s))
    return out


def softplus(a: Tensor) -> Tensor:
    out = Tensor(np.logaddexp(0.0, a.value), (a,))
    out._bw = lambda g: a._acc(g * stable_sigmoid(a.value))
    return out


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    # gradient passes inside [lo, hi] and is zero outside, like torch.clamp
    out = Tensor(np.clip(a.value, lo, hi), (a,))
    out._bw = lambda g: a._acc(g * ((a.value >= lo) & (a.value <= hi)))
    return out


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = Tensor(a.value.sum(axis=axis, keepdims=keepdims), (a,))

    def bw(g):
        # _acc broadcasts the reduced gradient back to a's shape
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._acc(g)

    out._bw = bw
    return out


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.value.size if axis is None else a.value.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.value.reshape(shape), (a,))
    out._bw = lambda g: a._acc(g.reshape(a.value.shape))
    return out


def permute_cols(a: Tensor, order: np.ndarray) -> Tensor:
    """Reorder the columns of a 2-D tensor: out[:, i] = a[:, order[i]].

    ``order`` must be a permutation, so the backward pass is a plain index
    with the inverse permutation.
    """
    order = np.asarray(order, dtype=np.int64)
    inverse = np.argsort(order)
    out = Tensor(a.value[:, order], (a,))
    out._bw = lambda g: a._acc(g[:, inverse])
    return out


def block_log_softmax_at(a: Tensor, start: int, sizes: list[int], idx: np.ndarray) -> Tensor:
    """Log softmax within column blocks, at one column per block and row.

    Columns ``start:`` of the 2-D tensor ``a`` form consecutive blocks of
    widths ``sizes``; ``idx`` (B, n_blocks) holds one position within each
    block per row. Returns the (B, n_blocks) log probabilities at those
    positions. Backward, per block: ``g * (onehot(idx) - softmax)``.
    """
    val, grad = block_log_probs(a.value[:, start:], sizes, idx)
    out = Tensor(val, (a,))

    def bw(g):
        buf = np.zeros_like(a.value)
        grad(g, buf[:, start:])
        a._acc(buf)

    out._bw = bw
    return out


def kl_bernoulli_from_logits(logits: Tensor, alpha: float) -> Tensor:
    """Per-cell KL(Bernoulli(sigmoid(w)) || Bernoulli(alpha)) on the tape.

    Uses log pi = -softplus(-w) and log(1 - pi) = -softplus(w) so saturated
    gates stay finite under differentiation.
    """
    pi = sigmoid(logits)
    log_pi = neg(softplus(neg(logits)))
    log_1m = neg(softplus(logits))
    t1 = mul(pi, sub(log_pi, math.log(alpha)))
    t2 = mul(sub(_wrap(1.0), pi), sub(log_1m, math.log(1.0 - alpha)))
    return add(t1, t2)
