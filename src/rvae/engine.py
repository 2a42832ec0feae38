"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar (or seeding a vector output) walks the tape in
reverse topological order and accumulates gradients into every reachable
node.  Only the operations the models need are provided.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "add",
    "sub",
    "mul",
    "neg",
    "exp",
    "log",
    "relu",
    "sigmoid",
    "softplus",
    "clip",
    "gaussian_params",
    "gaussian_latent",
    "matmul",
    "dense",
    "onehot_dense",
    "fold_weight",
    "tsum",
    "tmean",
    "reshape",
    "concat",
    "slice_cols",
    "column",
    "take_rows",
    "gather_cols",
    "permute_cols",
    "log_softmax",
    "block_softmax",
    "block_log_probs",
    "block_log_softmax_at",
]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A node on the tape: value, accumulated gradient, backward closure."""

    __slots__ = ("value", "grad", "_parents", "_bw")

    def __init__(self, value, parents=(), bw=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = parents
        self._bw = bw

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def _acc(self, g: np.ndarray) -> None:
        """Add one gradient contribution.

        The first contribution becomes ``grad`` as is, without a copy, and
        later ones rebind ``grad`` to ``grad + g``. A contribution whose
        shape differs is broadcast to the value's shape first. Since no
        gradient array is ever written in place, ``grad`` may share memory
        with the contribution it came from (a view of the consumer's
        gradient, or the same array): read it, never modify it.
        """
        if g.shape != self.value.shape:
            g = np.broadcast_to(g, self.value.shape)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self, seed=None) -> None:
        """Run reverse-mode accumulation from this node.

        `seed` defaults to 1.0 and is only optional for scalar outputs; a
        caller's seed is copied, so the caller's array is never aliased.
        Gradients of every node reachable from here are reset first, so
        repeated calls do not accumulate across tapes.
        """
        if seed is None:
            if self.value.ndim != 0:
                raise ValueError("backward() without a seed requires a scalar output")
            seed = 1.0
        seed = np.array(seed, dtype=np.float64)
        if seed.shape != self.value.shape:
            raise ValueError(f"seed shape {seed.shape} does not match output shape {self.value.shape}")
        order = self._topo()
        for node in order:
            node.grad = None
        self._acc(seed)
        for node in reversed(order):
            if node._bw is not None and node.grad is not None:
                node._bw(node.grad)

    def _topo(self) -> list["Tensor"]:
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return order

    def __repr__(self):
        return f"Tensor(shape={self.value.shape})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


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


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (plain ndarray in and out)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
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


def gaussian_params(v: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split (B, 2K) Gaussian parameters into the mean (a view), the log
    std clipped to [lo, hi], and the std."""
    k = v.shape[1] // 2
    log_sigma = np.clip(v[:, k:], lo, hi)
    return v[:, :k], log_sigma, np.exp(log_sigma)


def gaussian_latent(a: Tensor, eps: np.ndarray, lo: float, hi: float) -> Tensor:
    """A reparameterised Gaussian latent and its KL to N(0, I), as one node.

    ``a`` (B, 2K) holds the means, then the log stds, which are clipped to
    [lo, hi] (with :func:`clip`'s gradient). The (B, K + 1) value holds
    ``z = mu + sigma * eps`` in its first K columns and
    ``KL(N(mu, sigma^2) || N(0, I))`` per row in the last; read them with
    :func:`slice_cols` and :func:`column`. Forward and backward make the
    numpy operations of the slice -> clip -> exp -> add/mul chain in the
    same order, so values and gradients match it bit for bit.
    """
    mu, log_sigma, sigma = gaussian_params(a.value, lo, hi)
    k = mu.shape[1]
    val = np.empty((mu.shape[0], k + 1))
    np.add(mu, sigma * eps, out=val[:, :k])
    kl = (mu * mu + sigma * sigma - 1.0 - log_sigma * 2.0).sum(axis=1)
    np.multiply(kl, 0.5, out=val[:, k])
    out = Tensor(val, (a,))

    def bw(g):
        g_z, g_kl = g[:, :k], (g[:, k] * 0.5)[:, None]
        grad = np.empty_like(a.value)
        # the z path first, then the two factors of each square
        g_sq = g_kl * mu
        np.add(g_z + g_sq, g_sq, out=grad[:, :k])
        g_sq = g_kl * sigma
        g_sigma = g_z * eps + g_sq
        g_sigma += g_sq
        g_log_sigma = g_sigma * sigma
        g_log_sigma += -g_kl * 2.0
        # the clip passes the gradient where it left its input unchanged
        np.multiply(g_log_sigma, log_sigma == a.value[:, k:], out=grad[:, k:])
        a._acc(grad)

    out._bw = bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    out = Tensor(a.value @ b.value, (a, b))

    def bw(g):
        a._acc(g @ b.value.T)
        b._acc(a.value.T @ g)

    out._bw = bw
    return out


def _relu_mask(val: np.ndarray) -> np.ndarray:
    # as a float array: multiplying by it gives the bits a boolean mask
    # gives (False becomes 0.0), without the slower mixed-type loop
    return (val > 0.0).astype(np.float64)


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """One affine layer ``x @ w + b``, with an optional ReLU, as one node.

    Forward and backward make the numpy operations of the matmul -> add ->
    relu chain in the same order, so values and gradients match it bit for
    bit.
    """
    x = _wrap(x)
    val = x.value @ w.value
    val += b.value
    if relu:
        np.maximum(val, 0.0, out=val)
    out = Tensor(val, (x, w, b))

    def bw(g):
        if relu:
            g = g * _relu_mask(val)
        w._acc(x.value.T @ g)
        b._acc(g.sum(axis=0))
        x._acc(g @ w.value.T)

    out._bw = bw
    return out


def fold_weight(w: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """The weight a layer applies to a one-hot-coded input.

    ``w`` (n_lead + sum d_j, H) holds a leading block for the plain input
    columns, then one (d_j, H) block ``w_j`` per (C_j, d_j) table. The
    result (n_lead + sum C_j, H) keeps the leading block and replaces each
    ``w_j`` by ``table_j @ w_j``, so a one-hot code of category c times its
    block equals ``table_j[c] @ w_j``.
    """
    if not tables:
        return w
    row = w.shape[0] - sum(t.shape[1] for t in tables)
    parts = [w[:row]]
    for t in tables:
        parts.append(t @ w[row:row + t.shape[1]])
        row += t.shape[1]
    return np.concatenate(parts, axis=0)


def onehot_dense(x: np.ndarray, w: Tensor, b: Tensor, tables: list[Tensor],
                 relu: bool = False) -> Tensor:
    """A dense layer whose input rows look categories up in ``tables``, as one node.

    ``x`` (B, n_lead + sum C_j) is a plain array: n_lead plain columns,
    then per table a block of C_j columns holding a one-hot code (or
    zeros, for an input row of zeros). It stands for the layer input
    ``[x_lead | table_0[c_0] | ...]`` of a layer with weight ``w`` and bias
    ``b``; the product runs against :func:`fold_weight`, rebuilt on every
    call from the current tables. Gradients flow into ``w``, ``b`` and the
    tables, not into ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    values = [t.value for t in tables]
    folded = fold_weight(w.value, values)
    if x.ndim != 2 or x.shape[1] != folded.shape[0]:
        raise ValueError(f"input width {x.shape[-1]} does not match the folded weight "
                         f"({folded.shape[0]} rows)")
    val = x @ folded
    val += b.value
    if relu:
        np.maximum(val, 0.0, out=val)
    out = Tensor(val, (w, b, *tables))

    def bw(g):
        if relu:
            g = g * _relu_mask(val)
        d_folded = x.T @ g
        dw = np.empty_like(w.value)
        row = col = w.shape[0] - sum(v.shape[1] for v in values)
        dw[:row] = d_folded[:row]
        for t, v in zip(tables, values):
            block, w_j = d_folded[col:col + v.shape[0]], w.value[row:row + v.shape[1]]
            dw[row:row + v.shape[1]] = v.T @ block
            t._acc(block @ w_j.T)
            row += v.shape[1]
            col += v.shape[0]
        w._acc(dw)
        b._acc(g.sum(axis=0))

    out._bw = bw
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


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(np.concatenate([t.value for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, stop)
            t._acc(g[tuple(idx)])

    out._bw = bw
    return out


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.value.ndim != 2:
        raise ValueError("slice_cols expects a 2-D tensor")
    out = Tensor(a.value[:, start:stop], (a,))

    def bw(g):
        buf = np.zeros_like(a.value)
        buf[:, start:stop] = g
        a._acc(buf)

    out._bw = bw
    return out


def column(a: Tensor, j: int) -> Tensor:
    """Column j of a 2-D tensor, (B, C) -> (B,)."""
    out = Tensor(a.value[:, j], (a,))

    def bw(g):
        buf = np.zeros_like(a.value)
        buf[:, j] = g
        a._acc(buf)

    out._bw = bw
    return out


def take_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Row gather, e.g. embedding lookup: (C, d)[idx] -> (B, d)."""
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.value[idx], (a,))

    def bw(g):
        buf = np.zeros_like(a.value)
        np.add.at(buf, idx, g)
        a._acc(buf)

    out._bw = bw
    return out


def gather_cols(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one column per row: (B, C), (B,) -> (B,)."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(a.value.shape[0])
    out = Tensor(a.value[rows, idx], (a,))

    def bw(g):
        # one pick per row, so no (row, column) pair repeats: plain assignment
        buf = np.zeros_like(a.value)
        buf[rows, idx] = g
        a._acc(buf)

    out._bw = bw
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


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log softmax of a 2-D tensor, stabilized by max subtraction."""
    x = a.value
    m = x.max(axis=1, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    val = shifted - lse
    out = Tensor(val, (a,))

    def bw(g):
        p = np.exp(val)
        a._acc(g - p * g.sum(axis=1, keepdims=True))

    out._bw = bw
    return out


def _block_starts(sizes: list[int]) -> np.ndarray:
    """First column of each of the consecutive blocks of widths ``sizes``."""
    return np.cumsum([0] + list(sizes[:-1]))


def _block_exp(x: np.ndarray, sizes: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponentials within consecutive column blocks of a 2-D array.

    The blocks have widths ``sizes`` and tile ``x``; each is shifted by its
    row maximum before exponentiating. Returns the shifted values, their
    exponentials and each block's sum of exponentials (B, n_blocks).
    """
    starts = _block_starts(sizes)
    shifted = x - np.repeat(np.maximum.reduceat(x, starts, axis=1), sizes, axis=1)
    e = np.exp(shifted)
    return shifted, e, np.add.reduceat(e, starts, axis=1)


def block_softmax(x: np.ndarray, sizes: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise softmax within consecutive column blocks of a 2-D array.

    Returns :func:`_block_exp`'s shifted values and block sums, and the
    probabilities.
    """
    shifted, e, sums = _block_exp(x, sizes)
    return shifted, sums, e / np.repeat(sums, sizes, axis=1)


def block_log_probs(x: np.ndarray, sizes: list[int], idx: np.ndarray):
    """Values and gradient of :func:`block_log_softmax_at` on a plain array.

    ``x`` (B, sum sizes) holds the blocks. Returns the (B, n_blocks) log
    probabilities at ``idx`` and a function ``grad(g, out)`` that writes
    their gradient for the upstream gradient ``g`` into ``out`` (shaped
    like ``x``). The probabilities are built only when ``grad`` runs.
    """
    idx = np.asarray(idx, dtype=np.int64)
    shifted, e, sums = _block_exp(x, sizes)
    rows = np.arange(idx.shape[0])[:, None]
    cols = _block_starts(sizes) + idx

    def grad(g, out):
        np.multiply(np.repeat(-g, sizes, axis=1), e / np.repeat(sums, sizes, axis=1), out=out)
        # blocks are disjoint, so no (row, column) pair repeats
        out[rows, cols] += g

    return shifted[rows, cols] - np.log(sums), grad


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
