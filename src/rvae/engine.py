"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar (or seeding a vector output) walks the tape in
reverse topological order and accumulates gradients into every reachable
node.

The module holds the nodes the models run. Most are fused: one node makes
the numpy operations of a chain of one-op nodes in the same order, so it
matches that chain bit for bit; the one-op nodes are the tests' reference
tape, ``tests/reference_tape.py``. :func:`matmul`, :func:`concat`,
:func:`take_rows`, :func:`gather_cols` and :func:`log_softmax` stay although
no model runs them: the benchmark tracer (``bench/tracing.py``) hooks them
by name, and they can move once it hooks the fused nodes instead.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "stable_sigmoid",
    "gaussian_params",
    "gaussian_latent",
    "dense",
    "onehot_dense",
    "slice_cols",
    "column",
    "block_softmax",
    "block_log_probs",
    # hooked by the benchmark tracer; no model calls them
    "matmul",
    "concat",
    "take_rows",
    "gather_cols",
    "log_softmax",
]


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


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (plain ndarray in and out)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
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
    [lo, hi] (the gradient passes only where the clip left them). The
    (B, K + 1) value holds
    ``z = mu + sigma * eps`` in its first K columns and
    ``KL(N(mu, sigma^2) || N(0, I))`` per row in the last; read them with
    :func:`slice_cols` and :func:`column`. Forward and backward make the
    numpy operations of the reference tape's slice -> clip -> exp ->
    add/mul chain in the same order, so values and gradients match it bit
    for bit.
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


def _fold_weight(w: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
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
    ``b``; the product runs against :func:`_fold_weight`, rebuilt on every
    call from the current tables. Gradients flow into ``w``, ``b`` and the
    tables, not into ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    values = [t.value for t in tables]
    folded = _fold_weight(w.value, values)
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
    """Log softmax within column blocks, at one column per block and row.

    ``x`` (B, sum sizes) holds consecutive blocks of widths ``sizes``;
    ``idx`` (B, n_blocks) holds one position within each block per row.
    Returns the (B, n_blocks) log probabilities at ``idx`` and a function
    ``grad(g, out)`` that writes their gradient for the upstream gradient
    ``g`` into ``out`` (shaped like ``x``), per block ``g * (onehot(idx) -
    softmax)``. The probabilities are built only when ``grad`` runs.
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


