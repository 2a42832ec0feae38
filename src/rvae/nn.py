"""Dense feed-forward networks, Adam, and seeded random streams.

Everything runs in float64 on the tape from :mod:`rvae.engine`, so every
network used by the models is checkable against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import Tensor
from .errors import TrainingError

ACTIVATIONS = ("relu", "identity")


# numpy's SeedSequence hash (pool size 4), from numpy/random/bit_generator.pyx
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _uint32_words(n: int) -> list[int]:
    """A non-negative integer as little-endian 32-bit words, as SeedSequence splits it."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _pcg64_states(entropy: list) -> np.ndarray:
    """``SeedSequence(...).generate_state(4, np.uint64)`` for many sequences at once.

    ``entropy`` is the assembled entropy, one entry per 32-bit word; each
    entry is an int shared by every sequence or a uint32 array with one
    word per sequence. The hash constants evolve independently of the
    data, so one pass reproduces numpy word for word: shared words are
    hashed once as Python ints, per-sequence words as arrays.
    Returns an (n, 4) uint64 array.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        out = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return out ^ (out >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ (value >> 16))
    # a word that varies per sequence reaches every pool entry, so the state
    # words are either all ints or all arrays of one length
    words = np.array(state, dtype=np.uint32).reshape(8, -1).T
    # word pairs are little-endian uint64s, whatever the host byte order
    return words.astype("<u4", order="C").view("<u8").astype(np.uint64)


def _spawn_entropy(seed: int, keys: list) -> list:
    """SeedSequence(entropy=seed, spawn_key=keys)'s assembled entropy: the
    seed's words, zero-padded to the pool size when there is a spawn key,
    then the keys' words."""
    words = _uint32_words(seed)
    if keys and len(words) < _POOL_SIZE:
        words += [0] * (_POOL_SIZE - len(words))
    return words + list(keys)


class _PrecomputedSeed(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the state words a SeedSequence would have generated."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed only serves PCG64's 4 uint64 words")
        return self.words


class Rng:
    """Seeded PCG64 stream; identical seed means identical sample stream.

    Streams are seeded exactly as ``PCG64(SeedSequence(seed))`` and, for
    children, ``PCG64(SeedSequence(entropy=seed, spawn_key=keys))``.
    """

    def __init__(self, seed: int, _state: np.ndarray | None = None):
        self.seed = int(seed)
        if _state is None:
            _state = _pcg64_states(_spawn_entropy(self.seed, []))[0]
        self.gen = np.random.Generator(np.random.PCG64(_PrecomputedSeed(_state)))

    def derive(self, *keys: int) -> "Rng":
        """Independent child stream keyed by (seed, *keys)."""
        words = [w for k in keys for w in _uint32_words(k)]
        state = _pcg64_states(_spawn_entropy(self.seed, words))[0]
        return Rng(self.seed, _state=state)

    def derive_rows(self, rows: np.ndarray) -> list["Rng"]:
        """One child stream per row id, equal stream for stream to
        ``[self.derive(int(r)) for r in rows]``; row ids must lie in [0, 2**32)."""
        rows = np.asarray(rows)
        if rows.size == 0:
            return []
        if rows.min() < 0 or rows.max() > _MASK32:
            raise ValueError("row ids must lie in [0, 2**32)")
        states = _pcg64_states(_spawn_entropy(self.seed, [rows.astype(np.uint32)]))
        return [Rng(self.seed, _state=s) for s in states]

    def normal(self, size=None, out: np.ndarray | None = None) -> np.ndarray:
        return self.gen.standard_normal(size, out=out)

    def uniform(self, size=None, out: np.ndarray | None = None) -> np.ndarray:
        return self.gen.random(size, out=out)

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size=size)


@dataclass
class Layer:
    W: Tensor
    b: Tensor
    activation: str


class DenseNet:
    """A plain MLP: affine layers with ReLU or identity activations."""

    def __init__(self, sizes: list[int], activations: list[str], rng: Rng | None = None, name: str = "net"):
        if len(activations) != len(sizes) - 1:
            raise ValueError("need one activation per layer")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation: {act}")
        self.name = name
        self.layers: list[Layer] = []
        for i, (n_in, n_out, act) in enumerate(zip(sizes[:-1], sizes[1:], activations)):
            if rng is None:
                w = np.zeros((n_in, n_out))
            else:
                # He-style scaling for ReLU layers, LeCun-style otherwise
                scale = np.sqrt((2.0 if act == "relu" else 1.0) / n_in)
                w = rng.normal((n_in, n_out)) * scale
            self.layers.append(Layer(Tensor(w), Tensor(np.zeros(n_out)), act))

    @property
    def n_inputs(self) -> int:
        return self.layers[0].W.value.shape[0]

    def apply(self, x: Tensor | np.ndarray, tables: list[Tensor] | None = None) -> Tensor:
        """Tape-through forward, one :func:`engine.dense` node per layer.

        ``x`` is a (B, n_inputs) tensor or, with ``tables``, a plain
        one-hot-coded array that the first layer reads through
        :func:`engine.onehot_dense`.
        """
        if tables is None and x.shape[-1] != self.n_inputs:
            raise ValueError(f"input length {x.shape[-1]} does not match first layer ({self.n_inputs})")
        out = x
        for i, layer in enumerate(self.layers):
            relu = layer.activation == "relu"
            if i == 0 and tables is not None:
                out = engine.onehot_dense(x, layer.W, layer.b, tables, relu)
            else:
                out = engine.dense(out, layer.W, layer.b, relu)
        return out

    def params(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            out[f"{self.name}.W{i}"] = layer.W
            out[f"{self.name}.b{i}"] = layer.b
        return out


@dataclass
class AdamState:
    """Adam hyperparameters plus flat parameter, gradient and moment buffers.

    :func:`init_adam` copies every parameter into the one float64 buffer
    ``flat`` and rebinds each parameter tensor's value to a view of it, so
    one vectorised update moves all parameters. ``grad``, ``m``, ``v`` and
    ``scratch`` are flat buffers of the same length, and ``finite`` a
    boolean one, reused by every step; the parameter ``names[i]`` owns
    ``flat[offsets[i]:offsets[i + 1]]``.
    """

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    names: list[str] = field(default_factory=list)
    offsets: list[int] = field(default_factory=lambda: [0])
    flat: np.ndarray = field(default_factory=lambda: np.zeros(0))
    grad: np.ndarray = field(default_factory=lambda: np.zeros(0))
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scratch: np.ndarray = field(default_factory=lambda: np.zeros(0))
    finite: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))


def init_adam(params: dict[str, Tensor], lr: float = 0.001, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0) -> AdamState:
    """Fresh optimizer state; rebinds every parameter's value to a view of
    the state's flat buffer (the values themselves do not change)."""
    offsets = np.cumsum([0] + [p.value.size for p in params.values()]).tolist()
    flat = np.concatenate([p.value.ravel() for p in params.values()] + [np.zeros(0)])
    for p, start, stop in zip(params.values(), offsets[:-1], offsets[1:]):
        p.value = flat[start:stop].reshape(p.value.shape)
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay,
                     names=list(params), offsets=offsets, flat=flat, grad=np.zeros_like(flat),
                     m=np.zeros_like(flat), v=np.zeros_like(flat),
                     scratch=np.zeros_like(flat), finite=np.zeros(flat.size, dtype=bool))


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter tensors.

    ``params`` must be the dict the state was initialised with. A missing
    gradient counts as zero. L2 decay is applied as a gradient addition
    weight_decay * param before the moment updates (the classic
    optimizer-level weight decay). Each elementwise operation is the one
    a per-parameter update makes, in the same order, so results match it
    bit for bit. Every intermediate goes to the state's own buffers, so a
    step allocates no array as long as the parameters.
    """
    if list(params) != state.names:
        raise ValueError("parameters differ from those the optimizer was initialised with")
    g = state.grad
    for name, p, start, stop in zip(state.names, params.values(), state.offsets[:-1],
                                    state.offsets[1:]):
        if p.value.base is not state.flat:
            raise ValueError(f"parameter '{name}' is no longer a view of the optimizer buffer")
        grad = grads.get(name)
        if grad is not None and grad.shape != p.value.shape:
            raise ValueError(f"gradient shape mismatch for '{name}'")
        g[start:stop].reshape(p.value.shape)[...] = 0.0 if grad is None else grad
    if not np.isfinite(g, out=state.finite).all():
        for name, start, stop in zip(state.names, state.offsets[:-1], state.offsets[1:]):
            if not state.finite[start:stop].all():
                raise TrainingError(f"non-finite gradient for parameter '{name}'")
    state.step_count += 1
    t = state.step_count
    s = state.scratch
    if state.weight_decay != 0.0:
        g += np.multiply(state.weight_decay, state.flat, out=s)
    state.m *= state.beta1
    state.m += np.multiply(1.0 - state.beta1, g, out=s)
    state.v *= state.beta2
    np.multiply(1.0 - state.beta2, g, out=s)
    state.v += np.multiply(s, g, out=s)
    # the gradient is spent, so its buffer takes the denominator
    m_hat = np.divide(state.m, 1.0 - state.beta1 ** t, out=s)
    denom = np.divide(state.v, 1.0 - state.beta2 ** t, out=g)
    np.sqrt(denom, out=denom)
    denom += state.eps
    state.flat -= np.divide(np.multiply(state.lr, m_hat, out=s), denom, out=s)
    return state
