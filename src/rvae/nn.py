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


class Rng:
    """Seeded PCG64 stream; identical seed means identical sample stream.

    A stream is ``PCG64(SeedSequence(seed, spawn_key=spawn_key))``, numpy's
    own seeding; a root stream has the empty spawn key.
    """

    def __init__(self, seed: int, spawn_key: tuple = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self.gen = np.random.Generator(np.random.PCG64(seq))

    def derive(self, *keys: int) -> "Rng":
        """Independent child stream keyed by (seed, *spawn_key, *keys), so
        nested children never collide with their parent's siblings."""
        return Rng(self.seed, self.spawn_key + keys)

    def normal(self, size=None) -> np.ndarray:
        return self.gen.standard_normal(size)

    def uniform(self, size=None) -> np.ndarray:
        return self.gen.random(size)

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
