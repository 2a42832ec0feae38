"""Mini-batch training for the plain VAE and both robust variants, plus
checkpointing.

One training step: sample a mini-batch, draw one z sample per row,
evaluate clean and outlier likelihoods, obtain the per-cell clean
probabilities (1 for the VAE, closed form for rvae-cvi, gate encoder for
rvae-avi), and take an Adam step on the negative per-row-mean objective,
whose gradient seeds backward directly. Everything is deterministic under
the configured seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .container import header_schema, read_container, write_container
from .data import ColumnStats, MixedTable, TableSchema, encoded_dim, require_same_schema
from .errors import CheckpointError, ConfigError, TrainingError
from .model import (RvaeNetworks, build_networks, forward_elbo_parts, gated_rows,
                    outlier_logliks, pi_update)
from .nn import Rng, adam_step, init_adam

MODEL_KINDS = ("vae", "rvae-cvi", "rvae-avi")
CHECKPOINT_FORMAT = "rvae-model"


def _is_finite_number(value) -> bool:
    """A finite int or float; a bool, or an int past float range, is not one here."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class TrainConfig:
    model: str = "rvae-cvi"
    epochs: int = 100
    learning_rate: float = 0.001
    batch_size: int = 150
    alpha: float = 0.95
    outlier_scale: float = 2.0
    latent_dim: int = 20
    hidden_dim: int = 400
    embedding_dim: int = 50
    weight_decay: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind '{self.model}' (choose from {MODEL_KINDS})")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not _is_finite_number(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.outlier_scale > 1.0:
            raise ConfigError(f"outlier scale must exceed 1, got {self.outlier_scale}")
        if min(self.latent_dim, self.hidden_dim, self.embedding_dim) < 1:
            raise ConfigError("latent, hidden and embedding dims must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight decay must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def is_amortized(self) -> bool:
        return self.model == "rvae-avi"

    @property
    def is_robust(self) -> bool:
        return self.model in ("rvae-cvi", "rvae-avi")


@dataclass
class EpochStats:
    epoch: int
    mean_elbo: float
    mean_pi: float | None
    wall_time_s: float


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)

    def save_csv(self, path) -> None:
        lines = ["epoch,mean_elbo,mean_pi,wall_time_s"]
        for e in self.epochs:
            pi = "" if e.mean_pi is None else repr(e.mean_pi)
            lines.append(f"{e.epoch},{e.mean_elbo!r},{pi},{e.wall_time_s!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class RvaeModel:
    """Trained parameters plus everything needed to use them on new data."""

    networks: RvaeNetworks
    schema: TableSchema
    config: TrainConfig
    stats: ColumnStats

    def require_table(self, table: MixedTable) -> None:
        require_same_schema(self.schema, table.schema, context="model vs table")


def batch_objective(model: RvaeModel, reals: np.ndarray, cats: np.ndarray, eps: np.ndarray):
    """Per-row objective tensor and the pi values used (None for the VAE),
    one :func:`gated_rows` node for every model kind."""
    nets, schema, config = model.networks, model.schema, model.config
    x_enc, ll_clean, kl_z = forward_elbo_parts(nets, schema, reals, cats, eps)
    if config.model == "vae":
        return gated_rows(ll_clean, kl_z)
    ll_out = outlier_logliks(config.outlier_scale, schema, reals, cats)
    if config.is_amortized:
        gates = nets.pi_encoder.apply(x_enc, nets.embeddings.tables)
    else:
        gates = pi_update(ll_clean.value - ll_out, config.alpha)
    return gated_rows(ll_clean, kl_z, ll_out, gates, config.alpha)


def train(table: MixedTable, config: TrainConfig) -> tuple[RvaeModel, TrainLog]:
    config.validate()
    if not table.is_standardized:
        raise TrainingError("train expects a standardized table (call data.standardize first)")
    rng = Rng(config.seed)
    nets = build_networks(table.schema, config.latent_dim, config.hidden_dim,
                          config.embedding_dim, rng, amortized=config.is_amortized)
    model = RvaeModel(networks=nets, schema=table.schema, config=config,
                      stats=table.stats)
    params = nets.params()
    opt = init_adam(params, lr=config.learning_rate, weight_decay=config.weight_decay)
    n = table.n_rows
    log = TrainLog()
    for epoch in range(config.epochs):
        tic = time.perf_counter()
        order = rng.permutation(n)
        elbo_sum = 0.0
        pi_sum = 0.0
        pi_count = 0
        for start in range(0, n, config.batch_size):
            idx = order[start: start + config.batch_size]
            eps = rng.normal((idx.size, config.latent_dim))
            per_row, pi = batch_objective(model, table.reals[idx], table.cats[idx], eps)
            total = float(per_row.value.sum())
            if not np.isfinite(total):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}")
            # the gradient of the loss, -mean(per_row)
            per_row.backward(np.full(idx.size, -1.0 / idx.size))
            adam_step(params, {name: t.grad for name, t in params.items()}, opt)
            nets.embeddings.renormalize()
            elbo_sum += total
            if pi is not None:
                pi_sum += float(pi.sum())
                pi_count += pi.size
        log.epochs.append(EpochStats(
            epoch=epoch,
            mean_elbo=elbo_sum / n,
            mean_pi=(pi_sum / pi_count) if pi_count else None,
            wall_time_s=time.perf_counter() - tic,
        ))
    return model, log


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_model(model: RvaeModel, path) -> None:
    """Write a checkpoint: the header, then every parameter under its
    :meth:`RvaeNetworks.params` name, in that order."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "tool_version": __version__,
        "schema": model.schema.to_json_obj(),
        "config": model.config.__dict__,
        "stats": {f.name: {"mean": m, "std": s} for f, m, s in zip(
            model.schema.real_features, model.stats.mean.tolist(), model.stats.std.tolist())},
    }
    write_container(path, meta, {name: t.value for name, t in model.networks.params().items()})


def load_model(path, expected_schema: TableSchema | None = None) -> RvaeModel:
    header, tensors = read_container(path, CHECKPOINT_FORMAT, CheckpointError)
    absent = [key for key in ("schema", "config", "stats") if key not in header]
    if absent:
        raise CheckpointError(f"{path}: header has no {absent} entry")
    schema = header_schema(path, header)
    if expected_schema is not None:
        require_same_schema(expected_schema, schema, context="checkpoint schema")
    try:
        config = TrainConfig(**header["config"])
        config.validate()
    except ConfigError as exc:
        raise CheckpointError(f"{path}: config: {exc}") from None
    except TypeError as exc:
        raise CheckpointError(f"{path}: malformed config entry: {exc!r}") from None
    names, entries = [f.name for f in schema.real_features], header["stats"]
    if not isinstance(entries, dict) or sorted(entries) != sorted(names):
        raise CheckpointError(f"{path}: stats must hold one entry for each real feature {names}")
    for name, entry in entries.items():
        if not (isinstance(entry, dict) and _is_finite_number(entry.get("mean"))
                and _is_finite_number(entry.get("std")) and entry["std"] > 0):
            raise CheckpointError(f"{path}: stats for '{name}' need a finite mean and a finite "
                                  f"positive std, got {entry!r}")
    stats = ColumnStats(mean=[entries[name]["mean"] for name in names],
                        std=[entries[name]["std"] for name in names])
    # the stored first layers bound the config's dims before networks of
    # those sizes are allocated
    for name, shape in (("encoder.W0", (encoded_dim(schema, config.embedding_dim),
                                        config.hidden_dim)),
                        ("decoder.trunk.W0", (config.latent_dim, config.hidden_dim))):
        if name not in tensors or tensors[name].shape != shape:
            got = f"shape {tensors[name].shape}" if name in tensors else "absent"
            raise CheckpointError(f"{path}: tensor '{name}' does not fit the config's "
                                  f"dimensions ({got})")
    nets = build_networks(schema, config.latent_dim, config.hidden_dim,
                          config.embedding_dim, rng=None, amortized=config.is_amortized)
    params = nets.params()
    if set(params) != set(tensors):
        missing = sorted(set(params) ^ set(tensors))
        raise CheckpointError(f"{path}: tensor manifest does not match architecture: {missing[:5]}")
    for name, t in params.items():
        if tensors[name].shape != t.value.shape:
            raise CheckpointError(
                f"{path}: tensor '{name}' has shape {tensors[name].shape}, expected {t.value.shape}")
        t.value = tensors[name]
    return RvaeModel(networks=nets, schema=schema, config=config, stats=stats)
