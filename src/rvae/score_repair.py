"""Outlier scores, MAP repair, and the two pseudo-Gibbs repair chains.

All operations are read-only on the model and parallelizable across rows:
every row owns an independent RNG stream derived from (seed, row index),
so results are identical for any thread count or chunking.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import CATEGORICAL, REAL, MixedTable, TableSchema, destandardize
from .engine import stable_sigmoid
from .errors import ConfigError, DataFormatError, ScoreRuleError
from .model import (DecodedValues, clean_logliks_values, decode_values,
                    encode_values, outlier_logliks, pi_update, _net_values)
from .nn import Rng
from .train import RvaeModel

SCORE_RULES = ("nll", "pi")
ROW_MARKER = "__row__"


@dataclass
class ScoreReport:
    """Per-cell and per-row outlier scores under one rule (higher = more anomalous)."""

    rule: str
    cell_scores: np.ndarray  # (N, D)
    row_scores: np.ndarray   # (N,)

    def __post_init__(self):
        if not np.all(np.isfinite(self.cell_scores)) or not np.all(np.isfinite(self.row_scores)):
            raise DataFormatError("scores must be finite")

    def save(self, path, schema: TableSchema) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row_id", "feature", "rule", "score"])
            for r in range(self.cell_scores.shape[0]):
                for c, feat in enumerate(schema.features):
                    writer.writerow([r, feat.name, self.rule, repr(float(self.cell_scores[r, c]))])
                writer.writerow([r, ROW_MARKER, self.rule, repr(float(self.row_scores[r]))])

    @classmethod
    def load(cls, path, schema: TableSchema) -> "ScoreReport":
        """Read a report written by :meth:`save`; every row needs its row
        line and one line per feature, else this raises DataFormatError."""
        column = {feat.name: i for i, feat in enumerate(schema.features)}
        cells: dict[tuple[int, int], float] = {}
        rows: dict[int, float] = {}
        rule = None
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["row_id", "feature", "rule", "score"]:
                raise DataFormatError(f"{path}: not a score report")
            for entry in reader:
                if len(entry) != 4:
                    raise DataFormatError(f"{path}: line {reader.line_num} has {len(entry)} "
                                          "fields, expected 4")
                try:
                    r, feat, rule, val = int(entry[0]), entry[1], entry[2], float(entry[3])
                except ValueError as exc:
                    raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
                if r < 0:
                    raise DataFormatError(f"{path}: line {reader.line_num}: negative row id")
                if feat == ROW_MARKER:
                    rows[r] = val
                elif feat in column:
                    cells[(r, column[feat])] = val
                else:
                    raise DataFormatError(f"{path}: unknown feature '{feat}'")
        n = max(rows) + 1 if rows else 0
        if len(rows) != n:
            missing = min(set(range(n)) - set(rows))
            raise DataFormatError(f"{path}: no row score for row {missing}")
        cell_scores = np.zeros((n, schema.n_features))
        seen = np.zeros((n, schema.n_features), dtype=bool)
        for (r, c), val in cells.items():
            if r >= n:
                raise DataFormatError(f"{path}: cell score for row {r}, which has no row score")
            cell_scores[r, c] = val
            seen[r, c] = True
        if not seen.all():
            r, c = np.argwhere(~seen)[0]
            raise DataFormatError(f"{path}: no score for row {r}, feature "
                                  f"'{schema.features[c].name}'")
        row_scores = np.array([rows[r] for r in range(n)])
        return cls(rule=rule, cell_scores=cell_scores, row_scores=row_scores)


@dataclass
class RepairResult:
    """Imputed table in raw units plus, per categorical feature, the full
    predicted probability simplex for every cell."""

    table: MixedTable
    simplexes: dict[str, np.ndarray]
    method: str

    def __post_init__(self):
        for name, probs in self.simplexes.items():
            if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
                raise DataFormatError(f"simplexes for '{name}' do not sum to 1")
        for j, feat in enumerate(self.table.schema.cat_features):
            if feat.name in self.simplexes:
                if not np.array_equal(np.argmax(self.simplexes[feat.name], axis=1),
                                      self.table.cats[:, j]):
                    raise DataFormatError(f"repaired categories for '{feat.name}' are not "
                                          "argmaxes of their simplexes")

    def save(self, csv_path, simplex_path=None) -> None:
        from .data import write_table

        write_table(self.table, csv_path)
        if simplex_path is not None:
            with Path(simplex_path).open("w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["row_id", "feature", "category", "probability"])
                for feat in self.table.schema.cat_features:
                    probs = self.simplexes[feat.name]
                    for r in range(probs.shape[0]):
                        for c, label in enumerate(feat.categories):
                            writer.writerow([r, feat.name, label, repr(float(probs[r, c]))])


def load_simplexes(path, schema: TableSchema, n_rows: int) -> dict[str, np.ndarray]:
    out = {feat.name: np.zeros((n_rows, feat.cardinality)) for feat in schema.cat_features}
    label_idx = {feat.name: {lab: i for i, lab in enumerate(feat.categories)}
                 for feat in schema.cat_features}
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["row_id", "feature", "category", "probability"]:
            raise DataFormatError(f"{path}: not a simplex sidecar")
        for entry in reader:
            r, feat, label, val = int(entry[0]), entry[1], entry[2], float(entry[3])
            out[feat][r, label_idx[feat][label]] = val
    return out


def _row_streams(seed: int, rows: np.ndarray) -> list[Rng]:
    base = Rng(seed)
    return [base.derive(int(r)) for r in rows]


CHUNK_ROWS = 512


def _chunks(n: int) -> list[np.ndarray]:
    # fixed-size blocks: results are bit-identical for every thread count,
    # because each block's BLAS calls see the same operand shapes
    return [np.arange(start, min(start + CHUNK_ROWS, n))
            for start in range(0, max(n, 1), CHUNK_ROWS)]


def _run_chunked(n: int, threads: int, fn):
    chunks = _chunks(n)
    if threads <= 1 or len(chunks) == 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
        return list(pool.map(fn, chunks))


def _pi_cell_scores(pi: np.ndarray) -> np.ndarray:
    # pi is clamped away from 0 upstream, so scores stay finite
    return -np.log(np.maximum(pi, 1e-300))


def score(model: RvaeModel, table: MixedTable, rule: str, seed: int = 0, threads: int = 1) -> ScoreReport:
    """Per-cell outlier scores: 'nll' is the negative expected clean log
    likelihood (one posterior sample); 'pi' is -log of the inferred clean
    probability. Row scores sum the cells."""
    if rule not in SCORE_RULES:
        raise ConfigError(f"unknown scoring rule '{rule}' (choose from {SCORE_RULES})")
    if rule == "pi" and not model.is_robust:
        raise ScoreRuleError("the pi rule needs a gated model; this checkpoint is a plain VAE")
    model.require_table(table)
    schema = model.schema
    nets = model.networks

    def chunk_scores(rows: np.ndarray) -> np.ndarray:
        reals, cats = table.reals[rows], table.cats[rows]
        x = encode_values(schema, reals, cats, nets.embeddings)
        if rule == "pi" and model.config.is_amortized:
            pi = stable_sigmoid(_net_values(nets.pi_encoder, x))
            return _pi_cell_scores(pi)
        streams = _row_streams(seed, rows)
        eps = np.stack([s.normal(model.config.latent_dim) for s in streams])
        mu, sig = nets.encoder.latent_values(x)
        decoded = decode_values(nets.decoder, mu + sig * eps)
        ll_clean = clean_logliks_values(nets.decoder, decoded, reals, cats)
        if rule == "nll":
            return -ll_clean
        r = ll_clean - outlier_logliks(model.components, schema, reals, cats)
        return _pi_cell_scores(pi_update(r, model.config.alpha))

    cells = np.concatenate(_run_chunked(table.n_rows, threads, chunk_scores), axis=0)
    return ScoreReport(rule=rule, cell_scores=cells, row_scores=cells.sum(axis=1))


def gate_probabilities(model: RvaeModel, table: MixedTable, seed: int = 0,
                       threads: int = 1) -> "GateParams":
    """Per-cell clean probabilities (the quantity behind the pi rule),
    bundled with the prior they were inferred under."""
    from .model import GateParams

    report = score(model, table, "pi", seed=seed, threads=threads)
    return GateParams(alpha=model.config.alpha, pi=np.exp(-report.cell_scores))


def _assemble_repair(model: RvaeModel, reals_std: np.ndarray, cat_idx: np.ndarray,
                     simplexes: dict[str, np.ndarray], method: str) -> RepairResult:
    std_table = MixedTable(schema=model.schema, reals=reals_std, cats=cat_idx,
                           stats=dict(model.stats))
    return RepairResult(table=destandardize(std_table), simplexes=simplexes, method=method)


def repair_map(model: RvaeModel, table: MixedTable, sample_z: bool = False,
               seed: int = 0, threads: int = 1) -> RepairResult:
    """Mode of the clean component given a posterior latent: reals become
    the decoded mean (then de-standardized), categoricals the highest
    probability category, ties to the lowest index. z is the posterior
    mean unless ``sample_z`` asks for a draw."""
    model.require_table(table)
    schema, nets = model.schema, model.networks

    def chunk_repair(rows: np.ndarray):
        x = encode_values(schema, table.reals[rows], table.cats[rows], nets.embeddings)
        mu, sig = nets.encoder.latent_values(x)
        if sample_z:
            streams = _row_streams(seed, rows)
            eps = np.stack([s.normal(model.config.latent_dim) for s in streams])
            z = mu + sig * eps
        else:
            z = mu
        decoded = decode_values(nets.decoder, z)
        cat_idx = np.stack([np.argmax(decoded.cat_probs[f.name], axis=1)
                            for f in schema.cat_features], axis=1) if schema.cat_features else \
            np.zeros((rows.size, 0), dtype=np.int64)
        return decoded.real_means, cat_idx, decoded.cat_probs

    parts = _run_chunked(table.n_rows, threads, chunk_repair)
    reals = np.concatenate([p[0] for p in parts], axis=0)
    cats = np.concatenate([p[1] for p in parts], axis=0)
    simplexes = {f.name: np.concatenate([p[2][f.name] for p in parts], axis=0)
                 for f in schema.cat_features}
    return _assemble_repair(model, reals, cats, simplexes, "map")


def _sample_categories(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs, axis=1)
    return np.clip((cum < u[:, None]).sum(axis=1), 0, probs.shape[1] - 1).astype(np.int64)


def _chain_iteration(model: RvaeModel, state_reals: np.ndarray, state_cats: np.ndarray,
                     zero_mask: np.ndarray | None, streams: list[Rng]):
    """One pseudo-Gibbs round: z ~ q(z | x_state), then x ~ p(x | z)."""
    schema, nets = model.schema, model.networks
    x = encode_values(schema, state_reals, state_cats, nets.embeddings, zero_mask)
    mu, sig = nets.encoder.latent_values(x)
    eps_z = np.stack([s.normal(model.config.latent_dim) for s in streams])
    z = mu + sig * eps_z
    decoded = decode_values(nets.decoder, z)
    n_real = state_reals.shape[1]
    if n_real:
        eps_x = np.stack([s.normal(n_real) for s in streams])
        new_reals = decoded.real_means + decoded.real_stds * eps_x
    else:
        new_reals = state_reals.copy()
    new_cats = state_cats.copy()
    for j, feat in enumerate(schema.cat_features):
        u = np.array([s.uniform() for s in streams])
        new_cats[:, j] = _sample_categories(decoded.cat_probs[feat.name], u)
    return new_reals, new_cats, decoded


def _final_cats_and_simplexes(schema: TableSchema, decoded: DecodedValues):
    cats = np.stack([np.argmax(decoded.cat_probs[f.name], axis=1) for f in schema.cat_features],
                    axis=1) if schema.cat_features else np.zeros((decoded.real_means.shape[0], 0),
                                                                 dtype=np.int64)
    return cats, {f.name: decoded.cat_probs[f.name].copy() for f in schema.cat_features}


def repair_one_stage(model: RvaeModel, table: MixedTable, gibbs_iters: int = 5,
                     seed: int = 0, threads: int = 1) -> tuple[RepairResult, np.ndarray]:
    """Pseudo-Gibbs chain treating every cell as suspect.

    Starts from the observed row and alternates encode / latent sample /
    cell resample for the requested rounds; the reported repair is the
    mode of the clean component at the final latent (decoded mean for
    reals, highest-probability category for categoricals), so at T=1 this
    collapses to sample-then-reconstruct. The gate probabilities of the
    observed cells, evaluated at the final latent, come back alongside.
    """
    if gibbs_iters < 1:
        raise ConfigError("the chain needs at least one iteration")
    if not model.is_robust:
        raise ScoreRuleError("pseudo-Gibbs repair needs a gated model")
    model.require_table(table)
    schema = model.schema

    def chunk_chain(rows: np.ndarray):
        streams = _row_streams(seed, rows)
        obs_reals, obs_cats = table.reals[rows], table.cats[rows]
        state_reals, state_cats = obs_reals.copy(), obs_cats.copy()
        decoded = None
        for _ in range(gibbs_iters):
            state_reals, state_cats, decoded = _chain_iteration(model, state_reals, state_cats,
                                                                None, streams)
        ll_clean = clean_logliks_values(model.networks.decoder, decoded, obs_reals, obs_cats)
        r = ll_clean - outlier_logliks(model.components, schema, obs_reals, obs_cats)
        pi_hat = pi_update(r, model.config.alpha)
        final_cats, simplexes = _final_cats_and_simplexes(schema, decoded)
        return decoded.real_means.copy(), final_cats, simplexes, pi_hat

    parts = _run_chunked(table.n_rows, threads, chunk_chain)
    reals = np.concatenate([p[0] for p in parts], axis=0)
    cats = np.concatenate([p[1] for p in parts], axis=0)
    simplexes = {f.name: np.concatenate([p[2][f.name] for p in parts], axis=0)
                 for f in schema.cat_features}
    pi_hat = np.concatenate([p[3] for p in parts], axis=0)
    return _assemble_repair(model, reals, cats, simplexes, "one-stage"), pi_hat


def repair_two_stage(model: RvaeModel, table: MixedTable, gibbs_iters: int = 5,
                     seed: int = 0, threads: int = 1,
                     pi_override: np.ndarray | float | None = None) -> RepairResult:
    """Pseudo-Gibbs with an inferred clean mask.

    Runs the one-stage chain to stabilize the gate probabilities, samples a
    clean/dirty mask from them, clamps clean cells to their observed values
    for the whole second chain, and starts dirty cells at mean behaviour
    (zero for standardized reals, a zero embedding for categoricals). The
    final repair mixes observed values with the final-latent mode of the
    clean component. ``pi_override`` substitutes forced gate probabilities
    (test hook).
    """
    if gibbs_iters < 1:
        raise ConfigError("the chain needs at least one iteration")
    if not model.is_robust:
        raise ScoreRuleError("pseudo-Gibbs repair needs a gated model")
    model.require_table(table)
    schema = model.schema
    d = schema.n_features
    real_slots = {i: schema.kind_index(i)[1] for i, f in enumerate(schema.features) if f.kind == REAL}
    cat_slots = {i: schema.kind_index(i)[1] for i, f in enumerate(schema.features) if f.kind == CATEGORICAL}

    def chunk_chain(rows: np.ndarray):
        streams = _row_streams(seed, rows)
        obs_reals, obs_cats = table.reals[rows], table.cats[rows]
        state_reals, state_cats = obs_reals.copy(), obs_cats.copy()
        decoded = None
        for _ in range(gibbs_iters):
            state_reals, state_cats, decoded = _chain_iteration(model, state_reals, state_cats,
                                                                None, streams)
        ll_clean = clean_logliks_values(model.networks.decoder, decoded, obs_reals, obs_cats)
        r = ll_clean - outlier_logliks(model.components, schema, obs_reals, obs_cats)
        pi_hat = pi_update(r, model.config.alpha)
        if pi_override is not None:
            pi_hat = np.broadcast_to(np.asarray(pi_override, dtype=np.float64),
                                     pi_hat.shape).copy()
        u = np.stack([s.uniform(d) for s in streams])
        clean_mask = u < pi_hat  # (B, D) in schema column order

        # mean-behaviour start for dirty cells; clean cells stay observed
        state_reals = obs_reals.copy()
        state_cats = obs_cats.copy()
        zero_mask = np.zeros_like(obs_cats, dtype=bool)
        for column, slot in real_slots.items():
            state_reals[~clean_mask[:, column], slot] = 0.0
        for column, slot in cat_slots.items():
            zero_mask[~clean_mask[:, column], slot] = True
        for it in range(gibbs_iters):
            new_reals, new_cats, decoded = _chain_iteration(
                model, state_reals, state_cats, zero_mask if it == 0 else None, streams)
            # observed values stay fixed for clean-sampled cells
            for column, slot in real_slots.items():
                keep = clean_mask[:, column]
                new_reals[keep, slot] = obs_reals[keep, slot]
            for column, slot in cat_slots.items():
                keep = clean_mask[:, column]
                new_cats[keep, slot] = obs_cats[keep, slot]
            state_reals, state_cats = new_reals, new_cats
        final_reals = decoded.real_means.copy()
        for column, slot in real_slots.items():
            keep = clean_mask[:, column]
            final_reals[keep, slot] = obs_reals[keep, slot]
        final_cats, simplexes = _final_cats_and_simplexes(schema, decoded)
        for column, slot in cat_slots.items():
            keep = clean_mask[:, column]
            final_cats[keep, slot] = obs_cats[keep, slot]
            feat = schema.features[column]
            probs = simplexes[feat.name]
            probs[keep] = np.eye(feat.cardinality)[obs_cats[keep, slot]]
        return final_reals, final_cats, simplexes

    parts = _run_chunked(table.n_rows, threads, chunk_chain)
    reals = np.concatenate([p[0] for p in parts], axis=0)
    cats = np.concatenate([p[1] for p in parts], axis=0)
    simplexes = {f.name: np.concatenate([p[2][f.name] for p in parts], axis=0)
                 for f in schema.cat_features}
    return _assemble_repair(model, reals, cats, simplexes, "two-stage")
