"""Outlier scores, MAP repair, and the two pseudo-Gibbs repair chains.

All operations are read-only on the model and run over fixed-size row
chunks. Every row owns an independent RNG stream derived from (seed, row
index), so a row's draws do not depend on the chunk it falls in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import header_schema, read_container, require_tensors, write_container
from .data import (CATEGORICAL, REAL, WRITE_BLOCK_ROWS, MixedTable, TableSchema, csv_field,
                   destandardize, require_same_schema, write_csv, write_table)
from .engine import stable_sigmoid
from .errors import ConfigError, DataFormatError, ScoreRuleError
from .model import (DecodedValues, clean_logliks_values, decode_values,
                    encode_values, outlier_logliks, pi_update)
from .nn import Rng
from .train import RvaeModel

SCORE_RULES = ("nll", "pi")
ROW_MARKER = "__row__"
SCORE_HEADER = ["row_id", "feature", "rule", "score"]
SIMPLEX_HEADER = ["row_id", "feature", "category", "probability"]
SCORES_FORMAT = "rvae-scores"
SIMPLEX_FORMAT = "rvae-simplexes"


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
        """An artifact container holding both score arrays, with the rule and
        the table schema in its header."""
        write_container(path, {"format": SCORES_FORMAT, "rule": self.rule,
                               "schema": schema.to_json_obj()},
                        {"cell_scores": self.cell_scores, "row_scores": self.row_scores})

    @classmethod
    def load(cls, path, schema: TableSchema) -> "ScoreReport":
        """Read a report written by :meth:`save` for a table of ``schema``."""
        header, tensors = read_container(path, SCORES_FORMAT)
        require_same_schema(schema, header_schema(path, header), context=str(path))
        if header.get("rule") not in SCORE_RULES:
            raise DataFormatError(f"{path}: unknown scoring rule {header.get('rule')!r}")
        require_tensors(path, tensors, {"cell_scores": (None, schema.n_features),
                                        "row_scores": (None,)})
        cells, rows = tensors["cell_scores"], tensors["row_scores"]
        if not np.isfinite(cells).all():
            r, j = np.argwhere(~np.isfinite(cells))[0]
            raise DataFormatError(f"{path}: scores must be finite; no score for row {r}, "
                                  f"feature '{schema.names[j]}'")
        if not np.isfinite(rows).all():
            raise DataFormatError(f"{path}: scores must be finite; no row score for row "
                                  f"{np.argmin(np.isfinite(rows))}")
        return cls(rule=header["rule"], cell_scores=cells, row_scores=rows)

    def export(self, path, schema: TableSchema) -> None:
        """CSV with one line per cell, then a row line, for each row in turn."""
        per_row = schema.n_features + 1
        rule = csv_field(self.rule)
        names = [csv_field(name) for name in schema.names + [ROW_MARKER]]

        def blocks():
            for start in range(0, self.cell_scores.shape[0], WRITE_BLOCK_ROWS):
                stop = min(start + WRITE_BLOCK_ROWS, self.cell_scores.shape[0])
                scores = np.column_stack([self.cell_scores[start:stop],
                                          self.row_scores[start:stop]])
                yield [_repeat_ids(start, stop, per_row), names * (stop - start),
                       [rule] * scores.size, list(map(repr, scores.ravel().tolist()))]

        write_csv(path, SCORE_HEADER, blocks())


def _repeat_ids(start: int, stop: int, times: int) -> list[str]:
    """Row ids start..stop-1 as text, each repeated ``times`` times."""
    return list(map(str, np.repeat(np.arange(start, stop), times).tolist()))


def _check_simplexes(simplexes: dict[str, np.ndarray], where: str = "") -> None:
    """Every probability lies in [0, 1] and every row sums to 1 within 1e-9."""
    for name, probs in simplexes.items():
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise DataFormatError(f"{where}simplexes for '{name}' hold a non-finite probability "
                                  "or one outside [0, 1]")
        if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-9):
            raise DataFormatError(f"{where}simplexes for '{name}' do not sum to 1")


@dataclass
class RepairResult:
    """Imputed table in raw units plus, per categorical feature, the full
    predicted probability simplex for every cell."""

    table: MixedTable
    simplexes: dict[str, np.ndarray]
    method: str

    def __post_init__(self):
        _check_simplexes(self.simplexes)
        for j, feat in enumerate(self.table.schema.cat_features):
            if feat.name in self.simplexes:
                if not np.array_equal(np.argmax(self.simplexes[feat.name], axis=1),
                                      self.table.cats[:, j]):
                    raise DataFormatError(f"repaired categories for '{feat.name}' are not "
                                          "argmaxes of their simplexes")

    def save(self, csv_path, simplex_path=None) -> None:
        """The table as CSV and, given ``simplex_path``, the simplexes as an
        artifact container, one (N, C_j) tensor per categorical feature."""
        write_table(self.table, csv_path)
        if simplex_path is not None:
            schema = self.table.schema
            write_container(simplex_path,
                            {"format": SIMPLEX_FORMAT, "schema": schema.to_json_obj()},
                            {f.name: self.simplexes[f.name] for f in schema.cat_features})


def load_simplexes(path, schema: TableSchema, n_rows: int) -> dict[str, np.ndarray]:
    """Read a simplex sidecar written by :meth:`RepairResult.save`: for each
    categorical feature, n_rows probability rows in [0, 1] that sum to 1."""
    header, tensors = read_container(path, SIMPLEX_FORMAT)
    require_same_schema(schema, header_schema(path, header), context=str(path))
    shapes = {f.name: (n_rows, f.cardinality) for f in schema.cat_features}
    for name, probs in tensors.items():
        rows = probs.shape[0] if probs.ndim else n_rows
        if name not in shapes:
            raise DataFormatError(f"{path}: unknown categorical feature '{name}'")
        if rows < n_rows:
            raise DataFormatError(f"{path}: no probability for row {rows} of feature '{name}'")
        if rows > n_rows:
            raise DataFormatError(f"{path}: row id {n_rows} of feature '{name}' lies past "
                                  f"the {n_rows}-row table")
    require_tensors(path, tensors, shapes)
    _check_simplexes(tensors, f"{path}: ")
    return tensors


def export_simplexes(path, schema: TableSchema, simplexes: dict[str, np.ndarray]) -> None:
    """CSV with one line per (row, category), feature by feature."""

    def blocks():
        for feat in schema.cat_features:
            probs = simplexes[feat.name]
            name = csv_field(feat.name)
            labels = [csv_field(label) for label in feat.categories]
            for start in range(0, probs.shape[0], WRITE_BLOCK_ROWS):
                block = probs[start:start + WRITE_BLOCK_ROWS]
                yield [_repeat_ids(start, start + block.shape[0], feat.cardinality),
                       [name] * block.size, labels * block.shape[0],
                       list(map(repr, block.ravel().tolist()))]

    write_csv(path, SIMPLEX_HEADER, blocks())


CHUNK_ROWS = 512


def _map_chunks(n: int, fn) -> tuple:
    """Run ``fn(rows)`` on fixed-size row blocks and join its outputs.

    ``fn`` returns a tuple of (rows, ...) arrays or dicts of them; each
    element comes back concatenated along the rows (per key for dicts).
    Fixed blocks bound the memory that a block's encoded input and
    activations take, whatever the table's length.
    """
    parts = [fn(np.arange(start, min(start + CHUNK_ROWS, n)))
             for start in range(0, max(n, 1), CHUNK_ROWS)]

    def join(pieces):
        if isinstance(pieces[0], dict):
            return {key: np.concatenate([p[key] for p in pieces], axis=0) for key in pieces[0]}
        return np.concatenate(pieces, axis=0)

    return tuple(join(pieces) for pieces in zip(*parts))


def _pi_cell_scores(pi: np.ndarray) -> np.ndarray:
    # pi is clamped away from 0 upstream, so scores stay finite
    return -np.log(np.maximum(pi, 1e-300))


def _row_draws(streams: list[Rng], draw, width: int) -> np.ndarray:
    """A (B, width) array whose row i is one ``draw`` (``Rng.normal`` or
    ``Rng.uniform``) call on row stream i, written in place."""
    out = np.empty((len(streams), width))
    for stream, row in zip(streams, out):
        draw(stream, out=row)
    return out


def _sampled_latents(model: RvaeModel, x: np.ndarray, streams: list[Rng]) -> np.ndarray:
    """z = mu + sigma * eps with one standard-normal draw per row stream."""
    mu, sig = model.networks.encoder.latent_values(x, model.networks.embeddings)
    return mu + sig * _row_draws(streams, Rng.normal, model.config.latent_dim)


def score(model: RvaeModel, table: MixedTable, rule: str, seed: int = 0) -> ScoreReport:
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

    def chunk_scores(rows: np.ndarray):
        reals, cats = table.reals[rows], table.cats[rows]
        x = encode_values(schema, reals, cats)
        if rule == "pi" and model.config.is_amortized:
            pi = stable_sigmoid(nets.pi_encoder.apply(x, nets.embeddings.tables).value)
            return (_pi_cell_scores(pi),)
        z = _sampled_latents(model, x, Rng(seed).derive_rows(rows))
        ll_clean = clean_logliks_values(nets.decoder, nets.decoder.head(z).value, reals, cats)
        if rule == "nll":
            return (-ll_clean,)
        r = ll_clean - outlier_logliks(model.components, schema, reals, cats)
        return (_pi_cell_scores(pi_update(r, model.config.alpha)),)

    cells, = _map_chunks(table.n_rows, chunk_scores)
    return ScoreReport(rule=rule, cell_scores=cells, row_scores=cells.sum(axis=1))


def _modes(schema: TableSchema, decoded: DecodedValues):
    """Highest-probability category per categorical (ties to the lowest
    index) and a copy of every simplex."""
    n = decoded.real_means.shape[0]
    cats = np.empty((n, len(schema.cat_features)), dtype=np.int64)
    for j, feat in enumerate(schema.cat_features):
        cats[:, j] = np.argmax(decoded.cat_probs[feat.name], axis=1)
    return cats, {f.name: decoded.cat_probs[f.name].copy() for f in schema.cat_features}


def _assemble_repair(model: RvaeModel, reals_std: np.ndarray, cat_idx: np.ndarray,
                     simplexes: dict[str, np.ndarray], method: str) -> RepairResult:
    std_table = MixedTable(schema=model.schema, reals=reals_std, cats=cat_idx,
                           stats=dict(model.stats))
    return RepairResult(table=destandardize(std_table), simplexes=simplexes, method=method)


def repair_map(model: RvaeModel, table: MixedTable, sample_z: bool = False,
               seed: int = 0) -> RepairResult:
    """Mode of the clean component given a posterior latent: reals become
    the decoded mean (then de-standardized), categoricals the highest
    probability category, ties to the lowest index. z is the posterior
    mean unless ``sample_z`` asks for a draw."""
    model.require_table(table)
    schema, nets = model.schema, model.networks

    def chunk_repair(rows: np.ndarray):
        x = encode_values(schema, table.reals[rows], table.cats[rows])
        if sample_z:
            z = _sampled_latents(model, x, Rng(seed).derive_rows(rows))
        else:
            z, _ = nets.encoder.latent_values(x, nets.embeddings)
        decoded = decode_values(nets.decoder, z)
        cats, simplexes = _modes(schema, decoded)
        return decoded.real_means, cats, simplexes

    reals, cats, simplexes = _map_chunks(table.n_rows, chunk_repair)
    return _assemble_repair(model, reals, cats, simplexes, "map")


def _sample_categories(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs, axis=1)
    return np.clip((cum < u[:, None]).sum(axis=1), 0, probs.shape[1] - 1).astype(np.int64)


def _split_by_kind(schema: TableSchema, mask: np.ndarray):
    """A (B, D) schema-order mask as its real and its categorical columns."""
    kinds = np.array([f.kind for f in schema.features])
    return mask[:, kinds == REAL], mask[:, kinds == CATEGORICAL]


def _run_chain(model: RvaeModel, obs_reals: np.ndarray, obs_cats: np.ndarray,
               streams: list[Rng], iters: int, clean: np.ndarray | None = None) -> DecodedValues:
    """Pseudo-Gibbs rounds from the observed rows: z ~ q(z | x), then x ~ p(x | z).

    Each round draws, per row stream, one normal(latent + n_real) call
    (latent noise, then cell noise for the reals) and one uniform(n_cat)
    call (one per categorical). With a (B, D) ``clean`` mask in schema
    column order, clean cells stay at their observed values in every round
    and dirty cells start at mean behaviour: zero for standardized reals, a
    zero one-hot block (a zero embedding) for categoricals. Returns the
    last round's decoded values.
    """
    schema, nets = model.schema, model.networks
    k, n_real, n_cat = model.config.latent_dim, obs_reals.shape[1], obs_cats.shape[1]
    reals, cats, zero_mask = obs_reals, obs_cats, None
    if clean is not None:
        keep_reals, keep_cats = _split_by_kind(schema, clean)
        reals, zero_mask = np.where(keep_reals, obs_reals, 0.0), ~keep_cats
    for it in range(iters):
        x = encode_values(schema, reals, cats, zero_mask if it == 0 else None)
        mu, sig = nets.encoder.latent_values(x, nets.embeddings)
        eps = _row_draws(streams, Rng.normal, k + n_real)
        u = _row_draws(streams, Rng.uniform, n_cat)
        decoded = decode_values(nets.decoder, mu + sig * eps[:, :k])
        reals = decoded.real_means + decoded.real_stds * eps[:, k:]
        cats = np.empty_like(obs_cats)
        for j, feat in enumerate(schema.cat_features):
            cats[:, j] = _sample_categories(decoded.cat_probs[feat.name], u[:, j])
        if clean is not None:
            reals = np.where(keep_reals, obs_reals, reals)
            cats = np.where(keep_cats, obs_cats, cats)
    return decoded


def _check_chain(model: RvaeModel, table: MixedTable, gibbs_iters: int) -> None:
    if gibbs_iters < 1:
        raise ConfigError("the chain needs at least one iteration")
    if not model.is_robust:
        raise ScoreRuleError("pseudo-Gibbs repair needs a gated model")
    model.require_table(table)


def repair_one_stage(model: RvaeModel, table: MixedTable, gibbs_iters: int = 5,
                     seed: int = 0) -> RepairResult:
    """Pseudo-Gibbs chain treating every cell as suspect.

    Starts from the observed row and alternates encode / latent sample /
    cell resample for the requested rounds; the reported repair is the
    mode of the clean component at the final latent (decoded mean for
    reals, highest-probability category for categoricals), so at T=1 this
    collapses to sample-then-reconstruct.
    """
    _check_chain(model, table, gibbs_iters)

    def chunk_chain(rows: np.ndarray):
        decoded = _run_chain(model, table.reals[rows], table.cats[rows],
                             Rng(seed).derive_rows(rows), gibbs_iters)
        cats, simplexes = _modes(model.schema, decoded)
        return decoded.real_means, cats, simplexes

    reals, cats, simplexes = _map_chunks(table.n_rows, chunk_chain)
    return _assemble_repair(model, reals, cats, simplexes, "one-stage")


def repair_two_stage(model: RvaeModel, table: MixedTable, gibbs_iters: int = 5,
                     seed: int = 0, pi_override: np.ndarray | float | None = None) -> RepairResult:
    """Pseudo-Gibbs with an inferred clean mask.

    Runs the one-stage chain to stabilize the gate probabilities, takes
    those of the observed cells at its final latent, samples a clean/dirty
    mask from them, clamps clean cells to their observed values for the
    whole second chain, and starts dirty cells at mean behaviour
    (zero for standardized reals, a zero embedding for categoricals). The
    final repair mixes observed values with the final-latent mode of the
    clean component. ``pi_override`` substitutes forced gate probabilities
    (test hook).
    """
    _check_chain(model, table, gibbs_iters)
    schema = model.schema

    def chunk_chain(rows: np.ndarray):
        streams = Rng(seed).derive_rows(rows)
        obs_reals, obs_cats = table.reals[rows], table.cats[rows]
        head = _run_chain(model, obs_reals, obs_cats, streams, gibbs_iters).head
        ll_clean = clean_logliks_values(model.networks.decoder, head, obs_reals, obs_cats)
        r = ll_clean - outlier_logliks(model.components, schema, obs_reals, obs_cats)
        pi_hat = pi_update(r, model.config.alpha)
        if pi_override is not None:
            pi_hat = np.broadcast_to(np.asarray(pi_override, dtype=np.float64), pi_hat.shape)
        clean = _row_draws(streams, Rng.uniform, schema.n_features) < pi_hat
        decoded = _run_chain(model, obs_reals, obs_cats, streams, gibbs_iters, clean)
        keep_reals, keep_cats = _split_by_kind(schema, clean)
        cats, simplexes = _modes(schema, decoded)
        for j, feat in enumerate(schema.cat_features):
            keep = keep_cats[:, j]
            simplexes[feat.name][keep] = np.eye(feat.cardinality)[obs_cats[keep, j]]
        return (np.where(keep_reals, obs_reals, decoded.real_means),
                np.where(keep_cats, obs_cats, cats), simplexes)

    reals, cats, simplexes = _map_chunks(table.n_rows, chunk_chain)
    return _assemble_repair(model, reals, cats, simplexes, "two-stage")
