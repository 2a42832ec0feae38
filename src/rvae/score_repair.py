"""Outlier scores, MAP repair, and the two pseudo-Gibbs repair chains.

All operations are read-only on the model and run over chunks of
``CHUNK_ROWS`` rows. Scores, MAP repair and two-stage's gates read one
encoder and decoder pass at each row's posterior mean and draw nothing;
only the two chains draw. Each draw call of a chunk fills a (rows, width)
block from its own stream, ``Rng(seed).derive(tag, chunk, round)``, so row
r's draws are row r % CHUNK_ROWS of that block and depend only on (seed,
tag, row, round). ``CHUNK_ROWS`` is therefore part of the seeded contract:
a table's first rows get the same draws whatever rows follow them.

Category probabilities stay in the decoder head's layout, one (rows, C_d)
softmax block per categorical side by side, through the chains and the
chunk joins; :func:`_assemble_repair` alone splits them into
:attr:`RepairResult.simplexes`, the per-feature dict that artifacts,
metrics and baselines read.

Only the draws are exact. A product's row count is the chunk's, and in
two-stage's chain the number of the chunk's rows with a dirty cell, and
OpenBLAS may take another kernel for few rows. So a prefix's last chunk
can move a row's outputs in their last bits: at the README's widths, by
up to 3.6e-15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import header_schema, read_container, require_tensors, write_container
from .data import (WRITE_BLOCK_ROWS, MixedTable, TableSchema, csv_field, destandardize,
                   require_same_schema, write_csv, write_table)
from .engine import stable_sigmoid
from .errors import ConfigError, DataFormatError, ScoreRuleError
from .model import clean_logliks_values, decode_values, encode_values, outlier_logliks, pi_update
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

# stream tags: the chain's normals (latent, then real-cell noise), its
# category uniforms, and the uniforms of two-stage's clean mask
_NORMAL, _UNIFORM, _MASK = range(3)


def _map_chunks(n: int, fn) -> tuple:
    """Run ``fn(chunk, rows)`` on consecutive blocks of ``CHUNK_ROWS`` rows,
    chunk = 0, 1, ..., and join its outputs.

    ``fn`` returns a tuple of (rows, ...) arrays; each element comes back
    concatenated along the rows. Fixed blocks bound the memory that a
    block's encoded input and activations take, whatever the table's length.
    """
    parts = [fn(start // CHUNK_ROWS, np.arange(start, min(start + CHUNK_ROWS, n)))
             for start in range(0, max(n, 1), CHUNK_ROWS)]
    return tuple(np.concatenate(pieces, axis=0) for pieces in zip(*parts))


def _pi_cell_scores(pi: np.ndarray) -> np.ndarray:
    # pi is clamped away from 0 upstream, so scores stay finite
    return -np.log(np.maximum(pi, 1e-300))


def _mean_latents(model: RvaeModel, reals: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """The rows' posterior mean latents."""
    nets = model.networks
    return nets.encoder.latent_values(encode_values(model.schema, reals, cats), nets.embeddings)[0]


def _mean_head(model: RvaeModel, reals: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """:meth:`Decoder.head`'s value at the rows' posterior mean latents; no
    category probabilities are built."""
    return model.networks.decoder.head(_mean_latents(model, reals, cats)).value


def _mean_gates(model: RvaeModel, reals: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """(B, D) clean probabilities of the observed cells at the posterior
    mean: :func:`pi_update` of their clean over outlier log likelihood ratio."""
    head = _mean_head(model, reals, cats)
    ll_clean = clean_logliks_values(model.networks.decoder, head, reals, cats)
    r = ll_clean - outlier_logliks(model.config.outlier_scale, model.schema, reals, cats)
    return pi_update(r, model.config.alpha)


def score(model: RvaeModel, table: MixedTable, rule: str) -> ScoreReport:
    """Per-cell outlier scores at each row's posterior mean latent: 'nll' is
    the negative clean log likelihood; 'pi' is -log of the inferred clean
    probability, which an ``rvae-avi`` model reads from its gate encoder.
    Row scores sum the cells."""
    if rule not in SCORE_RULES:
        raise ConfigError(f"unknown scoring rule '{rule}' (choose from {SCORE_RULES})")
    if rule == "pi" and not model.config.is_robust:
        raise ScoreRuleError("the pi rule needs a gated model; this checkpoint is a plain VAE")
    model.require_table(table)
    nets = model.networks

    def chunk_scores(chunk: int, rows: np.ndarray):
        reals, cats = table.reals[rows], table.cats[rows]
        if rule == "nll":
            head = _mean_head(model, reals, cats)
            return (-clean_logliks_values(nets.decoder, head, reals, cats),)
        if model.config.is_amortized:
            x = encode_values(model.schema, reals, cats)
            return (_pi_cell_scores(stable_sigmoid(
                nets.pi_encoder.apply(x, nets.embeddings.tables).value)),)
        return (_pi_cell_scores(_mean_gates(model, reals, cats)),)

    cells, = _map_chunks(table.n_rows, chunk_scores)
    return ScoreReport(rule=rule, cell_scores=cells, row_scores=cells.sum(axis=1))


def _blocks(schema: TableSchema) -> list[slice]:
    """Each categorical's columns among the (rows, sum C_d) probability blocks."""
    ends = np.cumsum([f.cardinality for f in schema.cat_features]).tolist()
    return [slice(end - f.cardinality, end) for f, end in zip(schema.cat_features, ends)]


def _assemble_repair(model: RvaeModel, table: MixedTable, reals_std: np.ndarray,
                     probs: np.ndarray) -> RepairResult:
    """The repair of ``table`` from standardized reals and (N, sum C_d)
    category probabilities: each categorical takes its block's
    highest-probability category, ties to the lowest index, and its block as
    its simplex. A real cell the repair kept is written as its raw input
    value (:func:`destandardize` with ``table`` as the source). The only
    place where the blocks become the per-feature simplexes dict."""
    schema = model.schema
    blocks = _blocks(schema)
    cats = np.empty((probs.shape[0], len(blocks)), dtype=np.int64)
    for j, block in enumerate(blocks):
        cats[:, j] = np.argmax(probs[:, block], axis=1)
    std_table = MixedTable(schema=schema, reals=reals_std, cats=cats, stats=model.stats)
    return RepairResult(table=destandardize(std_table, source=table),
                        simplexes={f.name: probs[:, b] for f, b in zip(schema.cat_features, blocks)})


def repair_map(model: RvaeModel, table: MixedTable) -> RepairResult:
    """Mode of the clean component at each row's posterior mean latent:
    reals become the decoded mean (then de-standardized), categoricals the
    highest probability category, ties to the lowest index."""
    model.require_table(table)

    def chunk_repair(chunk: int, rows: np.ndarray):
        decoded = decode_values(model.networks.decoder,
                                _mean_latents(model, table.reals[rows], table.cats[rows]))
        return decoded.real_means, decoded.cat_probs

    return _assemble_repair(model, table, *_map_chunks(table.n_rows, chunk_repair))


def _sample_categories(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs, axis=1)
    return np.clip((cum < u[:, None]).sum(axis=1), 0, probs.shape[1] - 1).astype(np.int64)


def _run_chain(model: RvaeModel, obs_reals: np.ndarray, obs_cats: np.ndarray, base: Rng,
               chunk: int, iters: int, active: np.ndarray, clean: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-Gibbs rounds from the observed rows: z ~ q(z | x), then x ~ p(x | z).

    The chain runs on the rows of the chunk that the boolean mask
    ``active`` selects; ``obs_reals`` and ``obs_cats`` hold those rows.
    Round t draws the whole chunk's (rows, latent + n_real) standard
    normals from ``base.derive(_NORMAL, chunk, t)`` (latent noise, then
    real-cell noise) and, except in the last round, whose cells nothing
    reads, one uniform per categorical cell from
    ``base.derive(_UNIFORM, chunk, t)``. It takes the active rows of each
    block, so a row's draws do not depend on which other rows run. With a (B, D) ``clean`` mask in schema column order, clean cells
    stay at their observed values in every round and dirty cells start at
    mean behaviour: zero for standardized reals, a zero one-hot block (a
    zero embedding) for categoricals.

    Returns the mean over the rounds of the decoded real means and category
    probabilities at each round's sampled latent, a Rao-Blackwellised
    readout of the chain: (B, n_real) reals and (B, sum C_d) probability
    blocks.
    """
    schema, nets = model.schema, model.networks
    k = model.config.latent_dim
    width = k + obs_reals.shape[1]
    reals, cats, zero_mask = obs_reals, obs_cats, None
    if clean is not None:
        real_cols, cat_cols = schema.kind_columns
        keep_reals, keep_cats = clean[:, real_cols], clean[:, cat_cols]
        reals, zero_mask = np.where(keep_reals, obs_reals, 0.0), ~keep_cats
    # a chain over the whole chunk takes its draw blocks as they are, uncopied
    take = slice(None) if active.all() else active
    means, probs = [], []
    for it in range(iters):
        x = encode_values(schema, reals, cats, zero_mask if it == 0 else None)
        mu, sig = nets.encoder.latent_values(x, nets.embeddings)
        eps = base.derive(_NORMAL, chunk, it).normal((active.size, width))[take]
        decoded = decode_values(nets.decoder, mu + sig * eps[:, :k])
        means.append(decoded.real_means)
        probs.append(decoded.cat_probs)
        if it + 1 == iters:
            break
        u = base.derive(_UNIFORM, chunk, it).uniform((active.size, obs_cats.shape[1]))[take]
        reals = decoded.real_means + decoded.real_stds * eps[:, k:]
        cats = np.empty_like(obs_cats)
        for j, block in enumerate(_blocks(schema)):
            cats[:, j] = _sample_categories(decoded.cat_probs[:, block], u[:, j])
        if clean is not None:
            reals = np.where(keep_reals, obs_reals, reals)
            cats = np.where(keep_cats, obs_cats, cats)
    return np.mean(means, axis=0), np.mean(probs, axis=0)


def _check_chain(model: RvaeModel, table: MixedTable, gibbs_iters: int) -> None:
    if gibbs_iters < 1:
        raise ConfigError("the chain needs at least one iteration")
    if not model.config.is_robust:
        raise ScoreRuleError("pseudo-Gibbs repair needs a gated model")
    model.require_table(table)


def repair_one_stage(model: RvaeModel, table: MixedTable, gibbs_iters: int = 5,
                     seed: int = 0) -> RepairResult:
    """Pseudo-Gibbs chain treating every cell as suspect.

    Starts from the observed row and alternates encode / latent sample /
    cell resample for the requested rounds. The repair is the mode of the
    chain's round-mean readout (see :func:`_run_chain`): its mean for reals,
    its highest-probability category for categoricals.
    """
    _check_chain(model, table, gibbs_iters)
    base = Rng(seed)

    def chunk_chain(chunk: int, rows: np.ndarray):
        return _run_chain(model, table.reals[rows], table.cats[rows], base, chunk,
                          gibbs_iters, np.ones(rows.size, dtype=bool))

    return _assemble_repair(model, table, *_map_chunks(table.n_rows, chunk_chain))


def repair_two_stage(model: RvaeModel, table: MixedTable, gibbs_iters: int = 5,
                     seed: int = 0) -> RepairResult:
    """Pseudo-Gibbs with an inferred clean mask.

    Takes each observed cell's clean probability from one encoder and
    decoder pass at the row's posterior mean: the closed-form gates of
    :func:`_mean_gates`, for ``rvae-avi`` too, whose gate encoder only the
    'pi' score reads. It samples a clean/dirty mask from them with
    ``base.derive(_MASK, chunk, 0)``, clamps clean cells to their observed
    values for the whole chain, and starts dirty cells at mean behaviour
    (zero for standardized reals, a zero embedding for categoricals). The
    repair keeps the clean cells' observed values (a real cell's raw input
    value, bit for bit), with one-hot simplexes, and gives dirty cells the
    mode of the chain's round-mean readout. The chain runs only on rows with
    a dirty cell; a chunk without one runs no chain.
    """
    _check_chain(model, table, gibbs_iters)
    schema = model.schema
    real_cols, cat_cols = schema.kind_columns
    base = Rng(seed)

    def chunk_chain(chunk: int, rows: np.ndarray):
        obs_reals, obs_cats = table.reals[rows], table.cats[rows]
        u = base.derive(_MASK, chunk, 0).uniform((rows.size, schema.n_features))
        clean = u < _mean_gates(model, obs_reals, obs_cats)
        # every cell starts at its observed value, a categorical as a one-hot
        # block; the chain runs on the rows with a dirty cell and fills those cells
        start = encode_values(schema, obs_reals, obs_cats)
        reals, probs = start[:, :obs_reals.shape[1]], start[:, obs_reals.shape[1]:]
        active = ~clean.all(axis=1)
        if active.any():
            chain_reals, chain_probs = _run_chain(model, obs_reals[active], obs_cats[active],
                                                  base, chunk, gibbs_iters, active, clean[active])
            dirty = ~clean[active]
            reals[active] = np.where(dirty[:, real_cols], chain_reals, reals[active])
            dirty_blocks = np.repeat(dirty[:, cat_cols], model.networks.decoder.cat_sizes, axis=1)
            probs[active] = np.where(dirty_blocks, chain_probs, probs[active])
        return reals, probs

    return _assemble_repair(model, table, *_map_chunks(table.n_rows, chunk_chain))
