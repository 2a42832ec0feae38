"""Ground-truth-generating noise injection for mixed-type tables.

Two-step cell selection: a fraction of rows is drawn, and inside every
selected row a fraction of features is drawn independently. Real cells
get additive noise in raw (pre-standardization) units with scales tied to
the clean column std; categorical cells are resampled from the tempered
marginal distribution with the clean category excluded.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from .container import read_container, require_tensors, write_container
from .data import REAL, MixedTable, _freeze
from .errors import ConfigError, DataFormatError
from .nn import Rng

RECORD_FORMAT = "rvae-corruption-record"
RECORD_COLUMNS = "row,column,original_value"


class _FiniteParams:
    """A noise process whose parameters must all be finite."""

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ConfigError(f"noise parameters must be finite, got {self}")


@dataclass(frozen=True)
class GaussianNoise(_FiniteParams):
    mu: float = 0.0
    k: float = 5.0  # scale multiplier on the clean column std

    def draw(self, sigma_hat: float, rng: Rng, size: int) -> np.ndarray:
        return self.mu + self.k * sigma_hat * rng.normal(size)


@dataclass(frozen=True)
class LaplaceNoise(_FiniteParams):
    mu: float = 0.0
    k: float = 4.0

    def __post_init__(self):
        super().__post_init__()
        if self.k < 0:
            raise ConfigError(f"the laplace scale must be >= 0, got {self.k}")

    def draw(self, sigma_hat: float, rng: Rng, size: int) -> np.ndarray:
        return rng.gen.laplace(self.mu, self.k * sigma_hat, size)


@dataclass(frozen=True)
class LogNormalNoise(_FiniteParams):
    mu: float = 0.0
    k: float = 0.75

    def draw(self, sigma_hat: float, rng: Rng, size: int) -> np.ndarray:
        # the additive term itself is log-normal: exp(N(mu, k * sigma_hat))
        return np.exp(self.mu + self.k * sigma_hat * rng.normal(size))


@dataclass(frozen=True)
class GaussianMixtureNoise(_FiniteParams):
    components: tuple[tuple[float, float, float], ...] = ((-0.5, 3.0, 0.6), (0.5, 3.0, 0.4))

    def __post_init__(self):
        super().__post_init__()
        weights = [w for _, _, w in self.components]
        if min(weights) < 0:
            raise ConfigError(f"mixture weights must be >= 0, got {weights}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError("mixture weights must sum to 1")

    def draw(self, sigma_hat: float, rng: Rng, size: int) -> np.ndarray:
        weights = np.array([w for _, _, w in self.components])
        choice = rng.gen.choice(len(self.components), size=size, p=weights)
        eps = rng.normal(size)
        mus = np.array([m for m, _, _ in self.components])
        ks = np.array([k for _, k, _ in self.components])
        return mus[choice] + ks[choice] * sigma_hat * eps


@dataclass(frozen=True)
class TemperedCategorical:
    beta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ConfigError(f"beta must lie in [0, 1), got {self.beta}")


RealNoise = GaussianNoise | LaplaceNoise | LogNormalNoise | GaussianMixtureNoise


@dataclass(frozen=True)
class NoiseSpec:
    real: RealNoise | None = None
    cat: TemperedCategorical | None = None


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def select_cells(n_rows: int, n_features: int, row_frac: float, feat_frac: float,
                 rng: Rng) -> np.ndarray:
    """Boolean (N, D) mask: round(row_frac*N) rows, each with
    round(feat_frac*D) features redrawn independently per row."""
    if not 0.0 < row_frac <= 1.0:
        raise ConfigError(f"row fraction must lie in (0, 1], got {row_frac}")
    if not 0.0 < feat_frac <= 1.0:
        raise ConfigError(f"feature fraction must lie in (0, 1], got {feat_frac}")
    n_sel_rows = _round_half_up(row_frac * n_rows)
    n_sel_feats = _round_half_up(feat_frac * n_features)
    if n_sel_feats == 0:
        raise ConfigError(f"feature fraction {feat_frac} selects zero of {n_features} features per row")
    mask = np.zeros((n_rows, n_features), dtype=bool)
    rows = rng.gen.choice(n_rows, size=n_sel_rows, replace=False)
    for r in sorted(int(x) for x in rows):
        feats = rng.gen.choice(n_features, size=n_sel_feats, replace=False)
        mask[r, feats] = True
    return mask


def corrupt_real(value: float, spec: RealNoise, sigma_hat: float, rng: Rng) -> float:
    """Additive noise: observed = clean + zeta, zeta from the configured process."""
    return float(value + spec.draw(sigma_hat, rng, 1)[0])


def tempered_probs(marginal: np.ndarray, clean_index: int, beta: float) -> np.ndarray:
    """Noise distribution over the other categories: p_c^beta renormalized
    with the clean category excluded (beta=0 gives the uniform)."""
    p = np.asarray(marginal, dtype=np.float64).copy()
    p[clean_index] = 0.0
    if not np.any(p > 0):
        raise DataFormatError("all other categories have zero marginal mass")
    weights = np.zeros_like(p)
    pos = p > 0
    weights[pos] = p[pos] ** beta
    return weights / weights.sum()


def corrupt_categorical(value: int, beta: float, marginal: np.ndarray, rng: Rng) -> int:
    """Draw a dirty category, never equal to the clean one."""
    probs = tempered_probs(marginal, int(value), beta)
    u = float(rng.uniform())
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1))


@dataclass(frozen=True)
class CorruptionRecord:
    """Ground truth for the evaluator: which cells were corrupted, and the
    clean values they held; immutable after construction."""

    mask: np.ndarray       # (N, D) bool, schema column order
    originals: np.ndarray  # (M,) float64 clean values, in the row-major order of mask
    categorical_columns: tuple[int, ...]  # columns whose originals are category indices
    row_fraction: float = 0.0
    feat_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mask", _freeze(np.asarray(self.mask, dtype=bool)))
        object.__setattr__(self, "originals", _freeze(np.asarray(self.originals, dtype=float)))
        if self.mask.ndim != 2 or self.originals.shape != (self.n_cells,):
            raise DataFormatError(f"a {self.mask.shape} mask marking {self.n_cells} cells needs "
                                  f"one original per marked cell, not {self.originals.shape}")

    @property
    def n_cells(self) -> int:
        return int(self.mask.sum())

    def column(self, column: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the marked cells in ``column``, ascending, and their
        clean values."""
        rows, cols = np.nonzero(self.mask)
        here = cols == column
        return rows[here], self.originals[here]

    def _header(self) -> dict:
        return {"format": RECORD_FORMAT, "seed": self.seed, "row_fraction": self.row_fraction,
                "feat_fraction": self.feat_fraction, "shape": list(self.mask.shape)}

    def save(self, path) -> None:
        """An artifact container: the marked cells as a (M, 2) tensor of
        (row, column) in row-major order and their original values, with the
        categorical columns that hold marked cells named in the header."""
        rows, cols = np.nonzero(self.mask)
        write_container(path, {**self._header(), "categorical_columns": sorted(
            {c for c in self.categorical_columns if self.mask[:, c].any()})},
            {"cells": np.column_stack([rows, cols]).astype(np.float64),
             "originals": self.originals})

    @classmethod
    def load(cls, path) -> "CorruptionRecord":
        """Read a record written by :meth:`save`.

        Every cell must lie inside the header's shape and appear once, and
        the cells must have the layout make_scenario selects for the header's
        fractions: round(row_fraction * N) rows with round(feat_fraction * D)
        cells each. Originals of categorical columns must be integers.
        Anything else raises DataFormatError.
        """
        header, tensors = read_container(path, RECORD_FORMAT)
        shape, seed = header.get("shape"), header.get("seed")
        cat_columns = header.get("categorical_columns")
        fractions = (header.get("row_fraction"), header.get("feat_fraction"))
        if not (isinstance(shape, list) and len(shape) == 2 and all(map(_is_count, shape))
                and _is_count(seed) and all(map(_is_fraction, fractions))
                and isinstance(cat_columns, list)
                and all(_is_count(c) and c < shape[1] for c in cat_columns)):
            raise DataFormatError(f"{path}: record header needs a shape [rows, columns], a seed, "
                                  "two fractions in [0, 1] and the categorical columns")
        n, d = shape
        m = require_tensors(path, tensors, {"cells": (None, 2), "originals": (None,)})
        cells, values = tensors["cells"], tensors["originals"]
        if not (_integral(cells) and _integral(values[np.isin(cells[:, 1], cat_columns)])):
            raise DataFormatError(f"{path}: cells and categorical original values must be integers")
        rows, cols = cells.astype(np.int64).T
        outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= d)
        if outside.any():
            i = int(np.argmax(outside))
            raise DataFormatError(f"{path}: cell ({rows[i]}, {cols[i]}) lies outside shape {shape}")
        order = np.lexsort((cols, rows))
        sorted_rows, sorted_cols = rows[order], cols[order]
        repeated = (sorted_rows[1:] == sorted_rows[:-1]) & (sorted_cols[1:] == sorted_cols[:-1])
        if repeated.any():
            i = int(np.argmax(repeated))
            raise DataFormatError(f"{path}: cell ({sorted_rows[i]}, {sorted_cols[i]}) appears "
                                  "more than once")
        marked = np.unique(sorted_rows, return_counts=True)[1]
        if (marked.size != _round_half_up(fractions[0] * n)
                or np.any(marked != _round_half_up(fractions[1] * d))):
            raise DataFormatError(f"{path}: {m} cells in {marked.size} rows do not match "
                                  f"row fraction {fractions[0]} and feature fraction "
                                  f"{fractions[1]} of shape {shape}")
        try:
            mask = np.zeros((n, d), dtype=bool)
        except (MemoryError, ValueError):
            raise DataFormatError(f"{path}: no memory for a mask of shape {shape}") from None
        mask[rows, cols] = True
        return cls(mask=mask, originals=values[order], categorical_columns=tuple(cat_columns),
                   seed=seed, row_fraction=fractions[0], feat_fraction=fractions[1])

    def export(self, path) -> None:
        """Text form: a JSON header line, then a (row,column,original_value)
        CSV in row-major order, with categorical originals written as integers."""
        lines = [json.dumps(self._header()), RECORD_COLUMNS]
        rows, cols = np.nonzero(self.mask)
        is_cat = np.isin(cols, self.categorical_columns).tolist()
        values = [int(v) if cat else v for v, cat in zip(self.originals.tolist(), is_cat)]
        lines += map("{},{},{!r}".format, rows.tolist(), cols.tolist(), values)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_fraction(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value <= 1


def _integral(values: np.ndarray) -> bool:
    """Whether every value is an integer that float64 holds exactly."""
    return bool(np.all(np.abs(values) < 2.0 ** 53) and np.all(values == np.floor(values)))


def make_scenario(table: MixedTable, row_frac: float, noise: NoiseSpec, seed: int,
                  feat_frac: float = 0.2) -> tuple[MixedTable, CorruptionRecord]:
    """Corrupt a clean raw table; the record retains the originals.

    Column std and categorical marginals for the noise processes are
    computed on the clean table (the injector owns the ground truth).
    """
    if table.is_standardized:
        raise ConfigError("corruption operates on raw (pre-standardization) tables")
    n, d = table.n_rows, table.schema.n_features
    is_real = np.array([f.kind == REAL for f in table.schema.features])
    cat_columns = tuple(np.flatnonzero(~is_real).tolist())
    if row_frac == 0.0:
        return table, CorruptionRecord(mask=np.zeros((n, d), dtype=bool), originals=np.zeros(0),
                                       categorical_columns=cat_columns, seed=seed,
                                       row_fraction=0.0, feat_fraction=feat_frac)
    rng = Rng(seed)
    mask = select_cells(n, d, row_frac, feat_frac, rng)
    clean = np.empty((n, d))
    clean[:, is_real], clean[:, ~is_real] = table.reals, table.cats
    sigma_hat = table.reals.std(axis=0) if table.reals.size else np.zeros(0)
    marginals = []
    for j, feat in enumerate(table.schema.cat_features):
        counts = np.bincount(table.cats[:, j], minlength=feat.cardinality).astype(np.float64)
        marginals.append(counts / counts.sum())
    reals = table.reals.copy()
    cats = table.cats.copy()
    # one draw per cell in row-major order: that order fixes the dirty values;
    # a draw that overflows is reported below as a config error, not a warning
    with np.errstate(over="ignore"):
        for row, column in zip(*np.nonzero(mask)):
            kind, slot = table.schema.slots[column]
            if kind == REAL:
                if noise.real is None:
                    raise ConfigError(f"mask hit real feature '{table.schema.features[column].name}' "
                                      "but no real noise process was configured")
                reals[row, slot] = corrupt_real(reals[row, slot], noise.real, float(sigma_hat[slot]), rng)
            else:
                if noise.cat is None:
                    raise ConfigError(f"mask hit categorical feature '{table.schema.features[column].name}' "
                                      "but no categorical noise process was configured")
                cats[row, slot] = corrupt_categorical(int(cats[row, slot]), noise.cat.beta,
                                                      marginals[slot], rng)
    # finite parameters can still draw values that overflow to inf
    if not np.all(np.isfinite(reals[mask[:, is_real]])):
        raise ConfigError(f"real noise {noise.real} drew values too large for float64")
    dirty = replace(table, reals=reals, cats=cats)
    record = CorruptionRecord(mask=mask, originals=clean[mask], categorical_columns=cat_columns,
                              seed=seed, row_fraction=row_frac, feat_fraction=feat_frac)
    return dirty, record
