"""Schema, mixed-type tables, standardization, and categorical encoding.

Tables store real columns as a float64 matrix and categorical columns as
integer indices into each feature's label list. Real features can carry a
standardization transform (mean, std mapping raw to current values) so
repairs can be reported back in original units.

External formats:
  * data CSV: UTF-8, first row is the header, RFC-4180 quoting (``"``,
    doubled inside a quoted field), LF, CRLF or CR line ends, no blank
    lines; real cells are decimal floats (ASCII digits, no digit-group
    underscores), categorical cells are labels, none empty or with a NUL;
  * schema JSON: an array, in column order, of
    ``{"name": ..., "kind": "real"}`` or
    ``{"name": ..., "kind": "categorical", "categories": [...]}``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count
from pathlib import Path

import numpy as np

from .engine import Tensor
from .errors import DataFormatError, SchemaMismatchError
from .nn import Rng

REAL = "real"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in (REAL, CATEGORICAL):
            raise DataFormatError(f"feature '{self.name}': unknown kind '{self.kind}'")
        if self.kind == CATEGORICAL:
            if self.categories is None or len(self.categories) < 2:
                raise DataFormatError(f"feature '{self.name}': categorical features need >= 2 categories")
            if len(set(self.categories)) != len(self.categories):
                raise DataFormatError(f"feature '{self.name}': duplicate category labels")
        elif self.categories is not None:
            raise DataFormatError(f"feature '{self.name}': real features take no categories")

    @property
    def cardinality(self) -> int:
        return len(self.categories) if self.categories is not None else 0


@dataclass(frozen=True)
class TableSchema:
    features: tuple[FeatureSpec, ...]

    def __post_init__(self):
        if len(self.features) < 1:
            raise DataFormatError("schema needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataFormatError("duplicate feature names in schema")

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def real_features(self) -> list[FeatureSpec]:
        return [f for f in self.features if f.kind == REAL]

    @property
    def cat_features(self) -> list[FeatureSpec]:
        return [f for f in self.features if f.kind == CATEGORICAL]

    @cached_property
    def slots(self) -> tuple[tuple[str, int], ...]:
        """Each schema column's storage slot: ("real", i) or ("categorical", j)."""
        counters = {REAL: count(), CATEGORICAL: count()}
        return tuple((f.kind, next(counters[f.kind])) for f in self.features)

    def to_json_obj(self) -> list[dict]:
        out = []
        for f in self.features:
            if f.kind == REAL:
                out.append({"name": f.name, "kind": REAL})
            else:
                out.append({"name": f.name, "kind": CATEGORICAL, "categories": list(f.categories)})
        return out

    @classmethod
    def from_json_obj(cls, obj) -> "TableSchema":
        if not isinstance(obj, list):
            raise DataFormatError("schema JSON must be an array of feature objects")
        feats = []
        try:
            for entry in obj:
                kind = entry["kind"]
                cats = tuple(entry["categories"]) if kind == CATEGORICAL else None
                feats.append(FeatureSpec(name=entry["name"], kind=kind, categories=cats))
            return cls(tuple(feats))
        except (TypeError, KeyError) as exc:
            raise DataFormatError(f"malformed schema entry: {exc!r}") from None

    @classmethod
    def load(cls, path) -> "TableSchema":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"schema file {path} does not parse: {exc}") from exc
        return cls.from_json_obj(obj)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_obj(), indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ColumnStats:
    """Affine transform from raw to current values: current = (raw - mean) / std."""

    mean: float
    std: float


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class MixedTable:
    """N rows of mixed-type cells, immutable after construction."""

    schema: TableSchema
    reals: np.ndarray  # (N, n_real) float64
    cats: np.ndarray   # (N, n_cat) int64
    stats: dict[str, ColumnStats] | None = None

    def __post_init__(self):
        object.__setattr__(self, "reals", _freeze(np.asarray(self.reals, dtype=np.float64)))
        object.__setattr__(self, "cats", _freeze(np.asarray(self.cats, dtype=np.int64)))
        n_real = len(self.schema.real_features)
        n_cat = len(self.schema.cat_features)
        if self.reals.shape != (self.n_rows, n_real) or self.cats.shape != (self.n_rows, n_cat):
            raise DataFormatError("table arrays do not match schema")
        if not np.all(np.isfinite(self.reals)):
            raise DataFormatError("non-finite real cell")
        for j, feat in enumerate(self.schema.cat_features):
            col = self.cats[:, j]
            if col.size and (col.min() < 0 or col.max() >= feat.cardinality):
                raise DataFormatError(f"categorical index out of range in feature '{feat.name}'")
        if self.stats is not None:
            for feat in self.schema.real_features:
                if feat.name not in self.stats:
                    raise DataFormatError(f"missing standardization stats for '{feat.name}'")
                if not self.stats[feat.name].std > 0:
                    raise DataFormatError(f"non-positive std in stats for '{feat.name}'")

    @property
    def n_rows(self) -> int:
        return self.reals.shape[0] if self.reals.ndim == 2 else self.cats.shape[0]

    @property
    def is_standardized(self) -> bool:
        return self.stats is not None


def load_csv(csv_path, schema_path) -> MixedTable:
    schema = TableSchema.load(schema_path)
    return read_table(csv_path, schema)


def csv_field(text: str) -> str:
    """``text`` as csv.writer's default dialect writes it inside a row."""
    if not text:
        return text  # csv.writer quotes an empty field only when it is the whole row
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2]


def write_csv(path, header: list[str], blocks) -> None:
    """Write a CSV byte for byte as csv.writer would (CRLF line ends).

    ``blocks`` yields lists of columns, each a list of fields already
    formatted with :func:`csv_field` (or needing no quotes, like numbers).
    Each block is joined and written whole.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(csv_field, header)) or '""')
        fh.write("\r\n")
        for columns in blocks:
            lines = list(map(",".join, zip(*columns)))
            if len(columns) == 1:
                lines = [line or '""' for line in lines]
            if lines:
                fh.write("\r\n".join(lines))
                fh.write("\r\n")


WRITE_BLOCK_ROWS = 4096


def read_table(csv_path, schema: TableSchema) -> MixedTable:
    """Parse a CSV against a schema; all errors report row and column."""
    path = Path(csv_path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            data = fh.read()
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    if header != schema.names:
        raise DataFormatError(f"{path}: header {header} does not match schema columns {schema.names}")
    if not data.lstrip("\r\n"):  # np.loadtxt warns on a data section of blank lines
        raise DataFormatError(_first_bad_cell(path, schema, data) or f"{path}: no rows")
    width = 1 + max((len(c) for f in schema.cat_features for c in f.categories), default=0)
    dtype = [(f"c{i}", "f8" if f.kind == REAL else f"U{width}") for i, f in enumerate(schema.features)]
    try:
        cells = np.loadtxt(io.StringIO(data, newline=""), dtype=dtype, delimiter=",", quotechar='"',
                           comments=None, ndmin=1)
    except ValueError:
        raise DataFormatError(_first_bad_cell(path, schema, data) or f"{path}: malformed table") from None
    reals = np.empty((len(cells), len(schema.real_features)))
    cats = np.empty((len(cells), len(schema.cat_features)), dtype=np.int64)
    for column, (feat, (kind, slot)) in enumerate(zip(schema.features, schema.slots)):
        values = cells[f"c{column}"]
        if kind == REAL:
            reals[:, slot] = values
            continue
        # "" leads with index -1, so an empty cell is missing; a label with a NUL
        # is left out, as its U-array copy would lose trailing NULs
        known = sorted((label, i) for i, label in enumerate(feat.categories) if "\x00" not in label)
        keys, index = np.array([""] + [k for k, _ in known]), np.array([-1] + [i for _, i in known])
        at = np.searchsorted(keys, values).clip(max=len(keys) - 1)
        cats[:, slot] = np.where(keys[at] == values, index[at], -1)
    # np.loadtxt skips blank lines, strips \x1c-\x1f around numbers and drops a
    # label's trailing NULs: csv.reader checks tables with fewer rows than line
    # ends (blank lines or quoted line breaks) or with those characters. The
    # line ends are every LF and every CR not before an LF; the pad byte gives
    # a final CR a byte to look at.
    codes = np.frombuffer(data.encode() + b" ", np.uint8)
    line_ends = (np.count_nonzero(codes == 10)
                 + np.count_nonzero(codes[np.flatnonzero(codes == 13) + 1] != 10))
    lax = (len(cells) != line_ends + (data[-1] not in "\r\n")
           or any(c in data for c in "\x00\x1c\x1d\x1e\x1f"))
    if ((cats < 0).any() or lax) and (error := _first_bad_cell(path, schema, data)):
        raise DataFormatError(error)
    return MixedTable(schema=schema, reals=reals, cats=cats, stats=None)


def _first_bad_cell(path, schema: TableSchema, data: str) -> str | None:
    """The error for the first malformed row or cell of the data section, in
    file order, or None if every cell is well formed."""
    try:
        rows = list(csv.reader(io.StringIO(data, newline="")))
    except csv.Error as exc:
        return f"{path}: {exc}"
    for r, row in enumerate(rows):
        if len(row) != schema.n_features:
            return f"{path}: row {r} has {len(row)} cells, expected {schema.n_features}"
        for feat, text in zip(schema.features, row):
            where = f"{path}: row {r}, column '{feat.name}'"
            if text == "":
                return f"{where}: missing values are not supported"
            if feat.kind == REAL:
                try:  # float() also takes digit-group underscores and non-ASCII digits
                    if "_" in text or not text.strip().isascii():
                        raise ValueError
                    float(text)
                except ValueError:
                    return f"{where}: non-numeric value '{text}'"
            elif "\x00" in text or text not in feat.categories:
                return f"{where}: unknown category '{text}'"
    return None


def write_table(table: MixedTable, csv_path) -> None:
    """Write a table back to CSV; floats use repr so reloads are bit-exact."""
    schema = table.schema
    labels = [[csv_field(label) for label in f.categories] for f in schema.cat_features]

    def blocks():
        for start in range(0, table.n_rows, WRITE_BLOCK_ROWS):
            reals = table.reals[start:start + WRITE_BLOCK_ROWS].T.tolist()
            cats = table.cats[start:start + WRITE_BLOCK_ROWS].T.tolist()
            columns, i_real, i_cat = [], 0, 0
            for feat in schema.features:
                if feat.kind == REAL:
                    columns.append(list(map(repr, reals[i_real])))
                    i_real += 1
                else:
                    columns.append(list(map(labels[i_cat].__getitem__, cats[i_cat])))
                    i_cat += 1
            yield columns

    write_csv(csv_path, schema.names, blocks())


def standardize(table: MixedTable) -> MixedTable:
    """Shift/scale every real column to empirical mean 0 and std 1.

    Uses the population (1/N) standard deviation. Composes with any
    transform the table already carries, so re-standardizing is a no-op up
    to float rounding and de-standardization always recovers raw units.
    """
    if not table.schema.real_features:
        return replace(table, stats={})
    means = table.reals.mean(axis=0)
    stds = table.reals.std(axis=0)
    new_stats = {}
    for j, feat in enumerate(table.schema.real_features):
        if stds[j] <= 0.0:
            raise DataFormatError(f"feature '{feat.name}' is constant; cannot standardize")
        old = table.stats.get(feat.name) if table.stats else None
        if old is None:
            new_stats[feat.name] = ColumnStats(mean=float(means[j]), std=float(stds[j]))
        else:
            new_stats[feat.name] = ColumnStats(mean=float(old.mean + means[j] * old.std),
                                               std=float(old.std * stds[j]))
    values = (table.reals - means) / stds
    return replace(table, reals=values, stats=new_stats)


def apply_stats(table: MixedTable, stats: dict[str, ColumnStats]) -> MixedTable:
    """Standardize a raw table with a previously computed transform."""
    if table.stats is not None:
        raise DataFormatError("apply_stats expects a raw (unstandardized) table")
    values = table.reals.copy()
    for j, feat in enumerate(table.schema.real_features):
        st = stats[feat.name]
        values[:, j] = (values[:, j] - st.mean) / st.std
    return replace(table, reals=values, stats=dict(stats))


def destandardize(table: MixedTable) -> MixedTable:
    """Map a standardized table back to raw units."""
    if table.stats is None:
        return table
    values = table.reals.copy()
    for j, feat in enumerate(table.schema.real_features):
        st = table.stats[feat.name]
        values[:, j] = values[:, j] * st.std + st.mean
    return replace(table, reals=values, stats=None)


class EmbeddingBank:
    """Learnable unit-norm embedding rows, one matrix per categorical feature."""

    def __init__(self, schema: TableSchema, dim: int, rng: Rng | None = None):
        self.dim = dim
        self.tensors: dict[str, Tensor] = {}
        for feat in schema.cat_features:
            if rng is None:
                rows = np.zeros((feat.cardinality, dim))
                rows[:, 0] = 1.0
            else:
                rows = rng.normal((feat.cardinality, dim))
                rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            self.tensors[feat.name] = Tensor(rows)

    @property
    def tables(self) -> list[Tensor]:
        """The embedding matrices in categorical-feature order."""
        return list(self.tensors.values())

    def renormalize(self) -> None:
        """Rescale every row to unit Euclidean norm (called after optimizer steps)."""
        for t in self.tensors.values():
            t.value /= np.linalg.norm(t.value, axis=1, keepdims=True)

    def params(self) -> dict[str, Tensor]:
        return {f"embeddings.{name}": t for name, t in self.tensors.items()}


def encoded_dim(schema: TableSchema, embedding_dim: int) -> int:
    return len(schema.real_features) + embedding_dim * len(schema.cat_features)


def encode_values(schema: TableSchema, reals: np.ndarray, cats: np.ndarray,
                  zero_mask: np.ndarray | None = None) -> np.ndarray:
    """Model input for a batch: standardized reals, then a one-hot block per
    categorical, (B, n_real + sum C_d).

    The encoder's first layer reads each block through the feature's
    embedding matrix (:func:`engine.onehot_dense`). ``zero_mask`` (B, n_cat)
    zeroes selected blocks, which stands for a zero embedding: this is how
    mean-behaviour imputation represents unknown categoricals.
    """
    n = reals.shape[0] if reals.size else cats.shape[0]
    n_real = reals.shape[1]
    offsets = n_real + np.cumsum([0] + [f.cardinality for f in schema.cat_features])
    x = np.zeros((n, offsets[-1]))
    x[:, :n_real] = reals
    if cats.shape[1]:
        x[np.arange(n)[:, None], offsets[:-1] + cats] = 1.0 if zero_mask is None else ~zero_mask
    return x


def require_same_schema(a: TableSchema, b: TableSchema, context: str = "") -> None:
    if a == b:
        return
    prefix = f"{context}: " if context else ""
    if a.names != b.names:
        raise SchemaMismatchError(f"{prefix}feature names differ: {a.names} vs {b.names}")
    for fa, fb in zip(a.features, b.features):
        if fa != fb:
            raise SchemaMismatchError(f"{prefix}feature '{fa.name}' differs: {fa} vs {fb}")
    raise SchemaMismatchError(f"{prefix}schemas differ")
