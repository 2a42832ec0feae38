"""Seeded input tables for the benchmark workloads.

Rows come from the same two-component latent mixture as
``rvae.synthetic.mixture_table``, extended to any number of real and
categorical columns and any cardinalities: each real column is a
component-dependent Gaussian, each categorical column a component-skewed
discrete draw. All parameters and draws come from the benchmark seed, so
the same seed gives byte-identical files. The program under test only
ever receives the CSV and schema files written here.

Both workloads currently write ``mixture_table``'s own 4 + 2 column demo
table with ``write_table``; ``mixture_columns`` gives the wider and taller
shapes (60 or 12 features) that a quieter host could measure steadily.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _rng(*keys: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))


def mixture_columns(n_rows: int, n_real: int, cardinalities: list[int], seed: int,
                    sample: int = 0):
    """Raw reals (n_rows, n_real) and category indices (n_rows, n_cat).

    The mixture parameters depend on the seed and the shape only; ``sample``
    selects an independent draw of rows from the same distribution."""
    rng = _rng(seed, n_real, len(cardinalities))
    means0 = rng.uniform(-2.0, 2.0, n_real)
    # the second component mirrors the first, as in the built-in tables
    means = np.stack([means0, -means0])
    stds = rng.uniform(0.5, 0.8, n_real)
    tables = []
    for card in cardinalities:
        # component 0 favours the low categories, component 1 the high ones
        ramp = np.linspace(2.0, 0.2, card)
        weights = np.stack([ramp, ramp[::-1]]) * rng.uniform(0.5, 1.5, (2, card))
        tables.append(weights / weights.sum(axis=1, keepdims=True))
    rng = _rng(seed, n_real, len(cardinalities), sample + 1)
    component = (rng.random(n_rows) < 0.5).astype(np.int64)
    reals = means[component] + stds[None, :] * rng.standard_normal((n_rows, n_real))
    cats = np.empty((n_rows, len(cardinalities)), dtype=np.int64)
    for j, probs in enumerate(tables):
        u = rng.random(n_rows)
        cats[:, j] = np.minimum((np.cumsum(probs[component], axis=1) < u[:, None]).sum(axis=1),
                                probs.shape[1] - 1)
    return reals, cats


def cardinality_cycle(n_cat: int, low: int, high: int) -> list[int]:
    """Cardinalities low, low+1, ..., high, low, ... for n_cat columns."""
    return [low + j % (high - low + 1) for j in range(n_cat)]


def write_table(directory, reals: np.ndarray, cats: np.ndarray,
                cardinalities: list[int]) -> tuple[Path, Path]:
    """Write ``clean.csv`` and ``schema.json``: reals first (``x<j>``), then
    categoricals (``c<j>`` with labels ``k<i>``). Floats use repr, so the
    program parses back the exact values."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    schema = [{"name": f"x{j}", "kind": "real"} for j in range(reals.shape[1])]
    schema += [{"name": f"c{j}", "kind": "categorical",
                "categories": [f"k{i}" for i in range(card)]}
               for j, card in enumerate(cardinalities)]
    columns = [[repr(v) for v in col] for col in reals.T.tolist()]
    columns += [[f"k{i}" for i in col] for col in cats.T.tolist()]
    lines = [",".join(f["name"] for f in schema)]
    lines += [",".join(row) for row in zip(*columns)]
    csv_path, schema_path = directory / "clean.csv", directory / "schema.json"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    schema_path.write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
    return csv_path, schema_path
