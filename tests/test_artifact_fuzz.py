"""Byte-level fuzzing of the CSV and record loaders.

A damaged file must either load or raise an RvaeError subclass (which the
CLI maps to an exit code); dropping a whole line from a score report, a
simplex sidecar or a corruption record must raise DataFormatError.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rvae.corrupt import (CorruptionRecord, GaussianNoise, NoiseSpec, TemperedCategorical,
                          make_scenario)
from rvae.data import read_table, write_table
from rvae.errors import DataFormatError, RvaeError
from rvae.score_repair import RepairResult, ScoreReport, load_simplexes
from rvae.synthetic import mixture_table

N_ROWS = 6
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Valid files of each kind, and a loader for each."""
    root = tmp_path_factory.mktemp("fuzz")
    table = mixture_table(N_ROWS, seed=1)
    schema = table.schema
    write_table(table, root / "table.csv")
    cells = np.random.default_rng(0).exponential(size=(N_ROWS, schema.n_features))
    ScoreReport("pi", cells, cells.sum(axis=1)).save(root / "scores.csv", schema)
    simplexes = {f.name: np.eye(f.cardinality)[table.cats[:, j]]
                 for j, f in enumerate(schema.cat_features)}
    RepairResult(table, simplexes, "map").save(root / "repaired.csv", root / "simplexes.csv")
    noise = NoiseSpec(real=GaussianNoise(0.0, 5.0), cat=TemperedCategorical(0.0))
    make_scenario(table, 0.5, noise, seed=2, feat_frac=0.4)[1].save(root / "record.csv")
    loaders = {
        "table": lambda p: read_table(p, schema),
        "scores": lambda p: ScoreReport.load(p, schema),
        "simplexes": lambda p: load_simplexes(p, schema, N_ROWS),
        "record": CorruptionRecord.load,
    }
    files = {"table": "table.csv", "scores": "scores.csv", "simplexes": "simplexes.csv",
             "record": "record.csv"}
    return root, {k: (root / f).read_bytes() for k, f in files.items()}, loaders


def load_bytes(artifacts, kind, data):
    root, _, loaders = artifacts
    path = root / f"damaged-{kind}"
    path.write_bytes(data)
    return loaders[kind](path)


def survives(artifacts, kind, data):
    try:
        load_bytes(artifacts, kind, data)
    except RvaeError:
        pass


KINDS = ["table", "scores", "simplexes", "record"]


def test_valid_files_load(artifacts):
    _, originals, _ = artifacts
    for kind in KINDS:
        load_bytes(artifacts, kind, originals[kind])


@FUZZ
@given(kind=st.sampled_from(KINDS), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_files_load_or_raise_rvae_errors(artifacts, kind, cut):
    data = artifacts[1][kind]
    survives(artifacts, kind, data[:int(cut * len(data))])


@FUZZ
@given(kind=st.sampled_from(KINDS), start=st.floats(0.0, 1.0, exclude_max=True),
       length=st.integers(1, 12))
def test_files_with_dropped_bytes_load_or_raise_rvae_errors(artifacts, kind, start, length):
    data = artifacts[1][kind]
    i = int(start * len(data))
    survives(artifacts, kind, data[:i] + data[i + length:])


@FUZZ
@given(kind=st.sampled_from(KINDS),
       edits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
                      min_size=1, max_size=4))
def test_files_with_mutated_bytes_load_or_raise_rvae_errors(artifacts, kind, edits):
    data = bytearray(artifacts[1][kind])
    for where, byte in edits:
        data[int(where * len(data))] = byte
    survives(artifacts, kind, bytes(data))


@pytest.mark.parametrize("kind", ["scores", "simplexes", "record"])
def test_dropping_any_line_is_a_data_format_error(artifacts, kind):
    data = artifacts[1][kind]
    ending = b"\n" if kind == "record" else b"\r\n"
    lines = data.split(ending)[:-1]
    for i in range(len(lines)):
        damaged = ending.join(lines[:i] + lines[i + 1:]) + ending
        with pytest.raises(DataFormatError):
            load_bytes(artifacts, kind, damaged)
