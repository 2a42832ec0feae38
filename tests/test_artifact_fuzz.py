"""Byte-level fuzzing of the table loader and of the container loaders
(score reports, simplex sidecars, corruption records and checkpoints).

A damaged file must either load or raise an RvaeError subclass (which the
CLI maps to an exit code); dropping a whole tensor, or one line of the CSV
form (one row of a tensor), from a score report, a simplex sidecar or a
corruption record must raise DataFormatError.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rvae.container import read_container
from rvae.corrupt import (CorruptionRecord, GaussianNoise, NoiseSpec, TemperedCategorical,
                          make_scenario)
from rvae.data import read_table, standardize, write_table
from rvae.errors import DataFormatError, RvaeError
from rvae.score_repair import RepairResult, ScoreReport, load_simplexes
from rvae.synthetic import mixture_table
from rvae.train import TrainConfig, load_model, save_model, train

from conftest import rewrite_tensors

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
    ScoreReport("pi", cells, cells.sum(axis=1)).save(root / "scores", schema)
    simplexes = {f.name: np.eye(f.cardinality)[table.cats[:, j]]
                 for j, f in enumerate(schema.cat_features)}
    RepairResult(table, simplexes).save(root / "repaired.csv", root / "simplexes")
    noise = NoiseSpec(real=GaussianNoise(0.0, 5.0), cat=TemperedCategorical(0.0))
    make_scenario(table, 0.5, noise, seed=2, feat_frac=0.4)[1].save(root / "record")
    model, _ = train(standardize(table), TrainConfig(epochs=1, batch_size=N_ROWS, hidden_dim=4,
                                                     latent_dim=2, embedding_dim=2))
    save_model(model, root / "checkpoint")
    loaders = {
        "table": lambda p: read_table(p, schema),
        "scores": lambda p: ScoreReport.load(p, schema),
        "simplexes": lambda p: load_simplexes(p, schema, N_ROWS),
        "record": CorruptionRecord.load,
        "checkpoint": lambda p: load_model(p, expected_schema=schema),
    }
    files = {kind: kind for kind in loaders}
    files["table"] = "table.csv"
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


KINDS = ["table", "scores", "simplexes", "record", "checkpoint"]


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
def test_dropping_any_tensor_is_a_data_format_error(artifacts, kind):
    root, originals, _ = artifacts
    valid = root / f"valid-{kind}"
    valid.write_bytes(originals[kind])
    names = list(read_container(valid)[1])
    assert names
    for name in names:
        rewrite_tensors(valid, root / "dropped", lambda header, tensors: tensors.pop(name))
        with pytest.raises(DataFormatError):
            load_bytes(artifacts, kind, (root / "dropped").read_bytes())


@pytest.mark.parametrize("kind", ["scores", "simplexes", "record"])
def test_dropping_any_line_is_a_data_format_error(artifacts, kind):
    root, originals, _ = artifacts
    valid = root / f"valid-{kind}"
    valid.write_bytes(originals[kind])
    for name, tensor in read_container(valid)[1].items():
        assert len(tensor)
        for i in range(len(tensor)):
            rewrite_tensors(valid, root / "dropped",
                            lambda header, tensors: tensors.update({name: np.delete(tensor, i, 0)}))
            with pytest.raises(DataFormatError):
                load_bytes(artifacts, kind, (root / "dropped").read_bytes())
