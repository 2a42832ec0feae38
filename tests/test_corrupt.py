import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvae.corrupt import (CorruptionRecord, GaussianMixtureNoise, GaussianNoise,
                          LaplaceNoise, LogNormalNoise, NoiseSpec,
                          TemperedCategorical, corrupt_categorical, corrupt_real,
                          make_scenario, select_cells, tempered_probs)
from rvae.errors import ConfigError, DataFormatError
from rvae.nn import Rng

from conftest import random_table, restore_clean, rewrite_tensors

NOISE = NoiseSpec(real=GaussianNoise(0.0, 5.0), cat=TemperedCategorical(0.0))


# -- cell selection -----------------------------------------------------------

def test_select_cells_five_percent_rows():
    mask = select_cells(1000, 10, row_frac=0.05, feat_frac=0.2, rng=Rng(0))
    assert mask.sum() == 100  # 50 rows x 2 features = 1% of cells
    rows = mask.any(axis=1).sum()
    assert rows == 50
    assert np.all(mask.sum(axis=1)[mask.any(axis=1)] == 2)


def test_select_cells_full_table():
    mask = select_cells(20, 4, row_frac=1.0, feat_frac=1.0, rng=Rng(1))
    assert mask.all()


def test_select_cells_same_seed_same_mask():
    a = select_cells(100, 8, 0.2, 0.25, Rng(7))
    b = select_cells(100, 8, 0.2, 0.25, Rng(7))
    np.testing.assert_array_equal(a, b)


def test_select_cells_rejects_zero_feature_count():
    with pytest.raises(ConfigError, match="zero"):
        select_cells(100, 10, row_frac=0.5, feat_frac=0.01, rng=Rng(0))


def test_select_cells_rejects_bad_row_fraction():
    with pytest.raises(ConfigError, match="row fraction"):
        select_cells(100, 10, row_frac=0.0, feat_frac=0.2, rng=Rng(0))


@pytest.mark.parametrize("feat_frac", [1.5, -0.2])
def test_select_cells_rejects_bad_feature_fraction(feat_frac):
    with pytest.raises(ConfigError, match=re.escape(f"feature fraction must lie in (0, 1], "
                                                    f"got {feat_frac}")):
        select_cells(100, 10, row_frac=0.5, feat_frac=feat_frac, rng=Rng(0))


def test_select_cells_rounding_half_up():
    # 0.25 * 6 = 1.5 rounds half-up to 2 features per row
    mask = select_cells(10, 6, row_frac=0.25, feat_frac=0.25, rng=Rng(3))
    assert mask.any(axis=1).sum() == 3  # 2.5 rows -> 3
    assert np.all(mask.sum(axis=1)[mask.any(axis=1)] == 2)


# -- real noise processes -----------------------------------------------------

def draws(spec, sigma_hat, n, seed=0):
    rng = Rng(seed)
    return np.array([corrupt_real(0.0, spec, sigma_hat, rng) for _ in range(n)])


def test_gaussian_noise_moment():
    zeta = GaussianNoise(0.0, 5.0).draw(2.0, Rng(0), 100_000)
    assert abs(zeta.std() - 10.0) / 10.0 < 0.02


def test_laplace_noise_moment():
    zeta = LaplaceNoise(0.0, 4.0).draw(1.5, Rng(1), 100_000)
    expected = np.sqrt(2.0) * 4.0 * 1.5
    assert abs(zeta.std() - expected) / expected < 0.03


def test_lognormal_noise_positive_shift():
    zeta = LogNormalNoise(0.0, 0.75).draw(1.0, Rng(2), 10_000)
    assert np.all(zeta > 0.0)


def test_gaussian_mixture_noise_moments():
    spec = GaussianMixtureNoise()
    zeta = spec.draw(1.0, Rng(3), 200_000)
    assert abs(zeta.mean() - (-0.1)) < 0.03  # 0.6*(-0.5) + 0.4*0.5
    expected_var = 9.0 + 0.25 - 0.01  # within-component var + mean spread
    assert abs(zeta.var() - expected_var) / expected_var < 0.03


def test_gaussian_mixture_weights_must_sum_to_one():
    with pytest.raises(ConfigError):
        GaussianMixtureNoise(components=((0.0, 1.0, 0.5), (0.0, 1.0, 0.6)))


def test_corrupt_real_is_additive_shift():
    # same stream: corrupt(v) - v equals corrupt(0) for any v
    for value in (-11.0, 0.0, 3.25):
        zeta = corrupt_real(value, GaussianNoise(0.0, 5.0), 2.0, Rng(9)) - value
        assert zeta == corrupt_real(0.0, GaussianNoise(0.0, 5.0), 2.0, Rng(9))


# -- categorical noise --------------------------------------------------------

def test_tempered_probs_exact_values():
    probs = tempered_probs(np.array([0.7, 0.2, 0.1]), clean_index=0, beta=0.5)
    np.testing.assert_allclose(probs, [0.0, 0.58579, 0.41421], atol=5e-6)


def test_tempered_probs_beta_zero_is_uniform():
    probs = tempered_probs(np.array([0.5, 0.3, 0.15, 0.05]), clean_index=1, beta=0.0)
    np.testing.assert_allclose(probs, [1 / 3, 0.0, 1 / 3, 1 / 3], atol=1e-12)


def test_tempered_probs_needs_other_mass():
    with pytest.raises(DataFormatError, match="zero marginal"):
        tempered_probs(np.array([1.0, 0.0, 0.0]), clean_index=0, beta=0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 3), st.sampled_from([0.0, 0.5, 0.8]))
def test_corrupt_categorical_never_returns_clean(seed, clean, beta):
    marginal = np.array([0.4, 0.3, 0.2, 0.1])
    assert corrupt_categorical(clean, beta, marginal, Rng(seed)) != clean


def test_beta_must_stay_below_one():
    with pytest.raises(ConfigError):
        TemperedCategorical(beta=1.0)


# -- scenarios ---------------------------------------------------------------

def test_make_scenario_row_frac_zero_is_noop(mixed_schema):
    table = random_table(mixed_schema, 12, seed=0)
    dirty, record = make_scenario(table, 0.0, NOISE, seed=5)
    np.testing.assert_array_equal(dirty.reals, table.reals)
    np.testing.assert_array_equal(dirty.cats, table.cats)
    assert record.n_cells == 0


def test_make_scenario_mask_cardinality(mixed_schema):
    table = random_table(mixed_schema, 1000, seed=1)
    dirty, record = make_scenario(table, 0.05, NOISE, seed=2)
    assert record.n_cells == 50 * 1  # round(0.2 * 4) = 1 feature per row


def test_make_scenario_only_masked_cells_differ(mixed_schema):
    table = random_table(mixed_schema, 200, seed=2)
    dirty, record = make_scenario(table, 0.2, NOISE, seed=3)
    diff = np.zeros_like(record.mask)
    for column in range(table.schema.n_features):
        kind, slot = table.schema.slots[column]
        if kind == "real":
            diff[:, column] = dirty.reals[:, slot] != table.reals[:, slot]
        else:
            diff[:, column] = dirty.cats[:, slot] != table.cats[:, slot]
    np.testing.assert_array_equal(diff, record.mask)


def test_make_scenario_inversion_is_exact(mixed_schema):
    table = random_table(mixed_schema, 300, seed=4)
    dirty, record = make_scenario(table, 0.3, NOISE, seed=6)
    reals, cats = restore_clean(record, dirty)
    np.testing.assert_array_equal(reals, table.reals)
    np.testing.assert_array_equal(cats, table.cats)


def test_make_scenario_same_seed_identical(mixed_schema):
    table = random_table(mixed_schema, 100, seed=5)
    dirty_a, rec_a = make_scenario(table, 0.1, NOISE, seed=8)
    dirty_b, rec_b = make_scenario(table, 0.1, NOISE, seed=8)
    np.testing.assert_array_equal(dirty_a.reals, dirty_b.reals)
    np.testing.assert_array_equal(rec_a.mask, rec_b.mask)


def test_make_scenario_requires_needed_processes(mixed_schema):
    table = random_table(mixed_schema, 50, seed=6)
    with pytest.raises(ConfigError, match="no categorical noise"):
        make_scenario(table, 1.0, NoiseSpec(real=GaussianNoise(), cat=None), seed=0, feat_frac=1.0)


def test_record_file_round_trip(tmp_path, mixed_schema):
    table = random_table(mixed_schema, 120, seed=7)
    dirty, record = make_scenario(table, 0.25, NOISE, seed=9)
    path = tmp_path / "record"
    record.save(path)
    loaded = CorruptionRecord.load(path)
    np.testing.assert_array_equal(loaded.mask, record.mask)
    assert loaded.originals.dtype == np.float64
    np.testing.assert_array_equal(loaded.originals, record.originals)
    # every categorical column holds marked cells here, so the loaded record
    # knows all of them; their originals are the clean category indices
    assert loaded.categorical_columns == record.categorical_columns == (1, 3)
    for column in range(mixed_schema.n_features):
        rows, values = loaded.column(column)
        np.testing.assert_array_equal(rows, np.flatnonzero(record.mask[:, column]))
        kind, slot = mixed_schema.slots[column]
        clean = table.reals[:, slot] if kind == "real" else table.cats[:, slot]
        np.testing.assert_array_equal(values, clean[rows])
    assert loaded.seed == record.seed
    assert loaded.row_fraction == record.row_fraction
    assert loaded.feat_fraction == record.feat_fraction
    reals, cats = restore_clean(loaded, dirty)
    np.testing.assert_array_equal(reals, table.reals)
    np.testing.assert_array_equal(cats, table.cats)


def test_record_export_writes_the_text_form(tmp_path, mixed_schema):
    table = random_table(mixed_schema, 40, seed=7)
    _, record = make_scenario(table, 0.25, NOISE, seed=9)
    record.save(tmp_path / "record")
    CorruptionRecord.load(tmp_path / "record").export(tmp_path / "record.csv")
    lines = (tmp_path / "record.csv").read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"format": "rvae-corruption-record", "seed": 9,
                                    "row_fraction": 0.25, "feat_fraction": 0.2,
                                    "shape": [40, 4]}
    assert lines[1] == "row,column,original_value"
    # row-major cells; categorical originals are written as integers
    expected = []
    for r, c in zip(*np.nonzero(record.mask)):
        kind, slot = mixed_schema.slots[c]
        value = float(table.reals[r, slot]) if kind == "real" else int(table.cats[r, slot])
        expected.append(f"{r},{c},{value!r}")
    assert lines[2:] == expected


def test_record_save_load_save_is_byte_identical(tmp_path, mixed_schema):
    _, record = make_scenario(random_table(mixed_schema, 120, seed=7), 0.25, NOISE, seed=9)
    record.save(tmp_path / "first")
    CorruptionRecord.load(tmp_path / "first").save(tmp_path / "second")
    assert (tmp_path / "second").read_bytes() == (tmp_path / "first").read_bytes()


def saved_record(tmp_path, mixed_schema):
    table = random_table(mixed_schema, 40, seed=7)
    _, record = make_scenario(table, 0.25, NOISE, seed=9, feat_frac=0.5)
    path = tmp_path / "record"
    record.save(path)
    return path, record


def set_cell(i, value):
    return lambda h, t: t["cells"].__setitem__(i, value)


@pytest.mark.parametrize("edit, message", [
    (lambda h, t: t.update(cells=np.hstack([t["cells"], t["cells"][:, :1]])),
     "'cells' has shape (20, 3)"),
    (lambda h, t: h.update(form=h.pop("shape")), "shape"),
    (lambda h, t: h.update(seed=-9), "seed"),
    (lambda h, t: h.update(format="rvae-scores"), "not an rvae-corruption-record"),
    (set_cell((0, 0), 40), "outside shape"),
    (set_cell((0, 0), -1), "outside shape"),
    (set_cell((0, 1), 4), "outside shape"),
    (set_cell((0, 1), 0.5), "must be integers"),
    (lambda h, t: t.__setitem__("originals", t["originals"] + 0.5), "must be integers"),
    (lambda h, t: t.update(cells=np.vstack([t["cells"], t["cells"][:1]]),
                           originals=np.append(t["originals"], 0.0)), "more than once"),
    (lambda h, t: t.update(cells=np.delete(t["cells"], 2, axis=0),
                           originals=np.delete(t["originals"], 2)), "do not match"),
    (lambda h, t: t.pop("originals"), "holds tensors ['cells']"),
])
def test_record_load_rejects_malformed_files(tmp_path, mixed_schema, edit, message):
    path, record = saved_record(tmp_path, mixed_schema)
    assert CorruptionRecord.load(path).n_cells == record.n_cells == 20
    rewrite_tensors(path, path, edit)
    with pytest.raises(DataFormatError, match=re.escape(message)):
        CorruptionRecord.load(path)


def test_record_load_rejects_a_cell_moved_to_another_row(tmp_path, mixed_schema):
    # the count still matches, but one row now has too few cells
    path, record = saved_record(tmp_path, mixed_schema)
    free = int(np.argmin(record.mask.any(axis=1)))
    rewrite_tensors(path, path, set_cell((0, 0), free))
    with pytest.raises(DataFormatError, match="do not match"):
        CorruptionRecord.load(path)


def test_record_without_cells_round_trips(tmp_path, mixed_schema):
    table = random_table(mixed_schema, 10, seed=1)
    _, record = make_scenario(table, 0.0, NOISE, seed=4)
    record.save(tmp_path / "r")
    loaded = CorruptionRecord.load(tmp_path / "r")
    assert loaded.n_cells == 0 and loaded.mask.shape == (10, 4)


def test_cell_fraction_scaling(mixed_schema):
    # row fractions map to cell fractions at the ratio feat_frac within rounding
    table = random_table(mixed_schema, 1000, seed=8)
    for row_frac in (0.01, 0.05, 0.1, 0.2, 0.5):
        _, record = make_scenario(table, row_frac, NOISE, seed=11)
        cells = record.n_cells / (1000 * 4)
        assert cells == pytest.approx(row_frac * 0.25, rel=0.05)
