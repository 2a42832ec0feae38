import csv
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rvae import data
from rvae.data import (EmbeddingBank, FeatureSpec, MixedTable,
                       TableSchema, apply_stats, destandardize, encode_values,
                       encoded_dim, load_csv, read_table,
                       standardize, write_table)
from rvae.engine import Tensor, onehot_dense
from rvae.errors import DataFormatError
from rvae.nn import Rng

from conftest import random_table
from reference_tape import tsum


def write_inputs(tmp_path, csv_text, schema_obj):
    csv_path = tmp_path / "data.csv"
    schema_path = tmp_path / "schema.json"
    csv_path.write_text(csv_text, encoding="utf-8")
    schema_path.write_text(json.dumps(schema_obj), encoding="utf-8")
    return csv_path, schema_path


MIXED_SCHEMA_OBJ = [
    {"name": "age", "kind": "real"},
    {"name": "color", "kind": "categorical", "categories": ["red", "blue"]},
]


def test_load_csv_two_rows(tmp_path):
    table = load_csv(*write_inputs(tmp_path, "age,color\n1.5,red\n2.5,blue\n", MIXED_SCHEMA_OBJ))
    assert table.n_rows == 2
    np.testing.assert_array_equal(table.reals[:, 0], [1.5, 2.5])
    np.testing.assert_array_equal(table.cats[:, 0], [0, 1])


def test_load_csv_unknown_category_names_cell(tmp_path):
    paths = write_inputs(tmp_path, "age,color\n1.0,banana\n", MIXED_SCHEMA_OBJ)
    with pytest.raises(DataFormatError, match=r"row 0.*color.*banana"):
        load_csv(*paths)


def test_load_csv_empty_data_section(tmp_path):
    paths = write_inputs(tmp_path, "age,color\n", MIXED_SCHEMA_OBJ)
    with pytest.raises(DataFormatError, match="no rows"):
        load_csv(*paths)


def test_load_csv_non_numeric_real(tmp_path):
    paths = write_inputs(tmp_path, "age,color\nfast,red\n", MIXED_SCHEMA_OBJ)
    with pytest.raises(DataFormatError, match=r"row 0.*age.*non-numeric"):
        load_csv(*paths)


def test_load_csv_row_length_mismatch(tmp_path):
    paths = write_inputs(tmp_path, "age,color\n1.0,red,extra\n", MIXED_SCHEMA_OBJ)
    with pytest.raises(DataFormatError, match="row 0"):
        load_csv(*paths)


def test_load_csv_header_mismatch(tmp_path):
    paths = write_inputs(tmp_path, "age,colour\n1.0,red\n", MIXED_SCHEMA_OBJ)
    with pytest.raises(DataFormatError, match="header"):
        load_csv(*paths)


def test_load_csv_missing_value_rejected(tmp_path):
    paths = write_inputs(tmp_path, "age,color\n,red\n", MIXED_SCHEMA_OBJ)
    with pytest.raises(DataFormatError, match="missing"):
        load_csv(*paths)


def test_csv_round_trip_bit_exact(tmp_path, mixed_schema):
    table = random_table(mixed_schema, 17, seed=3)
    out = tmp_path / "out.csv"
    write_table(table, out)
    back = read_table(out, mixed_schema)
    np.testing.assert_array_equal(back.reals, table.reals)
    np.testing.assert_array_equal(back.cats, table.cats)


def test_schema_json_round_trip(tmp_path, mixed_schema):
    path = tmp_path / "schema.json"
    mixed_schema.save(path)
    assert TableSchema.load(path) == mixed_schema


def test_kind_columns_split_an_interleaved_schema(mixed_schema):
    real_cols, cat_cols = mixed_schema.kind_columns
    assert (real_cols.tolist(), cat_cols.tolist()) == ([0, 2], [1, 3])


def test_schema_validation():
    with pytest.raises(DataFormatError, match="duplicate feature names"):
        TableSchema((FeatureSpec("a", "real"), FeatureSpec("a", "real")))
    with pytest.raises(DataFormatError, match=">= 2 categories"):
        FeatureSpec("c", "categorical", ("only",))
    with pytest.raises(DataFormatError, match="duplicate category"):
        FeatureSpec("c", "categorical", ("x", "x"))
    with pytest.raises(DataFormatError, match="unknown kind"):
        FeatureSpec("c", "ordinal")


# -- standardization ---------------------------------------------------------

def one_column_table(values):
    schema = TableSchema((FeatureSpec("x", "real"),))
    return MixedTable(schema=schema, reals=np.asarray(values, dtype=float)[:, None],
                      cats=np.zeros((len(values), 0), dtype=np.int64), stats=None)


def test_standardize_two_point_column():
    std = standardize(one_column_table([1.0, 3.0]))
    np.testing.assert_allclose(std.reals[:, 0], [-1.0, 1.0], atol=1e-15)
    np.testing.assert_array_equal(std.stats.mean, [2.0])
    np.testing.assert_array_equal(std.stats.std, [1.0])  # population std of {1, 3}


def test_standardize_moments(mixed_schema):
    table = random_table(mixed_schema, 50, seed=1)
    std = standardize(table)
    assert abs(std.reals[:, 0].mean()) < 1e-9
    assert abs(std.reals[:, 0].std() - 1.0) < 1e-9


def test_standardize_rejects_a_standardized_table(mixed_schema):
    std = standardize(random_table(mixed_schema, 50, seed=1))
    with pytest.raises(DataFormatError, match="raw"):
        standardize(std)


def test_standardize_constant_column_errors():
    with pytest.raises(DataFormatError, match="constant"):
        standardize(one_column_table([2.0, 2.0, 2.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_destandardize_round_trip(seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(loc=rng.uniform(-100, 100), scale=rng.uniform(0.01, 50), size=12)
    if values.std() == 0:
        return
    table = one_column_table(values)
    back = destandardize(standardize(table))
    np.testing.assert_allclose(back.reals[:, 0], values, rtol=1e-9, atol=1e-9)


def test_apply_stats_matches_model_side_standardization(mixed_schema):
    table = random_table(mixed_schema, 30, seed=2)
    std = standardize(table)
    reapplied = apply_stats(table, std.stats)
    np.testing.assert_array_equal(reapplied.reals, std.reals)


# -- encoding ----------------------------------------------------------------

def embedded_input(schema, bank, reals, cats, zero_mask=None):
    """The encoder's first layer with an identity weight and zero bias:
    [reals | embedding rows], read through the one-hot input."""
    tables = bank.tables
    width = len(schema.real_features) + sum(t.value.shape[1] for t in tables)
    x = encode_values(schema, reals, cats, zero_mask)
    return onehot_dense(x, Tensor(np.eye(width)), Tensor(np.zeros(width)), tables)


def test_encode_all_real_equals_row(real_schema):
    bank = EmbeddingBank(real_schema, dim=5, rng=Rng(0))
    row = np.array([[0.4, -1.1]])
    out = encode_values(real_schema, row, np.zeros((1, 0), dtype=np.int64))
    np.testing.assert_array_equal(out, row)
    out = embedded_input(real_schema, bank, row, np.zeros((1, 0), dtype=np.int64))
    np.testing.assert_array_equal(out.value, row)


def test_encode_single_categorical_is_embedding_row():
    schema = TableSchema((FeatureSpec("c", "categorical", ("x", "y", "z")),))
    bank = EmbeddingBank(schema, dim=6, rng=Rng(4))
    for c in range(3):
        x = encode_values(schema, np.zeros((1, 0)), np.array([[c]]))
        np.testing.assert_array_equal(x[0], np.eye(3)[c])
        out = embedded_input(schema, bank, np.zeros((1, 0)), np.array([[c]]))
        np.testing.assert_array_equal(out.value[0], bank.tensors["c"].value[c])


def test_encoded_length_mixed():
    schema = TableSchema(tuple(
        [FeatureSpec(f"r{i}", "real") for i in range(3)]
        + [FeatureSpec(f"c{i}", "categorical", ("a", "b")) for i in range(2)]))
    assert encoded_dim(schema, 50) == 103
    bank = EmbeddingBank(schema, dim=50, rng=Rng(0))
    reals, cats = np.zeros((4, 3)), np.zeros((4, 2), dtype=np.int64)
    assert encode_values(schema, reals, cats).shape == (4, 3 + 2 + 2)
    assert embedded_input(schema, bank, reals, cats).shape == (4, 103)


def test_encode_gradient_reaches_embeddings(mixed_schema):
    bank = EmbeddingBank(mixed_schema, dim=4, rng=Rng(1))
    reals = np.zeros((2, 2))
    cats = np.array([[1, 0], [1, 1]])
    tsum(embedded_input(mixed_schema, bank, reals, cats)).backward(1.0)
    grad = bank.tensors["b"].grad  # both rows hit embedding row 1
    assert grad is not None
    np.testing.assert_array_equal(grad[1], 2.0)
    np.testing.assert_array_equal(grad[0], 0.0)
    np.testing.assert_array_equal(grad[2], 0.0)


def test_encode_zero_mask_blanks_embeddings(mixed_schema):
    bank = EmbeddingBank(mixed_schema, dim=4, rng=Rng(1))
    reals = np.zeros((1, 2))
    cats = np.array([[2, 1]])
    mask = np.array([[True, False]])
    x = encode_values(mixed_schema, reals, cats, zero_mask=mask)
    np.testing.assert_array_equal(x[0, 2:5], 0.0)
    np.testing.assert_array_equal(x[0, 5:], np.eye(2)[1])
    out = embedded_input(mixed_schema, bank, reals, cats, zero_mask=mask).value
    np.testing.assert_array_equal(out[0, 2:6], 0.0)
    np.testing.assert_array_equal(out[0, 6:], bank.tensors["d"].value[1])


def test_embedding_rows_unit_norm_after_renormalize(mixed_schema):
    bank = EmbeddingBank(mixed_schema, dim=7, rng=Rng(2))
    bank.tensors["b"].value *= 3.7  # knock rows off the sphere
    bank.renormalize()
    for t in bank.tensors.values():
        np.testing.assert_allclose(np.linalg.norm(t.value, axis=1), 1.0, atol=1e-9)


def test_table_validates_cat_range(mixed_schema):
    reals = np.zeros((2, 2))
    cats = np.array([[0, 0], [5, 0]])
    with pytest.raises(DataFormatError, match="out of range"):
        MixedTable(schema=mixed_schema, reals=reals, cats=cats, stats=None)


def test_tables_are_immutable(mixed_schema):
    table = random_table(mixed_schema, 4, seed=0)
    with pytest.raises(ValueError):
        table.reals[0, 0] = 99.0


# awkward names and labels: csv.writer must quote each of these
QUOTED_SCHEMA = TableSchema((
    FeatureSpec('a,"b"', "real"),
    FeatureSpec("line\nbreak", "categorical", ("x,1", 'say "y"', "z\r\nw", " pad ")),
    FeatureSpec("plain", "real"),
))


def csv_writer_table(table, path):
    """Reference writer: one csv.writer row per table row."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        for r in range(table.n_rows):
            row, i_real, i_cat = [], 0, 0
            for feat in table.schema.features:
                if feat.kind == "real":
                    row.append(repr(float(table.reals[r, i_real])))
                    i_real += 1
                else:
                    row.append(feat.categories[table.cats[r, i_cat]])
                    i_cat += 1
            writer.writerow(row)


@pytest.mark.parametrize("schema", [
    QUOTED_SCHEMA,
    TableSchema((FeatureSpec("", "categorical", ("", "a")),)),  # a lone empty field
    TableSchema((FeatureSpec("only", "real"),)),
])
def test_write_table_matches_csv_writer_bytes(tmp_path, schema):
    table = random_table(schema, 9, seed=4)
    reals = table.reals.copy()
    if reals.shape[1]:
        reals[0, 0], reals[1, 0] = -0.0, 1e-300  # repr edge cases
    table = replace(table, reals=reals)
    write_table(table, tmp_path / "new.csv")
    csv_writer_table(table, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_quoted_names_and_labels_round_trip(tmp_path):
    table = random_table(QUOTED_SCHEMA, 12, seed=5)
    write_table(table, tmp_path / "t.csv")
    back = read_table(tmp_path / "t.csv", QUOTED_SCHEMA)
    np.testing.assert_array_equal(back.reals, table.reals)
    np.testing.assert_array_equal(back.cats, table.cats)


def test_read_table_reports_the_first_bad_cell_in_file_order(tmp_path):
    text = "age,color\n1.0,red\n2.0,banana\nfast,red\n"
    with pytest.raises(DataFormatError, match=r"row 1, column 'color': unknown category"):
        load_csv(*write_inputs(tmp_path, text, MIXED_SCHEMA_OBJ))
    text = "age,color\n1.0,red\n2.0\nfast,red\n"
    with pytest.raises(DataFormatError, match=r"row 1 has 1 cells, expected 2"):
        load_csv(*write_inputs(tmp_path, text, MIXED_SCHEMA_OBJ))


def test_read_table_rejects_undecodable_bytes(tmp_path):
    csv_path, schema_path = write_inputs(tmp_path, "", MIXED_SCHEMA_OBJ)
    csv_path.write_bytes(b"age,color\n1.0,r\xffd\n")
    with pytest.raises(DataFormatError):
        load_csv(csv_path, schema_path)


# -- reader contract -----------------------------------------------------------

def load_text(tmp_path, text, schema_obj=MIXED_SCHEMA_OBJ):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may reach the caller
        return load_csv(*write_inputs(tmp_path, text, schema_obj))


@pytest.mark.parametrize("text, row", [
    ("age,color\n1.0,red\n\n2.0,blue\n", 1),
    ("age,color\r\n1.0,red\r\n\r\n2.0,blue\r\n", 1),
    ("age,color\r1.0,red\r\r2.0,blue\r", 1),
    ("age,color\n1.0,red\r\n\n2.0,blue\n", 1),
    ("age,color\n1.0,red\r2.0,blue\n\r\n", 2),
    ("age,color\n1.0,red\n2.0,blue\n\n", 2),
    ("age,color\n\n1.0,red\n", 0),
    ("age,color\n\n", 0),
    ("age,color\r\n\r\n\r\n", 0),
])
def test_blank_line_is_a_row_of_no_cells(tmp_path, text, row):
    with pytest.raises(DataFormatError, match=rf"row {row} has 0 cells, expected 2"):
        load_text(tmp_path, text)


@pytest.mark.parametrize("blank", [" ", "\t", "  \t "])
def test_whitespace_only_line_is_rejected(tmp_path, blank):
    with pytest.raises(DataFormatError, match=r"row 1 has 1 cells, expected 2"):
        load_text(tmp_path, f"age,color\n1.0,red\n{blank}\n2.0,blue\n")
    one_real = [{"name": "x", "kind": "real"}]
    with pytest.raises(DataFormatError, match=r"row 1, column 'x': non-numeric"):
        load_text(tmp_path, f"x\n1.0\n{blank}\n2.0\n", one_real)


@pytest.mark.parametrize("text", ["age,color\n", "age,color\r\n", "age,color"])
def test_header_only_file_has_no_rows_and_no_warning(tmp_path, text):
    with pytest.raises(DataFormatError, match="no rows"):
        load_text(tmp_path, text)


NUL_SCHEMA_OBJ = [
    {"name": "age", "kind": "real"},
    {"name": "color", "kind": "categorical", "categories": ["red", "blue", "k1\x00", ""]},
]


@pytest.mark.parametrize("cells, column", [
    ("1.0\x00,red", "age"), ("\x001.0,red", "age"),
    ("1.0,red\x00", "color"), ("1.0,\x00red", "color"), ("1.0,re\x00d", "color"),
    ("1.0,\x00", "color"), ("1.0,k1\x00", "color"), ('1.0,"red\x00"', "color"),
])
def test_nul_in_any_cell_is_rejected(tmp_path, cells, column):
    # a numpy U array drops trailing NULs: k1\x00 must not load as k1 or fall through
    for schema_obj in (MIXED_SCHEMA_OBJ, NUL_SCHEMA_OBJ):
        with pytest.raises(DataFormatError, match=rf"row 1, column '{column}'"):
            load_text(tmp_path, f"age,color\n2.0,blue\n{cells}\n", schema_obj)


def test_label_that_differs_by_a_trailing_nul_is_unknown(tmp_path):
    with pytest.raises(DataFormatError, match=r"row 0, column 'color': unknown category 'k1'"):
        load_text(tmp_path, "age,color\n1.0,k1\n", NUL_SCHEMA_OBJ)


@pytest.mark.parametrize("label", ["redd", "red ", " red", "red\x1c", "blue" * 50, "bluered"])
def test_label_with_extra_characters_is_rejected(tmp_path, label):
    with pytest.raises(DataFormatError, match=r"row 0, column 'color': unknown category"):
        load_text(tmp_path, f"age,color\n1.0,{label}\n")


@pytest.mark.parametrize("cell", ["", '""'])
def test_empty_categorical_cell_is_missing_even_when_declared(tmp_path, cell):
    with pytest.raises(DataFormatError, match=r"row 1, column 'color': missing values"):
        load_text(tmp_path, f"age,color\n1.0,red\n2.0,{cell}\n", NUL_SCHEMA_OBJ[:1] + [
            {"name": "color", "kind": "categorical", "categories": ["red", ""]}])


BREAK_SCHEMA = TableSchema((
    FeatureSpec("x", "real"),
    FeatureSpec("c", "categorical", ("a,b", 'say "hi"', "two\nlines", "\n\n", "cr\r", "\r\n",
                                     "\x1c", "plain")),
))


def test_labels_with_commas_quotes_and_line_breaks_round_trip(tmp_path):
    table = random_table(BREAK_SCHEMA, 40, seed=6)
    assert set(table.cats[:, 0]) == set(range(BREAK_SCHEMA.features[1].cardinality))
    write_table(table, tmp_path / "t.csv")
    back = read_table(tmp_path / "t.csv", BREAK_SCHEMA)
    np.testing.assert_array_equal(back.reals, table.reals)
    np.testing.assert_array_equal(back.cats, table.cats)


@pytest.mark.parametrize("end", ["\r", "\n", "\r\n"])
def test_every_line_end_loads(tmp_path, end):
    table = load_text(tmp_path, end.join(["age,color", "1.5,red", "2.5,blue", ""]))
    np.testing.assert_array_equal(table.reals[:, 0], [1.5, 2.5])
    np.testing.assert_array_equal(table.cats[:, 0], [0, 1])
    unterminated = load_text(tmp_path, end.join(["age,color", "1.5,red", "2.5,blue"]))
    np.testing.assert_array_equal(unterminated.reals, table.reals)


@pytest.mark.parametrize("text", ["1_000", "1_0.5", "1e1_0", "١", "1.٥", "٣e2", "１"])
def test_underscores_and_non_ascii_digits_are_not_numbers(tmp_path, text):
    float(text)  # Python's float() takes each of these
    with pytest.raises(DataFormatError, match=rf"row 1, column 'age': non-numeric value '{text}'"):
        load_text(tmp_path, f"age,color\n1.0,red\n{text},blue\n")


@pytest.mark.parametrize("text", ["\x1c1.5", "1.5\x1d", "\x1e1.5\x1f"])
def test_separator_controls_do_not_pad_numbers(tmp_path, text):
    float(text.strip("\x1c\x1d\x1e\x1f"))  # np.loadtxt strips them, float() does not
    with pytest.raises(DataFormatError, match=r"row 0, column 'age': non-numeric value"):
        load_text(tmp_path, f"age,color\n{text},red\n")


@pytest.mark.parametrize("end", ["\r\n", "\n", "\r"])
def test_well_formed_table_skips_the_csv_check(tmp_path, monkeypatch, mixed_schema, end):
    table = random_table(mixed_schema, 30, seed=2)
    write_table(table, tmp_path / "t.csv")
    text = (tmp_path / "t.csv").read_bytes().decode("utf-8")
    (tmp_path / "t.csv").write_text(text.replace("\r\n", end), encoding="utf-8", newline="")
    monkeypatch.setattr(data, "_first_bad_cell", None)  # calling it would raise TypeError
    back = read_table(tmp_path / "t.csv", mixed_schema)
    np.testing.assert_array_equal(back.reals, table.reals)
    np.testing.assert_array_equal(back.cats, table.cats)


def test_real_cells_load_bit_for_bit_as_float_reads_them(tmp_path):
    rng = np.random.default_rng(19)
    values = rng.integers(0, 2 ** 63, 3000, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)] * rng.choice([-1.0, 1.0], values.size)[np.isfinite(values)]
    texts = [repr(v) for v in values.tolist()]
    texts += [f"{v:.17g}" for v in values[:500].tolist()] + [f"{v:.6e}" for v in values[:500].tolist()]
    texts += [f"{v:.4f}" for v in rng.normal(0, 1e3, 500).tolist()]
    texts += ["5e-324", "-0.0", "0", "1e-400", "1.7976931348623157e308", "+.5", "1.", " 2.5 ",
              "\xa03 ", "\t4\x0b", "1E5", '"6.25"', "2.4703282292062328e-324"]
    (tmp_path / "r.csv").write_text("x\n" + "\n".join(texts) + "\n", encoding="utf-8")
    table = read_table(tmp_path / "r.csv", TableSchema((FeatureSpec("x", "real"),)))
    expected = np.array([float(t.strip('"')) for t in texts])
    assert table.reals[:, 0].tobytes() == expected.tobytes()


def csv_reference(path, schema):
    """What read_table must load, written cell by cell with csv.reader and
    float(): (reals, cats), or None where it must raise DataFormatError."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or rows[0] != schema.names:
        return None
    reals, cats = [], []
    for row in rows[1:]:
        if len(row) != schema.n_features:
            return None
        for feat, text in zip(schema.features, row):
            if feat.kind == "real":
                if "_" in text or not text.strip().isascii():
                    return None
                try:
                    reals.append(float(text))
                except ValueError:
                    return None
            elif text == "" or "\x00" in text or text not in feat.categories:
                return None
            else:
                cats.append(feat.categories.index(text))
    n = len(rows) - 1
    reals = np.array(reals).reshape(n, len(schema.real_features))
    if not np.isfinite(reals).all():
        return None
    return reals, np.array(cats, dtype=np.int64).reshape(n, len(schema.cat_features))


FUZZ_SCHEMAS = [
    TableSchema((FeatureSpec("x", "real"), FeatureSpec("c", "categorical", (
        "k", "k1", 'a"', "k,1", "k\n", "", " k", "\x1c", "k\x00", "\n\n")))),
    TableSchema((FeatureSpec("c", "categorical", ("k", "", " ", "\r", '"')),)),
    TableSchema((FeatureSpec("x", "real"), FeatureSpec("y", "real"))),
]
FUZZ_PIECES = [",", '"', "\n", "\r", "\r\n", " ", "\x00", "1", ".", "e", "_", "-", "\xa0", "١",
               "k", "a", "inf", "\x1c", "\x1f", "\t", "1.5", "k,1", "k1", '"k\n"', "2.5e-3"]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, len(FUZZ_SCHEMAS) - 1), st.sampled_from(["\n", "\r\n", "\r"]),
       st.lists(st.sampled_from(FUZZ_PIECES), max_size=24))
def test_read_table_agrees_with_the_csv_reference(tmp_path, which, end, pieces):
    schema = FUZZ_SCHEMAS[which]
    path = tmp_path / "fuzz.csv"
    path.write_text(",".join(schema.names) + end + "".join(pieces), encoding="utf-8", newline="")
    expected = csv_reference(path, schema)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is None:
            with pytest.raises(DataFormatError):
                read_table(path, schema)
            return
        table = read_table(path, schema)
    assert table.reals.tobytes() == expected[0].tobytes()
    np.testing.assert_array_equal(table.cats, expected[1])
