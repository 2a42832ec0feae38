import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvae.corrupt import CorruptionRecord
from rvae.data import FeatureSpec, MixedTable, TableSchema
from rvae.errors import DataFormatError
from rvae.metrics import average_precision, brier, evaluate, smse
from rvae.score_repair import RepairResult, ScoreReport


def ap_oracle(scores, labels):
    """Independent O(n^2) enumeration over unique thresholds."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    n_pos = labels.sum()
    ap = 0.0
    prev_recall = 0.0
    for threshold in sorted(set(scores), reverse=True):
        predicted = scores >= threshold
        tp = (predicted & labels).sum()
        precision = tp / predicted.sum()
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_average_precision_spec_example():
    ap = average_precision([0.9, 0.8, 0.1], [1, 0, 1])
    assert abs(ap - 5.0 / 6.0) <= 1e-9


def test_average_precision_perfect_ranking():
    assert average_precision([5.0, 4.0, 1.0, 0.5], [1, 1, 0, 0]) == 1.0


def test_average_precision_constant_scores():
    assert average_precision([2.0] * 10, [1, 0, 0, 0, 1, 0, 0, 1, 0, 0]) == pytest.approx(0.3)


def test_average_precision_requires_positives():
    with pytest.raises(ValueError, match="positive"):
        average_precision([1.0, 2.0], [0, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(2, 30))
def test_average_precision_matches_enumeration_oracle(seed, n):
    rng = np.random.default_rng(seed)
    scores = rng.choice([0.1, 0.25, 0.5, 0.5, 0.9], size=n)  # force ties
    labels = rng.random(n) < 0.4
    if not labels.any():
        labels[0] = True
    assert average_precision(scores, labels) == pytest.approx(ap_oracle(scores, labels), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_average_precision_invariant_to_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=20)
    labels = rng.random(20) < 0.3
    if not labels.any():
        labels[3] = True
    base = average_precision(scores, labels)
    assert average_precision(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert average_precision(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)


def test_smse_perfect_repair():
    assert smse([1.0, -2.0, 0.5], [1.0, -2.0, 0.5]) == 0.0


def test_smse_mean_imputation_is_exactly_one():
    assert smse([1.0, -1.0], [0.0, 0.0]) == 1.0
    assert smse([0.3, -2.0, 1.7], [0.0, 0.0, 0.0]) == 1.0


def test_smse_worse_than_mean_exceeds_one():
    assert smse([1.0, -1.0], [3.0, 2.0]) > 1.0


def test_smse_zero_denominator_errors():
    with pytest.raises(ValueError, match="undefined"):
        smse([0.0, 0.0], [1.0, 1.0])


def test_brier_exact_cases():
    assert brier([[1.0, 0.0]], [[1.0, 0.0]]) == 0.0
    assert brier([[1.0, 0.0]], [[0.5, 0.5]]) == 0.25
    assert brier([[1.0, 0.0]], [[0.0, 1.0]]) == 1.0


def test_brier_rejects_bad_simplex():
    with pytest.raises(ValueError, match="sum to 1"):
        brier([[1.0, 0.0]], [[0.7, 0.6]])


# -- evaluate ----------------------------------------------------------------

def build_case(seed=0, n=400):
    schema = TableSchema((
        FeatureSpec("r0", "real"),
        FeatureSpec("r1", "real"),
        FeatureSpec("c0", "categorical", ("a", "b", "c")),
    ))
    rng = np.random.default_rng(seed)
    reals = rng.normal(size=(n, 2))
    cats = rng.integers(0, 3, size=(n, 1))
    dirty = MixedTable(schema=schema, reals=reals, cats=cats, stats=None)
    mask = np.zeros((n, 3), dtype=bool)
    hit = rng.choice(n, size=n // 20, replace=False)
    mask[hit, rng.integers(0, 3, size=hit.size)] = True
    rows, cols = np.nonzero(mask)
    real = cols < 2
    originals = np.empty(rows.size)
    originals[real] = reals[rows[real], cols[real]] - 1.0
    originals[~real] = (cats[rows[~real], 0] + 1) % 3
    record = CorruptionRecord(mask=mask, originals=originals, categorical_columns=(2,),
                              row_fraction=0.05, seed=seed)
    return schema, dirty, record


def test_evaluate_oracle_detector_scores_one():
    schema, dirty, record = build_case()
    cells = record.mask.astype(float)
    report = evaluate(record, dirty,
                      scores=ScoreReport("nll", cells, cells.sum(axis=1)))
    assert report.row_avpr == 1.0
    assert report.cell_avpr_macro == 1.0
    assert all(v == 1.0 for v in report.cell_avpr.values())


def test_evaluate_random_scores_near_base_rate():
    schema, dirty, record = build_case(seed=3, n=2000)
    rng = np.random.default_rng(0)
    macro = []
    for _ in range(100):
        cells = rng.random(record.mask.shape)
        rep = evaluate(record, dirty, scores=ScoreReport("nll", cells, cells.sum(axis=1)))
        macro.append(rep.cell_avpr_macro)
    base_rate = record.mask.sum() / record.mask.size
    assert 0.3 * base_rate < np.mean(macro) < 3.0 * base_rate


def test_evaluate_identity_repair_gives_noise_energy_ratio():
    schema, dirty, record = build_case(seed=5)
    simplexes = {"c0": np.eye(3)[dirty.cats[:, 0]]}
    repair = RepairResult(table=dirty, simplexes=simplexes)
    report = evaluate(record, dirty, repair=repair)
    # truth got shifted by exactly -1 raw; repairs keep the dirty value
    from rvae.data import standardize
    stats = standardize(dirty).stats
    for name in ("r0", "r1"):
        col = schema.names.index(name)
        rows = np.nonzero(record.mask[:, col])[0]
        if rows.size == 0:
            continue
        mean, std = stats.mean[col], stats.std[col]  # r0 and r1 lead the schema
        truth = dirty.reals[rows, col] - 1.0
        t_std = (truth - mean) / std
        noise_ratio = np.sum((1.0 / std) ** 2 * np.ones_like(t_std)) / np.sum(t_std ** 2)
        assert report.smse_per_feature[name] == pytest.approx(noise_ratio, rel=1e-9)
    # every clean category differs from the kept dirty one: the farthest one-hot
    assert report.brier_per_feature["c0"] == 1.0


@pytest.mark.parametrize("category", [-1.0, 3.0])
def test_evaluate_rejects_a_clean_category_outside_the_feature(category):
    schema, dirty, record = build_case(seed=5)
    rows, cols = np.nonzero(record.mask)
    originals = record.originals.copy()
    originals[np.flatnonzero(cols == 2)[0]] = category
    record = replace(record, originals=originals)
    repair = RepairResult(table=dirty, simplexes={"c0": np.eye(3)[dirty.cats[:, 0]]})
    with pytest.raises(DataFormatError, match="outside its 3 categories"):
        evaluate(record, dirty, repair=repair)


def test_record_ties_its_originals_to_its_mask():
    schema, dirty, record = build_case(seed=5)
    for originals in (record.originals[:-1], record.originals[:, None]):
        with pytest.raises(DataFormatError, match="one original per marked cell"):
            replace(record, originals=originals)
    with pytest.raises(ValueError, match="read-only"):
        record.mask[0, 0] = not record.mask[0, 0]
    with pytest.raises(ValueError, match="read-only"):
        record.originals[0] = 0.0


def test_evaluate_macro_is_unweighted_mean():
    schema, dirty, record = build_case(seed=7)
    rng = np.random.default_rng(1)
    cells = rng.random(record.mask.shape)
    report = evaluate(record, dirty, scores=ScoreReport("nll", cells, cells.sum(axis=1)))
    assert report.cell_avpr_macro == pytest.approx(np.mean(list(report.cell_avpr.values())))


def test_evaluate_skips_features_without_positives():
    schema, dirty, record = build_case(seed=9)
    rows, cols = np.nonzero(record.mask)
    mask = record.mask.copy()
    mask[:, 1] = False  # wipe feature r1's positives, and their originals with them
    record = replace(record, mask=mask, originals=record.originals[cols != 1])
    cells = np.random.default_rng(2).random(record.mask.shape)
    report = evaluate(record, dirty, scores=ScoreReport("nll", cells, cells.sum(axis=1)))
    assert "r1" not in report.cell_avpr
    assert report.features_without_positives >= 1


def test_evaluate_is_pure():
    schema, dirty, record = build_case(seed=11)
    cells = np.random.default_rng(3).random(record.mask.shape)
    rep_a = evaluate(record, dirty, scores=ScoreReport("nll", cells, cells.sum(axis=1)))
    rep_b = evaluate(record, dirty, scores=ScoreReport("nll", cells, cells.sum(axis=1)))
    assert rep_a.to_json_obj() == rep_b.to_json_obj()


def test_report_json_round_trip(tmp_path):
    schema, dirty, record = build_case(seed=13)
    cells = np.random.default_rng(4).random(record.mask.shape)
    report = evaluate(record, dirty, scores=ScoreReport("nll", cells, cells.sum(axis=1)),
                      metadata={"run": "t"})
    path = tmp_path / "report.json"
    report.save(path)
    assert json.loads(path.read_text(encoding="utf-8")) == report.to_json_obj()
