"""Detection and repair metrics computed against a corruption record.

Average precision uses step interpolation with tied scores grouped into a
single threshold. Repair error on real features is the squared error
normalized by the energy of the standardized ground truth (so imputing
the mean scores exactly 1); categorical repairs are scored with the
half-scaled Brier distance between the predicted simplex and the one-hot
truth.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corrupt import CorruptionRecord
from .data import REAL, MixedTable, standardize
from .errors import DataFormatError, SchemaMismatchError


def average_precision(scores, labels) -> float:
    """Area under the precision-recall curve, step interpolated.

    AP = sum_k (R_k - R_{k-1}) * P_k over descending score thresholds;
    rows with equal scores collapse into one threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D and equally long")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average precision undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # indices where a threshold block ends (last occurrence of each score)
    block_end = np.nonzero(np.append(sorted_scores[:-1] != sorted_scores[1:], True))[0]
    tp = np.cumsum(sorted_labels)[block_end]
    predicted = block_end + 1.0
    precision = tp / predicted
    recall = tp / n_pos
    recall_prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - recall_prev) * precision))


def smse(truth, repaired) -> float:
    """Repair error for real features, in standardized units.

    sum (x - x_hat)^2 / sum x^2; the denominator takes the feature mean as
    zero, which holds once the data is standardized.
    """
    truth = np.asarray(truth, dtype=np.float64)
    repaired = np.asarray(repaired, dtype=np.float64)
    if truth.shape != repaired.shape or truth.ndim != 1 or truth.size == 0:
        raise ValueError("truth and repaired must be equal-length non-empty vectors")
    denom = float(np.sum(truth ** 2))
    if denom == 0.0:
        raise ValueError("all corrupted truths equal the feature mean; SMSE undefined")
    return float(np.sum((truth - repaired) ** 2)) / denom


def brier(truth_onehots, simplexes) -> float:
    """Half mean squared distance between predicted simplexes and one-hot
    truths, which lies in [0, 1]."""
    truth = np.atleast_2d(np.asarray(truth_onehots, dtype=np.float64))
    probs = np.atleast_2d(np.asarray(simplexes, dtype=np.float64))
    if truth.shape != probs.shape or truth.shape[0] == 0:
        raise ValueError("one-hots and simplexes must align")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("predicted simplex does not sum to 1")
    return float(np.mean(0.5 * np.sum((truth - probs) ** 2, axis=1)))


@dataclass
class EvalReport:
    """Metric bundle for one scenario; serializes to JSON."""

    row_avpr: float | None = None
    cell_avpr: dict[str, float] = field(default_factory=dict)
    cell_avpr_macro: float | None = None
    features_without_positives: int = 0
    smse_per_feature: dict[str, float] = field(default_factory=dict)
    smse_real_avg: float | None = None
    brier_per_feature: dict[str, float] = field(default_factory=dict)
    brier_cat_avg: float | None = None
    metadata: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")


def evaluate(record: CorruptionRecord, dirty: MixedTable, scores=None, repair=None,
             metadata: dict | None = None) -> EvalReport:
    """Score detection and repair against the ground-truth record.

    ``scores`` is a ScoreReport; ``repair`` a RepairResult. Row labels mark
    rows containing at least one corrupted cell; per-feature cell AVPR is
    restricted to that column and features without positives are skipped
    (counted in the report). Repair metrics cover masked cells only, with
    real errors measured in units standardized on the observed dirty data.
    """
    schema = dirty.schema
    if record.mask.shape != (dirty.n_rows, schema.n_features):
        raise SchemaMismatchError(
            f"record mask shape {record.mask.shape} does not match table "
            f"({dirty.n_rows}, {schema.n_features})")
    report = EvalReport(metadata=dict(metadata or {}))

    if scores is not None:
        if scores.cell_scores.shape != record.mask.shape:
            raise SchemaMismatchError("score matrix does not match record mask")
        row_labels = record.mask.any(axis=1)
        if row_labels.any():
            report.row_avpr = average_precision(scores.row_scores, row_labels)
        per_feature = {}
        skipped = 0
        for column, feat in enumerate(schema.features):
            labels = record.mask[:, column]
            if not labels.any():
                skipped += 1
                continue
            per_feature[feat.name] = average_precision(scores.cell_scores[:, column], labels)
        report.cell_avpr = per_feature
        report.features_without_positives = skipped
        if per_feature:
            report.cell_avpr_macro = float(np.mean(list(per_feature.values())))

    if repair is not None:
        _evaluate_repair(record, dirty, repair, report)
    return report


def _evaluate_repair(record: CorruptionRecord, dirty: MixedTable, repair, report: EvalReport) -> None:
    schema = dirty.schema
    stats = standardize(dirty).stats
    repaired_table = repair.table
    if repaired_table.is_standardized:
        raise DataFormatError("repaired tables are expected in raw units")
    if repaired_table.n_rows != dirty.n_rows:
        raise SchemaMismatchError(f"the repaired table has {repaired_table.n_rows} rows, "
                                  f"the dirty table {dirty.n_rows}")
    smse_values = {}
    for column, feat in enumerate(schema.features):
        rows, truth = record.column(column)
        if rows.size == 0:
            continue
        kind, slot = schema.slots[column]
        if kind == REAL:
            mean, std = stats.mean[slot], stats.std[slot]
            truth_std = (truth - mean) / std
            fixed_std = (repaired_table.reals[rows, slot] - mean) / std
            smse_values[feat.name] = smse(truth_std, fixed_std)
        else:
            if not np.all((truth >= 0) & (truth < feat.cardinality)):
                raise DataFormatError(f"the record holds a clean value of '{feat.name}' outside "
                                      f"its {feat.cardinality} categories")
            onehots = np.eye(feat.cardinality)[truth.astype(np.int64)]
            simplexes = repair.simplexes[feat.name][rows]
            report.brier_per_feature[feat.name] = brier(onehots, simplexes)
    report.smse_per_feature = smse_values
    if smse_values:
        report.smse_real_avg = float(np.mean(list(smse_values.values())))
    if report.brier_per_feature:
        report.brier_cat_avg = float(np.mean(list(report.brier_per_feature.values())))
