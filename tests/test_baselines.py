import math

import numpy as np
import pytest

from rvae.baselines import (Gmm1D, MarginalModel, _kmeanspp_centers, fit_gmm_1d, fit_gmm_bic,
                            fit_marginals, marginal_repair, marginal_score)
from rvae.data import FeatureSpec, MixedTable, TableSchema
from rvae.errors import ConfigError
from rvae.nn import Rng

from conftest import random_table


def table_from_columns(reals=None, cats=None, cat_cards=()):
    feats = []
    r = np.zeros((len(reals[0]) if reals else len(cats[0]), 0))
    if reals:
        r = np.stack([np.asarray(c, dtype=float) for c in reals], axis=1)
        feats += [FeatureSpec(f"r{i}", "real") for i in range(len(reals))]
    c = np.zeros((r.shape[0], 0), dtype=np.int64)
    if cats:
        c = np.stack([np.asarray(col, dtype=np.int64) for col in cats], axis=1)
        feats += [FeatureSpec(f"c{i}", "categorical", tuple(f"k{j}" for j in range(card)))
                  for i, card in enumerate(cat_cards)]
    return MixedTable(schema=TableSchema(tuple(feats)), reals=r, cats=c, stats=None)


def test_bic_selects_one_component_on_gaussian_data():
    wins = 0
    for seed in range(10):
        x = Rng(seed).normal(2000)
        _, bics = fit_gmm_bic(x, seed=seed, max_components=10)
        if min(bics, key=bics.get) == 1:
            wins += 1
    assert wins >= 8


def test_bic_selects_two_components_when_separated():
    wins = 0
    for seed in range(10):
        rng = Rng(seed)
        x = np.concatenate([rng.normal(1000) - 4.0, rng.normal(1000) + 4.0])
        _, bics = fit_gmm_bic(x, seed=seed, max_components=10)
        if min(bics, key=bics.get) == 2:
            wins += 1
    assert wins >= 8


def test_full_forty_component_sweep_runs():
    x = Rng(0).normal(1000)
    gmm, bics = fit_gmm_bic(x, seed=0, max_components=40)
    assert set(bics) == set(range(1, 41))
    assert min(bics.values()) == min(bics[k] for k in bics)
    assert gmm.weights.size == min(bics, key=bics.get)


@pytest.mark.parametrize("count", [0, -1])
def test_bic_sweep_rejects_fewer_than_one_component(count):
    with pytest.raises(ConfigError, match="at least 1 component"):
        fit_gmm_bic(Rng(0).normal(50), max_components=count)


def test_em_loglik_non_decreasing():
    rng = Rng(3)
    x = np.concatenate([rng.normal(400) * 0.5 - 2.0, rng.normal(400) * 1.5 + 3.0])
    _, trajectory = fit_gmm_1d(x, k=3, rng=Rng(4))
    diffs = np.diff(trajectory)
    assert np.all(diffs >= -1e-9)


def test_one_component_fit_does_not_depend_on_the_start():
    # why the BIC sweep runs a single restart at k = 1
    x = Rng(6).normal(500) * 2.0 + 1.0
    fits = [fit_gmm_1d(x, k=1, rng=Rng(seed)) for seed in range(5)]
    for gmm, trajectory in fits:
        assert trajectory[-1] == fits[0][1][-1]
        for got, want in zip((gmm.weights, gmm.means, gmm.stds),
                             (fits[0][0].weights, fits[0][0].means, fits[0][0].stds)):
            np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(fits[0][0].means, x.mean(), rtol=1e-12)
    np.testing.assert_allclose(fits[0][0].stds, x.std(), rtol=1e-12)


def test_gmm_std_floor_on_degenerate_data():
    x = np.concatenate([np.zeros(50), np.ones(50)])  # point masses
    gmm, _ = fit_gmm_1d(x, k=2, rng=Rng(5))
    assert np.all(gmm.stds >= 1e-4)


@pytest.mark.filterwarnings("error")  # a dead component's log weight raises no warning
@pytest.mark.parametrize("weights, means, stds, x, from_bound", [
    # a dead component (weight 0), and two points at least 40 sigma from every
    # live mean, whose densities underflow unless the sum is shifted by its
    # largest term
    ([0.3, 0.0, 0.7], [-1.0, 2.0, 1.5], [0.5, 1.0, 0.25],
     [-1.2, 0.0, 0.4, 1.5, 2.0, 3.1, 24.0, -1.0 - 40 * 0.5], False),
    # a tight component away from zero, where the power basis keeps each log
    # density only to eps * (m^2 + x^2) / s^2, about 3e-8 near x = 8
    ([0.4, 0.6], [8.0, -0.5], [1e-3, 1.0],
     [7.998, 7.9995, 8.0, 8.0012, 8.004, 0.3, -2.0, 40.0], True),
], ids=["standardized", "tight-component"])
def test_mixture_matches_scalar_reference(weights, means, stds, x, from_bound):
    gmm = Gmm1D(weights=np.array(weights), means=np.array(means), stds=np.array(stds))
    x = np.array(x)

    def terms(v):
        return [math.log(w) - math.log(s * math.sqrt(2 * math.pi)) - 0.5 * ((v - m) / s) ** 2
                if w > 0 else -math.inf for w, m, s in zip(weights, means, stds)]

    want_log_pdf, want_resp = [], []
    for v in x:
        t = terms(float(v))
        top = max(t)
        total = math.fsum(math.exp(a - top) for a in t)
        want_log_pdf.append(top + math.log(total))
        want_resp.append([math.exp(a - top) / total for a in t])
    atol = np.full(x.size, 1e-12)
    if from_bound:
        atol += np.finfo(float).eps * np.max((gmm.means ** 2 + x[:, None] ** 2) / gmm.stds ** 2,
                                             axis=1)
        assert atol.max() > 1e-8

    def assert_close(got, want, atol):  # assert_allclose takes only a scalar atol
        want = np.array(want)
        np.testing.assert_array_less(np.abs(got - want), atol + 1e-12 * np.abs(want))

    assert_close(gmm.log_pdf(x), want_log_pdf, atol)
    resp = gmm.responsibilities(x)
    assert resp.shape == (x.size, len(weights))
    assert_close(resp, want_resp, atol[:, None])
    np.testing.assert_allclose(resp.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(resp[:, gmm.weights == 0.0] == 0.0)
    assert min(want_log_pdf) < -745  # exp underflows to 0 below about -745


def test_em_step_matches_scalar_reference():
    # one iteration from the k-means++ start against the textbook updates,
    # summed with math.fsum
    rng = Rng(8)
    x = np.concatenate([rng.normal(300) * 0.6 + 1.5, rng.normal(200) * 0.9 + 4.0])
    k, n = 3, x.size
    gmm, trajectory = fit_gmm_1d(x, k, Rng(9), max_iter=1)
    start, s0 = _kmeanspp_centers(x, k, Rng(9)), float(x.std())
    resp, log_norm = [], []
    for v in map(float, x):
        t = [math.log(1.0 / k) - math.log(s0 * math.sqrt(2 * math.pi)) - 0.5 * ((v - m) / s0) ** 2
             for m in start]
        top = max(t)
        total = math.fsum(math.exp(a - top) for a in t)
        log_norm.append(top + math.log(total))
        resp.append([math.exp(a - top) / total for a in t])
    nk = [math.fsum(r[j] for r in resp) for j in range(k)]
    means = [math.fsum(r[j] * v for r, v in zip(resp, x)) / nk[j] for j in range(k)]
    stds = [math.sqrt(math.fsum(r[j] * (v - means[j]) ** 2 for r, v in zip(resp, x)) / nk[j])
            for j in range(k)]
    assert len(trajectory) == 1
    assert trajectory[0] == pytest.approx(math.fsum(log_norm), rel=1e-12)
    np.testing.assert_allclose(gmm.weights, np.array(nk) / n, rtol=1e-12)
    np.testing.assert_allclose(gmm.means, means, rtol=1e-12)
    np.testing.assert_allclose(gmm.stds, stds, rtol=1e-12)


def test_category_frequencies_reproduce_counts():
    table = table_from_columns(cats=[[0] * 70 + [1] * 30], cat_cards=(2,))
    model = fit_marginals(table, max_components=3)
    np.testing.assert_array_equal(model.frequencies["c0"], [0.7, 0.3])


def test_marginal_score_standard_normal_value():
    model = MarginalModel(
        schema=TableSchema((FeatureSpec("r0", "real"),)),
        gmms={"r0": Gmm1D(weights=np.array([1.0]), means=np.array([0.0]), stds=np.array([1.0]))},
        frequencies={}, n_rows=100)
    table = table_from_columns(reals=[[0.0, 1.0]])
    report = marginal_score(model, table)
    assert report.cell_scores[0, 0] == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)
    assert report.rule == "nll"


def test_marginal_score_monotone_in_frequency():
    table = table_from_columns(cats=[[0] * 60 + [1] * 30 + [2] * 10], cat_cards=(3,))
    model = fit_marginals(table, max_components=2)
    report = marginal_score(model, table)
    s0, s1, s2 = report.cell_scores[0, 0], report.cell_scores[60, 0], report.cell_scores[90, 0]
    assert s0 < s1 < s2


def test_marginal_score_constant_across_equal_cells():
    table = table_from_columns(reals=[[1.0, 1.0, 5.0]])
    model = fit_marginals(table, max_components=2, seed=1)
    report = marginal_score(model, table)
    assert report.cell_scores[0, 0] == report.cell_scores[1, 0]


def test_marginal_score_row_sums(mixed_schema):
    table = random_table(mixed_schema, 60, seed=2)
    model = fit_marginals(table, max_components=2, seed=2)
    report = marginal_score(model, table)
    np.testing.assert_allclose(report.row_scores, report.cell_scores.sum(axis=1), atol=1e-12)


def test_unseen_category_gets_probability_floor():
    table = table_from_columns(cats=[[0, 0, 0, 1]], cat_cards=(3,))
    model = fit_marginals(table, max_components=2)
    scored = table_from_columns(cats=[[2]], cat_cards=(3,))
    report = marginal_score(model, scored)
    assert np.isfinite(report.cell_scores[0, 0])
    assert report.cell_scores[0, 0] == pytest.approx(-math.log(1.0 / (4 + 3)), abs=1e-12)


def test_marginal_repair_uses_most_responsible_component():
    gmm = Gmm1D(weights=np.array([0.5, 0.5]), means=np.array([0.0, 3.0]),
                stds=np.array([1.0, 1.0]))
    model = MarginalModel(schema=TableSchema((FeatureSpec("r0", "real"),)),
                          gmms={"r0": gmm}, frequencies={}, n_rows=10)
    table = table_from_columns(reals=[[2.6, 0.2]])
    mask = np.array([[True], [True]])
    result = marginal_repair(model, table, mask)
    np.testing.assert_array_equal(result.table.reals[:, 0], [3.0, 0.0])
    assert result.method == "marginal"


def test_marginal_repair_single_component_imputes_mean():
    gmm = Gmm1D(weights=np.array([1.0]), means=np.array([1.7]), stds=np.array([0.4]))
    model = MarginalModel(schema=TableSchema((FeatureSpec("r0", "real"),)),
                          gmms={"r0": gmm}, frequencies={}, n_rows=10)
    table = table_from_columns(reals=[[-4.0, 9.0, 0.0]])
    result = marginal_repair(model, table, np.ones((3, 1), dtype=bool))
    np.testing.assert_array_equal(result.table.reals[:, 0], [1.7, 1.7, 1.7])


def test_marginal_repair_modal_category_with_frequency_simplex():
    table = table_from_columns(cats=[[0] * 7 + [1] * 3], cat_cards=(2,))
    model = fit_marginals(table, max_components=2)
    mask = np.zeros((10, 1), dtype=bool)
    mask[9, 0] = True
    result = marginal_repair(model, table, mask)
    assert result.table.cats[9, 0] == 0
    np.testing.assert_array_equal(result.simplexes["c0"][9], [0.7, 0.3])
    # unflagged cells keep observed values and one-hot simplexes
    assert result.table.cats[8, 0] == 1
    np.testing.assert_array_equal(result.simplexes["c0"][8], [0.0, 1.0])


def test_marginal_repair_only_touches_flagged_cells(mixed_schema):
    table = random_table(mixed_schema, 40, seed=4)
    model = fit_marginals(table, max_components=2, seed=4)
    mask = np.zeros((40, 4), dtype=bool)
    mask[5, 0] = True
    result = marginal_repair(model, table, mask)
    untouched = np.ones(40, dtype=bool)
    untouched[5] = False
    np.testing.assert_array_equal(result.table.reals[untouched], table.reals[untouched])
    np.testing.assert_array_equal(result.table.cats, table.cats)


def test_fit_is_deterministic(mixed_schema):
    table = random_table(mixed_schema, 60, seed=6)
    a = fit_marginals(table, max_components=3, seed=7)
    b = fit_marginals(table, max_components=3, seed=7)
    for name in a.gmms:
        np.testing.assert_array_equal(a.gmms[name].means, b.gmms[name].means)
