import math

import numpy as np
import pytest

from rvae.corrupt import GaussianNoise, NoiseSpec, TemperedCategorical, make_scenario
from rvae.data import (ColumnStats, FeatureSpec, MixedTable, TableSchema,
                       apply_stats, destandardize, standardize)
from rvae.errors import ConfigError, DataFormatError, ScoreRuleError
from rvae.model import build_networks
from rvae.nn import DenseNet, Rng
from rvae.score_repair import (ScoreReport, _chain_iteration,
                               _pi_cell_scores, _row_streams, load_simplexes,
                               repair_map, repair_one_stage, repair_two_stage,
                               score)
from rvae.synthetic import mixture_table
from rvae.train import RvaeModel, TrainConfig, train

NOISE = NoiseSpec(real=GaussianNoise(0.0, 5.0), cat=TemperedCategorical(0.0))


@pytest.fixture(scope="module")
def trained():
    """Small gated model on corrupted mixture data, shared by this module."""
    clean = mixture_table(500, seed=0)
    dirty, record = make_scenario(clean, 0.10, NOISE, seed=0)
    table = standardize(dirty)
    model, _ = train(table, TrainConfig(model="rvae-cvi", alpha=0.95, epochs=25,
                                        hidden_dim=64, latent_dim=6, embedding_dim=12,
                                        batch_size=100, seed=0))
    return model, table, record


def identity_real_model(stats_mean=10.0, stats_std=2.0):
    """Hand-wired model whose decoder reproduces its single real input."""
    schema = TableSchema((FeatureSpec("a", "real"),))
    nets = build_networks(schema, latent_dim=1, hidden_dim=2, embedding_dim=2, rng=None)
    nets.encoder.net = DenseNet.from_layers([
        (np.array([[1.0, -1.0]]), np.zeros(2), "relu"),
        (np.array([[1.0, -6.0], [-1.0, -6.0]]), np.array([0.0, -6.0]), "identity"),
    ], name="encoder")
    nets.decoder.trunk = DenseNet.from_layers([
        (np.array([[1.0, -1.0]]), np.zeros(2), "relu")], name="decoder.trunk")
    nets.decoder.W.value = np.array([[1.0], [-1.0]])
    config = TrainConfig(model="rvae-cvi", latent_dim=1, hidden_dim=2, embedding_dim=2)
    from rvae.model import OutlierComponents
    return RvaeModel(networks=nets, schema=schema, config=config,
                     stats={"a": ColumnStats(mean=stats_mean, std=stats_std)},
                     components=OutlierComponents(2.0))


def categorical_bias_model(bias):
    """Model with one categorical feature whose logits are a constant bias."""
    cats = tuple(f"k{i}" for i in range(len(bias)))
    schema = TableSchema((FeatureSpec("c", "categorical", cats),))
    nets = build_networks(schema, latent_dim=2, hidden_dim=3, embedding_dim=4, rng=Rng(0))
    nets.decoder.W.value = np.zeros_like(nets.decoder.W.value)
    nets.decoder.b.value = np.asarray(bias, dtype=float)
    config = TrainConfig(model="rvae-cvi", latent_dim=2, hidden_dim=3, embedding_dim=4)
    from rvae.model import OutlierComponents
    return RvaeModel(networks=nets, schema=schema, config=config, stats={},
                     components=OutlierComponents(2.0))


# -- scoring -----------------------------------------------------------------

def test_pi_cell_scores_example():
    scores = _pi_cell_scores(np.array([[0.5, 0.5]]))
    assert scores.sum() == pytest.approx(2 * math.log(2), abs=1e-12)
    assert np.all(_pi_cell_scores(np.array([[1.0, 1.0]])) == 0.0)


def test_row_scores_sum_cells(trained):
    model, table, _ = trained
    for rule in ("nll", "pi"):
        report = score(model, table, rule, seed=3)
        np.testing.assert_allclose(report.row_scores, report.cell_scores.sum(axis=1),
                                   atol=1e-12)
        assert np.all(np.isfinite(report.cell_scores))


def test_pi_scores_nonnegative(trained):
    model, table, _ = trained
    report = score(model, table, "pi", seed=3)
    assert np.all(report.cell_scores >= 0.0)


def test_pi_rule_rejected_on_plain_vae():
    table = standardize(mixture_table(150, seed=1))
    model, _ = train(table, TrainConfig(model="vae", epochs=2, hidden_dim=16,
                                        latent_dim=3, embedding_dim=8, seed=1))
    with pytest.raises(ScoreRuleError, match="plain VAE"):
        score(model, table, "pi")
    report = score(model, table, "nll")
    assert report.rule == "nll"


def test_unknown_rule_rejected(trained):
    model, table, _ = trained
    with pytest.raises(ConfigError, match="rule"):
        score(model, table, "zscore")


def test_nll_score_rises_with_injected_noise(trained):
    model, table, _ = trained
    for seed in (0, 1, 2):
        rng = Rng(seed)
        row = int(rng.integers(0, table.n_rows))
        col = int(rng.integers(0, 2))  # real slots 0..3 in schema order
        base = score(model, table, "nll", seed=seed).cell_scores
        reals = table.reals.copy()
        reals[row, col] += 5.0  # +5 sigma in standardized units
        bumped = table.with_values(reals=reals)
        bumped_scores = score(model, bumped, "nll", seed=seed).cell_scores
        assert bumped_scores[row, col] > base[row, col]


def test_score_report_csv_round_trip(tmp_path, trained):
    model, table, _ = trained
    report = score(model, table, "pi", seed=5)
    path = tmp_path / "scores.csv"
    report.save(path, model.schema)
    loaded = ScoreReport.load(path, model.schema)
    np.testing.assert_array_equal(loaded.cell_scores, report.cell_scores)
    np.testing.assert_array_equal(loaded.row_scores, report.row_scores)
    assert loaded.rule == "pi"


def _saved_report_lines(tmp_path, schema):
    report = ScoreReport(rule="pi", cell_scores=np.arange(6.0).reshape(2, 3),
                         row_scores=np.array([3.0, 12.0]))
    path = tmp_path / "scores.csv"
    report.save(path, schema)
    return path, path.read_text().splitlines()


def test_score_report_missing_cell_line_is_rejected(tmp_path, real_schema):
    schema = TableSchema(real_schema.features + (FeatureSpec("w", "real"),))
    path, lines = _saved_report_lines(tmp_path, schema)
    path.write_text("\n".join(line for line in lines if not line.startswith("1,v,")) + "\n")
    with pytest.raises(DataFormatError, match="row 1, feature 'v'"):
        ScoreReport.load(path, schema)


def test_score_report_missing_row_line_is_rejected(tmp_path, real_schema):
    schema = TableSchema(real_schema.features + (FeatureSpec("w", "real"),))
    path, lines = _saved_report_lines(tmp_path, schema)
    path.write_text("\n".join(line for line in lines if not line.startswith("0,__row__")) + "\n")
    with pytest.raises(DataFormatError, match="no row score for row 0"):
        ScoreReport.load(path, schema)


def test_score_report_short_last_line_is_rejected(tmp_path, real_schema):
    schema = TableSchema(real_schema.features + (FeatureSpec("w", "real"),))
    path, lines = _saved_report_lines(tmp_path, schema)
    path.write_text("\n".join(lines[:-1] + ["1,__row__"]) + "\n")
    with pytest.raises(DataFormatError, match="fields, expected 4"):
        ScoreReport.load(path, schema)


def test_score_threads_do_not_change_results(trained):
    model, table, _ = trained
    a = score(model, table, "pi", seed=7, threads=1)
    b = score(model, table, "pi", seed=7, threads=4)
    np.testing.assert_array_equal(a.cell_scores, b.cell_scores)


# -- MAP repair ---------------------------------------------------------------

def test_repair_map_identity_decoder_recovers_input():
    model = identity_real_model(stats_mean=10.0, stats_std=2.0)
    raw = MixedTable(schema=model.schema, reals=np.array([[8.0], [10.0], [13.0]]),
                     cats=np.zeros((3, 0), dtype=np.int64), stats=None)
    table = apply_stats(raw, model.stats)
    result = repair_map(model, table)
    np.testing.assert_allclose(result.table.reals, raw.reals, atol=1e-9)
    assert result.method == "map"
    assert not result.table.is_standardized


def test_repair_map_categorical_softmax():
    model = categorical_bias_model([2.0, 1.0, 0.0])
    table = MixedTable(schema=model.schema, reals=np.zeros((2, 0)),
                       cats=np.array([[2], [1]]), stats=None)
    result = repair_map(model, table)
    np.testing.assert_array_equal(result.table.cats[:, 0], [0, 0])
    np.testing.assert_allclose(result.simplexes["c"][0],
                               [0.66524096, 0.24472847, 0.09003057], atol=1e-7)


def test_repair_map_tie_breaks_to_lowest_index():
    model = categorical_bias_model([1.0, 1.0, 0.0])
    table = MixedTable(schema=model.schema, reals=np.zeros((1, 0)),
                       cats=np.array([[2]]), stats=None)
    result = repair_map(model, table)
    assert result.table.cats[0, 0] == 0


def test_repair_map_sample_z_reproducible(trained):
    model, table, _ = trained
    a = repair_map(model, table, sample_z=True, seed=9)
    b = repair_map(model, table, sample_z=True, seed=9)
    np.testing.assert_array_equal(a.table.reals, b.table.reals)
    c = repair_map(model, table, sample_z=True, seed=10)
    assert not np.array_equal(a.table.reals, c.table.reals)


def test_repair_result_validates_simplexes(trained):
    model, table, _ = trained
    result = repair_map(model, table)
    for name, probs in result.simplexes.items():
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    # repaired categories are argmaxes of their simplexes by construction
    for j, feat in enumerate(model.schema.cat_features):
        np.testing.assert_array_equal(result.table.cats[:, j],
                                      np.argmax(result.simplexes[feat.name], axis=1))


# -- pseudo-Gibbs chains -------------------------------------------------------

def test_one_stage_requires_iterations(trained):
    model, table, _ = trained
    with pytest.raises(ConfigError, match="iteration"):
        repair_one_stage(model, table, gibbs_iters=0)


def test_chains_require_gated_model():
    table = standardize(mixture_table(150, seed=2))
    vae, _ = train(table, TrainConfig(model="vae", epochs=2, hidden_dim=16,
                                      latent_dim=3, embedding_dim=8, seed=2))
    with pytest.raises(ScoreRuleError):
        repair_one_stage(vae, table)
    with pytest.raises(ScoreRuleError):
        repair_two_stage(vae, table)


def test_one_stage_t1_is_sample_then_reconstruct(trained):
    model, table, _ = trained
    result, pi_hat = repair_one_stage(model, table, gibbs_iters=1, seed=4)

    # independent replication: one chain round with the same per-row streams,
    # then read the decoded mode
    from rvae.model import clean_logliks_values, outlier_logliks, pi_update

    streams = _row_streams(4, np.arange(table.n_rows))
    state_r, state_c, decoded = _chain_iteration(model, table.reals.copy(),
                                                 table.cats.copy(), None, streams)
    expected_reals = destandardize(table.with_values(reals=decoded.real_means)).reals
    np.testing.assert_array_equal(result.table.reals, expected_reals)
    for j, feat in enumerate(model.schema.cat_features):
        np.testing.assert_array_equal(result.table.cats[:, j],
                                      np.argmax(decoded.cat_probs[feat.name], axis=1))
    ll = clean_logliks_values(model.networks.decoder, decoded, table.reals, table.cats)
    expected_pi = pi_update(ll - outlier_logliks(model.components, model.schema,
                                                 table.reals, table.cats),
                            model.config.alpha)
    np.testing.assert_array_equal(pi_hat, expected_pi)


def test_one_stage_reproducible(trained):
    model, table, _ = trained
    a, pi_a = repair_one_stage(model, table, gibbs_iters=5, seed=6)
    b, pi_b = repair_one_stage(model, table, gibbs_iters=5, seed=6)
    np.testing.assert_array_equal(a.table.reals, b.table.reals)
    np.testing.assert_array_equal(pi_a, pi_b)


def test_chain_threads_do_not_change_results(trained):
    model, table, _ = trained
    a, _ = repair_one_stage(model, table, gibbs_iters=3, seed=8, threads=1)
    b, _ = repair_one_stage(model, table, gibbs_iters=3, seed=8, threads=3)
    np.testing.assert_array_equal(a.table.reals, b.table.reals)
    np.testing.assert_array_equal(a.table.cats, b.table.cats)
    c = repair_two_stage(model, table, gibbs_iters=3, seed=8, threads=1)
    d = repair_two_stage(model, table, gibbs_iters=3, seed=8, threads=3)
    np.testing.assert_array_equal(c.table.reals, d.table.reals)
    np.testing.assert_array_equal(c.table.cats, d.table.cats)


def test_two_stage_forced_clean_returns_observed(trained):
    model, table, _ = trained
    result = repair_two_stage(model, table, gibbs_iters=5, seed=11, pi_override=1.0)
    observed = destandardize(table)
    np.testing.assert_array_equal(result.table.reals, observed.reals)
    np.testing.assert_array_equal(result.table.cats, observed.cats)
    # clamped categorical cells carry one-hot simplexes at the observed value
    for j, feat in enumerate(model.schema.cat_features):
        np.testing.assert_array_equal(result.simplexes[feat.name],
                                      np.eye(feat.cardinality)[table.cats[:, j]])


def test_two_stage_forced_dirty_matches_mean_start_chain(trained):
    model, table, _ = trained
    result = repair_two_stage(model, table, gibbs_iters=2, seed=12, pi_override=0.0)

    # replicate: stage-1 chain (2 rounds), the mask draw (all dirty), then a
    # 2-round chain from mean behaviour (zero reals, zeroed embeddings)
    streams = _row_streams(12, np.arange(table.n_rows))
    st_r, st_c = table.reals.copy(), table.cats.copy()
    for _ in range(2):
        st_r, st_c, decoded = _chain_iteration(model, st_r, st_c, None, streams)
    for s in streams:
        s.uniform(model.schema.n_features)  # the mask draws
    st_r = np.zeros_like(table.reals)
    st_c = table.cats.copy()
    zero_mask = np.ones_like(table.cats, dtype=bool)
    for it in range(2):
        st_r, st_c, decoded = _chain_iteration(model, st_r, st_c,
                                               zero_mask if it == 0 else None, streams)
    expected = destandardize(table.with_values(reals=decoded.real_means)).reals
    np.testing.assert_array_equal(result.table.reals, expected)


def test_load_simplexes_round_trip(tmp_path, trained):
    model, table, _ = trained
    result = repair_map(model, table)
    csv_path = tmp_path / "repaired.csv"
    simplex_path = tmp_path / "simplexes.csv"
    result.save(csv_path, simplex_path)
    loaded = load_simplexes(simplex_path, model.schema, table.n_rows)
    for name, probs in result.simplexes.items():
        np.testing.assert_array_equal(loaded[name], probs)
