import math
from dataclasses import replace

import numpy as np
import pytest

from rvae.corrupt import GaussianNoise, NoiseSpec, TemperedCategorical, make_scenario
from rvae.data import (ColumnStats, FeatureSpec, MixedTable, TableSchema,
                       apply_stats, destandardize, standardize)
from rvae.cli import main
from rvae.errors import ConfigError, DataFormatError, SchemaMismatchError, ScoreRuleError
from rvae.model import build_networks, decode_values
from rvae.nn import Rng
from rvae.score_repair import (RepairResult, ScoreReport, _mean_latents, _pi_cell_scores,
                               _run_chain, load_simplexes, repair_map, repair_one_stage,
                               repair_two_stage, score)
from rvae.synthetic import mixture_table
from rvae.train import RvaeModel, TrainConfig, train

from conftest import (forced_gates, per_feature, random_table, rewrite_tensors,
                      wire_identity_autoencoder)

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
    wire_identity_autoencoder(nets)
    config = TrainConfig(model="rvae-cvi", latent_dim=1, hidden_dim=2, embedding_dim=2)
    return RvaeModel(networks=nets, schema=schema, config=config,
                     stats=ColumnStats(mean=[stats_mean], std=[stats_std]))


def categorical_bias_model(bias):
    """Model with one categorical feature whose logits are a constant bias."""
    cats = tuple(f"k{i}" for i in range(len(bias)))
    schema = TableSchema((FeatureSpec("c", "categorical", cats),))
    nets = build_networks(schema, latent_dim=2, hidden_dim=3, embedding_dim=4, rng=Rng(0))
    nets.decoder.W.value = np.zeros_like(nets.decoder.W.value)
    nets.decoder.b.value = np.asarray(bias, dtype=float)
    config = TrainConfig(model="rvae-cvi", latent_dim=2, hidden_dim=3, embedding_dim=4)
    return RvaeModel(networks=nets, schema=schema, config=config,
                     stats=ColumnStats(mean=[], std=[]))


# -- scoring -----------------------------------------------------------------

def test_pi_cell_scores_example():
    scores = _pi_cell_scores(np.array([[0.5, 0.5]]))
    assert scores.sum() == pytest.approx(2 * math.log(2), abs=1e-12)
    assert np.all(_pi_cell_scores(np.array([[1.0, 1.0]])) == 0.0)


def test_row_scores_sum_cells(trained):
    model, table, _ = trained
    for rule in ("nll", "pi"):
        report = score(model, table, rule)
        np.testing.assert_allclose(report.row_scores, report.cell_scores.sum(axis=1),
                                   atol=1e-12)
        assert np.all(np.isfinite(report.cell_scores))


def test_pi_scores_nonnegative(trained):
    model, table, _ = trained
    report = score(model, table, "pi")
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
        base = score(model, table, "nll").cell_scores
        reals = table.reals.copy()
        reals[row, col] += 5.0  # +5 sigma in standardized units
        bumped = replace(table, reals=reals)
        bumped_scores = score(model, bumped, "nll").cell_scores
        assert bumped_scores[row, col] > base[row, col]


def test_score_report_csv_round_trip(tmp_path, trained):
    import csv

    model, table, _ = trained
    report = score(model, table, "pi")
    path = tmp_path / "scores"
    report.save(path, model.schema)
    loaded = ScoreReport.load(path, model.schema)
    np.testing.assert_array_equal(loaded.cell_scores, report.cell_scores)
    np.testing.assert_array_equal(loaded.row_scores, report.row_scores)
    assert loaded.rule == "pi"
    assert main(["export", "--input", str(path), "--out", str(tmp_path / "scores.csv")]) == 0
    with open(tmp_path / "scores.csv", newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))[1:]
    values = np.array([float(line[3]) for line in lines]).reshape(table.n_rows, -1)
    np.testing.assert_array_equal(values[:, :-1], report.cell_scores)
    np.testing.assert_array_equal(values[:, -1], report.row_scores)


def _saved_report(tmp_path, schema):
    report = ScoreReport(rule="pi", cell_scores=np.arange(6.0).reshape(2, 3),
                         row_scores=np.array([3.0, 12.0]))
    path = tmp_path / "scores"
    report.save(path, schema)
    return path


@pytest.mark.parametrize("edit, message", [
    (lambda t: t.pop("cell_scores"), r"holds tensors \['row_scores'\]"),
    (lambda t: t.update(row_scores=t["row_scores"][:1]), r"'row_scores' has shape \(1,\)"),
    (lambda t: t.update(cell_scores=t["cell_scores"][:, :2]), r"expected \(2, 3\)"),
], ids=["missing cell tensor", "short row tensor", "narrow cell tensor"])
def test_score_report_bad_tensors_are_rejected(tmp_path, real_schema,
                                                                edit, message):
    schema = TableSchema(real_schema.features + (FeatureSpec("w", "real"),))
    path = _saved_report(tmp_path, schema)
    rewrite_tensors(path, path, lambda header, tensors: edit(tensors))
    with pytest.raises(DataFormatError, match=message):
        ScoreReport.load(path, schema)


def test_score_report_missing_cell_line_is_rejected(tmp_path, real_schema):
    schema = TableSchema(real_schema.features + (FeatureSpec("w", "real"),))
    path = _saved_report(tmp_path, schema)
    rewrite_tensors(path, path, lambda h, t: t["cell_scores"].__setitem__((1, 1), np.nan))
    with pytest.raises(DataFormatError, match="no score for row 1, feature 'v'"):
        ScoreReport.load(path, schema)


def test_score_report_missing_row_line_is_rejected(tmp_path, real_schema):
    schema = TableSchema(real_schema.features + (FeatureSpec("w", "real"),))
    path = _saved_report(tmp_path, schema)
    rewrite_tensors(path, path, lambda h, t: t["row_scores"].__setitem__(0, np.nan))
    with pytest.raises(DataFormatError, match="no row score for row 0"):
        ScoreReport.load(path, schema)


def test_score_report_truncated_payload_is_rejected(tmp_path, real_schema):
    schema = TableSchema(real_schema.features + (FeatureSpec("w", "real"),))
    path = _saved_report(tmp_path, schema)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(DataFormatError, match="truncated payload for tensor 'row_scores'"):
        ScoreReport.load(path, schema)


def test_score_report_for_another_schema_is_a_schema_mismatch(tmp_path, real_schema):
    schema = TableSchema(real_schema.features + (FeatureSpec("w", "real"),))
    path = _saved_report(tmp_path, schema)
    other = TableSchema(real_schema.features + (FeatureSpec("x", "real"),))
    with pytest.raises(SchemaMismatchError, match="feature names differ"):
        ScoreReport.load(path, other)


# -- MAP repair ---------------------------------------------------------------

def test_repair_map_identity_decoder_recovers_input():
    model = identity_real_model(stats_mean=10.0, stats_std=2.0)
    raw = MixedTable(schema=model.schema, reals=np.array([[8.0], [10.0], [13.0]]),
                     cats=np.zeros((3, 0), dtype=np.int64), stats=None)
    table = apply_stats(raw, model.stats)
    result = repair_map(model, table)
    np.testing.assert_allclose(result.table.reals, raw.reals, atol=1e-9)
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


def test_repair_result_validates_simplexes(trained):
    model, table, _ = trained
    result = repair_map(model, table)
    for name, probs in result.simplexes.items():
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    # repaired categories are argmaxes of their simplexes by construction
    for j, feat in enumerate(model.schema.cat_features):
        np.testing.assert_array_equal(result.table.cats[:, j],
                                      np.argmax(result.simplexes[feat.name], axis=1))


@pytest.mark.parametrize("row", [[np.nan, np.nan], [np.inf, 0.0], [1.0, -np.inf]])
def test_repair_result_rejects_non_finite_simplex_rows(row):
    schema = TableSchema((FeatureSpec("c", "categorical", ("x", "y")),))
    table = MixedTable(schema=schema, reals=np.zeros((1, 0)), cats=np.zeros((1, 1), dtype=np.int64))
    with pytest.raises(DataFormatError, match="non-finite"):
        RepairResult(table=table, simplexes={"c": np.array([row])})


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


def test_one_stage_reproducible(trained):
    model, table, _ = trained
    a = repair_one_stage(model, table, gibbs_iters=5, seed=6)
    b = repair_one_stage(model, table, gibbs_iters=5, seed=6)
    np.testing.assert_array_equal(a.table.reals, b.table.reals)


def test_two_stage_forced_clean_returns_observed(trained):
    model, table, _ = trained
    with forced_gates(1.0):
        result = repair_two_stage(model, table, gibbs_iters=5, seed=11)
    observed = destandardize(table)
    np.testing.assert_array_equal(result.table.reals, observed.reals)
    np.testing.assert_array_equal(result.table.cats, observed.cats)
    # clamped categorical cells carry one-hot simplexes at the observed value
    for j, feat in enumerate(model.schema.cat_features):
        np.testing.assert_array_equal(result.simplexes[feat.name],
                                      np.eye(feat.cardinality)[table.cats[:, j]])


def test_two_stage_writes_kept_reals_as_their_raw_input(trained, long_table):
    # a cell the repair keeps comes back as the dirty table's own value, bit
    # for bit; (x - mean) / std * std + mean moves some cells by an ulp
    model, table = trained[0], long_table
    raw = table.raw_reals
    np.testing.assert_array_equal(destandardize(table).reals, raw)
    round_trip = destandardize(replace(table, reals=table.reals)).reals
    with forced_gates(0.5):
        result = repair_two_stage(model, table, gibbs_iters=2, seed=13)
    # the clean mask two-stage draws, chunk by chunk
    clean = np.concatenate([
        Rng(13).derive(MASK, c, 0).uniform((rows.stop - rows.start, model.schema.n_features)) < 0.5
        for c, rows in chunks(table.n_rows)])
    kept = clean[:, model.schema.kind_columns[0]]
    assert 0.2 < kept.mean() < 0.8
    np.testing.assert_array_equal(result.table.reals[kept], raw[kept])
    assert (round_trip[kept] != raw[kept]).any()
    assert not np.isin(result.table.reals[~kept], raw).any()


def test_map_and_one_stage_repairs_map_every_real_back(trained, long_table):
    # the kept-cell rule moves no MAP or one-stage output: neither keeps a cell
    model, table = trained[0], long_table
    map_reals = repair_map(model, table).table.reals
    one_reals = repair_one_stage(model, table, gibbs_iters=2, seed=14).table.reals
    for c, rows in chunks(table.n_rows):
        obs_r, obs_c = table.reals[rows], table.cats[rows]
        decoded = decode_values(model.networks.decoder, _mean_latents(model, obs_r, obs_c))
        one_r, _ = _run_chain(model, obs_r, obs_c, Rng(14), c, 2, np.ones(len(obs_r), dtype=bool))
        for got, std in ((map_reals, decoded.real_means), (one_reals, one_r)):
            np.testing.assert_array_equal(got[rows], std * model.stats.std + model.stats.mean)


def test_two_stage_forced_dirty_matches_mean_start_chain(trained):
    model, table, _ = trained
    with forced_gates(0.0):
        result = repair_two_stage(model, table, gibbs_iters=2, seed=12)

    # replicate: every cell dirty, so a 2-round chain from mean behaviour
    # (zero reals, zeroed embeddings) over the table's one chunk
    all_dirty = np.zeros((table.n_rows, model.schema.n_features), dtype=bool)
    reals, _ = _run_chain(model, table.reals, table.cats, Rng(12), 0, 2,
                          np.ones(table.n_rows, dtype=bool), all_dirty)
    expected = destandardize(replace(table, reals=reals)).reals
    np.testing.assert_array_equal(result.table.reals, expected)


def test_load_simplexes_round_trip(tmp_path, trained):
    model, table, _ = trained
    result = repair_map(model, table)
    csv_path = tmp_path / "repaired.csv"
    simplex_path = tmp_path / "simplexes"
    result.save(csv_path, simplex_path)
    loaded = load_simplexes(simplex_path, model.schema, table.n_rows)
    for name, probs in result.simplexes.items():
        np.testing.assert_array_equal(loaded[name], probs)


# -- reference: numpy streams keyed (seed, tag, chunk, round) -------------------------

NORMAL, UNIFORM, MASK = 0, 1, 2  # the stream tags of the seeded contract
CHUNK = 512


def numpy_stream(seed, tag, chunk, rnd):
    seq = np.random.SeedSequence(seed, spawn_key=(tag, chunk, rnd))
    return np.random.Generator(np.random.PCG64(seq))


def chunks(n):
    """(chunk index, row slice) for consecutive blocks of CHUNK rows."""
    return [(c, slice(start, min(start + CHUNK, n))) for c, start in enumerate(range(0, n, CHUNK))]


@pytest.fixture(scope="module")
def long_table(trained):
    """1,300 corrupted rows for the trained model: two full chunks and a part."""
    dirty, _ = make_scenario(mixture_table(1300, seed=3), 0.10, NOISE, seed=3)
    return apply_stats(dirty, trained[0].stats)


def reference_round(model, reals, cats, zero_mask, eps, u):
    """One pseudo-Gibbs round: latent noise eps[:, :K], cell noise eps[:, K:],
    then one uniform per categorical cell (none in a chain's last round)."""
    from rvae.model import decode_values, encode_values

    schema, nets = model.schema, model.networks
    k = model.config.latent_dim
    x = encode_values(schema, reals, cats, zero_mask)
    mu, sig = nets.encoder.latent_values(x, nets.embeddings)
    decoded = decode_values(nets.decoder, mu + sig * eps[:, :k])
    new_reals = decoded.real_means + decoded.real_stds * eps[:, k:]
    new_cats = cats.copy()
    probs = per_feature(schema, decoded.cat_probs)
    for j, feat in enumerate(schema.cat_features if u is not None else []):
        cum = np.cumsum(probs[feat.name], axis=1)
        new_cats[:, j] = np.clip((cum < u[:, j:j + 1]).sum(axis=1), 0, feat.cardinality - 1)
    return new_reals, new_cats, decoded


def reference_chain(model, obs_r, obs_c, clean, iters, seed, chunk, active=None):
    """One chunk's chain, clamping cell by cell; returns the round means of
    the decoded real means and category probabilities. A boolean ``active``
    mask over the chunk's rows runs the chain on those rows alone, each
    taking its row of every full-chunk draw block."""
    schema = model.schema
    n, width = obs_r.shape[0], model.config.latent_dim + obs_r.shape[1]
    if active is None:
        active = np.ones(n, dtype=bool)
    obs_r, obs_c = obs_r[active], obs_c[active]
    slots = list(schema.slots)
    st_r, st_c, zero_mask = obs_r.copy(), obs_c.copy(), None
    if clean is not None:
        clean = clean[active]
        zero_mask = np.zeros_like(obs_c, dtype=bool)
        for c, (kind, slot) in enumerate(slots):
            if kind == "real":
                st_r[~clean[:, c], slot] = 0.0
            else:
                zero_mask[~clean[:, c], slot] = True
    for it in range(iters):
        eps = numpy_stream(seed, NORMAL, chunk, it).standard_normal((n, width))[active]
        u = (None if it == iters - 1
             else numpy_stream(seed, UNIFORM, chunk, it).random((n, obs_c.shape[1]))[active])
        st_r, st_c, decoded = reference_round(model, st_r, st_c,
                                              zero_mask if it == 0 else None, eps, u)
        for c, (kind, slot) in enumerate(slots if clean is not None else []):
            keep = clean[:, c]
            if kind == "real":
                st_r[keep, slot] = obs_r[keep, slot]
            else:
                st_c[keep, slot] = obs_c[keep, slot]
        probs = per_feature(schema, decoded.cat_probs)
        if it == 0:
            total_r, total_p = decoded.real_means, probs
        else:
            total_r = total_r + decoded.real_means
            total_p = {name: total_p[name] + p for name, p in probs.items()}
    return total_r / iters, {name: p / iters for name, p in total_p.items()}


def reference_gates(model, obs_r, obs_c):
    """The cells' clean probabilities at each row's posterior mean."""
    from rvae.model import clean_logliks_values, encode_values, outlier_logliks, pi_update

    schema, nets = model.schema, model.networks
    mu, _ = nets.encoder.latent_values(encode_values(schema, obs_r, obs_c), nets.embeddings)
    ll = clean_logliks_values(nets.decoder, nets.decoder.head(mu).value, obs_r, obs_c)
    return pi_update(ll - outlier_logliks(model.config.outlier_scale, schema, obs_r, obs_c),
                     model.config.alpha)


def reference_clean_mask(model, obs_r, obs_c, seed, chunk):
    """Two-stage's clean mask for one chunk, drawn from the gates at each
    row's posterior mean."""
    u = numpy_stream(seed, MASK, chunk, 0).random((obs_r.shape[0], model.schema.n_features))
    return u < reference_gates(model, obs_r, obs_c)


def reference_chains(model, table, iters, seed, dirty_rows_only=True):
    """Both chains chunk by chunk: one-stage's round means, and two-stage's
    standardized reals, cats and simplexes. Two-stage's chain runs on the
    rows with a sampled dirty cell, or with ``dirty_rows_only=False`` on
    the whole chunk; either way the clean cells keep their observed values
    and one-hot simplexes."""
    schema = model.schema
    one_r, one_p, two_r, two_c, two_p = [], [], [], [], []
    for chunk, rows in chunks(table.n_rows):
        obs_r, obs_c = table.reals[rows], table.cats[rows]
        means, probs = reference_chain(model, obs_r, obs_c, None, iters, seed, chunk)
        one_r.append(means)
        one_p.append(probs)

        clean = reference_clean_mask(model, obs_r, obs_c, seed, chunk)
        run = ~clean.all(axis=1) if dirty_rows_only else np.ones(obs_r.shape[0], dtype=bool)
        means, probs = reference_chain(model, obs_r, obs_c, clean, iters, seed, chunk, run)
        reals, cats, simplexes = obs_r.copy(), obs_c.copy(), {}
        for c, (kind, slot) in enumerate(schema.slots):
            dirty = ~clean[run, c]
            take = np.flatnonzero(run)[dirty]
            if kind == "real":
                reals[take, slot] = means[dirty, slot]
                continue
            feat = schema.features[c]
            simplexes[feat.name] = np.eye(feat.cardinality)[obs_c[:, slot]]
            simplexes[feat.name][take] = probs[feat.name][dirty]
            cats[take, slot] = np.argmax(probs[feat.name][dirty], axis=1)
        two_r.append(reals)
        two_c.append(cats)
        two_p.append(simplexes)
    join = {name: np.concatenate([p[name] for p in one_p]) for name in one_p[0]}
    join_two = {name: np.concatenate([p[name] for p in two_p]) for name in two_p[0]}
    return ((np.concatenate(one_r), join),
            (np.concatenate(two_r), np.concatenate(two_c), join_two))


def test_chains_replay_numpy_seeded_per_call_draws(trained, long_table):
    model, table = trained[0], long_table
    (one_r, one_p), (reals, cats, simplexes) = reference_chains(model, table, 3, seed=21)

    one = repair_one_stage(model, table, gibbs_iters=3, seed=21)
    np.testing.assert_array_equal(
        one.table.reals, destandardize(replace(table, reals=one_r)).reals)
    for j, feat in enumerate(model.schema.cat_features):
        np.testing.assert_array_equal(one.simplexes[feat.name], one_p[feat.name])
        np.testing.assert_array_equal(one.table.cats[:, j], np.argmax(one_p[feat.name], axis=1))

    two = repair_two_stage(model, table, gibbs_iters=3, seed=21)
    np.testing.assert_array_equal(two.table.reals,
                                  destandardize(replace(table, reals=reals), source=table).reals)
    np.testing.assert_array_equal(two.table.cats, cats)
    for name, probs in simplexes.items():
        np.testing.assert_array_equal(two.simplexes[name], probs)


def test_chains_on_an_interleaved_schema_replay_the_reference(mixed_schema):
    # real and categorical columns alternate, so the clean mask's split by
    # kind and the simplexes' block offsets differ from the schema's columns
    table = standardize(random_table(mixed_schema, 700, seed=40))
    config = TrainConfig(model="rvae-cvi", hidden_dim=16, latent_dim=3, embedding_dim=4)
    nets = build_networks(mixed_schema, config.latent_dim, config.hidden_dim,
                          config.embedding_dim, rng=Rng(41))
    model = RvaeModel(networks=nets, schema=mixed_schema, config=config,
                      stats=table.stats)
    (one_r, one_p), (reals, cats, simplexes) = reference_chains(model, table, 3, seed=42)

    one = repair_one_stage(model, table, gibbs_iters=3, seed=42)
    np.testing.assert_array_equal(one.table.reals,
                                  destandardize(replace(table, reals=one_r)).reals)
    for j, feat in enumerate(mixed_schema.cat_features):
        np.testing.assert_array_equal(one.simplexes[feat.name], one_p[feat.name])
        np.testing.assert_array_equal(one.table.cats[:, j], np.argmax(one_p[feat.name], axis=1))

    two = repair_two_stage(model, table, gibbs_iters=3, seed=42)
    np.testing.assert_array_equal(two.table.reals,
                                  destandardize(replace(table, reals=reals), source=table).reals)
    np.testing.assert_array_equal(two.table.cats, cats)
    for name, probs in simplexes.items():
        np.testing.assert_array_equal(two.simplexes[name], probs)
    # both kinds of cell were sampled clean and dirty, and some rows stayed clean
    clean = reference_clean_mask(model, table.reals[:CHUNK], table.cats[:CHUNK], 42, 0)
    assert 0 < clean.all(axis=1).sum() < CHUNK
    assert all(0 < clean[:, c].sum() < CHUNK for c in range(mixed_schema.n_features))


def test_pi_scores_are_two_stage_gates(trained, long_table):
    model, table = trained[0], long_table
    expected = np.concatenate([
        _pi_cell_scores(reference_gates(model, table.reals[rows], table.cats[rows]))
        for _, rows in chunks(table.n_rows)])
    np.testing.assert_array_equal(score(model, table, "pi").cell_scores, expected)


def test_scores_and_gates_read_the_head_without_decoding(trained, long_table, monkeypatch):
    # the bytes of the head that decode_values reads, with no category probabilities built
    import rvae.score_repair as sr
    from rvae.model import clean_logliks_values, decode_values, encode_values

    model, table = trained[0], long_table
    nets, pieces = model.networks, []
    for _, rows in chunks(table.n_rows):
        r, c = table.reals[rows], table.cats[rows]
        mu, _ = nets.encoder.latent_values(encode_values(model.schema, r, c), nets.embeddings)
        pieces.append(-clean_logliks_values(nets.decoder, nets.decoder.head(mu).value, r, c))
    calls = []
    monkeypatch.setattr(sr, "decode_values", lambda *a: calls.append(1) or decode_values(*a))
    np.testing.assert_array_equal(score(model, table, "nll").cell_scores, np.concatenate(pieces))
    score(model, table, "pi")  # its bytes: test_pi_scores_are_two_stage_gates
    assert not calls
    repair_map(model, table)
    assert len(calls) == len(chunks(table.n_rows))


@pytest.mark.parametrize("kind", ["vae", "rvae-cvi", "rvae-avi"])
def test_scores_and_map_repair_draw_nothing(trained, kind, monkeypatch):
    import rvae.score_repair as sr

    table = trained[1]
    config = TrainConfig(model=kind, hidden_dim=16, latent_dim=3, embedding_dim=4)
    nets = build_networks(table.schema, config.latent_dim, config.hidden_dim,
                          config.embedding_dim, rng=Rng(7), amortized=config.is_amortized)
    model = RvaeModel(networks=nets, schema=table.schema, config=config,
                      stats=table.stats)

    def no_stream(*args, **kwargs):
        raise AssertionError("a posterior-mean readout made a random stream")

    monkeypatch.setattr(sr, "Rng", no_stream)
    for rule in ("nll", "pi") if model.config.is_robust else ("nll",):
        assert score(model, table, rule).cell_scores.shape == (table.n_rows, table.schema.n_features)
    assert repair_map(model, table).table.n_rows == table.n_rows


def test_two_stage_runs_the_chain_on_rows_with_a_dirty_cell(trained, long_table,
                                                           monkeypatch):
    import rvae.score_repair as sr

    model, table = trained[0], long_table
    calls = []

    def recording_chain(model, obs_reals, obs_cats, base, chunk, iters, active, clean=None):
        calls.append((chunk, obs_reals, obs_cats, active, clean))
        return run_chain(model, obs_reals, obs_cats, base, chunk, iters, active, clean)

    run_chain = sr._run_chain
    monkeypatch.setattr(sr, "_run_chain", recording_chain)
    result = repair_two_stage(model, table, gibbs_iters=2, seed=9)
    observed = destandardize(table)
    assert [call[0] for call in calls] == [chunk for chunk, _ in chunks(table.n_rows)]
    for (chunk, obs_reals, obs_cats, active, clean), (_, rows) in zip(calls, chunks(table.n_rows)):
        expected = reference_clean_mask(model, table.reals[rows], table.cats[rows], 9, chunk)
        dirty_rows = ~expected.all(axis=1)
        assert 0 < dirty_rows.sum() < dirty_rows.size
        np.testing.assert_array_equal(active, dirty_rows)
        np.testing.assert_array_equal(clean, expected[dirty_rows])
        np.testing.assert_array_equal(obs_reals, table.reals[rows][dirty_rows])
        np.testing.assert_array_equal(obs_cats, table.cats[rows][dirty_rows])
        # rows whose every cell stays clean come back as observed, one-hot
        kept = np.arange(rows.start, rows.stop)[~dirty_rows]
        np.testing.assert_array_equal(result.table.reals[kept], observed.reals[kept])
        np.testing.assert_array_equal(result.table.cats[kept], observed.cats[kept])
        for j, feat in enumerate(model.schema.cat_features):
            np.testing.assert_array_equal(result.simplexes[feat.name][kept],
                                          np.eye(feat.cardinality)[table.cats[kept, j]])

    # a chunk with no dirty row runs no chain at all
    calls.clear()
    with forced_gates(1.0):
        repair_two_stage(model, table, gibbs_iters=2, seed=9)
    assert calls == []


def test_avi_two_stage_masks_with_the_closed_form_gates(trained, long_table, monkeypatch):
    """rvae-avi's two-stage draws its clean mask, as rvae-cvi's does, from the
    closed-form gates at each row's posterior mean, not from the gate encoder
    that score's pi rule reads."""
    import rvae.score_repair as sr

    model, _ = train(trained[1], TrainConfig(model="rvae-avi", epochs=5, hidden_dim=16,
                                             latent_dim=3, embedding_dim=4, batch_size=100,
                                             seed=0))
    table, calls = long_table, []

    def recording_chain(model, obs_reals, obs_cats, base, chunk, iters, active, clean=None):
        calls.append((active, clean))
        return run_chain(model, obs_reals, obs_cats, base, chunk, iters, active, clean)

    run_chain = sr._run_chain
    monkeypatch.setattr(sr, "_run_chain", recording_chain)
    repair_two_stage(model, table, gibbs_iters=2, seed=9)
    encoder_pi = np.exp(-score(model, table, "pi").cell_scores)
    assert len(calls) == len(chunks(table.n_rows))
    for (active, clean), (chunk, rows) in zip(calls, chunks(table.n_rows)):
        expected = reference_clean_mask(model, table.reals[rows], table.cats[rows], 9, chunk)
        np.testing.assert_array_equal(active, ~expected.all(axis=1))
        np.testing.assert_array_equal(clean, expected[active])
        u = numpy_stream(9, MASK, chunk, 0).random(expected.shape)
        assert not np.array_equal(u < encoder_pi[rows], expected)


def test_two_stage_matches_a_full_chunk_chain_at_readme_shapes():
    """An untrained model at the README's widths, where OpenBLAS may pick
    another kernel for the few rows the chain runs on: the restricted chain
    must still give every row the draws of the full-chunk chain."""

    dirty, _ = make_scenario(mixture_table(1300, seed=4), 0.20, NOISE, seed=4)
    table = standardize(dirty)
    config = TrainConfig(model="rvae-cvi", hidden_dim=400, latent_dim=20, embedding_dim=50)
    nets = build_networks(table.schema, config.latent_dim, config.hidden_dim,
                          config.embedding_dim, rng=Rng(4))
    model = RvaeModel(networks=nets, schema=table.schema, config=config,
                      stats=table.stats)
    _, (reals, cats, simplexes) = reference_chains(model, table, 3, seed=8,
                                                   dirty_rows_only=False)

    two = repair_two_stage(model, table, gibbs_iters=3, seed=8)
    np.testing.assert_array_equal(two.table.cats, cats)
    np.testing.assert_allclose(apply_stats(two.table, model.stats).reals, reals,
                               rtol=0, atol=1e-12)
    for name, probs in simplexes.items():
        np.testing.assert_allclose(two.simplexes[name], probs, rtol=0, atol=1e-12)
    dirty_rows = np.concatenate([
        ~reference_clean_mask(model, table.reals[rows], table.cats[rows], 8, chunk).all(axis=1)
        for chunk, rows in chunks(table.n_rows)])
    assert 0 < dirty_rows.sum() < table.n_rows


def sampled_latent_decode(model, table, seed):
    """Decode at the latents of one-stage's first round, replayed from the
    latent columns of that round's numpy-seeded normals."""
    from rvae.model import decode_values, encode_values

    nets, k = model.networks, model.config.latent_dim
    width = k + len(model.schema.real_features)
    mu, sig = nets.encoder.latent_values(
        encode_values(model.schema, table.reals, table.cats), nets.embeddings)
    eps = np.concatenate([numpy_stream(seed, NORMAL, chunk, 0).standard_normal(
        (rows.stop - rows.start, width))[:, :k] for chunk, rows in chunks(table.n_rows)])
    return decode_values(nets.decoder, mu + sig * eps)


def test_sampled_latents_replay_numpy_seeded_draws(trained, long_table):
    model, table = trained[0], long_table
    decoded = sampled_latent_decode(model, table, 13)
    result = repair_one_stage(model, table, gibbs_iters=1, seed=13)
    np.testing.assert_array_equal(
        result.table.reals, destandardize(replace(table, reals=decoded.real_means)).reals)
    other = repair_one_stage(model, table, gibbs_iters=1, seed=14)
    assert not np.array_equal(other.table.reals, result.table.reals)


def test_one_stage_t1_is_sample_then_reconstruct(trained, long_table):
    # one round samples a latent from the observed row and reads the clean
    # component there: means for reals, the decoded simplex and its mode for
    # categories
    model, table = trained[0], long_table
    decoded = sampled_latent_decode(model, table, 13)
    result = repair_one_stage(model, table, gibbs_iters=1, seed=13)
    np.testing.assert_array_equal(
        result.table.reals, destandardize(replace(table, reals=decoded.real_means)).reals)
    probs = per_feature(model.schema, decoded.cat_probs)
    for j, feat in enumerate(model.schema.cat_features):
        np.testing.assert_array_equal(result.simplexes[feat.name], probs[feat.name])
        np.testing.assert_array_equal(result.table.cats[:, j],
                                      np.argmax(probs[feat.name], axis=1))


SEEDED_RUNS = {
    "score-nll": lambda model, table: score(model, table, "nll"),
    "score-pi": lambda model, table: score(model, table, "pi"),
    "one-stage": lambda model, table: repair_one_stage(model, table, gibbs_iters=3, seed=5),
    "two-stage": lambda model, table: repair_two_stage(model, table, gibbs_iters=3, seed=5),
}


def output_arrays(out):
    if isinstance(out, ScoreReport):
        return {"cells": out.cell_scores, "rows": out.row_scores}
    return {"reals": out.table.reals, "cats": out.table.cats, **out.simplexes}


@pytest.mark.parametrize("run", SEEDED_RUNS)
def test_first_rows_do_not_depend_on_the_rows_after_them(trained, long_table, run):
    model = trained[0]
    full = output_arrays(SEEDED_RUNS[run](model, long_table))
    for n in (600, 1100):
        # the prefix of the dirty table, standardized as the whole table was
        head = apply_stats(MixedTable(schema=long_table.schema, reals=long_table.raw_reals[:n],
                                      cats=long_table.cats[:n]), long_table.stats)
        assert head.reals.tobytes() == long_table.reals[:n].tobytes()
        for name, values in output_arrays(SEEDED_RUNS[run](model, head)).items():
            assert values.tobytes() == full[name][:n].tobytes(), (n, name)


# -- artifact writers against csv.writer ---------------------------------------------

QUOTED_SCHEMA = TableSchema((
    FeatureSpec('a,"b"', "real"),
    FeatureSpec("line\nbreak", "categorical", ("x,1", 'say "y"', "z\r\nw")),
    FeatureSpec('c"', "categorical", ("p", "q,r")),
))


def csv_writer_lines(path, header, lines):
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for line in lines:
            writer.writerow(line)


def quoted_repair(n=7, seed=2):
    rng = np.random.default_rng(seed)
    simplexes = {}
    cats = np.zeros((n, 2), dtype=np.int64)
    for j, feat in enumerate(QUOTED_SCHEMA.cat_features):
        probs = rng.dirichlet(np.ones(feat.cardinality), size=n)
        simplexes[feat.name] = probs
        cats[:, j] = np.argmax(probs, axis=1)
    table = MixedTable(schema=QUOTED_SCHEMA, reals=rng.normal(size=(n, 1)), cats=cats)
    return RepairResult(table=table, simplexes=simplexes)


def export(artifact, out):
    assert main(["export", "--input", str(artifact), "--out", str(out)]) == 0


def test_score_report_save_matches_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(1)
    cells = rng.exponential(size=(6, 3))
    cells[0, 0] = 0.0
    report = ScoreReport(rule="pi", cell_scores=cells, row_scores=cells.sum(axis=1))
    report.save(tmp_path / "scores", QUOTED_SCHEMA)
    export(tmp_path / "scores", tmp_path / "new.csv")
    lines = []
    for r in range(6):
        for c, feat in enumerate(QUOTED_SCHEMA.features):
            lines.append([r, feat.name, "pi", repr(float(cells[r, c]))])
        lines.append([r, "__row__", "pi", repr(float(report.row_scores[r]))])
    csv_writer_lines(tmp_path / "ref.csv", ["row_id", "feature", "rule", "score"], lines)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = ScoreReport.load(tmp_path / "scores", QUOTED_SCHEMA)
    np.testing.assert_array_equal(loaded.cell_scores, cells)


def test_simplex_sidecar_matches_csv_writer_bytes(tmp_path):
    result = quoted_repair()
    result.save(tmp_path / "t.csv", tmp_path / "simplexes")
    export(tmp_path / "simplexes", tmp_path / "new.csv")
    lines = [[r, feat.name, label, repr(float(result.simplexes[feat.name][r, c]))]
             for feat in QUOTED_SCHEMA.cat_features
             for r in range(result.table.n_rows)
             for c, label in enumerate(feat.categories)]
    csv_writer_lines(tmp_path / "ref.csv", ["row_id", "feature", "category", "probability"],
                     lines)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = load_simplexes(tmp_path / "simplexes", QUOTED_SCHEMA, result.table.n_rows)
    for name, probs in result.simplexes.items():
        np.testing.assert_array_equal(loaded[name], probs)
