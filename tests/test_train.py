import numpy as np
import pytest

from rvae.corrupt import GaussianNoise, NoiseSpec, TemperedCategorical, make_scenario
from rvae.data import FeatureSpec, MixedTable, TableSchema, standardize
from rvae.errors import (CheckpointError, ConfigError, SchemaMismatchError,
                         TrainingError)
from rvae.model import OutlierComponents
from rvae.nn import Rng
from rvae.score_repair import score
from rvae.synthetic import mixture_table
from rvae.train import TrainConfig, batch_objective, load_model, save_model, train

from conftest import gated_elbo, random_batch, softmax, tiny_networks

TINY = dict(epochs=25, hidden_dim=64, latent_dim=6, embedding_dim=12, batch_size=100)
NOISE = NoiseSpec(real=GaussianNoise(0.0, 5.0), cat=TemperedCategorical(0.0))


def gaussian_pair_table(n, seed):
    rng = Rng(seed)
    base = rng.normal(n)
    reals = np.stack([base + 0.3 * rng.normal(n), -base + 0.3 * rng.normal(n)], axis=1)
    schema = TableSchema((FeatureSpec("u", "real"), FeatureSpec("v", "real")))
    return MixedTable(schema=schema, reals=reals, cats=np.zeros((n, 0), dtype=np.int64),
                      stats=None)


def test_config_validation():
    with pytest.raises(ConfigError, match="alpha"):
        TrainConfig(alpha=1.5).validate()
    with pytest.raises(ConfigError, match="epochs"):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigError, match="model"):
        TrainConfig(model="tree").validate()
    with pytest.raises(ConfigError, match="outlier scale"):
        TrainConfig(outlier_scale=1.0).validate()
    TrainConfig().validate()


def test_train_requires_standardized_table():
    table = gaussian_pair_table(50, 0)
    with pytest.raises(TrainingError, match="standardized"):
        train(table, TrainConfig(model="vae", epochs=1))


def test_vae_training_improves_elbo():
    for seed in (0, 1, 2):
        table = standardize(gaussian_pair_table(200, seed))
        config = TrainConfig(model="vae", epochs=100, hidden_dim=400, latent_dim=20,
                             seed=seed)
        _, log = train(table, config)
        assert log.epochs[-1].mean_elbo >= log.epochs[0].mean_elbo
        assert len(log.epochs) == 100


def test_rvae_on_clean_data_gates_open():
    table = standardize(mixture_table(400, seed=3))
    model, log = train(table, TrainConfig(model="rvae-cvi", alpha=0.95, seed=3, epochs=30, **{
        k: v for k, v in TINY.items() if k != "epochs"}))
    pi = np.exp(-score(model, table, "pi", seed=3).cell_scores)
    assert model.config.alpha == 0.95
    assert pi.mean() > 0.9
    assert log.epochs[-1].mean_pi > 0.9


def test_rvae_separates_corrupted_cells():
    gaps = []
    for seed in (0, 1, 2):
        clean = mixture_table(600, seed)
        dirty, record = make_scenario(clean, 0.10, NOISE, seed)
        table = standardize(dirty)
        model, _ = train(table, TrainConfig(model="rvae-cvi", alpha=0.95, seed=seed, **TINY))
        pi = np.exp(-score(model, table, "pi", seed=seed).cell_scores)
        gaps.append(pi[~record.mask].mean() - pi[record.mask].mean())
    assert all(g > 0 for g in gaps)


@pytest.mark.parametrize("model", ["vae", "rvae-cvi", "rvae-avi"])
def test_training_is_bit_deterministic(model):
    table = standardize(mixture_table(300, seed=5))
    config = TrainConfig(model=model, seed=11, epochs=5, **{
        k: v for k, v in TINY.items() if k != "epochs"})
    model_a, _ = train(table, config)
    model_b, _ = train(table, config)
    for name, tensor in model_a.networks.params().items():
        np.testing.assert_array_equal(tensor.value, model_b.networks.params()[name].value,
                                      err_msg=name)


def test_avi_and_cvi_share_the_objective(mixed_schema):
    # with the gate encoder's outputs as constant gates, per-batch losses agree
    nets = tiny_networks(mixed_schema, seed=21, amortized=True)
    comps = OutlierComponents(2.0)
    reals, cats = random_batch(mixed_schema, 6, seed=22)
    eps = Rng(23).normal((6, 3))
    config = TrainConfig(model="rvae-avi", alpha=0.9)
    avi_row, avi_pi = batch_objective(nets, mixed_schema, config, comps, reals, cats, eps)
    pinned_row = gated_elbo(nets, mixed_schema, reals, cats, comps, avi_pi, 0.9, eps)
    np.testing.assert_allclose(avi_row.value, pinned_row.value, atol=1e-9)


def test_all_categorical_table_trains_scores_repairs():
    # no real features at all (frequency-only world)
    schema = TableSchema((FeatureSpec("c0", "categorical", ("a", "b", "c")),
                          FeatureSpec("c1", "categorical", ("p", "q"))))
    rng = Rng(8)
    cats = np.stack([rng.integers(0, 3, size=120), rng.integers(0, 2, size=120)], axis=1)
    table = standardize(MixedTable(schema=schema, reals=np.zeros((120, 0)),
                                   cats=cats, stats=None))
    model, _ = train(table, TrainConfig(model="rvae-cvi", epochs=3, hidden_dim=16,
                                        latent_dim=3, embedding_dim=6, batch_size=60,
                                        seed=8))
    report = score(model, table, "pi", seed=8)
    assert report.cell_scores.shape == (120, 2)
    from rvae.score_repair import repair_map, repair_two_stage

    result = repair_map(model, table)
    assert set(result.simplexes) == {"c0", "c1"}
    forced = repair_two_stage(model, table, gibbs_iters=2, seed=8, pi_override=1.0)
    np.testing.assert_array_equal(forced.table.cats, cats)


def test_avi_training_runs_and_scores():
    table = standardize(mixture_table(200, seed=6))
    model, log = train(table, TrainConfig(model="rvae-avi", seed=6, epochs=5, **{
        k: v for k, v in TINY.items() if k != "epochs"}))
    assert model.networks.pi_encoder is not None
    report = score(model, table, "pi", seed=6)
    assert report.cell_scores.shape == (200, table.schema.n_features)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_reports_location():
    table = standardize(gaussian_pair_table(300, seed=7))
    config = TrainConfig(model="vae", epochs=2, learning_rate=1e120, batch_size=100,
                         hidden_dim=8, latent_dim=2, seed=7)
    with pytest.raises(TrainingError, match=r"epoch \d+, batch \d+"):
        train(table, config)


# -- checkpointing -----------------------------------------------------------

@pytest.fixture(scope="module")
def trained_model():
    table = standardize(mixture_table(200, seed=9))
    model, _ = train(table, TrainConfig(model="rvae-cvi", seed=9, epochs=3, **{
        k: v for k, v in TINY.items() if k != "epochs"}))
    return table, model


def test_checkpoint_round_trip_bit_exact(tmp_path, trained_model):
    table, model = trained_model
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    for name, tensor in model.networks.params().items():
        np.testing.assert_array_equal(tensor.value, loaded.networks.params()[name].value)
    assert loaded.config == model.config
    assert loaded.stats == model.stats
    a = score(model, table, "pi", seed=1)
    b = score(loaded, table, "pi", seed=1)
    np.testing.assert_array_equal(a.cell_scores, b.cell_scores)


def test_checkpoint_bad_magic(tmp_path, trained_model):
    _, model = trained_model
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"JUNK"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="magic"):
        load_model(path)


def test_checkpoint_truncated(tmp_path, trained_model):
    _, model = trained_model
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    path.write_bytes(path.read_bytes()[:-200])
    with pytest.raises(CheckpointError, match="truncated"):
        load_model(path)


def test_checkpoint_version_mismatch(tmp_path, trained_model):
    import json

    _, model = trained_model
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + header_len])
    header["container_version"] = 99
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:8] + len(new_header).to_bytes(8, "little") + new_header
                     + raw[16 + header_len:])
    with pytest.raises(CheckpointError, match="version"):
        load_model(path)


def test_checkpoint_schema_mismatch(tmp_path, trained_model, real_schema):
    _, model = trained_model
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    with pytest.raises(SchemaMismatchError, match="names differ"):
        load_model(path, expected_schema=real_schema)


def per_feature_checkpoint(path, schema, seed):
    """Write a checkpoint by hand in the per-feature tensor layout; returns
    the tensors in the order written."""
    from conftest import tiny_networks
    from rvae.container import write_container

    config = TrainConfig(model="rvae-cvi", latent_dim=3, hidden_dim=8, embedding_dim=4)
    nets = tiny_networks(schema, seed=seed)
    rng = Rng(seed + 1)
    tensors = {}
    tensors.update({name: t.value for name, t in nets.encoder.params().items()})
    tensors.update({name: t.value for name, t in nets.decoder.trunk.params().items()})
    for feat in schema.features:
        if feat.kind == "real":
            tensors[f"decoder.real.{feat.name}.W"] = rng.normal((8, 1))
            tensors[f"decoder.real.{feat.name}.b"] = rng.normal(1)
            tensors[f"decoder.real.{feat.name}.log_sigma"] = 0.3 * rng.normal(1)
        else:
            tensors[f"decoder.cat.{feat.name}.W"] = rng.normal((8, feat.cardinality))
            tensors[f"decoder.cat.{feat.name}.b"] = rng.normal(feat.cardinality)
    tensors.update({name: t.value for name, t in nets.embeddings.params().items()})
    meta = {"format": "rvae-model", "tool_version": "0.1.0", "schema": schema.to_json_obj(),
            "config": config.__dict__,
            "stats": {f.name: {"mean": 1.0, "std": 2.0} for f in schema.real_features}}
    write_container(path, meta, tensors)
    return tensors


def test_per_feature_checkpoint_loads_and_decodes_identically(tmp_path, mixed_schema):
    from rvae.model import decode_values

    tensors = per_feature_checkpoint(tmp_path / "legacy.ckpt", mixed_schema, seed=40)
    decoder = load_model(tmp_path / "legacy.ckpt").networks.decoder
    z = Rng(42).normal((6, 3))
    decoded = decode_values(decoder, z)
    h = np.maximum(z @ tensors["decoder.trunk.W0"] + tensors["decoder.trunk.b0"], 0.0)
    for j, feat in enumerate(mixed_schema.real_features):
        prefix = f"decoder.real.{feat.name}"
        np.testing.assert_allclose(decoded.real_means[:, j],
                                   (h @ tensors[f"{prefix}.W"] + tensors[f"{prefix}.b"])[:, 0],
                                   rtol=1e-13, atol=1e-13)
        assert decoded.real_stds[j] == np.exp(tensors[f"{prefix}.log_sigma"][0])
    for feat in mixed_schema.cat_features:
        prefix = f"decoder.cat.{feat.name}"
        np.testing.assert_allclose(decoded.cat_probs[feat.name],
                                   softmax(h @ tensors[f"{prefix}.W"] + tensors[f"{prefix}.b"],
                                           axis=1), rtol=1e-13, atol=1e-13)


def test_save_model_keeps_the_per_feature_layout(tmp_path, mixed_schema):
    from rvae.container import read_container

    tensors = per_feature_checkpoint(tmp_path / "legacy.ckpt", mixed_schema, seed=43)
    save_model(load_model(tmp_path / "legacy.ckpt"), tmp_path / "resaved.ckpt")
    _, written = read_container(tmp_path / "resaved.ckpt")
    assert list(written) == list(tensors)
    for name, arr in tensors.items():
        assert written[name].shape == arr.shape, name
        np.testing.assert_array_equal(written[name], arr, err_msg=name)


def test_model_rejects_foreign_table(trained_model, real_schema):
    _, model = trained_model
    foreign = MixedTable(schema=real_schema, reals=np.zeros((2, 2)),
                         cats=np.zeros((2, 0), dtype=np.int64), stats=None)
    with pytest.raises(SchemaMismatchError):
        model.require_table(foreign)


def test_trainlog_csv(tmp_path, trained_model):
    table, _ = trained_model
    model, log = train(table, TrainConfig(model="vae", seed=2, epochs=2, hidden_dim=16,
                                          latent_dim=3, embedding_dim=8, batch_size=100))
    path = tmp_path / "log.csv"
    log.save_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_elbo,mean_pi,wall_time_s"
    assert len(lines) == 3
