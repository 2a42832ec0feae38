import importlib
import math

import numpy as np
import pytest

from rvae.corrupt import GaussianNoise, NoiseSpec, TemperedCategorical, make_scenario
from rvae.data import FeatureSpec, MixedTable, TableSchema, apply_stats, standardize
from rvae.errors import (CheckpointError, ConfigError, SchemaMismatchError,
                         TrainingError)
from rvae.model import outlier_logliks
from rvae.nn import Rng, init_adam
from rvae.score_repair import score
from rvae.synthetic import mixture_table
from rvae.train import RvaeModel, TrainConfig, batch_objective, load_model, save_model, train

from conftest import (MALFORMED_CHECKPOINT_HEADERS, forced_gates, gated_elbo, random_batch,
                      random_table, rewrite_header, tiny_networks)

# the module, which ``rvae.train`` the attribute (the function) shadows
train_module = importlib.import_module("rvae.train")
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
    for key, value in (("hidden_dim", 400.0), ("latent_dim", True), ("seed", np.int64(1))):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            TrainConfig(**{key: value}).validate()
    for key, value in (("alpha", True), ("learning_rate", "0.1"), ("weight_decay", math.nan),
                       ("outlier_scale", math.inf)):
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            TrainConfig(**{key: value}).validate()
    TrainConfig().validate()
    TrainConfig(learning_rate=1, alpha=np.float64(0.5)).validate()


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
    pi = np.exp(-score(model, table, "pi").cell_scores)
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
        pi = np.exp(-score(model, table, "pi").cell_scores)
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
    scale = 2.0
    reals, cats = random_batch(mixed_schema, 6, seed=22)
    eps = Rng(23).normal((6, 3))
    config = TrainConfig(model="rvae-avi", alpha=0.9)
    model = RvaeModel(nets, mixed_schema, config, stats={})
    avi_row, avi_pi = batch_objective(model, reals, cats, eps)
    pinned_row = gated_elbo(nets, mixed_schema, reals, cats, scale, avi_pi, 0.9, eps)
    np.testing.assert_allclose(avi_row.value, pinned_row.value, atol=1e-9)


def test_train_takes_one_adam_step_per_mini_batch(monkeypatch):
    # the demo table: 2000 rows in batches of 150 for 12 epochs, 14 x 12 steps
    calls = []
    step = train_module.adam_step
    monkeypatch.setattr(train_module, "adam_step", lambda *args: calls.append(1) or step(*args))
    table = standardize(mixture_table(2000, seed=7))
    train(table, TrainConfig(epochs=12, hidden_dim=8, latent_dim=3, embedding_dim=4, seed=7))
    assert len(calls) == 168


@pytest.mark.parametrize("kind", ["vae", "rvae-cvi", "rvae-avi"])
def test_the_tape_train_keeps_between_steps_holds_no_inner_gradient(monkeypatch, kind):
    # the previous step's tape is alive when the next forward starts; of its
    # gradients only the root's seed and the leaves' may be left
    objective = train_module.batch_objective
    tapes, held_at_call = [], []

    def watched(*args):
        if tapes:
            held_at_call.append([node for node in tapes[-1]._topo()
                                 if node._bw is not None and node is not tapes[-1]
                                 and node.grad is not None])
        per_row, pi = objective(*args)
        tapes.append(per_row)
        return per_row, pi

    monkeypatch.setattr(train_module, "batch_objective", watched)
    table = standardize(mixture_table(400, seed=3))
    train(table, TrainConfig(model=kind, epochs=2, hidden_dim=8, latent_dim=3,
                             embedding_dim=4, batch_size=150, seed=3))
    # 3 batches per epoch, so 5 calls find an earlier step's tape
    assert held_at_call == [[]] * 5


def test_table_outlier_logliks_indexed_per_batch_equal_the_batch_s():
    table = standardize(mixture_table(500, seed=8))
    whole = outlier_logliks(2.0, table.schema, table.reals, table.cats)
    for idx in (Rng(9).permutation(500)[:150], np.arange(450, 500)):
        np.testing.assert_array_equal(
            whole[idx], outlier_logliks(2.0, table.schema, table.reals[idx], table.cats[idx]))


@pytest.mark.parametrize("kind", ["vae", "rvae-cvi", "rvae-avi"])
def test_buffered_gradients_equal_the_tape_s_bit_for_bit(mixed_schema, kind):
    # the optimizer's buffer holds what the unbuffered tape leaves in .grad
    reals, cats = random_batch(mixed_schema, 7, seed=31)
    eps = Rng(32).normal((7, 3))
    config = TrainConfig(model=kind, outlier_scale=2.0)
    grads = []
    for buffered in (False, True):
        nets = tiny_networks(mixed_schema, seed=30, amortized=kind == "rvae-avi")
        params = nets.params()
        state = init_adam(params) if buffered else None
        per_row, _ = batch_objective(RvaeModel(nets, mixed_schema, config, stats={}),
                                     reals, cats, eps)
        per_row.backward(np.full(7, -1.0 / 7))
        grads.append({name: p.grad for name, p in params.items()})
        if buffered:
            for p in params.values():
                assert p.grad is p.grad_buffer and np.shares_memory(p.grad, state.grad)
    for name, g in grads[0].items():
        np.testing.assert_array_equal(grads[1][name], g, err_msg=name)


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
    report = score(model, table, "pi")
    assert report.cell_scores.shape == (120, 2)
    from rvae.score_repair import repair_map, repair_two_stage

    result = repair_map(model, table)
    assert set(result.simplexes) == {"c0", "c1"}
    with forced_gates(1.0):
        forced = repair_two_stage(model, table, gibbs_iters=2, seed=8)
    np.testing.assert_array_equal(forced.table.cats, cats)


def test_avi_training_runs_and_scores():
    table = standardize(mixture_table(200, seed=6))
    model, log = train(table, TrainConfig(model="rvae-avi", seed=6, epochs=5, **{
        k: v for k, v in TINY.items() if k != "epochs"}))
    assert model.networks.pi_encoder is not None
    report = score(model, table, "pi")
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
    np.testing.assert_array_equal(loaded.stats.mean, model.stats.mean)
    np.testing.assert_array_equal(loaded.stats.std, model.stats.std)
    a = score(model, table, "pi")
    b = score(loaded, table, "pi")
    np.testing.assert_array_equal(a.cell_scores, b.cell_scores)



def test_checkpoint_keeps_the_stats_in_real_feature_order(tmp_path):
    # the header stores the stats by name and comes back sorted by name, so a
    # schema whose real names are not in that order, between categoricals,
    # shows whether load_model rebuilds the arrays in real-feature order
    schema = TableSchema((FeatureSpec("z", "real"), FeatureSpec("k", "categorical", ("p", "q")),
                          FeatureSpec("c", "real"),
                          FeatureSpec("b", "categorical", ("p", "q", "r")),
                          FeatureSpec("a", "real")))
    raw = random_table(schema, 120, seed=4)
    raw = MixedTable(schema=schema, reals=raw.reals * [1.0, 10.0, 0.1] + [5.0, -30.0, 0.0],
                     cats=raw.cats)
    model, _ = train(standardize(raw), TrainConfig(**{**TINY, "epochs": 1}))
    save_model(model, tmp_path / "model.ckpt")
    loaded = load_model(tmp_path / "model.ckpt")
    np.testing.assert_array_equal(apply_stats(raw, loaded.stats).reals, standardize(raw).reals)

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
    """Write a checkpoint by hand in the per-feature tensor layout that
    checkpoints used to store the decoder head in."""
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


def test_per_feature_checkpoint_is_rejected(tmp_path, mixed_schema):
    per_feature_checkpoint(tmp_path / "legacy.ckpt", mixed_schema, seed=40)
    with pytest.raises(CheckpointError, match="tensor manifest does not match architecture"):
        load_model(tmp_path / "legacy.ckpt")


def test_checkpoint_holds_the_parameters_under_their_names_in_order(tmp_path, trained_model):
    from rvae.container import read_container

    _, model = trained_model
    save_model(model, tmp_path / "model.ckpt")
    _, written = read_container(tmp_path / "model.ckpt")
    params = model.networks.params()
    assert list(written) == list(params)
    for name, t in params.items():
        np.testing.assert_array_equal(written[name], t.value, err_msg=name)


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINT_HEADERS))
def test_malformed_checkpoint_header_is_a_checkpoint_error(tmp_path, trained_model, case):
    _, model = trained_model
    edit, message = MALFORMED_CHECKPOINT_HEADERS[case]
    save_model(model, tmp_path / "model.ckpt")
    rewrite_header(tmp_path / "model.ckpt", tmp_path / "bad.ckpt", edit)
    with pytest.raises(CheckpointError, match=message) as info:
        load_model(tmp_path / "bad.ckpt")
    assert str(tmp_path / "bad.ckpt") in str(info.value)


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
