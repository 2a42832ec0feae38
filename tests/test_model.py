import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvae import engine
from rvae.data import FeatureSpec, MixedTable, TableSchema
from rvae.model import (OutlierComponents, build_networks, clean_logliks_values,
                        decode_values, encode_values, forward_elbo_parts, kl_bernoulli,
                        outlier_logliks, pi_update)
from rvae.nn import Rng
from rvae.score_repair import score
from rvae.train import MODEL_KINDS, RvaeModel, TrainConfig, batch_objective

from conftest import (assert_grads_close, finite_difference, gated_elbo, kl_gaussian,
                      random_batch, reference_objective, tiny_networks, train_objective,
                      wire_identity_autoencoder)
from reference_tape import add, neg, tmean

HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def zeroed_decoder(schema, latent=3, hidden=4):
    """Decoder with all-zero heads: every real mean is 0, sigma_d is 1,
    every categorical head uniform."""
    nets = build_networks(schema, latent, hidden, 4, rng=None)
    return nets.decoder


def clean_loglik(decoder, z, reals, cats):
    """Clean-component log likelihoods (B, D) of cells given latents z."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    reals = np.asarray(reals, dtype=np.float64).reshape(z.shape[0], -1)
    cats = np.asarray(cats, dtype=np.int64).reshape(z.shape[0], -1)
    return clean_logliks_values(decoder, decoder.head(z).value, reals, cats)


NO_CATS = np.zeros((1, 0), dtype=np.int64)


# -- per-cell likelihoods ----------------------------------------------------

def test_log_lik_clean_standard_normal_at_zero():
    schema = TableSchema((FeatureSpec("a", "real"),))
    dec = zeroed_decoder(schema)
    value = clean_loglik(dec, np.zeros(3), [[0.0]], NO_CATS)
    assert value.shape == (1, 1)
    assert value[0, 0] == pytest.approx(-HALF_LOG_2PI, abs=1e-12)


def test_log_lik_clean_uniform_categorical():
    schema = TableSchema((FeatureSpec("b", "categorical", ("w", "x", "y", "z")),))
    dec = zeroed_decoder(schema)
    values = clean_loglik(dec, np.zeros((4, 3)), np.zeros((4, 0)), np.arange(4)[:, None])
    np.testing.assert_allclose(values, math.log(0.25), atol=1e-12)


def test_log_lik_clean_mode_at_decoded_mean():
    schema = TableSchema((FeatureSpec("a", "real"),))
    dec = zeroed_decoder(schema)
    z = Rng(0).normal(3)
    at_mode = clean_loglik(dec, z, [[0.0]], NO_CATS)[0, 0]
    for delta in (0.1, -0.3, 2.0):
        assert clean_loglik(dec, z, [[delta]], NO_CATS)[0, 0] < at_mode


def test_log_lik_outlier_values():
    comps = OutlierComponents(real_scale=2.0)
    schema = TableSchema((FeatureSpec("a", "real"),
                          FeatureSpec("b", "categorical", tuple(str(i) for i in range(10)))))
    values = outlier_logliks(comps, schema, np.array([[0.0]]), np.array([[3]]))
    assert values[0, 0] == pytest.approx(-1.612085713764618, abs=1e-12)
    assert values[0, 1] == pytest.approx(-math.log(10), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-50, 50))
def test_log_lik_outlier_symmetric(x):
    comps = OutlierComponents(real_scale=2.0)
    schema = TableSchema((FeatureSpec("a", "real"),))
    assert (outlier_logliks(comps, schema, np.array([[x]]), NO_CATS)
            == outlier_logliks(comps, schema, np.array([[-x]]), NO_CATS))


def test_outlier_scale_must_exceed_one():
    from rvae.errors import ConfigError
    with pytest.raises(ConfigError):
        OutlierComponents(real_scale=1.0)


# -- KL terms ----------------------------------------------------------------

def test_kl_gaussian_zero_at_prior():
    assert kl_gaussian([0.0, 0.0], [1.0, 1.0]) == 0.0


def test_kl_gaussian_closed_form_value():
    assert kl_gaussian([1.0], [1.0]) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=4),
       st.lists(st.floats(0.01, 10), min_size=1, max_size=4))
def test_kl_gaussian_nonnegative(mu, sigma):
    n = min(len(mu), len(sigma))
    assert kl_gaussian(mu[:n], sigma[:n]) >= 0.0


def test_kl_bernoulli_values():
    assert kl_bernoulli(0.5, 0.5) == 0.0
    assert kl_bernoulli(0.95, 0.95) == 0.0
    assert kl_bernoulli(1.0, 0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert kl_bernoulli(0.0, 0.95) == pytest.approx(math.log(20), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 1), st.floats(0.01, 0.99))
def test_kl_bernoulli_nonnegative(pi, alpha):
    assert kl_bernoulli(pi, alpha) >= 0.0


# -- the gate update ---------------------------------------------------------

def test_pi_update_at_zero_ratio_is_alpha_exactly():
    for alpha in (0.2, 0.5, 0.8, 0.95, 0.99):
        assert pi_update(0.0, alpha) == alpha


def test_pi_update_balances_prior():
    r = -math.log(0.95 / 0.05)
    assert pi_update(r, 0.95) == pytest.approx(0.5, abs=1e-12)


def test_pi_update_against_sigmoid_oracle():
    # independent formulation: logistic of r + logit(alpha)
    oracle = 1.0 / (1.0 + math.exp(-(2.0 + math.log(0.95 / 0.05))))
    assert pi_update(2.0, 0.95) == pytest.approx(oracle, abs=1e-12)
    assert pi_update(2.0, 0.95) == pytest.approx(0.99293, abs=5e-5)


@settings(max_examples=50, deadline=None)
@given(st.floats(-40, 40), st.floats(0.01, 0.99))
def test_pi_update_in_unit_interval(r, alpha):
    value = pi_update(r, alpha)
    assert 0.0 < value < 1.0 or value in (0.0, 1.0)


def test_pi_update_monotone_in_both_arguments():
    rs = np.linspace(-35.0, 35.0, 41)
    for alpha in (0.2, 0.5, 0.95):
        values = pi_update(rs, alpha)
        assert np.all(np.diff(values) >= 0.0)
    for r in (-5.0, 0.0, 5.0):
        alphas = np.linspace(0.01, 0.99, 25)
        values = np.array([pi_update(r, a) for a in alphas])
        assert np.all(np.diff(values) >= 0.0)


def test_pi_update_unchanged_by_common_loglik_shift():
    rng = Rng(0)
    clean = rng.normal(6)
    out = rng.normal(6)
    for c in (-100.0, 3.7, 250.0):
        np.testing.assert_allclose(pi_update(clean - out, 0.9),
                                   pi_update((clean + c) - (out + c), 0.9), rtol=1e-12)


# -- ELBOs -------------------------------------------------------------------

def test_elbo_vae_matches_hand_composition(mixed_schema):
    nets = tiny_networks(mixed_schema, seed=3)
    reals, cats = random_batch(mixed_schema, 1, seed=4)
    eps = Rng(5).normal((1, 3))
    per_row = train_objective(nets, mixed_schema, reals, cats, eps, "vae")

    x = encode_values(mixed_schema, reals, cats)
    mu, sigma = nets.encoder.latent_values(x, nets.embeddings)
    z = mu + sigma * eps
    cells = clean_loglik(nets.decoder, z, reals, cats)
    assert cells.shape == (1, 4)
    total = cells.sum() - kl_gaussian(mu[0], sigma[0])
    assert float(per_row.value[0]) == pytest.approx(total, abs=1e-9)


def test_elbo_batch_is_mean_of_rows(mixed_schema):
    nets = tiny_networks(mixed_schema, seed=6)
    reals, cats = random_batch(mixed_schema, 5, seed=7)
    eps = Rng(8).normal((5, 3))
    batch = train_objective(nets, mixed_schema, reals, cats, eps, "vae")
    singles = [float(train_objective(nets, mixed_schema, reals[i:i + 1], cats[i:i + 1],
                                     eps[i:i + 1], "vae").value[0]) for i in range(5)]
    np.testing.assert_allclose(batch.value, singles, atol=1e-12)
    assert float(tmean(batch).value) == pytest.approx(np.mean(singles), abs=1e-12)


def test_elbo_vae_structural_limit():
    # hand-wired identity autoencoder on one real feature:
    # ELBO -> max log-lik - KL as the posterior narrows
    schema = TableSchema((FeatureSpec("a", "real"),))
    nets = build_networks(schema, latent_dim=1, hidden_dim=2, embedding_dim=2, rng=None)
    wire_identity_autoencoder(nets)
    x = 0.73
    eps = np.zeros((1, 1))
    elbo = float(train_objective(nets, schema, np.array([[x]]),
                                 np.zeros((1, 0), dtype=np.int64), eps, "vae").value[0])
    expected = -HALF_LOG_2PI - kl_gaussian([x], [math.exp(-6.0)])
    assert elbo == pytest.approx(expected, abs=1e-6)


def test_elbo_rvae_with_unit_gates_matches_vae(mixed_schema):
    nets = tiny_networks(mixed_schema, seed=9)
    comps = OutlierComponents(2.0)
    reals, cats = random_batch(mixed_schema, 3, seed=10)
    eps = Rng(11).normal((3, 3))
    alpha = 0.95
    pi = np.ones((3, 4))
    gated = gated_elbo(nets, mixed_schema, reals, cats, comps, pi, alpha, eps)
    plain = train_objective(nets, mixed_schema, reals, cats, eps, "vae")
    offset = 4 * kl_bernoulli(1.0, alpha)
    np.testing.assert_allclose(gated.value, plain.value - offset, atol=1e-12)


def test_zero_gate_kills_decoder_head_gradient(mixed_schema):
    nets = tiny_networks(mixed_schema, seed=12)
    comps = OutlierComponents(2.0)
    reals, cats = random_batch(mixed_schema, 1, seed=13)
    eps = Rng(14).normal((1, 3))
    pi = np.array([[1.0, 1.0, 0.0, 1.0]])  # gate off feature "c" (real head)
    loss = neg(tmean(gated_elbo(nets, mixed_schema, reals, cats, comps, pi, 0.95, eps)))
    loss.backward()
    dec = nets.decoder
    c, a = dec.columns["c"], dec.columns["a"]
    assert np.all(dec.W.grad[:, c] == 0.0)
    assert np.all(dec.b.grad[c] == 0.0)
    assert np.all(dec.log_sigma.grad[c] == 0.0)
    assert np.any(dec.W.grad[:, a] != 0.0)


def probe_coordinate_optimality(schema, seed, alpha, deltas=(0.01, 0.1)):
    """Max ELBO improvement over single-cell perturbations of the closed-form gates."""
    nets = tiny_networks(schema, seed=seed)
    comps = OutlierComponents(2.0)
    reals, cats = random_batch(schema, 2, seed=seed + 1)
    eps = Rng(seed + 2).normal((2, 3))
    _, ll_clean, _ = forward_elbo_parts(nets, schema, reals, cats, eps)
    r = ll_clean.value - outlier_logliks(comps, schema, reals, cats)
    pi_hat = pi_update(r, alpha)
    base = gated_elbo(nets, schema, reals, cats, comps, pi_hat, alpha, eps).value.sum()
    worst = -np.inf
    for row in range(pi_hat.shape[0]):
        for col in range(pi_hat.shape[1]):
            for delta in deltas:
                for sign in (1.0, -1.0):
                    pert = pi_hat.copy()
                    pert[row, col] = np.clip(pert[row, col] + sign * delta, 0.0, 1.0)
                    value = gated_elbo(nets, schema, reals, cats, comps, pert, alpha,
                                       eps).value.sum()
                    worst = max(worst, value - base)
    return worst


def test_gate_update_is_coordinate_optimal(mixed_schema):
    for seed, alpha in ((0, 0.2), (1, 0.5), (2, 0.95)):
        assert probe_coordinate_optimality(mixed_schema, seed, alpha) <= 1e-9


# -- gradients ---------------------------------------------------------------

def test_elbo_gradients_match_finite_differences(mixed_schema):
    reals, cats = random_batch(mixed_schema, 2, seed=20)
    eps = Rng(21).normal((2, 3))
    comps = OutlierComponents(2.0)
    pi = Rng(22).uniform((2, 4)) * 0.8 + 0.1

    cases = {
        "vae": lambda nets: train_objective(nets, mixed_schema, reals, cats, eps, "vae"),
        "rvae": lambda nets: gated_elbo(nets, mixed_schema, reals, cats, comps, pi, 0.9, eps),
        "avi": lambda nets: train_objective(nets, mixed_schema, reals, cats, eps, "rvae-avi",
                                            alpha=0.9),
    }
    for name, objective in cases.items():
        nets = tiny_networks(mixed_schema, seed=23, amortized=(name == "avi"))
        params = nets.params()
        loss = neg(tmean(objective(nets)))
        loss.backward()
        analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.value))
                    for k, t in params.items()}
        numeric = finite_difference(lambda: float(neg(tmean(objective(nets))).value), params)
        assert_grads_close(analytic, numeric)


# -- scoring reads the training forward pass ----------------------------------

def test_value_paths_match_tape(mixed_schema):
    nets = tiny_networks(mixed_schema, seed=30)
    reals, cats = random_batch(mixed_schema, 4, seed=31)
    x_t, ll_tape, _ = forward_elbo_parts(nets, mixed_schema, reals, cats, np.zeros((4, 3)))
    np.testing.assert_array_equal(x_t, encode_values(mixed_schema, reals, cats))

    # eps = 0 puts the training latent at the posterior mean
    mu, _ = nets.encoder.latent_values(x_t, nets.embeddings)
    dec = nets.decoder
    decoded = decode_values(dec, mu)
    np.testing.assert_array_equal(clean_logliks_values(dec, decoded.head, reals, cats),
                                  ll_tape.value)
    head = add(engine.matmul(dec.trunk.apply(mu), dec.W), dec.b)
    np.testing.assert_array_equal(decoded.head, head.value)
    np.testing.assert_array_equal(decoded.real_means, head.value[:, :dec.n_real])
    for feat in mixed_schema.cat_features:
        cols = dec.columns[feat.name]
        tape_probs = np.exp(engine.log_softmax(engine.slice_cols(head, cols.start,
                                                                 cols.stop)).value)
        np.testing.assert_allclose(tape_probs, decoded.cat_probs[feat.name], atol=1e-12,
                                   err_msg=feat.name)

    # score's nll cells are the training pass at the latent draws score makes:
    # the latent columns of the first round's normals, keyed (tag 0, chunk 0, round 0)
    model = RvaeModel(networks=nets, schema=mixed_schema,
                      config=TrainConfig(latent_dim=3, hidden_dim=8, embedding_dim=4),
                      stats={}, components=OutlierComponents(2.0))
    table = MixedTable(schema=mixed_schema, reals=reals, cats=cats, stats=None)
    n_real = len(mixed_schema.real_features)
    eps = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(0, 0, 0))).standard_normal(
        (4, 3 + n_real))[:, :3]
    _, ll_sampled, _ = forward_elbo_parts(nets, mixed_schema, reals, cats, eps)
    np.testing.assert_array_equal(score(model, table, "nll", seed=5).cell_scores,
                                  -ll_sampled.value)


def test_forward_passes_leave_no_reference_cycles(mixed_schema):
    # a tape node whose backward closure refers to the node keeps the whole
    # tape, activations included, alive until the cycle collector runs
    nets = tiny_networks(mixed_schema, seed=32, amortized=True)
    reals, cats = random_batch(mixed_schema, 4, seed=33)
    comps = OutlierComponents(2.0)
    x = encode_values(mixed_schema, reals, cats)
    gc.collect()
    gc.disable()
    try:
        for model in MODEL_KINDS:
            config = TrainConfig(model=model, alpha=0.9)
            per_row, _ = batch_objective(nets, mixed_schema, config, comps, reals, cats,
                                         np.zeros((4, 3)))
            per_row.backward(np.full(4, -1.0 / 4))
        mu, _ = nets.encoder.latent_values(x, nets.embeddings)
        clean_logliks_values(nets.decoder, decode_values(nets.decoder, mu).head, reals, cats)
        del per_row
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fused_head_keeps_per_feature_initial_draws(mixed_schema):
    # the head's initial columns are the per-feature draws, taken in schema
    # order right after the encoder and decoder-trunk weights
    latent, hidden, emb = 3, 8, 4
    nets = tiny_networks(mixed_schema, seed=35, latent=latent, hidden=hidden, emb=emb)
    rng = Rng(35)
    rng.normal((2 + 2 * emb, hidden))  # encoder W0
    rng.normal((hidden, 2 * latent))   # encoder W1
    rng.normal((latent, hidden))       # decoder trunk W0
    dec = nets.decoder
    for feat in mixed_schema.features:
        cols = dec.columns[feat.name]
        draw = rng.normal((hidden, cols.stop - cols.start)) * math.sqrt(1.0 / hidden)
        np.testing.assert_array_equal(dec.W.value[:, cols], draw, err_msg=feat.name)
    np.testing.assert_array_equal(dec.b.value, 0.0)
    np.testing.assert_array_equal(dec.log_sigma.value, 0.0)
    assert dec.W.value.shape == (hidden, 2 + 3 + 2)


# -- the fused objective nodes against the generic tape -----------------------

FUSED_LAYOUTS = {
    # schema order interleaves kinds, so the cell likelihoods need permuting
    "permuted": (("a", "real"), ("b", 3), ("c", "real"), ("d", 2)),
    "reals-first": (("u", "real"), ("v", "real"), ("w", 4)),
    "reals-only": (("u", "real"), ("v", "real")),
    "cats-only": (("k", 3), ("m", 2)),
}


def layout_schema(layout):
    return TableSchema(tuple(
        FeatureSpec(name, "real") if kind == "real"
        else FeatureSpec(name, "categorical", tuple(f"v{i}" for i in range(kind)))
        for name, kind in FUSED_LAYOUTS[layout]))


@pytest.mark.parametrize("layout", sorted(FUSED_LAYOUTS))
@pytest.mark.parametrize("model", ["vae", "rvae-cvi", "rvae-avi"])
def test_fused_objective_matches_generic_tape_bit_for_bit(model, layout):
    schema = layout_schema(layout)
    n, latent = 9, 3
    reals, cats = random_batch(schema, n, seed=40)
    reals[0] = 7.0  # an outlying row drives its gates towards 0
    comps = OutlierComponents(2.0)
    eps = Rng(41).normal((n, latent))
    nets = tiny_networks(schema, seed=42, latent=latent, amortized=model == "rvae-avi")
    # push one encoder log std above and one below the clip range, and one
    # decoder log sigma above it, so that every clip mask blocks a gradient
    enc_bias = nets.encoder.net.layers[-1].b
    enc_bias.value[latent:latent + 2] = [40.0, -40.0]
    if nets.decoder.n_real:
        nets.decoder.log_sigma.value[0] = 5.0
    if model == "rvae-avi":
        # saturate two gates: sigmoid(40) rounds to 1, and sigmoid(-40) is about 4e-18
        nets.pi_encoder.layers[-1].b.value[:2] = [40.0, -40.0]
    config = TrainConfig(model=model, alpha=0.9, latent_dim=latent)
    params = nets.params()

    def run(objective, backward):
        per_row, pi = objective()
        backward(per_row)
        # a parameter no cell reads (log sigma with no reals) gets no gradient
        return per_row.value, pi, {name: None if t.grad is None else t.grad.copy()
                                   for name, t in params.items()}

    # the fused side is seeded as train() seeds it, the tape runs the loss nodes
    fused = run(lambda: batch_objective(nets, schema, config, comps, reals, cats, eps),
                lambda per_row: per_row.backward(np.full(n, -1.0 / n)))
    tape = run(lambda: reference_objective(nets, schema, reals, cats, comps, config.alpha,
                                           eps, model),
               lambda per_row: neg(tmean(per_row)).backward())
    np.testing.assert_array_equal(fused[0], tape[0])
    if model == "vae":
        assert fused[1] is None and tape[1] is None
    else:
        np.testing.assert_array_equal(fused[1], tape[1])
    assert set(fused[2]) == set(tape[2])
    for name, grad in tape[2].items():
        if grad is None:
            assert fused[2][name] is None, name
        else:
            np.testing.assert_array_equal(fused[2][name], grad, err_msg=name)
    # the clip masks did block: the clipped encoder log stds get no gradient
    np.testing.assert_array_equal(fused[2][nets.encoder.net.name + ".b1"][latent:latent + 2], 0.0)
    if model == "rvae-avi":
        assert np.all(fused[1][:, 0] == 1.0) and np.all(fused[1][:, 1] < 1e-16)
        assert np.all(np.isfinite(fused[2][nets.pi_encoder.name + ".b1"]))
