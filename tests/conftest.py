import json

import numpy as np
import pytest

from rvae import engine
from rvae.container import read_container, write_container
from rvae.data import FeatureSpec, MixedTable, TableSchema, encode_values
from rvae.model import (HALF_LOG_2PI, LOG_SIGMA_MAX, LOG_SIGMA_MIN, build_networks,
                        forward_elbo_parts, gated_rows, outlier_logliks, pi_update)
from rvae.nn import Rng
from rvae.train import RvaeModel, TrainConfig, batch_objective

import reference_tape as tape


@pytest.fixture
def mixed_schema():
    return TableSchema((
        FeatureSpec("a", "real"),
        FeatureSpec("b", "categorical", ("x", "y", "z")),
        FeatureSpec("c", "real"),
        FeatureSpec("d", "categorical", ("p", "q")),
    ))


@pytest.fixture
def real_schema():
    return TableSchema((FeatureSpec("u", "real"), FeatureSpec("v", "real")))


def random_batch(schema, n, seed):
    """Standardized-looking random rows for a schema."""
    rng = Rng(seed)
    reals = rng.normal((n, len(schema.real_features)))
    cats = np.zeros((n, len(schema.cat_features)), dtype=np.int64)
    for j, feat in enumerate(schema.cat_features):
        cats[:, j] = rng.integers(0, feat.cardinality, size=n)
    return reals, cats


def random_table(schema, n, seed):
    reals, cats = random_batch(schema, n, seed)
    return MixedTable(schema=schema, reals=reals * 2.0 + 1.0, cats=cats, stats=None)


def restore_clean(record, dirty):
    """The reals and category indices of ``dirty`` with every marked cell set
    back to the clean value ``record.column`` holds for it."""
    reals, cats = dirty.reals.copy(), dirty.cats.copy()
    for column in range(dirty.schema.n_features):
        rows, values = record.column(column)
        kind, slot = dirty.schema.slots[column]
        (reals if kind == "real" else cats)[rows, slot] = values
    return reals, cats


def tiny_networks(schema, seed, latent=3, hidden=8, emb=4, amortized=False):
    return build_networks(schema, latent_dim=latent, hidden_dim=hidden,
                          embedding_dim=emb, rng=Rng(seed), amortized=amortized)


def kl_gaussian(mu, sigma) -> float:
    """Reference KL(N(mu, diag sigma^2) || N(0, I)) = 0.5 * sum(mu^2 + sigma^2 - 1 - ln sigma^2)."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    return float(0.5 * np.sum(mu ** 2 + sigma ** 2 - 1.0 - 2.0 * np.log(sigma)))


def softmax(x, axis=-1):
    """Reference softmax with max subtraction."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def gated_elbo(nets, schema, reals, cats, scale, pi, alpha, eps):
    """The gated training objective per row, with the gates fixed to ``pi``:
    the constant-gate :func:`gated_rows` node that rvae-cvi trains through."""
    _, ll_clean, kl_z = forward_elbo_parts(nets, schema, reals, cats, eps)
    ll_out = outlier_logliks(scale, schema, reals, cats)
    return gated_rows(ll_clean, kl_z, ll_out, pi, alpha)[0]


def train_objective(nets, schema, reals, cats, eps, model, alpha=0.95):
    """Per-row training objective of ``model`` ("vae", "rvae-cvi" or
    "rvae-avi"), built by :func:`rvae.train.batch_objective` as training
    builds it, with outlier scale 2."""
    config = TrainConfig(model=model, alpha=alpha)
    return batch_objective(RvaeModel(nets, schema, config, stats={}), reals, cats, eps)[0]


def kl_bernoulli_reference(pi, alpha):
    """Reference KL(Bernoulli(pi) || Bernoulli(alpha)) per cell, each term
    added only where its factor is positive."""
    out = np.zeros_like(pi)
    nz = pi > 0.0
    out[nz] += pi[nz] * np.log(pi[nz] / alpha)
    lt1 = pi < 1.0
    out[lt1] += (1.0 - pi[lt1]) * np.log((1.0 - pi[lt1]) / (1.0 - alpha))
    return out


def reference_objective(nets, schema, reals, cats, scale, alpha, eps, model):
    """Per-row training objective and gates built from the reference tape's
    one-op nodes: the tape the fused objective node must reproduce bit for bit.

    ``model`` is "vae", "rvae-cvi" or "rvae-avi"; the gates are None for the VAE.
    """
    x = encode_values(schema, reals, cats)
    out = nets.encoder.net.apply(x, nets.embeddings.tables)
    k = nets.encoder.latent_dim
    mu = engine.slice_cols(out, 0, k)
    log_sigma = tape.clip(engine.slice_cols(out, k, 2 * k), LOG_SIGMA_MIN, LOG_SIGMA_MAX)
    sigma = tape.exp(log_sigma)
    z = tape.add(mu, tape.mul(sigma, eps))
    dec = nets.decoder
    head = engine.dense(dec.trunk.apply(z), dec.W, dec.b)
    cols = []
    if dec.n_real:
        mean = engine.slice_cols(head, 0, dec.n_real)
        dec_log_sigma = tape.clip(dec.log_sigma, LOG_SIGMA_MIN, LOG_SIGMA_MAX)
        resid = tape.mul(tape.sub(engine._wrap(reals), mean),
                         tape.exp(tape.neg(dec_log_sigma)))
        cols.append(tape.sub(tape.sub(engine._wrap(-HALF_LOG_2PI), dec_log_sigma),
                             tape.mul(tape.mul(resid, resid), 0.5)))
    if dec.cat_sizes:
        cols.append(tape.block_log_softmax_at(head, dec.n_real, dec.cat_sizes, cats))
    ll_clean = engine.concat(cols, axis=1)
    if dec.schema_order is not None:
        ll_clean = tape.permute_cols(ll_clean, dec.schema_order)
    kl_z = tape.mul(tape.tsum(
        tape.sub(tape.sub(tape.add(tape.mul(mu, mu), tape.mul(sigma, sigma)), 1.0),
                 tape.mul(log_sigma, 2.0)),
        axis=1), 0.5)
    if model == "vae":
        return tape.sub(tape.tsum(ll_clean, axis=1), kl_z), None
    ll_out = outlier_logliks(scale, schema, reals, cats)
    if model == "rvae-avi":
        logits = nets.pi_encoder.apply(x, nets.embeddings.tables)
        pi_t = tape.sigmoid(logits)
        mix = tape.tsum(tape.add(tape.mul(pi_t, ll_clean),
                                 tape.mul(tape.sub(engine._wrap(1.0), pi_t), ll_out)),
                        axis=1)
        kl_w = tape.tsum(tape.kl_bernoulli_from_logits(logits, alpha), axis=1)
        return tape.sub(tape.sub(mix, kl_z), kl_w), pi_t.value
    pi = pi_update(ll_clean.value - ll_out, alpha)
    mix = tape.tsum(tape.add(tape.mul(ll_clean, pi), (1.0 - pi) * ll_out), axis=1)
    kl_w = kl_bernoulli_reference(pi, alpha).sum(axis=1)
    return tape.sub(tape.sub(mix, kl_z), engine._wrap(kl_w)), pi


def wire_identity_autoencoder(nets):
    """Hand-wire networks built for one real feature (latent 1, hidden 2,
    zero weights) so that mu(x) = x via relu(x) - relu(-x), log sigma sits
    at its floor of -6, and the decoded mean reads z back the same way."""
    enc0, enc1 = nets.encoder.net.layers
    enc0.W.value = np.array([[1.0, -1.0]])
    enc1.W.value = np.array([[1.0, -6.0], [-1.0, -6.0]])
    enc1.b.value = np.array([0.0, -6.0])
    nets.decoder.trunk.layers[0].W.value = np.array([[1.0, -1.0]])
    nets.decoder.W.value = np.array([[1.0], [-1.0]])


def finite_difference(loss_fn, params, h=1e-5):
    """Central-difference gradients of a scalar loss over a dict of tensors."""
    grads = {}
    for name, tensor in params.items():
        flat = tensor.value.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads[name] = g.reshape(tensor.value.shape)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-6):
    for name, num in numeric.items():
        ana = analytic[name]
        err = np.abs(ana - num)
        tol = np.maximum(rtol * np.maximum(np.abs(ana), np.abs(num)), atol)
        assert np.all(err <= tol), (
            f"gradient mismatch for {name}: max err {err.max():.3e} vs tol {tol[err.argmax() // 1]}"
            if err.ndim == 1 else f"gradient mismatch for {name}: max err {err.max():.3e}")


def rewrite_header(src, dst, edit):
    """Copy a container, applying `edit` to its raw JSON header (manifest
    included) and keeping the payload bytes."""
    raw = src.read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + n])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode()
    dst.write_bytes(raw[:8] + len(new).to_bytes(8, "little") + new + raw[16 + n:])


def rewrite_tensors(src, dst, edit):
    """Copy a container through read_container and write_container, applying
    `edit(header, tensors)` in between."""
    header, tensors = read_container(src)
    edit(header, tensors)
    write_container(dst, header, tensors)


def _set(value, *keys):
    """A header edit that sets header[keys[0]]...[keys[-1]] to ``value``."""
    def edit(header):
        for key in keys[:-1]:
            header = header[key]
        header[keys[-1]] = value
    return edit


# header edits that load_model must reject with a CheckpointError, each with
# a fragment of the message, on a checkpoint of a mixture_table model (real
# features x0, x1, ...)
MALFORMED_CHECKPOINT_HEADERS = {
    "std abc": (_set("abc", "stats", "x0", "std"), "stats for 'x0'"),
    "std null": (_set(None, "stats", "x0", "std"), "stats for 'x0'"),
    "std true": (_set(True, "stats", "x0", "std"), "stats for 'x0'"),
    "std zero": (_set(0, "stats", "x0", "std"), "stats for 'x0'"),
    "std negative": (_set(-1.0, "stats", "x0", "std"), "stats for 'x0'"),
    "mean abc": (_set("abc", "stats", "x0", "mean"), "stats for 'x0'"),
    "mean null": (_set(None, "stats", "x0", "mean"), "stats for 'x0'"),
    "entry not an object": (_set(3.0, "stats", "x0"), "stats for 'x0'"),
    "no entry for x0": (lambda h: h["stats"].pop("x0"), "one entry for each real feature"),
    "entry for an unknown feature": (_set({"mean": 0.0, "std": 1.0}, "stats", "zz"),
                                     "one entry for each real feature"),
    "stats not an object": (_set([1, 2], "stats"), "one entry for each real feature"),
    "hidden_dim 400.0": (_set(400.0, "config", "hidden_dim"), "hidden_dim must be an integer"),
    "latent_dim true": (_set(True, "config", "latent_dim"), "latent_dim must be an integer"),
    "alpha 1.5": (_set(1.5, "config", "alpha"), "alpha must lie in"),
    "alpha text": (_set("0.9", "config", "alpha"), "alpha must be a finite number"),
    "model gan": (_set("gan", "config", "model"), "unknown model kind"),
}
