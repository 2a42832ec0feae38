"""The probabilistic core: per-feature likelihoods, outlier components,
KL terms, the gated-mixture ELBO, and the closed-form update for the
per-cell clean probability.

Every real feature is modelled as N(x | m_d(z), sigma_d) with a learned
per-feature sigma_d; every categorical feature as a softmax over logits
a_d(z). The outlier side is a z-independent broad Gaussian N(0, S) for
reals and a uniform 1/C_d for categoricals. A per-cell gate probability
pi mixes the two; its coordinate-ascent optimum is
sigmoid(r + logit(alpha)) with r the expected log density ratio.

All three model kinds train through one node, :func:`gated_rows`; they
differ only in where its gates come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .data import EmbeddingBank, TableSchema, encode_values
from .engine import Tensor
from .nn import DenseNet, Rng

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
LOG_SIGMA_MIN = -6.0
LOG_SIGMA_MAX = 4.0
R_CLAMP = 30.0


class Encoder:
    """Encoded row -> hidden -> (posterior mean, log std diag), both length K.

    The input is the one-hot-coded row of :func:`encode_values`; the first
    layer reads each categorical block through its embedding matrix.
    """

    def __init__(self, input_dim: int, hidden_dim: int, latent_dim: int, rng: Rng | None):
        self.latent_dim = latent_dim
        self.net = DenseNet([input_dim, hidden_dim, 2 * latent_dim], ["relu", "identity"], rng, name="encoder")

    def latent(self, x: np.ndarray, bank: EmbeddingBank, eps: np.ndarray) -> tuple[Tensor, Tensor]:
        """The latent z = mu + sigma * eps (B, K) and KL(q(z|x) || p(z)) per
        row (B,), both read from one :func:`engine.gaussian_latent` node."""
        lat = engine.gaussian_latent(self.net.apply(x, bank.tables), eps,
                                     LOG_SIGMA_MIN, LOG_SIGMA_MAX)
        return engine.slice_cols(lat, 0, self.latent_dim), engine.column(lat, self.latent_dim)

    def latent_values(self, x: np.ndarray, bank: EmbeddingBank) -> tuple[np.ndarray, np.ndarray]:
        """The posterior mean and std that :meth:`latent` samples from."""
        mu, _, sigma = engine.gaussian_params(self.net.apply(x, bank.tables).value,
                                              LOG_SIGMA_MIN, LOG_SIGMA_MAX)
        return mu, sigma

    def params(self) -> dict[str, Tensor]:
        return self.net.params()


class Decoder:
    """Shared trunk z -> hidden plus one fused linear head.

    The head ``W`` (H, n_real + sum C_d) and ``b`` hold the real means in
    their first n_real columns (real-feature order), then each
    categorical's logits in a block at a fixed offset (categorical order);
    ``columns`` maps a feature name to its column slice and ``cat_sizes``
    lists the block widths. ``log_sigma`` holds the learned log sigma_d of
    every real feature. Initial weights are drawn per feature in schema
    order, one (H, 1) or (H, C_d) draw each, and placed into the fused
    columns.
    """

    def __init__(self, schema: TableSchema, latent_dim: int, hidden_dim: int, rng: Rng | None):
        self.schema = schema
        self.latent_dim = latent_dim
        self.trunk = DenseNet([latent_dim, hidden_dim], ["relu"], rng, name="decoder.trunk")
        self.n_real = len(schema.real_features)
        self.cat_sizes = [feat.cardinality for feat in schema.cat_features]
        self.columns: dict[str, slice] = {}
        for j, feat in enumerate(schema.real_features):
            self.columns[feat.name] = slice(j, j + 1)
        offset = self.n_real
        for feat in schema.cat_features:
            self.columns[feat.name] = slice(offset, offset + feat.cardinality)
            offset += feat.cardinality
        w = np.zeros((hidden_dim, offset))
        if rng is not None:
            scale = math.sqrt(1.0 / hidden_dim)
            for feat in schema.features:
                cols = self.columns[feat.name]
                w[:, cols] = rng.normal((hidden_dim, cols.stop - cols.start)) * scale
        self.W = Tensor(w)
        self.b = Tensor(np.zeros(offset))
        self.log_sigma = Tensor(np.zeros(self.n_real))
        # per-cell likelihoods come out reals first, then one column per
        # categorical; this reorders them into schema order (None: no-op)
        inverse = np.concatenate(schema.kind_columns)
        self.inverse_order = None if (np.diff(inverse) > 0).all() else inverse
        self.schema_order = None if self.inverse_order is None else np.argsort(inverse)

    def head(self, z: Tensor | np.ndarray) -> Tensor:
        """The fused head at latents z: real means, then each categorical's logits."""
        return engine.dense(self.trunk.apply(z), self.W, self.b)

    def clean_logliks(self, head: Tensor, reals: np.ndarray, cats: np.ndarray) -> Tensor:
        """(B, D) clean-component log likelihoods of the observed cells under
        ``head`` (from :meth:`head`), schema order, as one node.

        Forward and backward make the numpy operations of the reference
        tape's chain (slice, clip, exp, sub, mul for the Gaussian term of
        the reals; a per-block log softmax for the categoricals; concat;
        permute) in the same order, so values and gradients match it bit
        for bit.
        """
        n = self.n_real
        hv, ls_param = head.value, self.log_sigma.value
        val = np.empty((hv.shape[0], n + len(self.cat_sizes)))
        if n:
            log_sigma = np.clip(ls_param, LOG_SIGMA_MIN, LOG_SIGMA_MAX)
            inv_sigma = np.exp(-log_sigma)
            diff = reals - hv[:, :n]
            resid = diff * inv_sigma
            np.subtract(-HALF_LOG_2PI - log_sigma, resid * resid * 0.5, out=val[:, :n])
        if self.cat_sizes:
            val[:, n:], cat_grad = engine.block_log_probs(hv[:, n:], self.cat_sizes, cats)
        if self.schema_order is not None:
            val = val[:, self.schema_order]

        def bw(g):
            if self.inverse_order is not None:
                g = g[:, self.inverse_order]
            grad = np.empty_like(hv)
            if n:
                g_real = g[:, :n]
                g_sq = -g_real * 0.5
                g_resid = g_sq * resid
                g_resid += g_sq * resid
                g_diff = g_resid * inv_sigma
                np.negative(g_diff, out=grad[:, :n])
                g_log_sigma = -g_real.sum(axis=0)
                g_log_sigma += -((g_resid * diff).sum(axis=0) * inv_sigma)
                # the clip passes the gradient where it left log sigma unchanged
                self.log_sigma._acc(g_log_sigma * (log_sigma == ls_param))
            if self.cat_sizes:
                cat_grad(g[:, n:], grad[:, n:])
            head._acc(grad)

        return Tensor(val, (head, self.log_sigma), bw)

    def params(self) -> dict[str, Tensor]:
        out = dict(self.trunk.params())
        out["decoder.head.W"] = self.W
        out["decoder.head.b"] = self.b
        out["decoder.log_sigma"] = self.log_sigma
        return out


@dataclass
class RvaeNetworks:
    encoder: Encoder
    decoder: Decoder
    embeddings: EmbeddingBank
    pi_encoder: DenseNet | None = None

    def params(self) -> dict[str, Tensor]:
        out = dict(self.encoder.params())
        out.update(self.decoder.params())
        out.update(self.embeddings.params())
        if self.pi_encoder is not None:
            out.update(self.pi_encoder.params())
        return out


def build_networks(schema: TableSchema, latent_dim: int, hidden_dim: int,
                   embedding_dim: int, rng: Rng | None, amortized: bool = False) -> RvaeNetworks:
    """Fresh networks; random draws happen in a fixed order for determinism."""
    from .data import encoded_dim

    input_dim = encoded_dim(schema, embedding_dim)
    encoder = Encoder(input_dim, hidden_dim, latent_dim, rng)
    decoder = Decoder(schema, latent_dim, hidden_dim, rng)
    embeddings = EmbeddingBank(schema, embedding_dim, rng)
    pi_encoder = None
    if amortized:
        pi_encoder = DenseNet([input_dim, hidden_dim, schema.n_features], ["relu", "identity"], rng, name="pi")
    return RvaeNetworks(encoder, decoder, embeddings, pi_encoder)


# ---------------------------------------------------------------------------
# closed-form pieces
# ---------------------------------------------------------------------------

def kl_bernoulli(pi, alpha):
    """KL(Bernoulli(pi) || Bernoulli(alpha)) with the 0*ln(0) := 0 convention."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    pi_arr = np.asarray(pi, dtype=np.float64)
    if np.any(pi_arr < 0.0) or np.any(pi_arr > 1.0):
        raise ValueError("pi must lie in [0, 1]")
    out = _kl_bernoulli(pi_arr, alpha)
    return float(out) if np.isscalar(pi) or np.ndim(pi) == 0 else out


def _kl_bernoulli(pi: np.ndarray, alpha: float) -> np.ndarray:
    """:func:`kl_bernoulli` of a float64 array of probabilities, unchecked."""
    # each log is taken only where its factor is positive, and stays 0 elsewhere
    out = np.zeros_like(pi)
    np.log(pi / alpha, out=out, where=pi > 0.0)
    out *= pi
    q = 1.0 - pi
    t2 = np.zeros_like(pi)
    np.log(q / (1.0 - alpha), out=t2, where=q > 0.0)
    t2 *= q
    out += t2
    return out


def pi_update(r, alpha):
    """Coordinate-ascent optimum of the gate probability.

    Equals sigmoid(r + logit(alpha)), evaluated in odds form
    alpha*e^r / (alpha*e^r + 1 - alpha) so that pi_update(0, alpha) is
    exactly alpha. r is clamped to +-30 first; the sigmoid saturates far
    earlier, and the clamp keeps downstream log scores finite.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    r_arr = np.clip(np.asarray(r, dtype=np.float64), -R_CLAMP, R_CLAMP)
    odds = alpha * np.exp(r_arr)
    out = odds / (odds + (1.0 - alpha))
    return float(out) if np.ndim(r) == 0 else out


# ---------------------------------------------------------------------------
# outlier likelihoods
# ---------------------------------------------------------------------------

def outlier_logliks(real_scale: float, schema: TableSchema,
                    reals: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """(B, D) matrix of outlier-component log likelihoods, schema order: a
    broad N(0, real_scale) for reals, uniform mass 1/C_d for categoricals."""
    n = reals.shape[0] if reals.size else cats.shape[0]
    real_cols, cat_cols = schema.kind_columns
    out = np.empty((n, schema.n_features))
    out[:, real_cols] = -HALF_LOG_2PI - math.log(real_scale) - 0.5 * (reals / real_scale) ** 2
    out[:, cat_cols] = [-math.log(f.cardinality) for f in schema.cat_features]
    return out


# ---------------------------------------------------------------------------
# ELBO (a tape expression over batches; one z sample per expectation)
# ---------------------------------------------------------------------------

def forward_elbo_parts(nets: RvaeNetworks, schema: TableSchema, reals: np.ndarray,
                       cats: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, Tensor, Tensor]:
    """Shared forward pass: encoded input (a plain array), clean log
    likelihoods (B, D), KL(z)."""
    x_enc = encode_values(schema, reals, cats)
    z, kl_z = nets.encoder.latent(x_enc, nets.embeddings, eps)
    dec = nets.decoder
    return x_enc, dec.clean_logliks(dec.head(z), reals, cats), kl_z


def gated_rows(ll_clean: Tensor, kl_z: Tensor, ll_out: np.ndarray | None = None,
               gates: np.ndarray | Tensor | None = None,
               alpha: float | None = None) -> tuple[Tensor, np.ndarray | None]:
    """Per-row gated ELBO (B,) and its gates pi, as one node:
    sum_d [pi * ll_clean + (1 - pi) * ll_out] - kl_z - sum_d KL(Bernoulli(pi) || Bernoulli(alpha)).

    ``gates`` is None for the VAE (pi held at 1, no KL(w) term, None
    returned), constant gates for rvae-cvi (no gradient reaches them), or
    the gate logits w for rvae-avi: pi = sigmoid(w), KL(w) reads log pi =
    -softplus(-w) and log(1 - pi) = -softplus(w) so saturated gates stay
    finite, and backward reaches w. The gradient through cell d carries the
    factor pi_d, which is the down-weighting mechanism. The numpy operations
    are those of the reference tape's chain, in the same order, so values
    and gradients match it bit for bit.
    """
    llc, pi = ll_clean.value, gates
    logits = gates if isinstance(gates, Tensor) else None
    if logits is not None:
        w = logits.value
        pi = engine.stable_sigmoid(w)
        d1 = -np.logaddexp(0.0, -w) - math.log(alpha)        # log pi - log alpha
        d2 = -np.logaddexp(0.0, w) - math.log(1.0 - alpha)   # log(1 - pi) - log(1 - alpha)
        kl_w = pi * d1 + (1.0 - pi) * d2
    elif pi is not None:
        # constant gates come from pi_update, so they lie in [0, 1] already
        kl_w = _kl_bernoulli(pi, alpha)
    val = llc.sum(axis=1) if pi is None else (llc * pi + (1.0 - pi) * ll_out).sum(axis=1)
    val -= kl_z.value
    if pi is not None:
        val -= kl_w.sum(axis=1)

    def bw(g):
        g_cell = g[:, None]
        ll_clean._acc(g_cell if pi is None else g_cell * pi)
        kl_z._acc(-g)
        if logits is not None:
            # w's four paths in the reference tape's order: the mix's sigmoid,
            # the softplus of log pi, KL(w)'s sigmoid, the softplus of
            # log(1 - pi); (x * pi) * (1 - pi) keeps the sigmoid's rounding
            g_kl, one_m = -g_cell, 1.0 - pi
            g_w = ((g_cell * llc - g_cell * ll_out) * pi) * one_m
            g_w += -(-(g_kl * pi) * engine.stable_sigmoid(-w))
            g_w += ((g_kl * d1 - g_kl * d2) * pi) * one_m
            g_w += -(g_kl * one_m) * engine.stable_sigmoid(w)
            logits._acc(g_w)

    parents = (ll_clean, kl_z) if logits is None else (ll_clean, kl_z, logits)
    return Tensor(val, parents, bw), pi


# ---------------------------------------------------------------------------
# value readers for scoring and repair (the tape functions above, read as
# plain arrays)
# ---------------------------------------------------------------------------

@dataclass
class DecodedValues:
    real_means: np.ndarray  # (B, n_real)
    real_stds: np.ndarray   # (n_real,)
    cat_probs: np.ndarray   # (B, sum C_d), one softmax block per categorical, as in the head


def decode_values(decoder: Decoder, z: np.ndarray) -> DecodedValues:
    """Means, sigmas and category probabilities at latents z: the head,
    then a softmax over every categorical's column block."""
    head = decoder.head(z).value
    n_real = decoder.n_real
    stds = np.exp(np.clip(decoder.log_sigma.value, LOG_SIGMA_MIN, LOG_SIGMA_MAX))
    probs = head[:, n_real:]
    if decoder.cat_sizes:
        probs = engine.block_softmax(probs, decoder.cat_sizes)
    return DecodedValues(real_means=head[:, :n_real], real_stds=stds, cat_probs=probs)


def clean_logliks_values(decoder: Decoder, head: np.ndarray,
                         reals: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """(B, D) clean-component log likelihoods of observed cells under the
    decoder head value ``head``, schema order."""
    return decoder.clean_logliks(Tensor(head), reals, cats).value
