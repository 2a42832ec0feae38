"""The probabilistic core: per-feature likelihoods, outlier components,
KL terms, the VAE and gated-mixture ELBOs, and the closed-form update for
the per-cell clean probability.

Every real feature is modelled as N(x | m_d(z), sigma_d) with a learned
per-feature sigma_d; every categorical feature as a softmax over logits
a_d(z). The outlier side is a z-independent broad Gaussian N(0, S) for
reals and a uniform 1/C_d for categoricals. A per-cell gate probability
pi mixes the two; its coordinate-ascent optimum is
sigmoid(r + logit(alpha)) with r the expected log density ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .data import REAL, EmbeddingBank, TableSchema, encode_values
from .engine import Tensor
from .errors import ConfigError
from .nn import DenseNet, Rng

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
LOG_SIGMA_MIN = -6.0
LOG_SIGMA_MAX = 4.0
R_CLAMP = 30.0


@dataclass(frozen=True)
class OutlierComponents:
    """Broad-Gaussian scale for reals (a standard deviation, > 1);
    categoricals get uniform mass 1/C_d."""

    real_scale: float = 2.0

    def __post_init__(self):
        if not self.real_scale > 1.0:
            raise ConfigError(f"outlier scale must exceed 1, got {self.real_scale}")

    def log_lik_real(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        s = self.real_scale
        return -HALF_LOG_2PI - math.log(s) - 0.5 * (x / s) ** 2

    def log_lik_cat(self, cardinality: int) -> float:
        return -math.log(cardinality)


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
        order = []
        for column in range(schema.n_features):
            kind, slot = schema.kind_index(column)
            order.append(slot if kind == REAL else self.n_real + slot)
        self.schema_order = None if order == sorted(order) else np.array(order)
        self.inverse_order = None if self.schema_order is None else np.argsort(order)

    def head(self, z: Tensor | np.ndarray) -> Tensor:
        """The fused head at latents z: real means, then each categorical's logits."""
        return engine.dense(self.trunk.apply(z), self.W, self.b)

    def clean_logliks(self, head: Tensor, reals: np.ndarray, cats: np.ndarray) -> Tensor:
        """(B, D) clean-component log likelihoods of the observed cells under
        ``head`` (from :meth:`head`), schema order, as one node.

        Forward and backward make the numpy operations of the engine chain
        (slice, clip, exp, sub, mul for the Gaussian term of the reals;
        :func:`engine.block_log_softmax_at` for the categoricals; concat;
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

    def _feature_parts(self):
        """(checkpoint name, fused tensor, index) of each per-feature head
        tensor, in schema order."""
        for feat in self.schema.features:
            cols = self.columns[feat.name]
            prefix = f"decoder.{'real' if feat.kind == REAL else 'cat'}.{feat.name}"
            yield f"{prefix}.W", self.W, (slice(None), cols)
            yield f"{prefix}.b", self.b, cols
            if feat.kind == REAL:
                yield f"{prefix}.log_sigma", self.log_sigma, cols

    def feature_arrays(self) -> dict[str, np.ndarray]:
        """The head split per feature under its checkpoint names, schema order."""
        return {name: t.value[idx] for name, t, idx in self._feature_parts()}

    def load_feature_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`feature_arrays`: fill the fused head in place."""
        for name, t, idx in self._feature_parts():
            t.value[idx] = arrays[name]


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

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """Parameter values under their checkpoint names: as :meth:`params`,
        but with the decoder head split into per-feature tensors."""
        dec = self.decoder
        out = {}
        for name, t in self.params().items():
            if t is dec.W:
                out.update(dec.feature_arrays())
            elif t is not dec.b and t is not dec.log_sigma:
                out[name] = t.value
        return out

    def load_checkpoint_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every parameter from arrays named as :meth:`checkpoint_arrays` names them."""
        for name, t in self.params().items():
            if name in arrays:
                t.value = arrays[name]
        self.decoder.load_feature_arrays(arrays)


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

def gaussian_log_pdf(x, mean, std):
    x = np.asarray(x, dtype=np.float64)
    return -HALF_LOG_2PI - np.log(std) - 0.5 * ((x - mean) / std) ** 2


def kl_bernoulli(pi, alpha):
    """KL(Bernoulli(pi) || Bernoulli(alpha)) with the 0*ln(0) := 0 convention."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    pi_arr = np.asarray(pi, dtype=np.float64)
    if np.any(pi_arr < 0.0) or np.any(pi_arr > 1.0):
        raise ValueError("pi must lie in [0, 1]")
    # each log is taken only where its factor is positive, and stays 0 elsewhere
    out = np.zeros_like(pi_arr)
    np.log(pi_arr / alpha, out=out, where=pi_arr > 0.0)
    out *= pi_arr
    q = 1.0 - pi_arr
    t2 = np.zeros_like(pi_arr)
    np.log(q / (1.0 - alpha), out=t2, where=q > 0.0)
    t2 *= q
    out += t2
    return float(out) if np.isscalar(pi) or np.ndim(pi) == 0 else out


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

def outlier_logliks(components: OutlierComponents, schema: TableSchema,
                    reals: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """(B, D) matrix of outlier-component log likelihoods, schema order."""
    n = reals.shape[0] if reals.size else cats.shape[0]
    out = np.empty((n, schema.n_features))
    for column, feat in enumerate(schema.features):
        kind, slot = schema.kind_index(column)
        if kind == REAL:
            out[:, column] = components.log_lik_real(reals[:, slot])
        else:
            out[:, column] = components.log_lik_cat(feat.cardinality)
    return out


# ---------------------------------------------------------------------------
# ELBOs (tape expressions over batches; one z sample per expectation)
# ---------------------------------------------------------------------------

def forward_elbo_parts(nets: RvaeNetworks, schema: TableSchema, reals: np.ndarray,
                       cats: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, Tensor, Tensor]:
    """Shared forward pass: encoded input (a plain array), clean log
    likelihoods (B, D), KL(z)."""
    x_enc = encode_values(schema, reals, cats)
    z, kl_z = nets.encoder.latent(x_enc, nets.embeddings, eps)
    dec = nets.decoder
    return x_enc, dec.clean_logliks(dec.head(z), reals, cats), kl_z


def elbo_vae(nets: RvaeNetworks, schema: TableSchema, reals: np.ndarray, cats: np.ndarray,
             eps: np.ndarray) -> Tensor:
    """Per-row ELBO (B,): sum_d E_q[log p(x_d | z)] - KL(q(z|x) || p(z))."""
    _, ll_clean, kl_z = forward_elbo_parts(nets, schema, reals, cats, eps)
    return engine.sub(engine.tsum(ll_clean, axis=1), kl_z)


def kl_bernoulli_from_logits(logits: Tensor, alpha: float) -> Tensor:
    """Per-cell KL(Bernoulli(sigmoid(w)) || Bernoulli(alpha)) on the tape.

    Uses log pi = -softplus(-w) and log(1 - pi) = -softplus(w) so saturated
    gates stay finite under differentiation.
    """
    pi = engine.sigmoid(logits)
    log_pi = engine.neg(engine.softplus(engine.neg(logits)))
    log_1m = engine.neg(engine.softplus(logits))
    t1 = engine.mul(pi, engine.sub(log_pi, math.log(alpha)))
    t2 = engine.mul(engine.sub(engine._wrap(1.0), pi), engine.sub(log_1m, math.log(1.0 - alpha)))
    return engine.add(t1, t2)


def _gated_rows(ll_clean: Tensor, kl_z: Tensor, pi: np.ndarray, ll_out: np.ndarray,
                kl_w: np.ndarray) -> Tensor:
    """Per-row gated ELBO for constant gates ``pi``, as one node:
    sum_d [pi * ll_clean + (1 - pi) * ll_out] - kl_z - kl_w.

    The numpy operations are those of the mul -> add -> tsum -> sub -> sub
    chain, in the same order, so values and gradients match it bit for bit.
    """
    val = (ll_clean.value * pi + (1.0 - pi) * ll_out).sum(axis=1)
    val -= kl_z.value
    val -= kl_w

    def bw(g):
        ll_clean._acc(g[:, None] * pi)
        kl_z._acc(-g)

    return Tensor(val, (ll_clean, kl_z), bw)


def rvae_step_objective(nets: RvaeNetworks, schema: TableSchema, reals: np.ndarray,
                        cats: np.ndarray, components: OutlierComponents, alpha: float,
                        eps: np.ndarray, amortized: bool,
                        pi_override: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Per-row gated ELBO for one training step, plus the pi values used.

    sum_d [pi * E_q log p(x_d|z) + (1 - pi) * log p0(x_d)]
      - KL(q(z|x) || p(z)) - sum_d KL(Bernoulli(pi) || Bernoulli(alpha)).

    The gradient w.r.t. decoder parameters through cell d carries the
    factor pi_nd, which is the down-weighting mechanism.

    Coordinate mode infers pi in closed form from the same single z sample
    and treats it as constant for the gradient; amortized mode takes pi
    from the gate encoder, so gradients flow into it. ``pi_override``
    substitutes fixed constants in either mode (test hook).
    """
    x_enc, ll_clean, kl_z = forward_elbo_parts(nets, schema, reals, cats, eps)
    ll_out = outlier_logliks(components, schema, reals, cats)
    if amortized and pi_override is None:
        if nets.pi_encoder is None:
            raise ConfigError("amortized objective requires a pi encoder")
        logits = nets.pi_encoder.apply(x_enc, nets.embeddings.tables)
        pi_t = engine.sigmoid(logits)
        mix = engine.tsum(engine.add(engine.mul(pi_t, ll_clean),
                                     engine.mul(engine.sub(engine._wrap(1.0), pi_t), ll_out)), axis=1)
        kl_w = engine.tsum(kl_bernoulli_from_logits(logits, alpha), axis=1)
        per_row = engine.sub(engine.sub(mix, kl_z), kl_w)
        return per_row, pi_t.value
    if pi_override is not None:
        pi = np.broadcast_to(np.asarray(pi_override, dtype=np.float64),
                             (ll_out.shape[0], schema.n_features)).copy()
    else:
        r = ll_clean.value - ll_out
        pi = pi_update(r, alpha)
    kl_w = kl_bernoulli(pi, alpha).sum(axis=1)
    return _gated_rows(ll_clean, kl_z, pi, ll_out, kl_w), pi


# ---------------------------------------------------------------------------
# value readers for scoring and repair (the tape functions above, read as
# plain arrays)
# ---------------------------------------------------------------------------

@dataclass
class DecodedValues:
    head: np.ndarray                  # (B, n_real + sum C_d), :meth:`Decoder.head`'s value
    real_means: np.ndarray            # (B, n_real)
    real_stds: np.ndarray             # (n_real,)
    cat_probs: dict[str, np.ndarray]  # name -> (B, C_d)


def decode_values(decoder: Decoder, z: np.ndarray) -> DecodedValues:
    """Means, sigmas and category probabilities at latents z: the head,
    then a softmax over every categorical's column block."""
    head = decoder.head(z).value
    n_real = decoder.n_real
    stds = np.exp(np.clip(decoder.log_sigma.value, LOG_SIGMA_MIN, LOG_SIGMA_MAX))
    probs = {}
    if decoder.cat_sizes:
        _, _, p = engine.block_softmax(head[:, n_real:], decoder.cat_sizes)
        starts = np.cumsum([0] + decoder.cat_sizes)
        probs = {f.name: p[:, s:e]
                 for f, s, e in zip(decoder.schema.cat_features, starts, starts[1:])}
    return DecodedValues(head=head, real_means=head[:, :n_real], real_stds=stds, cat_probs=probs)


def clean_logliks_values(decoder: Decoder, head: np.ndarray,
                         reals: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """(B, D) clean-component log likelihoods of observed cells under the
    decoder head value ``head``, schema order."""
    return decoder.clean_logliks(Tensor(head), reals, cats).value
