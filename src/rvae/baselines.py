"""Marginal-distribution baseline: a BIC-selected univariate Gaussian
mixture per real feature and normalized category frequencies per
categorical feature. Scores are negative marginal log likelihoods; real
repairs take the mean of the most responsible component, categorical
repairs the modal category.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .data import REAL, MixedTable, TableSchema, destandardize, require_same_schema
from .errors import ConfigError
from .model import HALF_LOG_2PI
from .nn import Rng
from .score_repair import RepairResult, ScoreReport

STD_FLOOR = 1e-4


def power_rows(x: np.ndarray) -> np.ndarray:
    """(3, n): the rows 1, x and x², in which every component's log density
    is linear."""
    x = np.asarray(x, dtype=np.float64)
    powers = np.empty((3, x.size))
    powers[0] = 1.0
    powers[1] = x
    np.multiply(x, x, out=powers[2])
    return powers


def _coefficients(weights: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """(k, ..., 3) power-basis coefficients of (k, ...) mixture parameters:
    c0 = log(w/s) - ½·log 2π - ½·m²/s², c1 = m/s² and c2 = -½/s², so that
    log w + log N(x; m, s) = c0 + c1·x + c2·x². A dead component (weight 0)
    has c0 = -inf."""
    coef = np.full(weights.shape + (3,), -np.inf)
    c0, c1, c2 = coef[..., 0], coef[..., 1], coef[..., 2]
    np.divide(-0.5, stds * stds, out=c2)
    np.multiply(means, c2, out=c1)  # -m/(2s²) until the last line
    np.log(weights / stds, out=c0, where=weights > 0.0)
    c0 += c1 * means - HALF_LOG_2PI
    c1 *= -2.0
    return coef


def _posterior(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Given (k, ..., n) component log densities, the mixture log density of
    each value, (..., n), and the responsibilities, written over ``comp``;
    one exp, shifted by each value's largest term."""
    top = comp.max(axis=0)
    comp -= top
    resp = np.exp(comp, out=comp)
    total = resp.sum(axis=0)
    resp /= total
    log_norm = np.log(total)
    log_norm += top
    return log_norm, resp


@dataclass(frozen=True)
class Gmm1D:
    """A univariate Gaussian mixture, evaluated in the power basis.

    ``coefficients`` (k, 3) is derived once, at construction, by
    :func:`_coefficients`. The instance is frozen so that the coefficients
    cannot go stale."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients",
                           _coefficients(self.weights, self.means, self.stds))

    def posterior(self, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Given the :func:`power_rows` of n values, the mixture log density
        of each value, (n,), and the (k, n) responsibilities.

        The component log densities are one (k, 3) @ (3, n) product. The
        power basis cancels terms of size (m² + x²)/(2s²) against each other,
        so a component's log density at x is exact to about ε·(m² + x²)/s²
        (ε = 2.2e-16), not to ε relative: about 3e-8 near x = 8 for a
        component at mean 8 with std 1e-3."""
        return _posterior(self.coefficients @ powers)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        return self.posterior(power_rows(x))[0]

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """(n, k): each row sums to 1."""
        return self.posterior(power_rows(x))[1].T


def _kmeanspp_centers(x: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    centers = [float(x[rng.integers(0, x.size)])]
    d2 = np.full(x.size, np.inf)  # squared distance to the nearest center
    while len(centers) < k:
        np.minimum(d2, (x - centers[-1]) ** 2, out=d2)
        total = d2.sum()
        if total <= 0.0:
            centers.append(float(x[rng.integers(0, x.size)]))
            continue
        u = float(rng.uniform()) * total
        centers.append(float(x[np.searchsorted(np.cumsum(d2), u).clip(0, x.size - 1)]))
    return np.array(centers)


def fit_gmm_1d(x: np.ndarray, k: int, rngs: list[Rng], max_iter: int = 150,
               tol: float = 1e-6) -> tuple[Gmm1D, list[float]]:
    """EM from one k-means++ start per stream, all restarts in lockstep.
    Returns the fit and total log-likelihood trajectory (non-decreasing up
    to the std floor) of the restart whose final log likelihood is highest,
    the earliest on ties and never a NaN one. Each restart stops, after
    that iteration's M-step, where it would if fitted alone. An iteration
    is two products for the A restarts still running: the E-step's
    (k·A, 3) @ (3, n) on the :func:`power_rows` of x, into one buffer, and
    the M-step's (k·A, n) @ (n, 3), giving Σr, Σr·x and Σr·x²."""
    x = np.asarray(x, dtype=np.float64)
    n, restarts = x.size, len(rngs)
    if n < 2:
        raise ConfigError("need at least 2 values to fit a mixture")
    params = np.empty((3, k, restarts))  # weights, means and stds, component-major
    params[0] = 1.0 / k
    params[1] = np.transpose([_kmeanspp_centers(x, k, rng) for rng in rngs])
    params[2] = max(float(x.std()), STD_FLOOR)
    powers = power_rows(x)
    buffer = np.empty((k * restarts, n))
    lls = np.empty((restarts, max_iter))
    stops = np.full(restarts, max_iter)
    live = np.arange(restarts)
    for it in range(max_iter):
        a = live.size
        comp = np.matmul(_coefficients(*params[:, :, live]).reshape(k * a, 3), powers,
                         out=buffer[:k * a])
        log_norm, resp = _posterior(comp.reshape(k, a, n))
        total_ll = log_norm.sum(axis=1)
        nk, sum_x, sum_xx = (resp.reshape(k * a, n) @ powers.T).reshape(k, a, 3).transpose(2, 0, 1)
        safe = np.maximum(nk, 1e-12)
        means = sum_x / safe
        var = sum_xx / safe - means * means  # clipped: it may round below 0
        params[:, :, live] = nk / n, means, np.maximum(np.sqrt(np.maximum(var, 0.0)), STD_FLOOR)
        lls[live, it] = total_ll
        prev = lls[live, it - 1] if it else np.full(a, -np.inf)
        done = (total_ll - prev < tol * (1.0 + np.abs(total_ll))) & np.isfinite(prev)
        stops[live[done]] = it + 1
        live = live[~done]
        if not live.size:
            break
    final = lls[np.arange(restarts), stops - 1]
    best = int(np.argmax(np.where(np.isnan(final), -np.inf, final)))
    return Gmm1D(*params[:, :, best].copy()), lls[best, :stops[best]].tolist()


def _bic(total_ll: float, k: int, n: int) -> float:
    return -2.0 * total_ll + (3 * k - 1) * np.log(n)


# consecutive component counts without a new BIC minimum that end the sweep
BIC_PATIENCE = 5


def fit_gmm_bic(x: np.ndarray, seed: int = 0, max_components: int = 40,
                feature_key: int = 0) -> tuple[Gmm1D, dict[int, float]]:
    """Sweep component counts upward, keep the lowest BIC.

    The sweep stops at ``max_components``, or after :data:`BIC_PATIENCE`
    consecutive k that set no new BIC minimum; the dict holds the BIC of
    every k fitted. The premise is that BIC reaches its minimum after at
    most a few non-improving k: on mixture tables under four noise families
    and five row fractions it came after at most one. A minimum that comes
    only after BIC_PATIENCE non-improving k is missed.

    Restarts: 1 for k = 1, where every start reaches the same fit (the
    mean and std of x) and so the same log likelihood; 10 for 2 <= k <= 5;
    3 above, all in one :func:`fit_gmm_1d` call, each on its own derived
    stream so the sweep is reproducible.
    """
    if max_components < 1:
        raise ConfigError(f"the BIC sweep needs at least 1 component, got {max_components}")
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    base = Rng(seed)
    bics: dict[int, float] = {}
    best_bic, best_fit, stale = np.inf, None, 0
    for k in range(1, max_components + 1):
        restarts = 1 if k == 1 else 10 if k <= 5 else 3
        gmm, traj = fit_gmm_1d(x, k, [base.derive(feature_key, k, a) for a in range(restarts)])
        bics[k] = _bic(traj[-1], k, n)
        if bics[k] < best_bic:
            best_bic, best_fit, stale = bics[k], gmm, 0
        else:
            stale += 1
            if stale == BIC_PATIENCE:
                break
    return best_fit, bics


@dataclass
class MarginalModel:
    schema: TableSchema
    gmms: dict[str, Gmm1D]
    frequencies: dict[str, np.ndarray]
    n_rows: int

    def require_table(self, table: MixedTable) -> None:
        require_same_schema(self.schema, table.schema, context="marginal model vs table")


def fit_marginals(table: MixedTable, max_components: int = 40, seed: int = 0) -> MarginalModel:
    if table.n_rows < 2:
        raise ConfigError("need at least 2 rows to fit marginals")
    gmms = {}
    for j, feat in enumerate(table.schema.real_features):
        gmms[feat.name], _ = fit_gmm_bic(table.reals[:, j], seed=seed,
                                         max_components=max_components, feature_key=j)
    frequencies = {}
    for j, feat in enumerate(table.schema.cat_features):
        counts = np.bincount(table.cats[:, j], minlength=feat.cardinality).astype(np.float64)
        frequencies[feat.name] = counts / counts.sum()
    return MarginalModel(schema=table.schema, gmms=gmms, frequencies=frequencies,
                         n_rows=table.n_rows)


def marginal_score(model: MarginalModel, table: MixedTable) -> ScoreReport:
    """Cell score = negative marginal log density/probability; rows sum cells.

    Categories unseen at fit time get the smoothing floor 1 / (N + C_d)."""
    model.require_table(table)
    schema = table.schema
    cells = np.empty((table.n_rows, schema.n_features))
    for column, feat in enumerate(schema.features):
        kind, slot = schema.slots[column]
        if kind == REAL:
            cells[:, column] = -model.gmms[feat.name].log_pdf(table.reals[:, slot])
        else:
            floor = 1.0 / (model.n_rows + feat.cardinality)
            probs = np.maximum(model.frequencies[feat.name], floor)
            cells[:, column] = -np.log(probs[table.cats[:, slot]])
    return ScoreReport(rule="nll", cell_scores=cells, row_scores=cells.sum(axis=1))


def marginal_repair(model: MarginalModel, table: MixedTable, mask: np.ndarray) -> RepairResult:
    """Repair only the flagged cells: a real cell moves to the mean of the
    component most responsible for its observed value, a categorical cell
    to the modal category (frequency vector reported as its simplex).
    Unflagged categorical cells report a one-hot at the observed value."""
    model.require_table(table)
    schema = table.schema
    if mask.shape != (table.n_rows, schema.n_features):
        raise ConfigError("mask shape does not match the table")
    reals = table.reals.copy()
    cats = table.cats.copy()
    simplexes = {}
    for column, feat in enumerate(schema.features):
        kind, slot = schema.slots[column]
        flagged = np.nonzero(mask[:, column])[0]
        if kind == REAL:
            if flagged.size:
                gmm = model.gmms[feat.name]
                resp = gmm.responsibilities(reals[flagged, slot])
                reals[flagged, slot] = gmm.means[np.argmax(resp, axis=1)]
        else:
            freq = model.frequencies[feat.name]
            probs = np.eye(feat.cardinality)[cats[:, slot]]
            if flagged.size:
                cats[flagged, slot] = int(np.argmax(freq))
                probs[flagged] = freq
            simplexes[feat.name] = probs
    repaired = destandardize(replace(table, reals=reals, cats=cats))
    return RepairResult(table=repaired, simplexes=simplexes, method="marginal")

