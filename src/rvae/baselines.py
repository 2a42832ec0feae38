"""Marginal-distribution baseline: a BIC-selected univariate Gaussian
mixture per real feature and normalized category frequencies per
categorical feature. Scores are negative marginal log likelihoods; real
repairs take the mean of the most responsible component, categorical
repairs the modal category.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import REAL, MixedTable, TableSchema, destandardize, require_same_schema
from .errors import ConfigError
from .model import gaussian_log_pdf
from .nn import Rng
from .score_repair import RepairResult, ScoreReport

STD_FLOOR = 1e-4


@dataclass
class Gmm1D:
    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def component_log_pdf(self, x: np.ndarray) -> np.ndarray:
        """(k, n): log w_j + log N(x_i; m_j, s_j), one contiguous row per
        component, so reductions over components are elementwise."""
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(divide="ignore"):  # a dead component (weight 0) is just -inf
            log_w = np.log(self.weights)
        return log_w[:, None] + gaussian_log_pdf(x[None, :], self.means[:, None],
                                                 self.stds[:, None])

    def posterior(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The mixture log density of each value, (n,), and the (k, n)
        responsibilities; one exp, shifted by each value's largest term."""
        comp = self.component_log_pdf(x)
        top = comp.max(axis=0)
        comp -= top
        resp = np.exp(comp, out=comp)
        total = resp.sum(axis=0)
        resp /= total
        return top + np.log(total), resp

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        return self.posterior(x)[0]

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """(n, k): each row sums to 1."""
        return self.posterior(x)[1].T


def _kmeanspp_centers(x: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    centers = [float(x[rng.integers(0, x.size)])]
    while len(centers) < k:
        d2 = np.min((x[:, None] - np.array(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0.0:
            centers.append(float(x[rng.integers(0, x.size)]))
            continue
        u = float(rng.uniform()) * total
        centers.append(float(x[np.searchsorted(np.cumsum(d2), u).clip(0, x.size - 1)]))
    return np.array(centers)


def fit_gmm_1d(x: np.ndarray, k: int, rng: Rng, max_iter: int = 150,
               tol: float = 1e-6) -> tuple[Gmm1D, list[float]]:
    """EM from a k-means++ start; returns the fit and the total
    log-likelihood trajectory (non-decreasing up to the std floor)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ConfigError("need at least 2 values to fit a mixture")
    means = _kmeanspp_centers(x, k, rng)
    stds = np.full(k, max(float(x.std()), STD_FLOOR))
    weights = np.full(k, 1.0 / k)
    gmm = Gmm1D(weights=weights, means=means, stds=stds)
    trajectory: list[float] = []
    prev = -np.inf
    for _ in range(max_iter):
        log_norm, resp = gmm.posterior(x)
        total_ll = float(log_norm.sum())
        trajectory.append(total_ll)
        nk = resp.sum(axis=1)
        safe = np.maximum(nk, 1e-12)
        gmm.weights = nk / n
        gmm.means = (resp * x).sum(axis=1) / safe
        var = (resp * (x - gmm.means[:, None]) ** 2).sum(axis=1) / safe
        gmm.stds = np.maximum(np.sqrt(var), STD_FLOOR)
        if total_ll - prev < tol * (1.0 + abs(total_ll)) and np.isfinite(prev):
            break
        prev = total_ll
    return gmm, trajectory


def _bic(total_ll: float, k: int, n: int) -> float:
    return -2.0 * total_ll + (3 * k - 1) * np.log(n)


def fit_gmm_bic(x: np.ndarray, seed: int = 0, max_components: int = 40,
                feature_key: int = 0) -> tuple[Gmm1D, dict[int, float]]:
    """Sweep component counts, keep the lowest BIC.

    Restarts: 1 for k = 1, where every start reaches the same fit (the
    mean and std of x) and so the same log likelihood; 10 for 2 <= k <= 5;
    3 above. Each restart gets its own derived stream so the sweep is
    reproducible.
    """
    if max_components < 1:
        raise ConfigError(f"the BIC sweep needs at least 1 component, got {max_components}")
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    base = Rng(seed)
    bics: dict[int, float] = {}
    best: tuple[float, Gmm1D] | None = None
    for k in range(1, max_components + 1):
        restarts = 1 if k == 1 else 10 if k <= 5 else 3
        best_ll, best_fit = -np.inf, None
        for attempt in range(restarts):
            gmm, traj = fit_gmm_1d(x, k, base.derive(feature_key, k, attempt))
            if traj[-1] > best_ll:
                best_ll, best_fit = traj[-1], gmm
        bics[k] = _bic(best_ll, k, n)
        if best is None or bics[k] < best[0]:
            best = (bics[k], best_fit)
    return best[1], bics


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
        kind, slot = schema.kind_index(column)
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
        kind, slot = schema.kind_index(column)
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
    repaired = destandardize(table.with_values(reals=reals, cats=cats))
    return RepairResult(table=repaired, simplexes=simplexes, method="marginal")

