"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers. Training-based criteria share seeded scenario
fixtures; every tolerance is pinned here, not computed at run time.
"""

import time

import numpy as np
import pytest

from rvae.baselines import fit_marginals, marginal_score
from rvae.corrupt import (GaussianNoise, NoiseSpec, TemperedCategorical,
                          make_scenario)
from rvae.data import FeatureSpec, TableSchema, destandardize, standardize, write_table
from rvae.metrics import average_precision, brier, evaluate, smse
from rvae.model import (OutlierComponents, build_networks, forward_elbo_parts, kl_bernoulli,
                        outlier_logliks, pi_update)
from rvae.nn import Rng
from rvae.score_repair import repair_map, repair_one_stage, repair_two_stage, score
from rvae.synthetic import mixture_table
from rvae.train import TrainConfig, train

from conftest import (assert_grads_close, finite_difference, gated_elbo, kl_gaussian,
                      restore_clean, train_objective)
from reference_tape import neg, tmean

NOISE = NoiseSpec(real=GaussianNoise(0.0, 5.0), cat=TemperedCategorical(0.0))
SCENARIO_SEEDS = (0, 1, 2)

# shrunk but otherwise standard training recipes; the criteria pin the data,
# the thresholds and the runtime budgets, not the network sizes
C5_CONFIG = dict(epochs=40, hidden_dim=128, latent_dim=10, embedding_dim=25,
                 batch_size=150, learning_rate=0.001)
# the chain criterion needs a tighter autoencoder and a weaker clean prior:
# at alpha=0.95 the prior logit (+2.94) pins moderate outliers to their dirty
# values through the sampled clean mask, which alone costs ~2x MAP in SMSE
C8_CONFIG = dict(alpha=0.8, epochs=250, hidden_dim=256, latent_dim=8,
                 embedding_dim=25, batch_size=150, learning_rate=0.001)


def random_mixed_schema(rng: Rng, max_features=5):
    n_features = int(rng.integers(1, max_features + 1))
    feats = []
    for i in range(n_features):
        if rng.uniform() < 0.5:
            feats.append(FeatureSpec(f"f{i}", "real"))
        else:
            cards = int(rng.integers(2, 5))
            feats.append(FeatureSpec(f"f{i}", "categorical",
                                     tuple(f"k{j}" for j in range(cards))))
    if not any(f.kind == "real" for f in feats) and rng.uniform() < 0.3:
        feats[0] = FeatureSpec("f0", "real")
    return TableSchema(tuple(feats))


def draw_instance(seed, amortized=False, rows=2):
    rng = Rng(seed)
    schema = random_mixed_schema(rng)
    latent = int(rng.integers(2, 5))
    hidden = int(rng.integers(4, 10))
    emb = int(rng.integers(2, 5))
    nets = build_networks(schema, latent, hidden, emb, rng, amortized=amortized)
    reals = rng.normal((rows, len(schema.real_features)))
    cats = np.zeros((rows, len(schema.cat_features)), dtype=np.int64)
    for j, feat in enumerate(schema.cat_features):
        cats[:, j] = rng.integers(0, feat.cardinality, size=rows)
    eps = rng.normal((rows, latent))
    return schema, nets, reals, cats, eps, rng


def test_criterion_1_gradient_correctness():
    tic = time.perf_counter()
    checked = 0
    for i in range(20):
        amortized = i % 3 == 2
        schema, nets, reals, cats, eps, rng = draw_instance(1000 + i, amortized=amortized)
        comps = OutlierComponents(2.0)
        alpha = float(rng.uniform() * 0.8 + 0.1)
        pi = rng.uniform((reals.shape[0] if reals.size else cats.shape[0],
                          schema.n_features)) * 0.8 + 0.1

        objectives = {
            "vae": lambda: train_objective(nets, schema, reals, cats, eps, "vae"),
            "gated": lambda: (train_objective(nets, schema, reals, cats, eps, "rvae-avi", alpha)
                              if amortized else
                              gated_elbo(nets, schema, reals, cats, comps, pi, alpha, eps)),
        }
        params = nets.params()
        for objective in objectives.values():
            loss = neg(tmean(objective()))
            loss.backward()
            analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.value))
                        for k, t in params.items()}
            numeric = finite_difference(lambda: float(neg(tmean(objective())).value),
                                        params, h=1e-5)
            assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-6)
            checked += sum(t.value.size for t in params.values())
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 1: {checked} parameter gradients across 20 configs "
          f"match finite differences (1e-4 rel / 1e-6 abs) in {elapsed:.1f}s")


def test_criterion_2_coordinate_optimality():
    tic = time.perf_counter()
    worst = -np.inf
    alphas = (0.2, 0.5, 0.95)
    for i in range(100):
        schema, nets, reals, cats, eps, rng = draw_instance(2000 + i, rows=1)
        comps = OutlierComponents(2.0)
        alpha = alphas[i % 3]
        _, ll_clean, _ = forward_elbo_parts(nets, schema, reals, cats, eps)
        r = ll_clean.value - outlier_logliks(comps, schema, reals, cats)
        pi_hat = pi_update(r, alpha)
        base = float(gated_elbo(nets, schema, reals, cats, comps, pi_hat, alpha, eps).value.sum())
        for col in range(schema.n_features):
            for delta in (0.01, 0.1):
                for sign in (1.0, -1.0):
                    pert = pi_hat.copy()
                    pert[0, col] = np.clip(pert[0, col] + sign * delta, 0.0, 1.0)
                    value = float(gated_elbo(nets, schema, reals, cats, comps, pert,
                                             alpha, eps).value.sum())
                    worst = max(worst, value - base)
    elapsed = time.perf_counter() - tic
    assert worst <= 1e-9
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 2: 100 instances, best single-gate perturbation gain "
          f"{worst:.2e} <= 1e-9 in {elapsed:.1f}s")


def test_criterion_3_closed_form_spot_values():
    for alpha in (0.2, 0.5, 0.8, 0.95, 0.99):
        assert pi_update(0.0, alpha) == alpha
        assert kl_bernoulli(alpha, alpha) == 0.0
    assert kl_gaussian([0.0], [1.0]) == 0.0
    # the KL(z) term training uses: zero weights put the posterior at the prior
    schema = TableSchema((FeatureSpec("a", "real"), FeatureSpec("b", "categorical", ("x", "y"))))
    nets = build_networks(schema, 2, 3, 2, rng=None)
    _, _, kl_z = forward_elbo_parts(nets, schema, np.zeros((1, 1)), np.zeros((1, 1), dtype=np.int64),
                                    np.zeros((1, 2)))
    assert kl_z.value[0] == 0.0
    assert abs(average_precision([0.9, 0.8, 0.1], [1, 0, 1]) - 5.0 / 6.0) <= 1e-9
    assert brier([[1.0, 0.0]], [[0.5, 0.5]]) == 0.25
    assert smse([0.7, -1.3, 0.2], [0.0, 0.0, 0.0]) == 1.0
    print("\n[PASS] criterion 3: pi_update(0,a)=a, kl_bernoulli(a,a)=0, kl_gaussian(0,1)=0 "
          "(reference and training term), "
          "AVPR=5/6 (1e-9), Brier=0.25, zero-imputation SMSE=1.0, all exact")


def test_criterion_4_corruption_accounting():
    rng = Rng(123)
    schema = TableSchema(tuple(
        [FeatureSpec(f"r{i}", "real") for i in range(7)]
        + [FeatureSpec(f"c{i}", "categorical", ("a", "b", "c")) for i in range(3)]))
    reals = rng.normal((1000, 7)) * 3.0 + 1.0
    cats = rng.integers(0, 3, size=(1000, 3))
    from rvae.data import MixedTable

    table = MixedTable(schema=schema, reals=reals, cats=cats.astype(np.int64), stats=None)
    expected = {0.01: 0.002, 0.05: 0.01, 0.10: 0.02, 0.20: 0.04, 0.50: 0.10}
    for row_frac, cell_frac in expected.items():
        dirty, record = make_scenario(table, row_frac, NOISE, seed=7)
        assert record.n_cells == int(round(cell_frac * 1000 * 10)), row_frac
        reals, cats = restore_clean(record, dirty)
        np.testing.assert_array_equal(reals, table.reals)
        np.testing.assert_array_equal(cats, table.cats)
    print("\n[PASS] criterion 4: row fractions {1,5,10,20,50}% give cell fractions "
          "{0.2,1,2,4,10}% on 1000x10, and reapplying originals inverts bit-exactly")


@pytest.fixture(scope="module")
def scenario_runs():
    """Criterion-5 scenario: three seeded corrupted tables with a gated model
    and a plain VAE trained on each."""
    tic = time.perf_counter()
    runs = []
    for seed in SCENARIO_SEEDS:
        clean = mixture_table(2000, seed)
        dirty, record = make_scenario(clean, 0.10, NOISE, seed)
        std = standardize(dirty)
        rvae, _ = train(std, TrainConfig(model="rvae-cvi", alpha=0.95, seed=seed, **C5_CONFIG))
        vae, _ = train(std, TrainConfig(model="vae", seed=seed, **C5_CONFIG))
        runs.append({"seed": seed, "dirty": dirty, "record": record, "std": std,
                     "rvae": rvae, "vae": vae})
    return {"runs": runs, "build_seconds": time.perf_counter() - tic}


def test_criterion_5_robustness_separation(scenario_runs):
    tic = time.perf_counter()
    cat_rvae, cat_marg = [], []
    smse_rvae, smse_vae = [], []
    gaps = []
    for run in scenario_runs["runs"]:
        seed, std, dirty, record = run["seed"], run["std"], run["dirty"], run["record"]
        rvae, vae = run["rvae"], run["vae"]
        rvae_eval = evaluate(record, dirty, scores=score(rvae, std, "pi", seed=seed),
                             repair=repair_map(rvae, std))
        vae_eval = evaluate(record, dirty, repair=repair_map(vae, std))
        # criterion 5 consumes only the marginal baseline's categorical AVPR,
        # which the GMM sweep cannot affect; 12 components keeps the budget
        marginal = fit_marginals(std, max_components=12, seed=seed)
        marg_eval = evaluate(record, dirty, scores=marginal_score(marginal, std))
        cat_names = [f.name for f in std.schema.cat_features]
        cat_rvae.append(np.mean([rvae_eval.cell_avpr[n] for n in cat_names
                                 if n in rvae_eval.cell_avpr]))
        cat_marg.append(np.mean([marg_eval.cell_avpr[n] for n in cat_names
                                 if n in marg_eval.cell_avpr]))
        smse_rvae.append(rvae_eval.smse_real_avg)
        smse_vae.append(vae_eval.smse_real_avg)
        pi = np.exp(-score(rvae, std, "pi", seed=seed).cell_scores)
        gaps.append(pi[~record.mask].mean() - pi[record.mask].mean())
    total = scenario_runs["build_seconds"] + (time.perf_counter() - tic)
    assert np.mean(cat_rvae) > np.mean(cat_marg), (cat_rvae, cat_marg)
    assert np.mean(smse_rvae) <= np.mean(smse_vae), (smse_rvae, smse_vae)
    assert np.mean(gaps) >= 0.1, gaps
    assert total < 600.0
    print(f"\n[PASS] criterion 5: categorical cell AVPR {np.mean(cat_rvae):.3f} > marginal "
          f"{np.mean(cat_marg):.3f}; repair SMSE {np.mean(smse_rvae):.3f} <= VAE "
          f"{np.mean(smse_vae):.3f}; clean/corrupted gate gap {np.mean(gaps):.3f} >= 0.1; "
          f"{total:.0f}s < 600s")


def test_criterion_6_alpha_insensitivity(scenario_runs):
    per_alpha = {}
    for alpha in (0.5, 0.8, 0.9, 0.99):
        values = []
        for run in scenario_runs["runs"]:
            seed, std, dirty, record = run["seed"], run["std"], run["dirty"], run["record"]
            model, _ = train(std, TrainConfig(model="rvae-cvi", alpha=alpha, seed=seed,
                                              **C5_CONFIG))
            report = evaluate(record, dirty, scores=score(model, std, "pi", seed=seed))
            values.append(report.cell_avpr_macro)
        per_alpha[alpha] = float(np.mean(values))
    spread = max(per_alpha.values()) - min(per_alpha.values())
    assert spread < 0.1, per_alpha
    print(f"\n[PASS] criterion 6: cell AVPR across alpha {per_alpha} varies by "
          f"{spread:.3f} < 0.1")


def test_criterion_7_determinism(tmp_path):
    from rvae.cli import main

    table = mixture_table(160, seed=4)
    base = tmp_path
    write_table(table, base / "clean.csv")
    table.schema.save(base / "schema.json")

    def pipeline(tag):
        d = base / tag
        d.mkdir()
        argv = ["corrupt", "--input", str(base / "clean.csv"), "--schema",
                str(base / "schema.json"), "--rows", "0.2", "--noise", "gauss:5,cat:0",
                "--seed", "11", "--out-dirty", str(d / "dirty.csv"),
                "--out-record", str(d / "record.csv")]
        assert main(argv) == 0
        assert main(["train", "--input", str(d / "dirty.csv"), "--schema",
                     str(base / "schema.json"), "--model", "rvae-cvi", "--seed", "11",
                     "--epochs", "4", "--hidden", "32", "--latent", "4",
                     "--embedding", "8", "--batch", "64",
                     "--out", str(d / "model.ckpt")]) == 0
        assert main(["score", "--input", str(d / "dirty.csv"), "--checkpoint",
                     str(d / "model.ckpt"), "--rule", "pi", "--seed", "11",
                     "--out", str(d / "scores.csv")]) == 0
        assert main(["repair", "--input", str(d / "dirty.csv"), "--checkpoint",
                     str(d / "model.ckpt"), "--method", "two-stage", "--gibbs-iters",
                     "5", "--seed", "11", "--out", str(d / "repaired.csv")]) == 0
        assert main(["evaluate", "--record", str(d / "record.csv"), "--dirty",
                     str(d / "dirty.csv"), "--schema", str(base / "schema.json"),
                     "--scores", str(d / "scores.csv"), "--repaired",
                     str(d / "repaired.csv"), "--simplexes",
                     str(d / "repaired.csv") + ".simplexes",
                     "--out", str(d / "eval.json")]) == 0
        return d

    d1, d2 = pipeline("run1"), pipeline("run2")
    for name in ("dirty.csv", "record.csv", "model.ckpt", "scores.csv",
                 "repaired.csv", "repaired.csv.simplexes", "eval.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    print("\n[PASS] criterion 7: checkpoints, scores, repairs and reports are "
          "byte-identical across two same-seed runs")


@pytest.fixture(scope="module")
def chain_runs():
    """Criterion-8 models: the criterion-5 scenario with the chain recipe."""
    runs = []
    for seed in SCENARIO_SEEDS:
        clean = mixture_table(2000, seed)
        dirty, record = make_scenario(clean, 0.10, NOISE, seed)
        std = standardize(dirty)
        model, _ = train(std, TrainConfig(model="rvae-cvi", seed=seed, **C8_CONFIG))
        runs.append({"seed": seed, "dirty": dirty, "record": record, "std": std,
                     "model": model})
    return runs


# chain bands hold over a panel of repair seeds (seed + 100 k), not one lucky seed
REPAIR_OFFSETS = tuple(100 * k for k in range(6))


def chain_ratios(runs, repair) -> list[float]:
    """Per repair-seed offset, the mean chain SMSE over the runs divided by
    the mean MAP SMSE."""
    map_smse = np.mean([evaluate(run["record"], run["dirty"],
                                 repair=repair_map(run["model"], run["std"])).smse_real_avg
                        for run in runs])
    return [np.mean([evaluate(run["record"], run["dirty"],
                              repair=repair(run, run["seed"] + offset)).smse_real_avg
                     for run in runs]) / map_smse
            for offset in REPAIR_OFFSETS]


def test_criterion_8_pseudo_gibbs_contract(chain_runs):
    first = chain_runs[0]
    forced = repair_two_stage(first["model"], first["std"], gibbs_iters=5,
                              seed=0, pi_override=1.0)
    observed = destandardize(first["std"])
    np.testing.assert_array_equal(forced.table.reals, observed.reals)
    np.testing.assert_array_equal(forced.table.cats, observed.cats)

    chain_seconds = 0.0

    def two_stage(run, seed):
        nonlocal chain_seconds
        tic = time.perf_counter()
        two = repair_two_stage(run["model"], run["std"], gibbs_iters=5, seed=seed)
        chain_seconds = max(chain_seconds, time.perf_counter() - tic)
        return two

    ratios = chain_ratios(chain_runs, two_stage)
    assert chain_seconds < 60.0
    assert 0.3 <= min(ratios) and max(ratios) <= 2.0, ratios
    print(f"\n[PASS] criterion 8: forced-clean TwoStage returns the observed table "
          f"exactly; T=5 chain ran in {chain_seconds:.2f}s < 60s; SMSE ratio to MAP "
          f"{min(ratios):.2f}-{max(ratios):.2f} in [0.3, 2.0] over {len(ratios)} repair seeds")


def test_one_stage_stays_within_map_band(chain_runs):
    # sanity band from the chain-repair examples: OneStage within 2x of MAP
    ratios = chain_ratios(chain_runs, lambda run, seed: repair_one_stage(
        run["model"], run["std"], gibbs_iters=5, seed=seed))
    assert max(ratios) <= 2.0, ratios
    print(f"\n[PASS] one-stage band: SMSE ratio to MAP {min(ratios):.2f}-{max(ratios):.2f} "
          f"<= 2.0 over 3 models and {len(ratios)} repair seeds")


def test_two_stage_low_corruption_soft_band():
    # chain-vs-MAP comparison at 1% cells (5% rows), five seeds; the sampled
    # clean mask keeps some moderately corrupted cells at their dirty values,
    # so the two-stage chain does not beat MAP outright here and this stays a
    # sanity band rather than a win
    runs = []
    for seed in range(5):
        clean = mixture_table(2000, seed)
        dirty, record = make_scenario(clean, 0.05, NOISE, seed)
        std = standardize(dirty)
        config = dict(C8_CONFIG)
        config["epochs"] = 150
        model, _ = train(std, TrainConfig(model="rvae-cvi", seed=seed, **config))
        runs.append({"seed": seed, "dirty": dirty, "record": record, "std": std,
                     "model": model})
    ratios = chain_ratios(runs, lambda run, seed: repair_two_stage(
        run["model"], run["std"], gibbs_iters=5, seed=seed))
    assert max(ratios) <= 2.5, ratios
    print(f"\n[PASS] low-corruption soft band: TwoStage/MAP SMSE ratio "
          f"{min(ratios):.2f}-{max(ratios):.2f} <= 2.5 over 5 models and {len(ratios)} "
          f"repair seeds at 1% cells")
