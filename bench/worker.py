"""One benchmark run, in the child process that ``run.py`` starts.

Sets up the workload's input files from the seed, runs its pipeline
iteration after iteration for the requested seconds, checks every stage's
outputs, and prints one JSON object as the last line of standard output.
With ``--trace 1`` it alternates untraced and traced iterations and
reports the per-layer metrics instead of the end-to-end ones.

Each stage call is one operation. It fails on a nonzero exit code (or an
exception), on outputs of the wrong shape or with non-finite values, on a
quality metric outside the workload's floor, and when a stage rerun with
the same seeds writes an artifact whose sha256 differs from the first run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import spec
from tracing import Tracer


def _module(name: str):
    # ``rvae.train`` the attribute is the train() function, so modules are
    # looked up by their import path
    return importlib.import_module(f"rvae.{name}")


cli, data, corrupt, baselines, metrics, score_repair, train, synthetic = (
    _module(n) for n in ("cli", "data", "corrupt", "baselines", "metrics", "score_repair",
                         "train", "synthetic"))

QUALITY = ("cell_avpr", "row_avpr", "smse_real", "brier_cat")
QUALITY_KEYS = {"cell_avpr": "cell_avpr_macro", "row_avpr": "row_avpr",
                "smse_real": "smse_real_avg", "brier_cat": "brier_cat_avg"}
LOWER_IS_BETTER = {"smse_real", "brier_cat"}


@dataclass
class Stage:
    """One timed pipeline step. ``kind`` is fit, score, repair, evaluate or
    other; ``call`` returns an exit code (0 is success); ``digest`` maps
    artifact names to sha256; ``check`` returns a list of problems."""

    label: str
    kind: str
    layer: str
    call: object
    digest: object
    check: object


@dataclass
class Iteration:
    rep: int
    traced: bool
    walls: dict = field(default_factory=dict)
    failures: int = 0
    tracer: Tracer | None = None


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _sha_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _finite(name, arr, shape) -> list[str]:
    arr = np.asarray(arr)
    problems = []
    if arr.shape != shape:
        problems.append(f"{name}: shape {arr.shape}, expected {shape}")
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr)):
        problems.append(f"{name}: non-finite values")
    return problems


def _quality_problems(quality: dict, floors: dict) -> list[str]:
    problems = []
    for name in QUALITY:
        value = quality.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"{name} is {value}")
        elif name in LOWER_IS_BETTER and value > floors[name]:
            problems.append(f"{name} = {value:.4g} above the ceiling {floors[name]}")
        elif name not in LOWER_IS_BETTER and value < floors[name]:
            problems.append(f"{name} = {value:.4g} below the floor {floors[name]}")
    return problems


class Workload:
    """Inputs and stage list of one workload under one benchmark seed."""

    def __init__(self, name: str, seed: int, root: Path):
        self.cfg = spec.WORKLOADS[name]
        self.seed = seed
        self.inputs = root / "inputs"
        self.out = root / "run"
        self.out.mkdir(parents=True, exist_ok=True)
        self.n_rows = self.cfg["rows"]
        self.n_features = self.cfg["n_real"] + self.cfg["n_cat"]
        self.quality: dict[int, dict] = {}

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Write the input files: the seed's demo table and its schema."""
        table = synthetic.mixture_table(self.n_rows, self.seed)
        self.cards = [f.cardinality for f in table.schema.cat_features]
        self.clean, self.schema_path = gen.write_table(self.inputs, table.reals, table.cats,
                                                       self.cards)
        self.schema = data.TableSchema.load(self.schema_path)

    # -- stages -------------------------------------------------------------

    def cli_seed(self, rep: int) -> int:
        return 1000 * self.seed + rep

    def stages(self, rep: int) -> list[Stage]:
        if "max_components" in self.cfg:
            return self._baseline_stages(rep)
        return self._cli_stages(rep)

    def _cli_stages(self, rep: int) -> list[Stage]:
        o, seed = self.out, str(self.cli_seed(rep))
        dirty, record, ckpt = o / "dirty.csv", o / "record.csv", o / "model.ckpt"
        r = spec.RECIPE
        scores, evaluation = o / "scores.csv", o / "eval.json"
        repaired = {m: o / f"repair-{m}.csv" for m in ("map", "one-stage", "two-stage")}

        def run(argv):
            return lambda: cli.main(argv)

        def files(*paths):
            return lambda: {p.name: _sha(p) for p in paths}

        stages = [
            Stage("corrupt", "other", "cli", run([
                "corrupt", "--input", str(self.clean), "--schema", str(self.schema_path),
                "--rows", str(spec.ROW_FRACTION), "--features", str(spec.FEATURE_FRACTION),
                "--noise", spec.NOISE, "--seed", seed, "--out-dirty", str(dirty),
                "--out-record", str(record)]), files(dirty, record),
                lambda: self._check_corrupt(dirty, record)),
            Stage("train", "fit", "cli", run([
                "train", "--input", str(dirty), "--schema", str(self.schema_path),
                "--model", "rvae-cvi", "--hidden", str(r["hidden"]), "--latent", str(r["latent"]),
                "--embedding", str(r["embedding"]), "--batch", str(r["batch"]), "--lr", str(r["lr"]),
                "--epochs", str(self.cfg["epochs"]), "--seed", seed, "--out", str(ckpt)]),
                files(ckpt), lambda: self._check_checkpoint(ckpt)),
        ]
        stages.append(Stage("score", "score", "cli", run([
            "score", "--input", str(dirty), "--checkpoint", str(ckpt), "--rule", "pi",
            "--seed", seed, "--out", str(scores)]), files(scores),
            lambda: self._check_scores(scores)))
        for method, path in repaired.items():
            simplexes = Path(f"{path}.simplexes.csv")
            stages.append(Stage(f"repair-{method}", "repair", "cli", run([
                "repair", "--input", str(dirty), "--checkpoint", str(ckpt), "--method", method,
                "--gibbs-iters", str(spec.GIBBS_ITERS), "--seed", seed, "--out", str(path),
                "--out-simplexes", str(simplexes)]), files(path, simplexes),
                lambda p=path, s=simplexes: self._check_repair(p, s)))
        two = repaired["two-stage"]
        stages.append(Stage("evaluate", "evaluate", "cli", run([
            "evaluate", "--record", str(record), "--dirty", str(dirty),
            "--schema", str(self.schema_path), "--scores", str(scores), "--repaired", str(two),
            "--simplexes", f"{two}.simplexes.csv", "--out", str(evaluation)]), files(evaluation),
            lambda: self._check_evaluation(rep, json.loads(evaluation.read_text()))))
        return stages

    def _baseline_stages(self, rep: int) -> list[Stage]:
        seed = self.cli_seed(rep)
        st: dict = {}

        def step(key, fn):
            def call():
                st[key] = fn()
                return 0
            return call

        return [
            Stage("read", "other", "data", step("clean", lambda: data.load_csv(
                self.clean, self.schema_path)),
                lambda: {"clean": _sha_arrays(st["clean"].reals, st["clean"].cats)},
                lambda: self._check_table(st["clean"], "clean table")),
            Stage("corrupt", "other", "corrupt", step("scenario", lambda: corrupt.make_scenario(
                st["clean"], spec.ROW_FRACTION, cli.parse_noise_spec(spec.NOISE), seed,
                feat_frac=spec.FEATURE_FRACTION)),
                lambda: {"dirty": _sha_arrays(st["scenario"][0].reals, st["scenario"][0].cats,
                                              st["scenario"][1].mask)},
                lambda: self._check_table(st["scenario"][0], "dirty table")
                + self._check_mask(st["scenario"][1].mask)),
            Stage("standardize", "other", "data", step("std", lambda: data.standardize(
                st["scenario"][0])),
                lambda: {"std": _sha_arrays(st["std"].reals)},
                lambda: _finite("standardized reals", st["std"].reals,
                                (self.n_rows, self.cfg["n_real"]))),
            Stage("fit", "fit", "baselines", step("model", lambda: baselines.fit_marginals(
                st["std"], max_components=self.cfg["max_components"], seed=seed)),
                lambda: {"model": _sha_arrays(*[a for g in st["model"].gmms.values()
                                                 for a in (g.weights, g.means, g.stds)])},
                lambda: [p for name, g in st["model"].gmms.items()
                         for p in _finite(f"gmm {name}", g.means, (g.weights.size,))]),
            Stage("score", "score", "baselines", step("scores", lambda: baselines.marginal_score(
                st["model"], st["std"])),
                lambda: {"scores": _sha_arrays(st["scores"].cell_scores)},
                lambda: _finite("cell scores", st["scores"].cell_scores,
                                (self.n_rows, self.n_features))),
            Stage("repair", "repair", "baselines", step("repair", lambda: baselines.marginal_repair(
                st["model"], st["std"], st["scenario"][1].mask)),
                lambda: {"repair": _sha_arrays(st["repair"].table.reals, st["repair"].table.cats,
                                               *st["repair"].simplexes.values())},
                lambda: self._check_table(st["repair"].table, "repaired table")),
            Stage("evaluate", "evaluate", "metrics", step("report", lambda: metrics.evaluate(
                st["scenario"][1], st["scenario"][0], scores=st["scores"], repair=st["repair"])),
                lambda: {"report": hashlib.sha256(json.dumps(
                    st["report"].to_json_obj(), sort_keys=True).encode()).hexdigest()},
                lambda: self._check_evaluation(rep, st["report"].to_json_obj())),
        ]

    # -- output checks ------------------------------------------------------

    def _check_table(self, table, what) -> list[str]:
        return (_finite(f"{what} reals", table.reals, (self.n_rows, self.cfg["n_real"]))
                + _finite(f"{what} categories", table.cats, (self.n_rows, self.cfg["n_cat"])))

    def _check_mask(self, mask) -> list[str]:
        # corrupt rounds half up: round(row_frac * N) rows, round(feat_frac * D) cells each
        n_cells = (math.floor(spec.ROW_FRACTION * self.n_rows + 0.5)
                   * math.floor(spec.FEATURE_FRACTION * self.n_features + 0.5))
        problems = _finite("record mask", mask, (self.n_rows, self.n_features))
        if int(np.sum(mask)) != n_cells:
            problems.append(f"record marks {int(np.sum(mask))} cells, expected {n_cells}")
        return problems

    def _check_corrupt(self, dirty, record) -> list[str]:
        return (self._check_table(data.read_table(dirty, self.schema), "dirty table")
                + self._check_mask(corrupt.CorruptionRecord.load(record).mask))

    def _check_checkpoint(self, path) -> list[str]:
        model = train.load_model(path, expected_schema=self.schema)
        return [f"checkpoint tensor {name} is not finite"
                for name, t in model.networks.params().items() if not np.all(np.isfinite(t.value))]

    def _check_scores(self, path) -> list[str]:
        report = score_repair.ScoreReport.load(path, self.schema)
        return (_finite("cell scores", report.cell_scores, (self.n_rows, self.n_features))
                + _finite("row scores", report.row_scores, (self.n_rows,)))

    def _check_repair(self, path, simplex_path) -> list[str]:
        problems = self._check_table(data.read_table(path, self.schema), "repaired table")
        simplexes = score_repair.load_simplexes(simplex_path, self.schema, self.n_rows)
        for feat in self.schema.cat_features:
            probs = simplexes[feat.name]
            problems += _finite(f"simplex {feat.name}", probs, (self.n_rows, feat.cardinality))
            if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-6):
                problems.append(f"simplex {feat.name} rows do not sum to 1")
        return problems

    def _check_evaluation(self, rep: int, report: dict) -> list[str]:
        quality = {name: report.get(key) for name, key in QUALITY_KEYS.items()}
        self.quality[rep] = quality
        return _quality_problems(quality, self.cfg["floors"])


# ---------------------------------------------------------------------------
# running and measuring
# ---------------------------------------------------------------------------

@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL {what}: {p}", file=sys.stderr)
        return not problems


# Untraced stages shorter than this are rerun within the iteration, which
# gives the short stages more wall samples; the reruns use the same seeds,
# so they also check byte-identical outputs.
MIN_STAGE_S = 0.3
MAX_RERUNS = 100
# the same floor for the back-to-back set-ups of one set-up occasion
MIN_SETUP_S = 0.3


def run_iteration(wl: Workload, rep: int, traced: bool, gate: Gate) -> Iteration | None:
    it = Iteration(rep=rep, traced=traced, tracer=Tracer() if traced else None)
    if traced:
        it.tracer.install()
    try:
        for stage in wl.stages(rep):
            walls = []
            while not walls or (not traced and sum(walls) < MIN_STAGE_S
                                and len(walls) < MAX_RERUNS):
                tic = time.perf_counter()
                try:
                    code = (it.tracer.run_stage(stage.label, stage.layer, stage.call) if traced
                            else stage.call())
                except Exception as exc:  # a crashing stage is a failed operation
                    code = f"{type(exc).__name__}: {exc}"
                walls.append(time.perf_counter() - tic)
                if code != 0:
                    it.failures += 1
                    problems = [f"exit code {code}"]
                else:
                    problems = _verify(gate, rep, stage)
                if not gate.record(f"{stage.label} (rep {rep})", problems):
                    return None
            it.walls[stage.label] = walls
    finally:
        if traced:
            it.tracer.uninstall()
    return it


def _verify(gate: Gate, rep: int, stage: Stage) -> list[str]:
    """Full output checks on a stage's first run; later runs with the same
    seeds must reproduce its artifacts byte for byte."""
    try:
        digest = stage.digest()
        key = (rep, stage.label)
        if key not in gate.digests:
            gate.digests[key] = digest
            return stage.check()
        return [f"artifact {name} differs from the first same-seed run"
                for name, sha in digest.items() if gate.digests[key].get(name) != sha]
    except Exception as exc:  # an unreadable output is a failed operation
        return [f"output check raised {type(exc).__name__}: {exc}"]


def _samples(iters: list[Iteration]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for it in iters:
        for label, walls in it.walls.items():
            samples.setdefault(label, []).extend(walls)
    return samples


def best_stage_walls(iters: list[Iteration]) -> dict[str, float]:
    """Each stage's fastest wall over the given iterations (best of n).

    On a shared host, interference only ever slows a stage down and comes
    in bursts lasting seconds to minutes, so the fastest of n samples
    repeats far more closely from run to run than their median does."""
    return {label: min(v) for label, v in _samples(iters).items()}


def setup_time(occasions: list[list[float]]) -> float:
    """Median over spec.SETUP_GROUPS groups of set-up occasions of each
    group's fastest set-up. Occasion i goes to group i mod SETUP_GROUPS, so
    every group spans the whole run and, like a stage's best wall, its
    fastest set-up comes from the quietest stretch of the run; the median
    keeps one lucky group from setting the figure."""
    groups = [[w for walls in occasions[g::spec.SETUP_GROUPS] for w in walls]
              for g in range(spec.SETUP_GROUPS)]
    return statistics.median(min(g) for g in groups)


def end_to_end(wl: Workload, iters: list[Iteration], setup_walls: list[list[float]]) -> dict:
    n = wl.n_rows
    epochs = wl.cfg.get("epochs", 1)
    stage_s = best_stage_walls(iters)
    kinds: dict[str, list[float]] = {}
    for stage in wl.stages(0):
        kinds.setdefault(stage.kind, []).append(stage_s[stage.label])
    values = {
        "setup_s": setup_time(setup_walls),
        "pipeline_s": sum(stage_s.values()),
        "fit_rows_per_s": n * epochs / sum(kinds["fit"]),
        "score_rows_per_s": n / sum(kinds["score"]),
        "repair_rows_per_s": n * len(kinds["repair"]) / sum(kinds["repair"]),
        "evaluate_rows_per_s": n / sum(kinds["evaluate"]),
    }
    for name in QUALITY:
        values[name] = statistics.median(q[name] for q in wl.quality.values())
    return values


# per-layer metric -> the trace targets it is derived from; a metric is left
# out when one of them no longer exists in the package
LAYER_NEEDS = {
    "engine.nodes_per_step": ["engine.Tensor.__init__", "nn.adam_step"],
    "engine.matmul_calls_per_step": ["engine.matmul", "nn.adam_step"],
    "engine.log_softmax_calls_per_step": ["engine.log_softmax", "nn.adam_step"],
    "engine.gather_take_calls_per_step": ["engine.gather_cols", "engine.take_rows", "nn.adam_step"],
    "engine.concat_calls_per_step": ["engine.concat", "nn.adam_step"],
    "engine.backward_ms_per_step": ["engine.Tensor.backward", "nn.adam_step"],
    "engine.matmul_gflop_per_step": ["engine.matmul", "nn.adam_step"],
    "model.objective_ms_per_step": ["train.batch_objective", "nn.adam_step"],
    "model.encode_s": ["model.encode_values", "model.Encoder.latent_values"],
    "model.decode_s": ["model.decode_values"],
    "model.clean_loglik_s": ["model.clean_logliks_values", "model.outlier_logliks"],
    "nn.adam_ms_per_step": ["nn.adam_step"],
    "nn.rng_streams_per_row": ["nn.Rng.derive"],
    "nn.rng_draw_calls_per_row": ["nn.Rng.normal", "nn.Rng.uniform", "nn.Rng.integers"],
    "data.renormalize_ms_per_step": ["data.EmbeddingBank.renormalize", "nn.adam_step"],
    "data.read_table_s": ["data.read_table"],
    "data.write_table_s": ["data.write_table"],
    "data.standardize_s": ["data.standardize", "data.apply_stats"],
    "data.read_table_calls": ["data.read_table"],
    "train.step_ms": ["train.train", "nn.adam_step"],
    "train.steps": ["nn.adam_step"],
    "train.blas_fraction": ["train.train", "engine.matmul"],
    "train.checkpoint_save_s": ["train.save_model"],
    "train.checkpoint_load_s": ["train.load_model"],
    "container.bytes": ["container.read_container"],
    "score_repair.score_s": ["score_repair.score"],
    "score_repair.repair_map_s": ["score_repair.repair_map"],
    "score_repair.repair_one_stage_s": ["score_repair.repair_one_stage"],
    "score_repair.repair_two_stage_s": ["score_repair.repair_two_stage"],
    "score_repair.blas_fraction": ["score_repair.score"],
    "score_repair.artifact_write_s": ["score_repair.ScoreReport.save",
                                      "score_repair.RepairResult.save"],
    "score_repair.artifact_read_s": ["score_repair.ScoreReport.load",
                                     "score_repair.load_simplexes"],
    "score_repair.artifact_bytes": ["score_repair.ScoreReport.save",
                                    "score_repair.RepairResult.save"],
    "corrupt.make_scenario_s": ["corrupt.make_scenario"],
    "corrupt.record_io_s": ["corrupt.CorruptionRecord.save", "corrupt.CorruptionRecord.load"],
    "metrics.evaluate_s": ["metrics.evaluate"],
    "baselines.fit_marginals_s": ["baselines.fit_marginals"],
    "baselines.gmm_fits": ["baselines.fit_gmm_1d"],
    "baselines.em_iterations": ["baselines.fit_gmm_1d"],
    "baselines.score_repair_s": ["baselines.marginal_score", "baselines.marginal_repair"],
}


def per_layer(wl: Workload, traced: list[Iteration], untraced: list[Iteration],
              dgemm_gflops: float) -> tuple[dict, list[str]]:
    """Median over the traced iterations of each per-layer metric, and the
    names of those left out because a target they need is missing."""
    missing = set(traced[0].tracer.missing)
    rows = [_layer_values(wl, it, dgemm_gflops) for it in traced]
    absent = [name for name, needs in LAYER_NEEDS.items()
              if any(f"rvae.{n}" in missing for n in needs)]
    values = {name: statistics.median(r[name] for r in rows)
              for name in rows[0] if name not in absent}
    values["trace.overhead_ratio"] = (sum(best_stage_walls(traced).values())
                                      / sum(best_stage_walls(untraced).values()))
    return values, absent


def _layer_values(wl: Workload, it: Iteration, dgemm_gflops: float) -> dict:
    """The per-layer metrics of one traced iteration. "Per step" divides by
    the training steps (adam_step calls), "per row" by the rows passed
    through the score and repair stages; a workload that does no such work
    reads 0."""
    t = it.tracer
    stage_list = wl.stages(it.rep)
    fit = [s.label for s in stage_list if s.kind == "fit"]
    inference = [s.label for s in stage_list if s.kind in ("score", "repair")]
    inference_rows = wl.n_rows * len(inference)

    def dur(*names, stages=None):
        return sum(s.duration for s in t.spans
                   if s.name in names and (stages is None or s.stage in stages))

    def count(*names, stages=None):
        return sum(c.get(name, 0) for stage, c in t.counts.items()
                   if stages is None or stage in stages for name in names)

    steps = count("adam_step", stages=fit)

    def per_step(x):
        return x / steps if steps else 0.0

    def blas_fraction(flops, seconds):
        # computed GFLOP/s over the measured single-thread dgemm rate
        return flops / seconds / 1e9 / dgemm_gflops if seconds else 0.0

    cfg, r = wl.cfg, spec.RECIPE
    # one scored row: encoder (input -> hidden -> 2 x latent), decoder trunk
    # (latent -> hidden) and heads (hidden -> reals + all category logits)
    width = cfg["n_real"] + r["embedding"] * cfg["n_cat"]
    head = cfg["n_real"] + sum(wl.cards)
    score_flops_per_row = 2 * r["hidden"] * (width + 2 * r["latent"] + r["latent"] + head)
    train_s = dur("train", stages=fit)
    values = {
        "engine.nodes_per_step": per_step(count("Tensor.__init__", stages=fit)),
        "engine.matmul_calls_per_step": per_step(count("matmul", stages=fit)),
        "engine.log_softmax_calls_per_step": per_step(count("log_softmax", stages=fit)),
        "engine.gather_take_calls_per_step": per_step(count("gather_cols", "take_rows",
                                                            stages=fit)),
        "engine.concat_calls_per_step": per_step(count("concat", stages=fit)),
        "engine.backward_ms_per_step": per_step(1e3 * dur("Tensor.backward", stages=fit)),
        "engine.matmul_gflop_per_step": per_step(count("matmul_flops", stages=fit) / 1e9),
        "model.objective_ms_per_step": per_step(1e3 * dur("batch_objective", stages=fit)),
        "model.encode_s": dur("encode_values", "Encoder.latent_values"),
        "model.decode_s": dur("decode_values"),
        "model.clean_loglik_s": dur("clean_logliks_values", "outlier_logliks"),
        "nn.adam_ms_per_step": per_step(1e3 * dur("adam_step", stages=fit)),
        "nn.rng_streams_per_row": count("Rng.derive", stages=inference) / inference_rows,
        "nn.rng_draw_calls_per_row": count("Rng.normal", "Rng.uniform", "Rng.integers",
                                           stages=inference) / inference_rows,
        "data.renormalize_ms_per_step": per_step(1e3 * dur("EmbeddingBank.renormalize",
                                                           stages=fit)),
        "data.read_table_s": dur("read_table"),
        "data.write_table_s": dur("write_table"),
        "data.standardize_s": dur("standardize", "apply_stats"),
        "data.read_table_calls": count("read_table"),
        "train.step_ms": per_step(1e3 * train_s),
        "train.steps": steps,
        "train.blas_fraction": blas_fraction(count("matmul_flops", stages=fit), train_s),
        "train.checkpoint_save_s": dur("save_model"),
        "train.checkpoint_load_s": dur("load_model"),
        "container.bytes": count("container_bytes"),
        "score_repair.score_s": dur("score"),
        "score_repair.repair_map_s": dur("repair_map"),
        "score_repair.repair_one_stage_s": dur("repair_one_stage"),
        "score_repair.repair_two_stage_s": dur("repair_two_stage"),
        "score_repair.blas_fraction": blas_fraction(score_flops_per_row * wl.n_rows,
                                                    dur("score")),
        "score_repair.artifact_write_s": dur("ScoreReport.save", "RepairResult.save"),
        "score_repair.artifact_read_s": dur("ScoreReport.load", "load_simplexes"),
        "score_repair.artifact_bytes": count("artifact_bytes"),
        "corrupt.make_scenario_s": dur("make_scenario"),
        "corrupt.record_io_s": dur("CorruptionRecord.save", "CorruptionRecord.load"),
        "metrics.evaluate_s": dur("evaluate"),
        "baselines.fit_marginals_s": dur("fit_marginals"),
        "baselines.gmm_fits": count("fit_gmm_1d"),
        "baselines.em_iterations": count("em_iterations"),
        "baselines.score_repair_s": dur("marginal_score", "marginal_repair"),
        "cli.stage_failures": it.failures,
    }
    for layer in spec.LAYERS:
        values[f"{layer}.self_s"] = sum(s.self_time for s in t.spans if s.layer == layer)
    return values


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def dgemm_gflops(n: int = 512, seconds: float = 0.3) -> float:
    """Median single-call GFLOP/s of an n x n float64 matmul."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    rates = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rates) < 5:
        tic = time.perf_counter()
        a @ b
        rates.append(2 * n ** 3 / (time.perf_counter() - tic) / 1e9)
    return statistics.median(rates)


def environment(gflops: float) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = Path("src")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(src.rglob("*.py"))),
        "env.dgemm_gflops": gflops,
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    gflops = dgemm_gflops()
    print("env " + json.dumps(environment(gflops), sort_keys=True))

    gate = Gate()
    wl = Workload(args.workload, args.seed, Path(args.workdir))
    setup_walls: list[list[float]] = []

    def setup():
        # one set-up occasion before each iteration, so that set-ups are
        # spread over the run; each occasion sets up back to back, at least
        # spec.SETUP_MIN_REPEATS times and for MIN_SETUP_S
        walls = []
        while len(walls) < spec.SETUP_MIN_REPEATS or sum(walls) < MIN_SETUP_S:
            tic = time.perf_counter()
            wl.setup()
            walls.append(time.perf_counter() - tic)
        setup_walls.append(walls)

    # trace runs repeat the first seeds: an untraced warm-up iteration, then
    # traced and untraced iterations in turn
    reps = 1 if args.trace else wl.cfg["replicates"]
    minimum = 3 if args.trace else reps + 1
    iters: list[Iteration] = []
    start = time.perf_counter()
    last = 0.0
    while gate.failed == 0 and (len(iters) < minimum
                                or time.perf_counter() - start + last <= args.seconds):
        tic = time.perf_counter()
        setup()
        j = len(iters)
        it = run_iteration(wl, j % reps, traced=bool(args.trace) and j % 2 == 1, gate=gate)
        if it is not None:
            iters.append(it)
        last = time.perf_counter() - tic
    while gate.failed == 0 and len(setup_walls) < spec.SETUP_GROUPS:
        setup()

    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {}}
    if gate.failed == 0:
        if args.trace:
            traced = [it for it in iters if it.traced]
            values, absent = per_layer(wl, traced, [it for it in iters[1:] if not it.traced], gflops)
            units = {n: u for n, u, _, _, _ in spec.PER_LAYER}
            if absent:
                print("absent " + json.dumps(absent))
        else:
            values = end_to_end(wl, iters, setup_walls)
            units = {n: u for n, u, _, _, _ in spec.END_TO_END}
        print(f"iterations {len(iters)} setups {len(setup_walls)} stage walls " + json.dumps(
            {label: {"n": len(w), "min": min(w), "median": statistics.median(w), "max": max(w)}
             for label, w in _samples(iters).items()}))
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in units.items() if name in values}
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
