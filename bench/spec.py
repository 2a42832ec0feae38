"""What the benchmark runs and reports: workloads, end-to-end metrics and
per-layer metrics, with the end-to-end metric and workload each layer
metric should move.

``BENCHMARK.json`` at the repository root is generated from this file:

    python3 bench/spec.py > BENCHMARK.json

Its keys are fixed, so the fields it cannot hold (the layers a workload
stresses, what a layer metric should move, whether a figure is computed
rather than measured) live here only.
"""

from __future__ import annotations

import json

# Two workloads of 55 s each. On a shared host, speed drifts by up to half
# over stretches of a minute or more; long runs give each run the best
# chance of a quiet stretch, and 4 + 22 x 2 runs of 55 s still fit within
# the 3420 s a full set of benchmark runs may take.
RUN_SECONDS = 55

# ``floors`` are the worst quality a correct run may show (ceilings for
# SMSE and Brier, where lower is better). ``epochs`` and, for the baseline,
# ``max_components`` are the length settings. ``replicates`` is the number
# of corruption and training seeds a run takes the median of its quality
# metrics over: each is run at least once, and one more iteration repeats
# the first, for the byte-identical rerun check. The repair SMSE in
# particular is heavy-tailed across scenarios.
WORKLOADS = {
    "default-recipe": {
        "why": "The paper's recipe and CLI pipeline on the README demo table (2000 x 6): hidden-400 "
               "matmuls and Adam dominate training; inference, CSV I/O and metrics follow it.",
        "layers": ["train", "engine", "nn", "model", "container", "score_repair", "data", "corrupt",
                   "metrics", "cli"],
        "rows": 2000, "n_real": 4, "n_cat": 2,
        "epochs": 12, "replicates": 5,
        "floors": {"cell_avpr": 0.4, "row_avpr": 0.5, "smse_real": 6.0, "brier_cat": 1.2},
    },
    "marginal-baseline": {
        "why": "The demo table through make_scenario, fit_marginals, marginal_score, marginal_repair "
               "and evaluate: the BIC-swept GMM baseline, no autodiff code.",
        "layers": ["baselines"],
        "rows": 2000, "n_real": 4, "n_cat": 2,
        "max_components": 3, "replicates": 7,
        "floors": {"cell_avpr": 0.4, "row_avpr": 0.5, "smse_real": 6.0, "brier_cat": 1.2},
    },
}

# Shared pipeline settings (the README recipe and the corruption of the
# ROADMAP's fixed shapes).
RECIPE = {"hidden": 400, "latent": 20, "embedding": 50, "batch": 150, "lr": 0.001}
NOISE = "gauss:5,cat:0"
ROW_FRACTION = 0.2
FEATURE_FRACTION = 0.2
GIBBS_ITERS = 5
SETUP_GROUPS = 3  # interleaved groups of set-up occasions that setup_s takes the median over
SETUP_MIN_REPEATS = 2  # back-to-back set-ups per occasion

# name, unit, better, bound, definition. Every workload reports every
# metric; the "fit", "score" and "repair" stages are the CLI train, score
# and repair stages on default-recipe and fit_marginals, marginal_score
# and marginal_repair on the baseline. A stage's time is its best wall
# over the run (per replicate, averaged over replicates); the quality
# metrics are medians over the replicates.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median over interleaved groups of set-up occasions of each group's fastest set-up of "
     "the input files"),
    ("pipeline_s", "s", "lower", 0.25, "sum of the stage times of the pipeline"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident set of the run's child process"),
    ("fit_rows_per_s", "rows/s", "higher", 0.25, "rows x epochs per second of the fitting stage"),
    ("score_rows_per_s", "rows/s", "higher", 0.25, "rows per second of the score stage, I/O included"),
    ("repair_rows_per_s", "rows/s", "higher", 0.25,
     "rows per second over all repair stages (MAP, one-stage, two-stage; marginal on the baseline)"),
    ("evaluate_rows_per_s", "rows/s", "higher", 0.25, "rows per second of the evaluate stage"),
    ("cell_avpr", "1", "higher", 0.25, "macro cell AVPR of the workload's scores"),
    ("row_avpr", "1", "higher", 0.25, "row AVPR of the workload's scores"),
    ("smse_real", "1", "lower", 0.25, "SMSE of the two-stage (or marginal) repair on real cells"),
    ("brier_cat", "1", "lower", 0.25, "Brier score of the same repair on categorical cells"),
]

LAYERS = ("cli", "data", "corrupt", "engine", "nn", "model", "train", "container",
          "score_repair", "metrics", "baselines")

# name, unit, better, end-to-end metric it should move, workloads it shows on.
# Units ending in "-computed" are derived from operand or layer shapes,
# not measured. "Per step" divides by the traced training steps, "per
# row" by the rows passed through the inference stages. A metric whose
# work a workload does not do (no training steps, no baseline fit) reads 0
# there. container.bytes counts the checkpoint bytes the stages load.
PER_LAYER = [
    ("engine.nodes_per_step", "count", "lower", "fit_rows_per_s", "default-recipe"),
    ("engine.matmul_calls_per_step", "count", "lower", "fit_rows_per_s", "default-recipe"),
    ("engine.log_softmax_calls_per_step", "count", "lower", "fit_rows_per_s", "default-recipe"),
    ("engine.gather_take_calls_per_step", "count", "lower", "fit_rows_per_s", "default-recipe"),
    ("engine.concat_calls_per_step", "count", "lower", "fit_rows_per_s", "default-recipe"),
    ("engine.backward_ms_per_step", "ms", "lower", "fit_rows_per_s", "default-recipe"),
    ("engine.matmul_gflop_per_step", "GFLOP-computed", "lower", "-", "default-recipe"),
    ("model.objective_ms_per_step", "ms", "lower", "fit_rows_per_s", "default-recipe"),
    ("model.encode_s", "s", "lower", "score_rows_per_s repair_rows_per_s", "default-recipe"),
    ("model.decode_s", "s", "lower", "score_rows_per_s repair_rows_per_s", "default-recipe"),
    ("model.clean_loglik_s", "s", "lower", "score_rows_per_s repair_rows_per_s", "default-recipe"),
    ("nn.adam_ms_per_step", "ms", "lower", "fit_rows_per_s", "default-recipe"),
    ("nn.rng_streams_per_row", "count", "lower", "score_rows_per_s repair_rows_per_s pipeline_s",
     "default-recipe"),
    ("nn.rng_draw_calls_per_row", "count", "lower", "score_rows_per_s repair_rows_per_s pipeline_s",
     "default-recipe"),
    ("data.renormalize_ms_per_step", "ms", "lower", "fit_rows_per_s", "default-recipe"),
    ("data.read_table_s", "s", "lower", "pipeline_s score_rows_per_s", "default-recipe"),
    ("data.write_table_s", "s", "lower", "pipeline_s score_rows_per_s", "default-recipe"),
    ("data.standardize_s", "s", "lower", "pipeline_s score_rows_per_s", "default-recipe"),
    ("data.read_table_calls", "count", "lower", "pipeline_s", "default-recipe"),
    ("train.step_ms", "ms", "lower", "fit_rows_per_s", "default-recipe"),
    ("train.steps", "count", "lower", "fit_rows_per_s", "default-recipe"),
    ("train.blas_fraction", "ratio-computed", "higher", "fit_rows_per_s", "default-recipe"),
    ("train.checkpoint_save_s", "s", "lower", "pipeline_s", "default-recipe"),
    ("train.checkpoint_load_s", "s", "lower", "score_rows_per_s repair_rows_per_s", "default-recipe"),
    ("container.bytes", "bytes", "lower", "score_rows_per_s repair_rows_per_s", "default-recipe"),
    ("score_repair.score_s", "s", "lower", "score_rows_per_s", "default-recipe"),
    ("score_repair.repair_map_s", "s", "lower", "repair_rows_per_s", "default-recipe"),
    ("score_repair.repair_one_stage_s", "s", "lower", "repair_rows_per_s", "default-recipe"),
    ("score_repair.repair_two_stage_s", "s", "lower", "repair_rows_per_s", "default-recipe"),
    ("score_repair.blas_fraction", "ratio-computed", "higher", "score_rows_per_s", "default-recipe"),
    ("score_repair.artifact_write_s", "s", "lower", "pipeline_s score_rows_per_s", "default-recipe"),
    ("score_repair.artifact_read_s", "s", "lower", "pipeline_s evaluate_rows_per_s", "default-recipe"),
    ("score_repair.artifact_bytes", "bytes", "lower", "pipeline_s score_rows_per_s", "default-recipe"),
    ("corrupt.make_scenario_s", "s", "lower", "pipeline_s", "default-recipe"),
    ("corrupt.record_io_s", "s", "lower", "pipeline_s", "default-recipe"),
    ("metrics.evaluate_s", "s", "lower", "evaluate_rows_per_s", "default-recipe"),
    ("baselines.fit_marginals_s", "s", "lower", "fit_rows_per_s", "marginal-baseline"),
    ("baselines.gmm_fits", "count", "lower", "fit_rows_per_s", "marginal-baseline"),
    ("baselines.em_iterations", "count", "lower", "fit_rows_per_s", "marginal-baseline"),
    ("baselines.score_repair_s", "s", "lower", "pipeline_s", "marginal-baseline"),
    ("cli.stage_failures", "count", "lower", "pipeline_s", "default-recipe"),
    ("trace.overhead_ratio", "ratio", "lower", "-", "all"),
] + [
    # self time of each layer (its spans' time minus their child spans);
    # per workload the self times add up to the traced pipeline_s
    (f"{layer}.self_s", "s", "lower", "pipeline_s", "all") for layer in LAYERS
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
