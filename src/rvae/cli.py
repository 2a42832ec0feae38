"""Operator-facing command line: corrupt -> train -> score -> repair ->
evaluate, plus an experiment sweep. Commands compose through files only:
CSV tables, and binary containers for checkpoints, scores, simplexes and
corruption records, which ``export`` writes as CSV. Every
artifact-producing command writes a run manifest with input and output
digests.

Exit codes: 2 config error, 3 I/O error, 4 training failure, 5 schema
mismatch, 6 scoring rule undefined for the checkpoint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import fit_marginals, marginal_repair, marginal_score
from .container import header_schema, read_container
from .corrupt import (RECORD_FORMAT, CorruptionRecord, GaussianMixtureNoise, GaussianNoise,
                      LaplaceNoise, LogNormalNoise, NoiseSpec,
                      TemperedCategorical, make_scenario)
from .data import TableSchema, apply_stats, read_table, standardize, write_table
from .errors import (CheckpointError, ConfigError, DataFormatError, RvaeError,
                     SchemaMismatchError, ScoreRuleError, TrainingError)
from .metrics import evaluate
from .score_repair import (SCORES_FORMAT, SIMPLEX_FORMAT, RepairResult, ScoreReport,
                           export_simplexes, load_simplexes, repair_map, repair_one_stage,
                           repair_two_stage, score)
from .train import TrainConfig, load_model, save_model, train

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_TRAINING = 4
EXIT_SCHEMA = 5
EXIT_RULE = 6

ROW_FRACTION_SWEEP = (0.01, 0.05, 0.1, 0.2, 0.5)


def parse_noise_spec(text: str) -> NoiseSpec:
    """Grammar: ``gauss:K | laplace:K | lognorm:K | gmix:M1,K1,W1,M2,K2,W2``
    optionally joined with ``cat:BETA``, e.g. ``gauss:5,cat:0``."""
    text = text.strip()
    if not text:
        raise ConfigError("empty noise spec")
    real_part: str = text
    cat_part: str | None = None
    if text.startswith("cat:"):
        real_part, cat_part = "", text[len("cat:"):]
    elif ",cat:" in text:
        real_part, _, cat_part = text.rpartition(",cat:")
    real = None
    if real_part:
        head, _, args = real_part.partition(":")
        try:
            vals = [float(v) for v in args.split(",")] if args else []
        except ValueError as exc:
            raise ConfigError(f"bad noise parameter in '{real_part}': {exc}") from exc
        if head == "gauss" and len(vals) == 1:
            real = GaussianNoise(mu=0.0, k=vals[0])
        elif head == "laplace" and len(vals) == 1:
            real = LaplaceNoise(mu=0.0, k=vals[0])
        elif head == "lognorm" and len(vals) == 1:
            real = LogNormalNoise(mu=0.0, k=vals[0])
        elif head == "gmix" and len(vals) == 6:
            m1, k1, w1, m2, k2, w2 = vals
            real = GaussianMixtureNoise(components=((m1, k1, w1), (m2, k2, w2)))
        else:
            raise ConfigError(f"cannot parse real-noise spec '{real_part}'")
    cat = None
    if cat_part is not None:
        try:
            cat = TemperedCategorical(beta=float(cat_part))
        except ValueError as exc:
            raise ConfigError(f"bad beta '{cat_part}': {exc}") from exc
    return NoiseSpec(real=real, cat=cat)


def _sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _write_manifest(command: str, wall_time_s: float, primary_out, config: dict, seed, inputs,
                    outputs) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "tool_version": __version__,
        "wall_time_s": wall_time_s,
    }
    Path(str(primary_out) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _recipe_config(args, **extra) -> TrainConfig:
    """The training recipe from the options every training command shares."""
    return TrainConfig(epochs=args.epochs, learning_rate=args.lr, batch_size=args.batch,
                       alpha=args.alpha, latent_dim=args.latent, hidden_dim=args.hidden,
                       embedding_dim=args.embedding, seed=args.seed, **extra)


# ---------------------------------------------------------------------------
# subcommands: each returns what its run manifest records, the primary
# output, config, seed, inputs and outputs
# ---------------------------------------------------------------------------

def cmd_corrupt(args) -> tuple:
    if not 0.0 < args.rows <= 1.0:
        raise ConfigError("row fraction must be positive (and at most 1)")
    schema = TableSchema.load(args.schema)
    table = read_table(args.input, schema)
    noise = parse_noise_spec(args.noise)
    dirty, record = make_scenario(table, args.rows, noise, args.seed, feat_frac=args.features)
    write_table(dirty, args.out_dirty)
    record.save(args.out_record)
    return (args.out_dirty, {"rows": args.rows, "features": args.features, "noise": args.noise},
            args.seed, [args.input, args.schema], [args.out_dirty, args.out_record])


def cmd_train(args) -> tuple:
    config = _recipe_config(args, model=args.model, outlier_scale=args.s, weight_decay=args.l2)
    config.validate()
    schema = TableSchema.load(args.schema)
    table = standardize(read_table(args.input, schema))
    model, log = train(table, config)
    save_model(model, args.out)
    log_path = str(args.out) + ".trainlog.csv"
    log.save_csv(log_path)
    return args.out, config.__dict__, args.seed, [args.input, args.schema], [args.out, log_path]


def cmd_score(args) -> tuple:
    model = load_model(args.checkpoint)
    table = apply_stats(read_table(args.input, model.schema), model.stats)
    report = score(model, table, args.rule)
    report.save(args.out, model.schema)
    return args.out, {"rule": args.rule}, None, [args.input, args.checkpoint], [args.out]


def cmd_repair(args) -> tuple:
    model = load_model(args.checkpoint)
    table = apply_stats(read_table(args.input, model.schema), model.stats)
    if args.method == "map":
        result = repair_map(model, table)
    elif args.method == "one-stage":
        result = repair_one_stage(model, table, gibbs_iters=args.gibbs_iters, seed=args.seed)
    else:
        result = repair_two_stage(model, table, gibbs_iters=args.gibbs_iters, seed=args.seed)
    simplex_path = args.out_simplexes or (str(args.out) + ".simplexes")
    result.save(args.out, simplex_path)
    return (args.out, {"method": args.method, "gibbs_iters": args.gibbs_iters},
            None if args.method == "map" else args.seed,
            [args.input, args.checkpoint], [args.out, simplex_path])


def cmd_evaluate(args) -> tuple:
    if args.simplexes and not args.repaired:
        raise ConfigError("--simplexes needs --repaired")
    schema = TableSchema.load(args.schema)
    dirty = read_table(args.dirty, schema)
    record = CorruptionRecord.load(args.record)
    report = None
    repair = None
    inputs = [args.record, args.dirty, args.schema]
    if args.scores:
        report = ScoreReport.load(args.scores, schema)
        inputs.append(args.scores)
    if args.repaired:
        repaired_table = read_table(args.repaired, schema)
        simplexes = (load_simplexes(args.simplexes, schema, repaired_table.n_rows)
                     if args.simplexes else
                     {f.name: np.eye(f.cardinality)[repaired_table.cats[:, j]]
                      for j, f in enumerate(schema.cat_features)})
        repair = RepairResult(table=repaired_table, simplexes=simplexes)
        inputs.append(args.repaired)
        if args.simplexes:
            inputs.append(args.simplexes)
    # provenance lives in the manifest; only seed-determined fields go in the
    # report so same-seed runs stay byte-identical
    result = evaluate(record, dirty, scores=report, repair=repair,
                      metadata={"record_seed": record.seed,
                                "row_fraction": record.row_fraction,
                                "feat_fraction": record.feat_fraction})
    result.save(args.out)
    return (args.out, {"scores": bool(args.scores), "repaired": bool(args.repaired)},
            None, inputs, [args.out])


def cmd_export(args) -> tuple:
    """Write a score, simplex or corruption-record artifact as CSV."""
    header, tensors = read_container(args.input)
    kind = header.get("format")
    if kind == RECORD_FORMAT:
        CorruptionRecord.load(args.input).export(args.out)
    elif kind == SCORES_FORMAT:
        schema = header_schema(args.input, header)
        ScoreReport.load(args.input, schema).export(args.out, schema)
    elif kind == SIMPLEX_FORMAT:
        schema = header_schema(args.input, header)
        n_rows = next((len(t) for t in tensors.values() if t.ndim), 0)
        export_simplexes(args.out, schema, load_simplexes(args.input, schema, n_rows))
    else:
        raise DataFormatError(f"{args.input}: holds '{kind}', not a score, simplex or "
                              "corruption-record artifact")
    return args.out, {"format": kind}, None, [args.input], [args.out]


def cmd_experiment(args) -> tuple:
    """Sweep the row-corruption fractions and tabulate detection/repair
    metrics for the gated model, the plain VAE, and the marginal baseline."""
    config = _recipe_config(args)
    config.validate()
    if args.max_gmm_components < 1:
        raise ConfigError(f"--max-gmm-components must be >= 1, got {args.max_gmm_components}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = TableSchema.load(args.schema)
    clean = read_table(args.input, schema)
    noise = parse_noise_spec(args.noise)
    rows = ["row_frac,cell_frac,method,row_avpr,cell_avpr_macro,smse_real_avg,brier_cat_avg"]
    for i, frac in enumerate(ROW_FRACTION_SWEEP):
        dirty, record = make_scenario(clean, frac, noise, args.seed + i, feat_frac=0.2)
        std = standardize(dirty)
        cell_frac = record.n_cells / (dirty.n_rows * schema.n_features)
        runs = {}
        for kind, rule in (("rvae-cvi", "pi"), ("vae", "nll")):
            model, _ = train(std, replace(config, model=kind))
            runs[kind] = evaluate(record, dirty,
                                  scores=score(model, std, rule),
                                  repair=repair_map(model, std))
        marginal = fit_marginals(std, max_components=args.max_gmm_components, seed=args.seed)
        runs["marginal"] = evaluate(record, dirty,
                                    scores=marginal_score(marginal, std),
                                    repair=marginal_repair(marginal, std, record.mask))
        for method, rep in runs.items():
            rep.save(out_dir / f"frac{frac}_{method}.eval.json")
            metrics = (rep.row_avpr, rep.cell_avpr_macro, rep.smse_real_avg, rep.brier_cat_avg)
            rows.append(",".join([repr(frac), repr(cell_frac), method]
                                 + ["" if v is None else repr(v) for v in metrics]))
    aggregate = out_dir / "aggregate.csv"
    aggregate.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return (aggregate, {"noise": args.noise, "epochs": args.epochs, "hidden": args.hidden,
                        "s": TrainConfig.outlier_scale},
            args.seed, [args.input, args.schema], [aggregate])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

REQUIRED = {"required": True}
SEED = ("--seed", {"type": int, "default": 0})

# the training recipe, shared by train and experiment
RECIPE = (
    ("--alpha", {"type": float, "default": TrainConfig.alpha}),
    ("--epochs", {"type": int, "default": TrainConfig.epochs}),
    ("--lr", {"type": float, "default": TrainConfig.learning_rate}),
    ("--batch", {"type": int, "default": TrainConfig.batch_size}),
    ("--latent", {"type": int, "default": TrainConfig.latent_dim}),
    ("--hidden", {"type": int, "default": TrainConfig.hidden_dim}),
    ("--embedding", {"type": int, "default": TrainConfig.embedding_dim}),
)

# each subcommand's function, help line and options, in the order --help lists them
COMMANDS = {
    "corrupt": (cmd_corrupt, "inject seeded noise and keep the ground truth", (
        ("--input", REQUIRED),
        ("--schema", REQUIRED),
        ("--rows", {"type": float, "required": True, "help": "fraction of rows to corrupt"}),
        ("--features", {"type": float, "default": 0.2,
                        "help": "fraction of features per corrupted row"}),
        ("--noise", {"required": True,
                     "help": "e.g. gauss:5,cat:0 or gmix:-0.5,3,0.6,0.5,3,0.4,cat:0"}),
        SEED,
        ("--out-dirty", REQUIRED),
        ("--out-record", REQUIRED),
    )),
    "train": (cmd_train, "train a model on a (possibly dirty) table", RECIPE + (
        ("--input", REQUIRED),
        ("--schema", REQUIRED),
        ("--model", {"choices": ["vae", "rvae-cvi", "rvae-avi"], "default": "rvae-cvi"}),
        ("--s", {"type": float, "default": TrainConfig.outlier_scale,
                 "help": "outlier component scale"}),
        ("--l2", {"type": float, "default": TrainConfig.weight_decay,
                  "help": "optimizer-level weight decay"}),
        SEED,
        ("--out", REQUIRED),
    )),
    "score": (cmd_score, "per-cell and per-row outlier scores", (
        ("--input", REQUIRED),
        ("--checkpoint", REQUIRED),
        ("--rule", {"choices": ["nll", "pi"], "required": True}),
        ("--seed", {"type": int, "default": 0,
                    "help": "accepted; the scores do not depend on it"}),
        ("--out", REQUIRED),
    )),
    "repair": (cmd_repair, "impute a repaired table", (
        ("--input", REQUIRED),
        ("--checkpoint", REQUIRED),
        ("--method", {"choices": ["map", "one-stage", "two-stage"], "default": "map"}),
        ("--gibbs-iters", {"type": int, "default": 5}),
        ("--seed", {"type": int, "default": 0,
                    "help": "seeds the chains; a map repair does not depend on it"}),
        ("--out", REQUIRED),
        ("--out-simplexes", {"default": None}),
    )),
    "evaluate": (cmd_evaluate, "metrics against a corruption record", (
        ("--record", REQUIRED),
        ("--dirty", REQUIRED),
        ("--schema", REQUIRED),
        ("--scores", {"default": None}),
        ("--repaired", {"default": None}),
        ("--simplexes", {"default": None}),
        ("--out", REQUIRED),
    )),
    "export": (cmd_export, "write a score, simplex or record artifact as CSV", (
        ("--input", REQUIRED),
        ("--out", REQUIRED),
    )),
    "experiment": (cmd_experiment, "sweep corruption levels, tabulate metrics", RECIPE + (
        ("--input", REQUIRED),
        ("--schema", REQUIRED),
        ("--noise", {"default": "gauss:5,cat:0"}),
        SEED,
        ("--max-gmm-components", {"type": int, "default": 40}),
        ("--out-dir", REQUIRED),
    )),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    A one-command parser names all commands in its usage line, so it prints
    what the full parser prints for any arguments that start with ``command``.
    """
    parser = argparse.ArgumentParser(prog="rvae",
                                     description="Detect and repair cell outliers in mixed-type tables.")
    parser.add_argument("--version", action="version", version=f"rvae {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else [command]:
        fn, help_line, options = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command's arguments reach only its own parser, so no other is built
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        tic = time.perf_counter()
        record = args.fn(args)
        _write_manifest(args.command, time.perf_counter() - tic, *record)
    except ConfigError as exc:
        print(f"rvae: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScoreRuleError as exc:
        print(f"rvae: {exc}", file=sys.stderr)
        return EXIT_RULE
    except SchemaMismatchError as exc:
        print(f"rvae: schema mismatch: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except TrainingError as exc:
        print(f"rvae: training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (DataFormatError, CheckpointError, OSError) as exc:
        print(f"rvae: {exc}", file=sys.stderr)
        return EXIT_IO
    except RvaeError as exc:
        print(f"rvae: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
