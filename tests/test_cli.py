import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rvae.cli import COMMANDS, build_parser, main, parse_noise_spec
from rvae.container import write_container
from rvae.corrupt import (GaussianMixtureNoise, GaussianNoise, LaplaceNoise,
                          LogNormalNoise)
from rvae.data import write_table
from rvae.errors import ConfigError
from rvae.synthetic import mixture_table
from rvae.train import TrainConfig

from conftest import MALFORMED_CHECKPOINT_HEADERS, rewrite_header, rewrite_tensors

TRAIN_FAST = ["--epochs", "4", "--hidden", "32", "--latent", "4", "--embedding", "8",
              "--batch", "64"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    table = mixture_table(160, seed=0)
    write_table(table, root / "clean.csv")
    table.schema.save(root / "schema.json")
    return root


def run(argv):
    return main([str(a) for a in argv])


def corrupt_args(ws, seed=5):
    return ["corrupt", "--input", ws / "clean.csv", "--schema", ws / "schema.json",
            "--rows", "0.2", "--noise", "gauss:5,cat:0", "--seed", str(seed),
            "--out-dirty", ws / "dirty.csv", "--out-record", ws / "record.csv"]


# -- noise grammar -------------------------------------------------------------

def test_parse_noise_spec_grammar():
    spec = parse_noise_spec("gauss:5,cat:0")
    assert isinstance(spec.real, GaussianNoise) and spec.real.k == 5.0
    assert spec.cat.beta == 0.0
    assert isinstance(parse_noise_spec("laplace:4,cat:0.5").real, LaplaceNoise)
    assert isinstance(parse_noise_spec("lognorm:0.75,cat:0.8").real, LogNormalNoise)
    gm = parse_noise_spec("gmix:-0.5,3,0.6,0.5,3,0.4,cat:0").real
    assert isinstance(gm, GaussianMixtureNoise)
    assert gm.components == ((-0.5, 3.0, 0.6), (0.5, 3.0, 0.4))
    assert parse_noise_spec("gauss:5").cat is None
    assert parse_noise_spec("cat:0.5").real is None


def test_parse_noise_spec_rejects_garbage():
    for bad in ("", "gauss", "gauss:1,2", "gmix:1,2", "triangles:3", "gauss:x,cat:0",
                "gmix:0,1,nan,0,1,0.6,cat:0", "gmix:0,1,1.5,0,1,-0.5,cat:0",
                "gauss:inf,cat:0", "gauss:nan,cat:0", "laplace:-1,cat:0"):
        with pytest.raises(ConfigError):
            parse_noise_spec(bad)


def test_train_parser_defaults_follow_the_recipe():
    # train and experiment share the recipe options, and every default is
    # the config's own, which is the paper's recipe
    recipe = {"alpha": "alpha", "epochs": "epochs", "lr": "learning_rate", "batch": "batch_size",
              "latent": "latent_dim", "hidden": "hidden_dim", "embedding": "embedding_dim"}
    train_only = {"s": "outlier_scale", "l2": "weight_decay", "model": "model"}
    defaults = TrainConfig()
    for argv, options in (
            (["train", "--input", "a.csv", "--schema", "s.json", "--out", "m.ckpt"],
             {**recipe, **train_only}),
            (["experiment", "--input", "a.csv", "--schema", "s.json", "--out-dir", "out"], recipe)):
        args = build_parser().parse_args(argv)
        for option, field in options.items():
            assert getattr(args, option) == getattr(defaults, field), (argv[0], option)
    assert (defaults.alpha, defaults.epochs, defaults.learning_rate, defaults.batch_size,
            defaults.latent_dim, defaults.hidden_dim, defaults.embedding_dim,
            defaults.outlier_scale, defaults.weight_decay, defaults.model) == (
        0.95, 100, 0.001, 150, 20, 400, 50, 2.0, 0.0, "rvae-cvi")


def test_repair_parser_accepts_gibbs_settings():
    args = build_parser().parse_args(
        ["repair", "--input", "a.csv", "--checkpoint", "m.ckpt", "--method", "two-stage",
         "--gibbs-iters", "5", "--out", "r.csv"])
    assert args.method == "two-stage" and args.gibbs_iters == 5


def outcome(parse, argv, capsys):
    """What a parse prints to stdout and stderr, and its exit code."""
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


@pytest.mark.parametrize("argv", [
    *([command, "--help"] for command in COMMANDS),
    ["--help"], ["--version"], [], ["bogus"],
    ["--bogus", "score", "--input", "a.csv"],
    ["score", "--rule", "maybe"], ["repair", "--gibbs-iters", "many"],
    ["train", "--epochs", "1.5", "--input", "a.csv"], ["evaluate", "--record"],
    # the main parser reports arguments that the command's parser leaves over
    ["export", "--input", "a.rvae", "--out", "a.csv", "--version"],
    ["score", "--input", "a.csv", "--checkpoint", "m.ckpt", "--rule", "pi", "--out", "s.rvae",
     "--bogus"],
], ids=" ".join)
def test_main_prints_what_the_full_parser_prints(argv, capsys):
    # main builds the invoked command's parser alone; usage lines, help and
    # errors must read as the parser of every command prints them
    full = outcome(lambda a: build_parser().parse_args(a), argv, capsys)
    assert full[2] in (0, 2) and (full[0] or full[1])
    assert outcome(main, argv, capsys) == full


def test_train_parser_weight_decay_sweep_value():
    args = build_parser().parse_args(
        ["train", "--input", "a.csv", "--schema", "s.json", "--model", "vae",
         "--l2", "10", "--out", "m.ckpt"])
    assert args.model == "vae" and args.l2 == 10.0


# -- exit codes ----------------------------------------------------------------

def test_corrupt_rejects_zero_row_fraction(workspace, capsys):
    argv = corrupt_args(workspace)
    argv[argv.index("--rows") + 1] = "0"
    assert run(argv) == 2
    assert "row fraction must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("features", ["1.5", "-0.2"])
def test_corrupt_rejects_feature_fraction_outside_unit_interval(workspace, tmp_path, capsys,
                                                                features):
    argv = corrupt_args(workspace)
    argv[argv.index("--out-dirty") + 1] = tmp_path / "d.csv"
    argv[argv.index("--out-record") + 1] = tmp_path / "r.rvae"
    assert run([*argv, "--features", features]) == 2
    assert f"feature fraction must lie in (0, 1], got {features}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("noise", ["gmix:0,1,nan,0,1,0.6,cat:0", "gmix:0,1,1.5,0,1,-0.5,cat:0",
                                   "gauss:inf,cat:0", "gauss:nan,cat:0"])
def test_corrupt_rejects_bad_noise_parameters(workspace, tmp_path, capsys, noise):
    argv = corrupt_args(workspace)
    argv[argv.index("--noise") + 1] = noise
    argv[argv.index("--out-dirty") + 1] = tmp_path / "d.csv"
    argv[argv.index("--out-record") + 1] = tmp_path / "r.rvae"
    assert run(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# a numpy overflow warning would be printed beside the config error
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("noise, process", [("lognorm:1000,cat:0", "LogNormalNoise"),
                                            ("gauss:1e308,cat:0", "GaussianNoise")])
def test_corrupt_rejects_noise_that_overflows(workspace, tmp_path, capsys, noise, process):
    argv = corrupt_args(workspace)
    argv[argv.index("--noise") + 1] = noise
    argv[argv.index("--out-dirty") + 1] = tmp_path / "d.csv"
    argv[argv.index("--out-record") + 1] = tmp_path / "r.rvae"
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and process in err and "too large" in err
    assert not list(tmp_path.iterdir())


def test_train_rejects_bad_alpha(workspace, capsys):
    assert run(["train", "--input", workspace / "clean.csv", "--schema",
                workspace / "schema.json", "--alpha", "1.5", "--out",
                workspace / "m.ckpt"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_missing_input_is_io_error(workspace):
    argv = corrupt_args(workspace)
    argv[argv.index("--input") + 1] = workspace / "nope.csv"
    assert run(argv) == 3


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines.insert(3, ""), "row 2 has 0 cells"),
    (lambda lines: lines.append(""), "row 160 has 0 cells"),
    (lambda lines: lines.insert(3, "   "), "row 2 has 1 cells"),
    (lambda lines: lines.__setitem__(2, lines[2] + "\x00"), "row 1, column"),
    (lambda lines: lines.__setitem__(2, "1_000" + lines[2][lines[2].index(","):]),
     "non-numeric value '1_000'"),
    (lambda lines: lines.__setitem__(2, "\u0661" + lines[2][lines[2].index(","):]),
     "non-numeric value"),
])
def test_malformed_table_exits_3(workspace, tmp_path, capsys, edit, message):
    lines = (workspace / "clean.csv").read_text(encoding="utf-8").split("\n")[:-1]
    edit(lines)
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = corrupt_args(workspace)
    argv[argv.index("--input") + 1] = tmp_path / "bad.csv"
    argv[argv.index("--out-dirty") + 1] = tmp_path / "dirty.csv"
    argv[argv.index("--out-record") + 1] = tmp_path / "record.rvae"
    assert run(argv) == 3
    assert message in capsys.readouterr().err


# -- pipeline ------------------------------------------------------------------

def test_full_pipeline(workspace):
    ws = workspace
    assert run(corrupt_args(ws)) == 0
    assert run(["train", "--input", ws / "dirty.csv", "--schema", ws / "schema.json",
                "--model", "rvae-cvi", "--seed", "3", "--out", ws / "model.ckpt",
                *TRAIN_FAST]) == 0
    assert run(["score", "--input", ws / "dirty.csv", "--checkpoint", ws / "model.ckpt",
                "--rule", "pi", "--seed", "3", "--out", ws / "scores.csv"]) == 0
    assert run(["repair", "--input", ws / "dirty.csv", "--checkpoint", ws / "model.ckpt",
                "--method", "two-stage", "--gibbs-iters", "5", "--seed", "3",
                "--out", ws / "repaired.csv"]) == 0
    assert run(["evaluate", "--record", ws / "record.csv", "--dirty", ws / "dirty.csv",
                "--schema", ws / "schema.json", "--scores", ws / "scores.csv",
                "--repaired", ws / "repaired.csv",
                "--simplexes", str(ws / "repaired.csv") + ".simplexes",
                "--out", ws / "eval.json"]) == 0
    report = json.loads((ws / "eval.json").read_text())
    assert 0.0 <= report["row_avpr"] <= 1.0
    assert report["smse_real_avg"] is not None


def test_manifests_written_with_matching_digests(workspace):
    import hashlib

    manifest = json.loads((workspace / "dirty.csv.manifest.json").read_text())
    assert manifest["command"] == "corrupt"
    assert manifest["seed"] == 5
    assert manifest["tool_version"]
    for path, digest in manifest["outputs"].items():
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest
    for path, digest in manifest["inputs"].items():
        assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest


def test_corrupt_same_seed_byte_identical(workspace, tmp_path):
    ws = workspace
    argv = corrupt_args(ws, seed=9)
    argv[argv.index("--out-dirty") + 1] = tmp_path / "d1.csv"
    argv[argv.index("--out-record") + 1] = tmp_path / "r1.csv"
    assert run(argv) == 0
    argv[argv.index("--out-dirty") + 1] = tmp_path / "d2.csv"
    argv[argv.index("--out-record") + 1] = tmp_path / "r2.csv"
    assert run(argv) == 0
    assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_pi_rule_on_vae_checkpoint_exits_6(workspace):
    ws = workspace
    assert run(["train", "--input", ws / "dirty.csv", "--schema", ws / "schema.json",
                "--model", "vae", "--seed", "1", "--out", ws / "vae.ckpt",
                *TRAIN_FAST]) == 0
    assert run(["score", "--input", ws / "dirty.csv", "--checkpoint", ws / "vae.ckpt",
                "--rule", "pi", "--out", ws / "nope.csv"]) == 6


def test_schema_mismatch_exits_5(workspace, tmp_path):
    other = mixture_table(40, seed=2, n_real=3, n_cat=1)
    write_table(other, tmp_path / "other.csv")
    other.schema.save(tmp_path / "other_schema.json")
    assert run(["score", "--input", tmp_path / "other.csv", "--checkpoint",
                workspace / "model.ckpt", "--rule", "pi",
                "--out", tmp_path / "s.csv"]) == 3  # header mismatch vs model schema
    # evaluate with a record whose mask shape disagrees with the table
    assert run(["evaluate", "--record", workspace / "record.csv", "--dirty",
                tmp_path / "other.csv", "--schema", tmp_path / "other_schema.json",
                "--out", tmp_path / "e.json"]) == 5


@pytest.fixture(scope="module")
def small_checkpoint(workspace):
    path = workspace / "small.ckpt"
    assert run(["train", "--input", workspace / "clean.csv", "--schema",
                workspace / "schema.json", "--seed", "2", "--out", path, *TRAIN_FAST]) == 0
    return path


def score_with(workspace, checkpoint, out):
    return run(["score", "--input", workspace / "clean.csv", "--checkpoint", checkpoint,
                "--rule", "pi", "--out", out])


def test_checkpoint_without_schema_or_stats_exits_3(workspace, small_checkpoint, tmp_path,
                                                    capsys):
    for key in ("schema", "stats"):
        rewrite_header(small_checkpoint, tmp_path / "bad.ckpt", lambda h: h.pop(key))
        assert score_with(workspace, tmp_path / "bad.ckpt", tmp_path / "s.csv") == 3
        assert key in capsys.readouterr().err


def test_checkpoint_with_unknown_config_key_exits_3(workspace, small_checkpoint, tmp_path,
                                                    capsys):
    rewrite_header(small_checkpoint, tmp_path / "bad.ckpt",
                   lambda h: h["config"].update(dropout=0.5))
    assert score_with(workspace, tmp_path / "bad.ckpt", tmp_path / "s.csv") == 3
    assert "dropout" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "repair"])
def test_malformed_checkpoint_header_exits_3_without_traceback(workspace, small_checkpoint,
                                                                tmp_path, capsys, command):
    # an exception that escaped main() would fail this test with its traceback
    extra = ["--rule", "pi"] if command == "score" else ["--method", "two-stage"]
    for case, (edit, message) in MALFORMED_CHECKPOINT_HEADERS.items():
        rewrite_header(small_checkpoint, tmp_path / "bad.ckpt", edit)
        assert run([command, "--input", workspace / "clean.csv", "--checkpoint",
                    tmp_path / "bad.ckpt", *extra, "--out", tmp_path / "out"]) == 3, case
        err = capsys.readouterr().err
        assert message in err and str(tmp_path / "bad.ckpt") in err, case
        assert "Traceback" not in err, case


def test_checkpoint_shape_disagreeing_with_nbytes_exits_3(workspace, small_checkpoint,
                                                          tmp_path, capsys):
    def bad_shape(header):
        header["tensors"][0]["shape"] = [3, 1]

    rewrite_header(small_checkpoint, tmp_path / "bad.ckpt", bad_shape)
    assert score_with(workspace, tmp_path / "bad.ckpt", tmp_path / "s.csv") == 3
    assert "malformed tensor manifest" in capsys.readouterr().err


def test_checkpoint_header_that_is_not_an_object_exits_3(workspace, small_checkpoint,
                                                         tmp_path, capsys):
    raw = small_checkpoint.read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    (tmp_path / "bad.ckpt").write_bytes(raw[:8] + (3).to_bytes(8, "little") + b"[1]"
                                        + raw[16 + n:])
    assert score_with(workspace, tmp_path / "bad.ckpt", tmp_path / "s.csv") == 3
    assert "the header is not a JSON object" in capsys.readouterr().err


def test_checkpoint_naming_a_tensor_twice_exits_3(workspace, small_checkpoint, tmp_path,
                                                  capsys):
    def rename(header):
        header["tensors"][1]["name"] = header["tensors"][0]["name"]

    rewrite_header(small_checkpoint, tmp_path / "bad.ckpt", rename)
    assert score_with(workspace, tmp_path / "bad.ckpt", tmp_path / "s.csv") == 3
    assert "appears twice" in capsys.readouterr().err


def test_experiment_sweep(workspace, tmp_path):
    out_dir = tmp_path / "sweep"
    assert run(["experiment", "--input", workspace / "clean.csv", "--schema",
                workspace / "schema.json", "--noise", "gauss:5,cat:0", "--seed", "0",
                "--epochs", "2", "--hidden", "16", "--latent", "3", "--embedding", "6",
                "--batch", "64", "--max-gmm-components", "2",
                "--out-dir", out_dir]) == 0
    lines = (out_dir / "aggregate.csv").read_text().strip().splitlines()
    assert lines[0].startswith("row_frac,cell_frac,method")
    assert len(lines) == 1 + 5 * 3  # five fractions x three methods
    methods = {line.split(",")[2] for line in lines[1:]}
    assert methods == {"rvae-cvi", "vae", "marginal"}
    manifest = json.loads((out_dir / "aggregate.csv.manifest.json").read_text())
    assert manifest["config"]["s"] == TrainConfig().outlier_scale


def test_experiment_rejects_zero_gmm_components_before_training(workspace, tmp_path, capsys,
                                                                 monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking the component count")

    monkeypatch.setattr("rvae.cli.train", no_training)
    assert run(["experiment", "--input", workspace / "clean.csv", "--schema",
                workspace / "schema.json", "--max-gmm-components", "0",
                "--out-dir", tmp_path / "sweep"]) == 2
    assert "--max-gmm-components must be >= 1, got 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# -- negative seeds --------------------------------------------------------------

@pytest.mark.parametrize("command", ["corrupt", "train", "score", "repair", "experiment"])
def test_negative_seed_is_a_config_error(workspace, tmp_path, capsys, command):
    ws = workspace
    argv = {
        "corrupt": ["corrupt", "--input", ws / "clean.csv", "--schema", ws / "schema.json",
                    "--rows", "0.2", "--noise", "gauss:5,cat:0",
                    "--out-dirty", tmp_path / "d.csv", "--out-record", tmp_path / "r.csv"],
        "train": ["train", "--input", ws / "clean.csv", "--schema", ws / "schema.json",
                  "--out", tmp_path / "m.ckpt", *TRAIN_FAST],
        "score": ["score", "--input", ws / "clean.csv", "--checkpoint", ws / "small.ckpt",
                  "--rule", "pi", "--out", tmp_path / "s.csv"],
        "repair": ["repair", "--input", ws / "clean.csv", "--checkpoint", ws / "small.ckpt",
                   "--out", tmp_path / "r.csv"],
        "experiment": ["experiment", "--input", ws / "clean.csv", "--schema",
                       ws / "schema.json", "--out-dir", tmp_path / "sweep"],
    }[command]
    assert run([*argv, "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["score", "repair"])
def test_threads_is_not_an_option(workspace, tmp_path, capsys, command):
    ws = workspace
    argv = [command, "--input", ws / "clean.csv", "--checkpoint", ws / "small.ckpt",
            "--out", tmp_path / "out.csv", "--threads", "2"]
    with pytest.raises(SystemExit) as exc:
        run(argv + (["--rule", "pi"] if command == "score" else []))
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_train_config_rejects_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        TrainConfig(seed=-3).validate()


# -- malformed simplex sidecars ----------------------------------------------------

@pytest.fixture(scope="module")
def repaired(tmp_path_factory, workspace):
    """A corrupt -> train -> two-stage repair run of its own."""
    out = tmp_path_factory.mktemp("repaired")
    ws = workspace
    argv = corrupt_args(ws)
    argv[argv.index("--out-dirty") + 1] = out / "dirty.csv"
    argv[argv.index("--out-record") + 1] = out / "record.csv"
    assert run(argv) == 0
    assert run(["train", "--input", out / "dirty.csv", "--schema", ws / "schema.json",
                "--seed", "3", "--out", out / "model.ckpt", *TRAIN_FAST]) == 0
    assert run(["score", "--input", out / "dirty.csv", "--checkpoint", out / "model.ckpt",
                "--rule", "pi", "--seed", "3", "--out", out / "scores.csv"]) == 0
    assert run(["repair", "--input", out / "dirty.csv", "--checkpoint", out / "model.ckpt",
                "--method", "two-stage", "--seed", "3", "--out", out / "repaired.csv",
                "--out-simplexes", out / "simplexes.csv"]) == 0
    return out


def evaluate_with(ws, out, scores=None, simplexes=None):
    argv = ["evaluate", "--record", out / "record.csv", "--dirty", out / "dirty.csv",
            "--schema", ws / "schema.json", "--out", out / "eval.json"]
    if scores:
        argv += ["--scores", scores]
    if simplexes:
        argv += ["--repaired", out / "repaired.csv", "--simplexes", simplexes]
    return run(argv)


def damaged_copy(src, dst, edit):
    dst.write_bytes(src.read_bytes())
    edit(dst)
    return dst


def edit_tensors(fn):
    return lambda path: rewrite_tensors(path, path, lambda header, tensors: fn(tensors))


def test_valid_simplex_sidecar_evaluates(workspace, repaired):
    assert evaluate_with(workspace, repaired, repaired / "scores.csv",
                         repaired / "simplexes.csv") == 0


@pytest.mark.parametrize("case, edit, message", [
    ("unknown feature", edit_tensors(lambda t: t.update(c9=t.pop("c0"))),
     "unknown categorical feature 'c9'"),
    ("missing line", edit_tensors(lambda t: t.update(c0=t["c0"][:-1])), "no probability for row"),
    ("row past the table", edit_tensors(lambda t: t.update(c0=np.vstack([t["c0"], t["c0"][:1]]))),
     "row id 160"),
    pytest.param("missing tensor", edit_tensors(lambda t: t.pop("c0")), "holds tensors ['c1']",
                 id="missing tensor"),
    pytest.param("duplicate name",
                 lambda p: rewrite_header(p, p, lambda h: h["tensors"][1].update(name="c0")),
                 "appears twice", id="duplicate name"),
    pytest.param("truncated payload", lambda p: p.write_bytes(p.read_bytes()[:-8]),
                 "truncated payload", id="truncated payload"),
    pytest.param("probability past 1", edit_tensors(lambda t: t["c0"].__setitem__((0, 0), 1.5)),
                 "outside [0, 1]", id="probability past 1"),
    pytest.param("row not summing to 1",
                 edit_tensors(lambda t: t["c0"].__setitem__(0, t["c0"][0] / 2)),
                 "do not sum to 1", id="row not summing to 1"),
])
def test_malformed_simplex_sidecar_exits_3(workspace, repaired, tmp_path, capsys,
                                           case, edit, message):
    bad = damaged_copy(repaired / "simplexes.csv", tmp_path / "bad", edit)
    assert evaluate_with(workspace, repaired, simplexes=bad) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    pytest.param(edit_tensors(lambda t: t["cell_scores"].__setitem__((3, 1), np.nan)),
                 "scores must be finite", id="NaN score"),
    pytest.param(lambda p: p.write_text("row_id,feature,rule,score\r\n"),
                 "not an rvae-scores file", id="CSV-era score file"),
])
def test_malformed_score_report_exits_3(workspace, repaired, tmp_path, capsys, edit, message):
    bad = damaged_copy(repaired / "scores.csv", tmp_path / "bad", edit)
    assert evaluate_with(workspace, repaired, scores=bad) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("artifact", ["scores", "simplexes"])
def test_artifact_for_another_schema_exits_5(workspace, repaired, tmp_path, capsys, artifact):
    def relabel(header):
        header["schema"][-1]["categories"][0] = "k7"

    bad = damaged_copy(repaired / f"{artifact}.csv", tmp_path / "bad",
                       lambda p: rewrite_header(p, p, relabel))
    assert evaluate_with(workspace, repaired, **{artifact: bad}) == 5
    assert "schema mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [lambda lines: lines[:-1], lambda lines: lines + lines[-1:]],
                         ids=["shorter", "longer"])
def test_repaired_table_of_another_length_exits_5(workspace, repaired, tmp_path, capsys, edit):
    lines = (repaired / "repaired.csv").read_bytes().splitlines(keepends=True)
    (tmp_path / "repaired.csv").write_bytes(b"".join(edit(lines)))
    assert run(["evaluate", "--record", repaired / "record.csv", "--dirty", repaired / "dirty.csv",
                "--schema", workspace / "schema.json", "--repaired", tmp_path / "repaired.csv",
                "--out", tmp_path / "eval.json"]) == 5
    err = capsys.readouterr().err
    assert "the repaired table has" in err and "the dirty table 160" in err
    assert "Traceback" not in err


def test_simplexes_without_a_repaired_table_exit_2(workspace, repaired, tmp_path, capsys):
    assert run(["evaluate", "--record", repaired / "record.csv", "--dirty", repaired / "dirty.csv",
                "--schema", workspace / "schema.json", "--simplexes", repaired / "simplexes.csv",
                "--out", tmp_path / "eval.json"]) == 2
    err = capsys.readouterr().err
    assert "--simplexes needs --repaired" in err and "Traceback" not in err
    assert not (tmp_path / "eval.json").exists()


def test_evaluate_with_a_constant_real_column_exits_3(tmp_path, capsys):
    # SMSE's units are the dirty reals' std, which a constant column lacks
    table = mixture_table(100, seed=1)
    reals = table.reals.copy()
    reals[:, 0] = 2.5
    write_table(replace(table, reals=reals), tmp_path / "clean.csv")
    table.schema.save(tmp_path / "schema.json")
    assert run(["corrupt", "--input", tmp_path / "clean.csv", "--schema", tmp_path / "schema.json",
                "--rows", "0.2", "--noise", "gauss:5,cat:0", "--out-dirty", tmp_path / "dirty.csv",
                "--out-record", tmp_path / "record.rvae"]) == 0
    assert run(["evaluate", "--record", tmp_path / "record.rvae", "--dirty", tmp_path / "dirty.csv",
                "--schema", tmp_path / "schema.json", "--repaired", tmp_path / "dirty.csv",
                "--out", tmp_path / "eval.json"]) == 3
    err = capsys.readouterr().err
    assert f"rvae: feature '{table.schema.real_features[0].name}' is constant; cannot standardize" in err
    assert "Traceback" not in err and not (tmp_path / "eval.json").exists()


def test_export_writes_each_artifact_as_csv(repaired, tmp_path, capsys):
    firsts = {"scores.csv": "row_id,feature,rule,score",
              "simplexes.csv": "row_id,feature,category,probability",
              "record.csv": '{"format": "rvae-corruption-record", "seed": 5'}
    for name, first in firsts.items():
        assert run(["export", "--input", repaired / name, "--out", tmp_path / name]) == 0
        assert (tmp_path / name).read_text(encoding="utf-8").startswith(first)
    assert run(["export", "--input", repaired / "model.ckpt", "--out", tmp_path / "m.csv"]) == 3
    assert "holds 'rvae-model'" in capsys.readouterr().err


def test_record_too_large_to_hold_exits_3(tmp_path, capsys):
    # a header that passes every layout check (no rows at row fraction 0)
    # but whose (N, D) mask cannot be allocated
    header = {"format": "rvae-corruption-record", "seed": 0, "row_fraction": 0.0,
              "feat_fraction": 0.2, "shape": [10_000_000, 10_000_000], "categorical_columns": []}
    write_container(tmp_path / "record.rvae", header,
                    {"cells": np.zeros((0, 2)), "originals": np.zeros(0)})
    assert run(["export", "--input", tmp_path / "record.rvae", "--out", tmp_path / "r.csv"]) == 3
    assert "no memory for a mask of shape [10000000, 10000000]" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_score_seed_does_not_change_the_scores(workspace, small_checkpoint, tmp_path):
    for seed in ("0", "7"):
        assert run(["score", "--input", workspace / "clean.csv", "--checkpoint",
                    small_checkpoint, "--rule", "pi", "--seed", seed,
                    "--out", tmp_path / f"s{seed}.rvae"]) == 0
        manifest = json.loads((tmp_path / f"s{seed}.rvae.manifest.json").read_text())
        assert manifest["seed"] is None
    assert (tmp_path / "s0.rvae").read_bytes() == (tmp_path / "s7.rvae").read_bytes()


def test_map_repair_seed_does_not_change_the_repair(workspace, small_checkpoint, tmp_path):
    out = tmp_path / "r.csv"
    written = []
    for seed in ("0", "7"):
        assert run(["repair", "--input", workspace / "clean.csv", "--checkpoint",
                    small_checkpoint, "--method", "map", "--seed", seed, "--out", out]) == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest.pop("wall_time_s") >= 0 and manifest["seed"] is None
        written.append((out.read_bytes(), (tmp_path / "r.csv.simplexes").read_bytes(), manifest))
    assert written[0] == written[1]
