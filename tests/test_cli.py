"""End-to-end CLI runs in a scratch directory: files, determinism, errors."""

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphlens import cli, config, explain
from morphlens.checkpoint import decode_params, encode_params
from morphlens.cli import main
from morphlens.config import CONFIG_KEYS, RunConfig
from morphlens.data import load_corpus, preprocess, split
from morphlens.explain import decode_feature_vector
from morphlens.metrics import compute_metrics, confusion, format_report, parse_report
from morphlens.model import CnnModel, build_model, load_plan_sidecar, predict
from morphlens.rng import Lcg
from morphlens.viz import decode_pgm

SMALL_CONFIG = """\
n_bonafide=16
n_morphed=16
base_resolution=16
base_width=4
epochs=2
batch_size=4
seed=3
"""


@pytest.fixture(autouse=True)
def scratch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text(SMALL_CONFIG, encoding="ascii")
    return tmp_path


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_chain(capsys, *commands):
    for command in commands:
        code, _, err = run(capsys, command, "--config", "run.cfg")
        assert code == 0, err
    return Path("corpus/bonafide/0000.ppm")


# gen-data


def test_gen_data_writes_corpus(capsys):
    code, out, err = run(capsys, "gen-data", "--config", "run.cfg")
    assert code == 0
    assert err == ""
    assert "16" in out
    manifest = Path("corpus/manifest.tsv").read_text(encoding="ascii")
    assert len(manifest.splitlines()) == 32
    assert Path("corpus/bonafide/0000.ppm").is_file()
    assert Path("corpus/morph/0015.ppm").is_file()


def test_gen_data_rerun_is_byte_identical(capsys):
    run(capsys, "gen-data", "--config", "run.cfg")
    first_manifest = Path("corpus/manifest.tsv").read_bytes()
    first_image = Path("corpus/morph/0002.ppm").read_bytes()
    run(capsys, "gen-data", "--config", "run.cfg")
    assert Path("corpus/manifest.tsv").read_bytes() == first_manifest
    assert Path("corpus/morph/0002.ppm").read_bytes() == first_image


def test_gen_data_rejects_infeasible_morph_count(capsys):
    code, _, err = run(capsys, "gen-data", "--config", "run.cfg", "--n-bonafide", "2", "--n-morphed", "5")
    assert code == 1
    assert err.startswith("error:")
    assert "pairs" in err


def test_an_empty_corpus_round_trips_and_train_reports_it(capsys):
    code, _, err = run(capsys, "gen-data", "--config", "run.cfg", "--n-bonafide", "0", "--n-morphed", "0")
    assert code == 0, err
    assert Path("corpus/manifest.tsv").read_bytes() == b""
    assert load_corpus("corpus") == []
    code, out, err = run(capsys, "train", "--config", "run.cfg")
    assert code == 1
    assert out == ""
    assert err == "error: cannot split an empty corpus\n"
    assert not Path("model.ckpt").exists()


def test_gen_data_rejects_a_huge_resolution_in_one_error_line(capsys):
    code, out, err = run(capsys, "gen-data", "--config", "run.cfg", "--base-resolution", "100000000")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "1024" in err


@pytest.mark.parametrize("resolution", ["100000000", "5", "1025"])
def test_gen_data_checks_the_resolution_of_an_empty_corpus(capsys, resolution):
    flags = ["--n-bonafide", "0", "--n-morphed", "0", "--base-resolution", resolution]
    code, out, err = run(capsys, "gen-data", "--config", "run.cfg", *flags)
    if resolution == "1025":
        # 1025 plans the 1024-pixel side, and the faces are drawn at that side
        assert (code, err) == (0, "")
        assert Path("corpus/manifest.tsv").read_bytes() == b""
        return
    # RunConfig.validate refuses a plan with no side for every command
    message = {
        "100000000": "scaled input resolution 100000000 * 1.0 is above the 1024-pixel maximum",
        "5": "scaled input resolution 4 is below the 8-pixel minimum",
    }[resolution]
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not Path("corpus").exists()


@pytest.mark.parametrize("flags, side", [(["--base-resolution", "6"], 8), (["--phi", "1"], 20)])
def test_gen_data_draws_the_faces_at_the_planned_side(capsys, flags, side):
    # the planned side is a multiple of 4: 6 rounds to 8, and 16 * 1.15 = 18.4 to 20
    code, _, err = run(capsys, "gen-data", "--config", "run.cfg", *flags)
    assert (code, err) == (0, "")
    assert {sample.image.pixels.shape for sample in load_corpus("corpus")} == {(side, side, 3)}


# train


def test_train_writes_checkpoint_and_reports(capsys):
    run(capsys, "gen-data", "--config", "run.cfg")
    code, out, err = run(capsys, "train", "--config", "run.cfg")
    assert code == 0, err
    assert Path("model.ckpt").is_file()
    assert Path("model.ckpt.plan").is_file()
    assert "epoch 1 loss" in out
    assert "epoch 2 loss" in out
    assert "train_accuracy=" in out


def test_train_is_deterministic(capsys):
    run(capsys, "gen-data", "--config", "run.cfg")
    run(capsys, "train", "--config", "run.cfg")
    first = Path("model.ckpt").read_bytes()
    first_plan = Path("model.ckpt.plan").read_bytes()
    run(capsys, "train", "--config", "run.cfg")
    assert Path("model.ckpt").read_bytes() == first
    assert Path("model.ckpt.plan").read_bytes() == first_plan


def test_train_requires_corpus(capsys):
    code, _, err = run(capsys, "train", "--config", "run.cfg", "--corpus-dir", "nowhere")
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "flag, value",
    [("--epochs", "-1"), ("--batch-size", "0"), ("--learning-rate", "0"), ("--learning-rate", "nan")],
)
def test_train_rejects_bad_hyperparameters_before_reading_corpus(capsys, flag, value):
    # no corpus exists: the value must be refused first, in one error line
    code, out, err = run(capsys, "train", "--config", "run.cfg", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag[2:] in err
    assert not Path("model.ckpt").exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "eval", "explain"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--epochs", "-1", "epochs must be >= 0, got -1"),
        ("--batch-size", "0", "batch-size must be >= 1, got 0"),
        ("--learning-rate", "inf", "learning-rate must be positive and finite, got inf"),
        ("--n-bonafide", "-3", "corpus sizes must be non-negative"),
        ("--n-morphed", "-1", "corpus sizes must be non-negative"),
    ],
)
def test_a_bad_schedule_or_corpus_size_is_one_error_line_for_every_command(capsys, command, flag, value, message):
    code, out, err = run(capsys, command, "--config", "run.cfg", *COMMANDS[command], flag, value)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert sorted(Path(".").iterdir()) == [Path("run.cfg")]


@pytest.mark.parametrize(
    "argv, message, trained",
    [
        (["eval", "--phi", "-1"], "phi must be finite and >= 0, got -1.0", True),
        (["eval", "--tau", "nan"], "tau must be finite and >= 0, got nan", True),
        # a value argparse would take for an option reaches its check as --flag=VALUE
        (["gen-data", "--phi=-1e3"], "phi must be finite and >= 0, got -1000.0", True),
        (["train", "--learning-rate=-inf"], "learning-rate must be positive and finite, got -inf", True),
        (["eval", "--alpha", "0.5"], "alpha, beta, gamma must each be >= 1, got (0.5, 1.1, 1.15)", True),
        (
            ["eval", "--base-resolution", "5000"],
            "scaled input resolution 5000 * 1.0 is above the 1024-pixel maximum",
            True,
        ),
        (
            ["gen-data", "--n-bonafide", "4", "--n-morphed", "2", "--ensemble-weights", "2,2,2"],
            "ensemble weights must sum to 1, got 6.0",
            True,
        ),
        # no corpus exists: the plan is refused before the manifest is looked for
        (["train", "--base-depth", "100"], "planned depth 100 * 1.0 is above the 16-block maximum", False),
        (
            ["train", "--base-width", "100000"],
            "planned model is above the 10000000-parameter maximum at conv1 (base width 100000, width multiplier 1.0)",
            False,
        ),
        (
            ["train", "--phi", "30"],
            "scaled input resolution 16 * 66.21177195678577 is above the 1024-pixel maximum",
            False,
        ),
    ],
    ids=[
        "phi",
        "tau",
        "phi-equals",
        "learning-rate-equals",
        "alpha",
        "base-resolution",
        "ensemble-weights",
        "base-depth-no-corpus",
        "base-width-no-corpus",
        "phi-30-no-corpus",
    ],
)
def test_a_bad_plan_resolution_or_weight_is_one_error_line_for_any_command(capsys, argv, message, trained):
    if trained:
        run_chain(capsys, "gen-data", "train")
    before = {path: path.read_bytes() for path in Path(".").rglob("*") if path.is_file()}
    code, out, err = run(capsys, argv[0], "--config", "run.cfg", *argv[1:])
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert {path: path.read_bytes() for path in Path(".").rglob("*") if path.is_file()} == before


def test_explain_refuses_bad_weights_before_loading_the_model(capsys):
    # no checkpoint exists: the weights are refused first
    weights = "--ensemble-weights=2,2,2"
    code, out, err = run(capsys, "explain", "--config", "run.cfg", "--image", "a.ppm", weights)
    assert (code, out, err) == (1, "", "error: ensemble weights must sum to 1, got 6.0\n")


@pytest.mark.parametrize("checkpoint", ["a_directory", "a_file/m.ckpt"])
def test_train_refuses_an_unwritable_checkpoint_before_reading_corpus(capsys, checkpoint):
    # no corpus exists: the path must be refused first, in one error line
    Path("a_directory").mkdir()
    Path("a_file").write_bytes(b"")
    before = sorted(Path(".").rglob("*"))
    code, out, err = run(capsys, "train", "--config", "run.cfg", "--checkpoint", checkpoint)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write checkpoint {checkpoint}: ") and err.count("\n") == 1
    assert sorted(Path(".").rglob("*")) == before


def error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_fails_and_keeps_the_previous_checkpoint(capsys):
    run_chain(capsys, "gen-data", "train")
    previous = {name: Path(name).read_bytes() for name in ("model.ckpt", "model.ckpt.plan")}
    code, out, err = run(capsys, "train", "--config", "run.cfg", "--learning-rate", "1e200")
    assert code == 1
    assert out == ""
    assert len(error_lines(err)) == 1
    assert "training diverged" in err
    for name, content in previous.items():
        assert Path(name).read_bytes() == content, name


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rate", ["2", "10"])
def test_train_refuses_a_run_that_ends_above_chance_and_keeps_the_checkpoint(capsys, rate):
    run_chain(capsys, "gen-data", "train")
    previous = {name: Path(name).read_bytes() for name in ("model.ckpt", "model.ckpt.plan")}
    code, out, err = run(capsys, "train", "--config", "run.cfg", "--learning-rate", rate)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "above chance" in err and "training diverged" in err
    for name, content in previous.items():
        assert Path(name).read_bytes() == content, name


COLLAPSED = (
    "error: every train sample is predicted class 0, though both classes are present; "
    "training collapsed, try more data, more epochs or another learning rate\n"
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_refuses_a_run_that_collapses_and_keeps_the_checkpoint(capsys):
    # at 1e6 the 16 + 16 run ends below chance, but calls every face bona fide
    run_chain(capsys, "gen-data", "train")
    previous = {name: Path(name).read_bytes() for name in ("model.ckpt", "model.ckpt.plan")}
    assert run(capsys, "train", "--config", "run.cfg", "--learning-rate", "1e6") == (1, "", COLLAPSED)
    for name, content in previous.items():
        assert Path(name).read_bytes() == content, name


def test_train_refuses_a_run_that_predicts_one_class_at_defaults(capsys):
    # the default seed at learning rate 2 ends below chance, but calls every face bona fide
    assert run(capsys, "gen-data")[0] == 0
    code, out, err = run(capsys, "train", "--learning-rate", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "every train sample is predicted class 0, though both classes are present" in err
    assert not Path("model.ckpt").exists()


SIDE_HINT = "run `morphlens gen-data` with the same --phi and --base-resolution"


def test_train_and_eval_refuse_a_corpus_of_another_side(capsys):
    # a phi = 1 model takes 20-pixel faces, and the corpus holds 16-pixel ones
    run_chain(capsys, "gen-data")
    refused = f"error: a corpus image is 16x16 pixels, the model takes 20x20; {SIDE_HINT}\n"
    assert run(capsys, "train", "--config", "run.cfg", "--phi", "1") == (1, "", refused)
    assert not Path("model.ckpt").exists() and not Path("model.ckpt.plan").exists()
    run_chain(capsys, "train")
    kept = {name: Path(name).read_bytes() for name in ("model.ckpt", "model.ckpt.plan")}
    assert run(capsys, "train", "--config", "run.cfg", "--phi", "1") == (1, "", refused)
    assert {name: Path(name).read_bytes() for name in kept} == kept
    # the checkpoint's 16-pixel model against a corpus drawn again at 32 pixels
    assert run(capsys, "gen-data", "--config", "run.cfg", "--base-resolution", "32")[0] == 0
    refused = f"error: a corpus image is 32x32 pixels, the model takes 16x16; {SIDE_HINT}\n"
    assert run(capsys, "eval", "--config", "run.cfg") == (1, "", refused)
    assert not Path("out").exists()


def test_explain_and_dump_layer_refuse_an_image_of_another_side(capsys):
    # the checkpoint's model takes 16-pixel faces; nothing resizes a 20- or a 12-pixel one
    run_chain(capsys, "gen-data", "train")
    for flags, side in ((["--phi", "1"], 20), (["--base-resolution", "12"], 12)):
        corpus = f"corpus_{side}"
        assert run(capsys, "gen-data", "--config", "run.cfg", "--corpus-dir", corpus, *flags)[0] == 0
        image = f"{corpus}/bonafide/0000.ppm"
        refused = f"error: the image is {side}x{side} pixels, the model takes 16x16; nothing resizes an input image\n"
        for command, extra in (("explain", []), ("dump-layer", ["--layer-index", "0"])):
            assert run(capsys, command, "--config", "run.cfg", "--image", image, *extra) == (1, "", refused)
            assert not Path("out").exists()


@pytest.mark.parametrize("seed", ["1", "2"])
def test_the_papers_phi_1_passes_the_criterion_7_bars(capsys, seed):
    # EfficientNet-B1 is phi = 1: the desk defaults with 76-pixel faces for a 76-pixel model
    flags = ["--phi", "1", "--seed", seed]
    outputs = []
    for command in ("gen-data", "train", "eval"):
        code, out, err = run(capsys, command, *flags)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert load_corpus("corpus")[0].image.pixels.shape == (76, 76, 3)
    accuracy = [line for line in outputs[1].splitlines() if line.startswith("train_accuracy=")]
    assert float(accuracy[0].partition("=")[2]) >= 0.95
    assert parse_report(outputs[2])["hter"] <= 0.15


def test_train_refuses_a_tiny_learning_rate_as_collapsed_not_diverged(capsys):
    # two epochs at 1e-6 leave the head calling every face bona fide; that is no divergence
    run_chain(capsys, "gen-data")
    assert run(capsys, "train", "--config", "run.cfg", "--learning-rate", "1e-6") == (1, "", COLLAPSED)
    assert not Path("model.ckpt").exists() and not Path("model.ckpt.plan").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_warns_nothing_on_divergence(capsys):
    # a numpy overflow warning would raise here; stderr holds only the error line
    run_chain(capsys, "gen-data")
    code, out, err = run(capsys, "train", "--config", "run.cfg", "--learning-rate", "1e200")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "training diverged" in err


@pytest.mark.parametrize("phi", ["nan", "inf"])
def test_train_rejects_non_finite_phi_in_one_error_line(capsys, phi):
    run_chain(capsys, "gen-data")
    code, out, err = run(capsys, "train", "--config", "run.cfg", "--phi", phi)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "phi must be finite" in err
    assert not Path("model.ckpt").exists()


@pytest.mark.parametrize("phi", ["10000", "1e300"])
def test_train_rejects_an_overflowing_phi_in_one_error_line(capsys, phi):
    run_chain(capsys, "gen-data")
    code, out, err = run(capsys, "train", "--config", "run.cfg", "--phi", phi)
    assert code == 1
    assert out == ""
    assert len(error_lines(err)) == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "overflows" in err
    assert not Path("model.ckpt").exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "-1.0"])
def test_train_rejects_a_tau_that_is_not_finite_and_non_negative(capsys, tau):
    run_chain(capsys, "gen-data")
    code, out, err = run(capsys, "train", "--config", "run.cfg", f"--tau={tau}")
    assert code == 1
    assert out == ""
    assert err == f"error: tau must be finite and >= 0, got {tau}\n"
    assert not Path("model.ckpt").exists()


@pytest.mark.parametrize("seed", ["4294967297", "-4294967295", "4294967296", "-1"])
def test_gen_data_refuses_a_seed_that_aliases_a_32_bit_one(capsys, seed):
    # the generators keep a seed's low 32 bits, so 4294967297 and -4294967295 would draw seed 1's corpus
    code, out, err = run(capsys, "gen-data", "--n-bonafide", "8", "--n-morphed", "4", f"--seed={seed}")
    assert (code, out, err) == (1, "", f"error: seed must be in [0, 2**32), got {seed}\n")
    assert not Path("corpus").exists()


def test_train_rejects_a_huge_resolution_in_one_error_line(capsys):
    run_chain(capsys, "gen-data")
    code, out, err = run(capsys, "train", "--config", "run.cfg", "--base-resolution", "100000000")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "1024-pixel maximum" in err
    assert not Path("model.ckpt").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--base-resolution", "9" * 401],  # no float holds the base
        ["--alpha", "1", "--beta", "1", "--gamma", "1.41", "--phi", "2060"],  # base * gamma**phi is inf
    ],
)
def test_train_rejects_a_resolution_no_float_holds_in_one_error_line(capsys, flags):
    run_chain(capsys, "gen-data")
    code, out, err = run(capsys, "train", "--config", "run.cfg", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "1024-pixel maximum" in err
    assert not Path("model.ckpt").exists()


@pytest.mark.parametrize(
    "flag, reason", [("--base-width", "10000000-parameter maximum"), ("--base-depth", "16-block maximum")]
)
def test_train_rejects_an_oversized_plan_in_one_error_line(capsys, flag, reason):
    run_chain(capsys, "gen-data")
    code, out, err = run(capsys, "train", "--config", "run.cfg", flag, "100000")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert reason in err
    assert not Path("model.ckpt").exists()


# eval


def test_eval_writes_consistent_metrics(capsys):
    run_chain(capsys, "gen-data", "train")
    code, out, err = run(capsys, "eval", "--config", "run.cfg")
    assert code == 0, err
    text = Path("out/metrics.txt").read_text(encoding="ascii")
    assert text == out
    values = parse_report(text)
    assert values["tp"] + values["tn"] + values["fp"] + values["fn"] == 6
    if values["recall"] is not None and values["apcer"] is not None:
        assert values["recall"] + values["apcer"] == pytest.approx(1.0, abs=1e-12)
    if values["hter"] is not None:
        assert values["hter"] == pytest.approx((values["apcer"] + values["bpcer"]) / 2, abs=1e-12)


def test_eval_scores_in_chunks_the_classes_batch_one_predict_gives(capsys):
    run_chain(capsys, "gen-data", "train")
    model = cli._load_model(cli.resolve_config(cli._parser().parse_args(["eval", "--config", "run.cfg"])))
    test = split(load_corpus("corpus")).test
    predicted = [predict(model, preprocess(sample.image, model.input_resolution)).predicted_class for sample in test]
    expected = format_report(compute_metrics(confusion(predicted, [sample.label for sample in test])))
    for batch_size in ("1", "3", "64"):
        code, out, err = run(capsys, "eval", "--config", "run.cfg", "--batch-size", batch_size)
        assert (code, err) == (0, "")
        assert Path("out/metrics.txt").read_text(encoding="ascii") == out == expected


def test_eval_with_another_runs_sidecar_scores_the_corpus_test_split_alone(capsys, monkeypatch):
    run_chain(capsys, "gen-data")
    for seed, ckpt in (("1", "a.ckpt"), ("2", "b.ckpt")):
        code, _, err = run(capsys, "train", "--config", "run.cfg", "--seed", seed, "--checkpoint", ckpt)
        assert code == 0, err
    assert run(capsys, "eval", "--config", "run.cfg", "--checkpoint", "a.ckpt")[0] == 0
    own = Path("out/metrics.txt").read_bytes()
    shutil.copyfile("b.ckpt.plan", "a.ckpt.plan")
    scored = []
    real_inputs = cli.ModelInputs

    def recording_inputs(images, resolution):
        scored.extend(images)
        return real_inputs(images, resolution)

    monkeypatch.setattr(cli, "ModelInputs", recording_inputs)
    code, _, err = run(capsys, "eval", "--config", "run.cfg", "--checkpoint", "a.ckpt")
    assert (code, err) == (0, "")
    assert Path("out/metrics.txt").read_bytes() == own
    corpus = load_corpus("corpus")
    uid_of = {sample.image.pixels.tobytes(): sample.uid for sample in corpus}
    scored_uids = [uid_of[image.pixels.tobytes()] for image in scored]
    part = split(corpus)
    assert scored_uids == [sample.uid for sample in part.test]
    assert not set(scored_uids) & {sample.uid for sample in part.train}


@pytest.mark.parametrize("command", ["eval", "explain", "dump-layer"])
def test_a_sidecar_that_still_records_a_seed_is_refused_in_one_error_line(capsys, command):
    image = run_chain(capsys, "gen-data", "train")
    sidecar = Path("model.ckpt.plan")
    sidecar.write_text(sidecar.read_text(encoding="ascii") + "seed=1\n", encoding="ascii")
    extra = {"eval": [], "explain": ["--image", str(image)], "dump-layer": ["--image", str(image), "--layer-index", "1"]}
    code, out, err = run(capsys, command, "--config", "run.cfg", *extra[command])
    assert (code, out) == (1, "")
    assert error_lines(err) == [err.rstrip("\n")]
    assert "has key 'seed', which is not a plan key; retrain the checkpoint" in err
    assert not Path("out").exists()


def test_eval_of_an_empty_test_split_is_one_error_line(capsys):
    # two faces of one class both land in the train split
    sizes = ["--n-bonafide", "2", "--n-morphed", "0"]
    for command in ("gen-data", "train"):
        code, _, err = run(capsys, command, "--config", "run.cfg", *sizes)
        assert code == 0, err
    code, out, err = run(capsys, "eval", "--config", "run.cfg", *sizes)
    assert (code, out, err) == (1, "", "error: cannot tally an empty prediction list\n")


def test_eval_requires_checkpoint(capsys):
    run(capsys, "gen-data", "--config", "run.cfg")
    code, _, err = run(capsys, "eval", "--config", "run.cfg")
    assert code == 1
    assert err.startswith("error:")
    assert "train" in err


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_non_finite_checkpoint_is_refused_in_one_error_line(capsys, command):
    image = run_chain(capsys, "gen-data", "train")
    extra = ["--image", str(image)] if command == "explain" else []
    named = decode_params(Path("model.ckpt").read_bytes())
    name, values = named[0]
    values.flat[0] = np.nan
    Path("model.ckpt").write_bytes(encode_params(named))
    code, out, err = run(capsys, command, "--config", "run.cfg", *extra)
    assert code == 1
    assert out == ""
    assert error_lines(err) == [err.rstrip("\n")]
    assert repr(name) in err and "non-finite" in err
    assert not Path("out").exists()


# explain


def test_explain_writes_maps_overlays_and_vector(capsys):
    image = run_chain(capsys, "gen-data", "train")
    code, out, err = run(capsys, "explain", "--config", "run.cfg", "--image", str(image))
    assert code == 0, err
    names = sorted(p.name for p in Path("out").iterdir())
    assert names == [
        "cam.ppm",
        "cam.xhm",
        "ensemble.ppm",
        "ensemble.xhm",
        "ensemble_vec.xhm",
        "gradcam.ppm",
        "gradcam.xhm",
        "saliency.ppm",
        "saliency.xhm",
    ]
    vector, height, width = decode_feature_vector(Path("out/ensemble_vec.xhm").read_bytes())
    assert (height, width) == (16, 16)
    assert vector.shape == (3 * 16 * 16,)


def test_explain_rerun_is_byte_identical(capsys):
    image = run_chain(capsys, "gen-data", "train")
    run(capsys, "explain", "--config", "run.cfg", "--image", str(image))
    snapshots = {p.name: p.read_bytes() for p in Path("out").iterdir()}
    run(capsys, "explain", "--config", "run.cfg", "--image", str(image))
    for p in Path("out").iterdir():
        assert p.read_bytes() == snapshots[p.name], p.name


def test_explain_degenerate_weights_reduce_to_saliency(capsys):
    image = run_chain(capsys, "gen-data", "train")
    code, _, err = run(
        capsys,
        "explain",
        "--config",
        "run.cfg",
        "--image",
        str(image),
        "--ensemble-weights",
        "1,0,0",
    )
    assert code == 0, err
    assert Path("out/ensemble.ppm").read_bytes() == Path("out/saliency.ppm").read_bytes()
    # Raw map files share the payload; only the method token differs.
    ens = Path("out/ensemble.xhm").read_bytes().split(b"\n", 1)[1]
    sal = Path("out/saliency.xhm").read_bytes().split(b"\n", 1)[1]
    assert ens == sal


def test_explain_rejects_non_finite_weights_in_one_error_line(capsys):
    image = run_chain(capsys, "gen-data", "train")
    code, _, err = run(
        capsys, "explain", "--config", "run.cfg", "--image", str(image), "--ensemble-weights", "nan,0,1"
    )
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "ensemble weights must be finite" in err


@pytest.mark.parametrize(
    "weights, message",
    [
        ("1,1,1", "ensemble weights must sum to 1, got 3.0"),
        ("nan,0,1", "ensemble weights must be finite, got (nan, 0.0, 1.0)"),
        ("-1,1,1", "ensemble weights must be non-negative, got (-1.0, 1.0, 1.0)"),
    ],
)
def test_explain_weight_errors_print_plain_values(capsys, weights, message):
    image = run_chain(capsys, "gen-data", "train")
    code, out, err = run(
        capsys, "explain", "--config", "run.cfg", "--image", str(image), f"--ensemble-weights={weights}"
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_explain_runs_one_forward_and_one_backward(capsys, monkeypatch):
    image = run_chain(capsys, "gen-data", "train")
    calls = {"forward": 0, "backward": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(CnnModel, "forward", counting("forward", CnnModel.forward))
    monkeypatch.setattr(explain, "backward", counting("backward", explain.backward))
    code, _, err = run(capsys, "explain", "--config", "run.cfg", "--image", str(image))
    assert code == 0, err
    assert calls == {"forward": 1, "backward": 1}


def test_explain_colorizes_and_blends_the_four_maps_in_one_call(capsys, monkeypatch):
    image = run_chain(capsys, "gen-data", "train")
    calls = []

    def recording(name, fn):
        def recorded(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)

        return recorded

    monkeypatch.setattr(cli, "colorize", recording("colorize", cli.colorize))
    monkeypatch.setattr(cli, "superimpose", recording("superimpose", cli.superimpose))
    code, _, err = run(capsys, "explain", "--config", "run.cfg", "--image", str(image))
    assert code == 0, err
    assert [name for name, _ in calls] == ["colorize", "superimpose"]
    (_, (maps,)), (_, (_, heats)) = calls
    assert [m.method for m in maps] == ["saliency", "cam", "gradcam", "ensemble"]
    assert len(heats) == 4


def refuse_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew from the LCG")

    # uniform_array advances the state itself, without next_u32
    for name in ("next_u32", "normal_array", "uniform", "uniform_array"):
        monkeypatch.setattr(Lcg, name, refuse)


@pytest.mark.parametrize(
    "name, args",
    [
        ("next_u32", ()),
        ("uniform", ()),
        ("randint", (3,)),
        ("normal", ()),
        ("shuffle", ([1, 2, 3],)),
        ("uniform_array", (4,)),
        ("normal_array", (4,)),
    ],
)
def test_refuse_draws_catches_every_draw(monkeypatch, name, args):
    refuse_draws(monkeypatch)
    with pytest.raises(AssertionError, match="drew from the LCG"):
        getattr(Lcg(1), name)(*args)


def test_loading_a_checkpoint_draws_nothing_and_rebuilds_the_trained_model(capsys, monkeypatch):
    image = run_chain(capsys, "gen-data", "train")
    plan = load_plan_sidecar("model.ckpt.plan")
    assert plan == cli.resolve_config(cli._parser().parse_args(["train", "--config", "run.cfg"])).plan()
    built = build_model(plan, 3)
    saved = decode_params(Path("model.ckpt").read_bytes())
    refuse_draws(monkeypatch)
    model = cli._load_model(RunConfig())
    assert model.input_resolution == built.input_resolution
    assert [layer.kind for layer in model.layers] == [layer.kind for layer in built.layers]
    assert [(name, tensor.data.tobytes()) for name, tensor in model.parameters()] == [
        (name, values.tobytes()) for name, values in saved
    ]
    code, _, err = run(capsys, "explain", "--config", "run.cfg", "--image", str(image))
    assert code == 0, err


def test_explain_missing_image(capsys):
    run_chain(capsys, "gen-data", "train")
    code, _, err = run(capsys, "explain", "--config", "run.cfg", "--image", "ghost.ppm")
    assert code == 1
    assert err.startswith("error:")


def test_a_fifo_at_the_image_path_is_one_error_line_without_blocking(capsys):
    run_chain(capsys, "gen-data", "train")
    os.mkfifo("face.ppm")
    codes = []
    argv = ["explain", "--config", "run.cfg", "--image", "face.ppm"]
    worker = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "explain blocked on a FIFO at --image"
    assert codes == [1]
    assert capsys.readouterr().err == "error: image not found: face.ppm\n"


@pytest.mark.parametrize(
    "argv, path",
    [
        (["eval"], "model.ckpt"),
        (["eval"], "model.ckpt.plan"),
        (["eval"], "corpus/manifest.tsv"),
        (["explain", "--image", "corpus/morph/0000.ppm"], "corpus/morph/0000.ppm"),
    ],
    ids=["checkpoint", "sidecar", "manifest", "image"],
)
def test_a_directory_at_an_input_path_is_one_error_line_naming_it(capsys, argv, path):
    run_chain(capsys, "gen-data", "train")
    Path(path).unlink()
    Path(path).mkdir()
    code, out, err = run(capsys, argv[0], "--config", "run.cfg", *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert f" {path}" in err


def test_explain_rejects_out_of_range_class():
    with pytest.raises(SystemExit) as info:
        main(["explain", "--config", "run.cfg", "--image", "x.ppm", "--target-class", "2"])
    assert info.value.code == 2


# dump-layer


def test_dump_layer_writes_activation_grid(capsys):
    image = run_chain(capsys, "gen-data", "train")
    code, out, err = run(
        capsys, "dump-layer", "--config", "run.cfg", "--image", str(image), "--layer-index", "0"
    )
    assert code == 0, err
    grid = decode_pgm(Path("out/layer_00.pgm").read_bytes())
    # 3 input channels tile into a 2x2 grid of 16x16 cells.
    assert grid.shape == (32, 32)
    assert "layer 0" in out


@pytest.mark.parametrize("index, cells", [(5, 8), (6, 8), (7, 2)], ids=["gap", "dropout", "logits"])
def test_dump_layer_scales_a_feature_vector_by_its_own_range(capsys, index, cells):
    image = run_chain(capsys, "gen-data", "train")
    code, _, err = run(
        capsys, "dump-layer", "--config", "run.cfg", "--image", str(image), "--layer-index", str(index)
    )
    assert code == 0, err
    grid = decode_pgm(Path(f"out/layer_{index:02d}.pgm").read_bytes())
    # one 1x1 cell per feature, in the smallest square that holds them all
    side = math.isqrt(cells - 1) + 1
    assert grid.shape == (side, side)
    assert grid.max() == 255
    assert not grid.reshape(-1)[cells:].any()


def test_dump_layer_rejects_bad_index(capsys):
    image = run_chain(capsys, "gen-data", "train")
    code, _, err = run(
        capsys, "dump-layer", "--config", "run.cfg", "--image", str(image), "--layer-index", "99"
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "command, extra",
    [("eval", []), ("explain", []), ("dump-layer", ["--layer-index", "1"])],
)
@pytest.mark.parametrize(
    "phi, reason", [("10000.0", "overflows"), ("nan", "phi must be finite"), ("-1", "phi must be finite")]
)
def test_a_bad_phi_in_the_plan_sidecar_is_refused_in_one_error_line(capsys, command, extra, phi, reason):
    image = run_chain(capsys, "gen-data", "train")
    sidecar = Path("model.ckpt.plan")
    lines = sidecar.read_text(encoding="ascii").splitlines()
    assert lines[0].startswith("phi=")
    sidecar.write_text("\n".join([f"phi={phi}", *lines[1:]]) + "\n", encoding="ascii")
    if command != "eval":
        extra = ["--image", str(image), *extra]
    code, out, err = run(capsys, command, "--config", "run.cfg", *extra)
    assert code == 1
    assert out == ""
    assert error_lines(err) == [err.rstrip("\n")]
    assert reason in err
    assert not Path("out").exists()


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("base_width", "100000", "parameter maximum"),
        ("base_depth", "100000", "block maximum"),
        # a plan twice the width of the trained one: the checkpoint's shapes no longer fit
        (
            "base_width",
            "8",
            "error: checkpoint parameter 'conv0.kernels' has shape (4, 3, 3, 3), model expects (8, 3, 3, 3)\n",
        ),
    ],
    ids=["base_width-parameter maximum", "base_depth-block maximum", "base_width-checkpoint shape"],
)
def test_an_oversized_plan_in_the_sidecar_is_refused_in_one_error_line(capsys, key, value, reason):
    run_chain(capsys, "gen-data", "train")
    sidecar = Path("model.ckpt.plan")
    text = sidecar.read_text(encoding="ascii")
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line for line in text.splitlines()]
    sidecar.write_text("\n".join(lines) + "\n", encoding="ascii")
    code, out, err = run(capsys, "eval", "--config", "run.cfg")
    assert code == 1
    assert out == ""
    assert error_lines(err) == [err.rstrip("\n")]
    assert reason in err
    assert not Path("out").exists()


def test_a_401_digit_resolution_in_the_sidecar_is_refused_in_one_error_line(capsys):
    run_chain(capsys, "gen-data", "train")
    sidecar = Path("model.ckpt.plan")
    text = sidecar.read_text(encoding="ascii")
    assert "base_resolution=16\n" in text
    sidecar.write_text(text.replace("base_resolution=16\n", f"base_resolution={'9' * 401}\n"), encoding="ascii")
    code, out, err = run(capsys, "eval", "--config", "run.cfg")
    assert code == 1
    assert out == ""
    assert error_lines(err) == [err.rstrip("\n")]
    assert "1024-pixel maximum" in err
    assert not Path("out").exists()


def _append_non_ascii(path):
    Path(path).write_bytes(Path(path).read_bytes() + b"\xff\n")


def _corrupt_checkpoint_name(path):
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob.replace(b"MLNS1\n", b"MLNS1\n\xff", 1))


def _set_blend_weight(path, line_no, weight):
    lines = Path(path).read_text(encoding="ascii").splitlines(keepends=True)
    lines[line_no - 1] = lines[line_no - 1].rsplit("\t", 1)[0] + f"\t{weight}\n"
    Path(path).write_text("".join(lines), encoding="ascii")


@pytest.mark.parametrize(
    "command, corrupt, reason",
    [
        ("gen-data", lambda: _append_non_ascii("run.cfg"), "config file run.cfg is not ASCII text: byte 0xff"),
        ("eval", lambda: _append_non_ascii("model.ckpt.plan"), "plan sidecar model.ckpt.plan is not ASCII text"),
        ("train", lambda: _append_non_ascii("corpus/manifest.tsv"), "manifest corpus/manifest.tsv is not ASCII"),
        ("dump-layer", lambda: _corrupt_checkpoint_name("model.ckpt"), "non-ASCII parameter name"),
        # line 17 is the first morph of the 16 + 16 corpus
        (
            "eval",
            lambda: _set_blend_weight("corpus/manifest.tsv", 17, "x"),
            "error: manifest line 17 has blend weight 'x'\n",
        ),
    ],
    ids=["config", "sidecar", "manifest", "checkpoint", "manifest-blend-weight"],
)
def test_a_corrupt_text_file_is_refused_in_one_error_line(capsys, command, corrupt, reason):
    image = run_chain(capsys, "gen-data", "train")
    corrupt()
    extra = ["--image", str(image), "--layer-index", "1"] if command == "dump-layer" else []
    code, out, err = run(capsys, command, "--config", "run.cfg", *extra)
    assert code == 1
    assert out == ""
    assert error_lines(err) == [err.rstrip("\n")]
    assert reason in err


# the shared config flags

COMMANDS = {
    "gen-data": [],
    "train": [],
    "eval": [],
    "explain": ["--image", "a.ppm"],
    "dump-layer": ["--image", "a.ppm", "--layer-index", "1"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_takes_config_and_every_config_flag(command):
    flags = [f"--{key.replace('_', '-')}" for key in CONFIG_KEYS]
    argv = [command, *COMMANDS[command], "--config", "run.cfg"]
    for k, flag in enumerate(flags):
        argv += [flag, f"v{k}"]
    ns = cli.build_parser().parse_args(argv)
    assert ns.command == command
    assert ns.config == "run.cfg"
    assert [getattr(ns, f"opt_{key}") for key in CONFIG_KEYS] == [f"v{k}" for k in range(len(flags))]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_command_exits_2_on_an_unknown_flag(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, *COMMANDS[command], "--no-such-flag"])
    assert info.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err


# one parser per process


@pytest.fixture
def recorded(monkeypatch):
    """Every command records its resolved config and namespace instead of running."""
    calls = []

    def record(cfg, ns):
        calls.append((cfg, ns))
        return 0

    for command in cli._DISPATCH:
        monkeypatch.setitem(cli._DISPATCH, command, record)
    return calls


def test_a_flag_of_one_call_does_not_leak_into_the_next(recorded):
    assert main(["explain", "--image", "a.ppm", "--target-class", "0", "--seed", "7", "--epochs", "1"]) == 0
    assert main(["explain", "--image", "b.ppm"]) == 0
    assert main(["gen-data"]) == 0
    (first_cfg, first), (second_cfg, second), (third_cfg, third) = recorded
    assert (first.target_class, first_cfg.seed, first_cfg.epochs) == (0, 7, 1)
    assert (second.image, second.target_class, second_cfg.seed, second_cfg.epochs) == ("b.ppm", 1, 1, 5)
    assert vars(third_cfg) == vars(RunConfig())
    assert not hasattr(third, "image")


def test_an_unknown_flag_exits_2_after_a_successful_call(recorded, capsys):
    assert main(["gen-data", "--seed", "2"]) == 0
    with pytest.raises(SystemExit) as info:
        main(["gen-data", "--no-such-flag"])
    assert info.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert main(["gen-data"]) == 0
    assert [cfg.seed for cfg, _ in recorded] == [2, 1]


def test_main_builds_its_parser_once_per_process(recorded, monkeypatch):
    built, real = [], cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for command in sorted(COMMANDS) * 2:
            assert main([command, *COMMANDS[command]]) == 0
    finally:
        cli._parser.cache_clear()  # the next call builds with the real build_parser
    assert len(built) == 1
    assert len(recorded) == 2 * len(COMMANDS)


# config precedence: defaults < --config < flags, and nothing else


def test_flag_overrides_config_file(capsys):
    code, _, _ = run(capsys, "gen-data", "--config", "run.cfg", "--n-bonafide", "8")
    assert code == 0
    manifest = Path("corpus/manifest.tsv").read_text(encoding="ascii")
    assert len(manifest.splitlines()) == 24


def test_the_environment_does_not_change_the_seed(capsys, monkeypatch):
    def written(corpus_dir):
        assert run(capsys, "gen-data", "--config", "run.cfg", "--seed", "9", "--corpus-dir", corpus_dir)[0] == 0
        return {path.relative_to(corpus_dir): path.read_bytes() for path in Path(corpus_dir).rglob("*") if path.is_file()}

    monkeypatch.setenv("MORPHLENS_SEED", "5")
    with_env = written("with_env")
    monkeypatch.delenv("MORPHLENS_SEED")
    assert written("without") == with_env


# every artifact goes through config.write_file

CHAIN = (
    ["gen-data"],
    ["train"],
    ["eval"],
    ["explain", "--image", "corpus/morph/0000.ppm"],
    ["dump-layer", "--image", "corpus/morph/0000.ppm", "--layer-index", "1"],
)


def test_every_artifact_goes_through_write_file_and_a_rerun_writes_the_same_bytes(capsys, monkeypatch):
    written = []
    real_open = open

    def recording_open(path, mode="r", *args, **kwargs):
        written.append(os.path.normpath(path))
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(config, "open", recording_open, raising=False)
    snapshots = []
    for _ in range(2):
        written.clear()
        for argv in CHAIN:
            code, _, err = run(capsys, argv[0], "--config", "run.cfg", *argv[1:])
            assert code == 0, err
        outputs = sorted(str(p) for p in Path(".").rglob("*") if p.is_file() and p.name != "run.cfg")
        # images and manifest, checkpoint and sidecar, metrics, the nine explain files, the layer grid
        assert len(outputs) == 32 + 1 + 2 + 1 + 9 + 1
        assert sorted(set(written)) == outputs
        snapshots.append({name: Path(name).read_bytes() for name in outputs})
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize(
    "argv, output",
    [
        (["gen-data"], "corpus/manifest.tsv"),
        (["eval"], "out/metrics.txt"),
        (["explain", "--image", "corpus/morph/0000.ppm"], "out/cam.ppm"),
        (["explain", "--image", "corpus/morph/0000.ppm"], "out/ensemble_vec.xhm"),
        (["dump-layer", "--image", "corpus/morph/0000.ppm", "--layer-index", "1"], "out/layer_01.pgm"),
    ],
    ids=["gen-data", "eval", "explain-overlay", "explain-vector", "dump-layer"],
)
def test_a_directory_at_an_output_path_is_one_error_line(capsys, argv, output):
    run_chain(capsys, "gen-data", "train")
    Path(output).unlink(missing_ok=True)
    Path(output).mkdir(parents=True)
    (Path(output) / "inside").write_bytes(b"kept")
    code, out, err = run(capsys, argv[0], "--config", "run.cfg", *argv[1:])
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert output in err
    assert (Path(output) / "inside").read_bytes() == b"kept"


# the one-error-line contract for every flag value

HUGE = 10**400


def _float_flag(low, high):
    """A value in [low, high], or one that is not finite, negative, huge or not a number."""
    valid = st.floats(low, high, allow_nan=False)
    hostile = st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -1.0, 0.0]),
        st.floats(max_value=0.0, exclude_max=True),
    )
    text = st.sampled_from(["", "x", "1e", str(HUGE), f"-{HUGE}"])
    return st.one_of(valid.map(repr), hostile.map(repr), text)


def _int_flag(low, high, huge=True):
    """A value in [low, high], a negative or (if huge) huge one, or one that is not an integer.

    huge is False where a huge value is valid and only slow: more epochs or faces.
    """
    options = [st.integers(low, high), st.integers(max_value=-1), st.integers(-HUGE, -(10**18))]
    if huge:
        options += [st.integers(min_value=10**18), st.just(HUGE)]
    return st.one_of(st.one_of(options).map(str), st.sampled_from(["", "x", "1.5", "0x10"]))


# Valid values stay small: at most one epoch, 8 + 8 faces and 16-pixel images.
FLAG_VALUES = {
    "phi": _float_flag(0.0, 0.5),
    "alpha": _float_flag(1.0, 1.3),
    "beta": _float_flag(1.0, 1.3),
    "gamma": _float_flag(1.0, 1.3),
    "tau": _float_flag(0.0, 1.0),
    "learning_rate": _float_flag(1e-6, 10.0),
    "base_depth": _int_flag(1, 3),
    "base_width": _int_flag(1, 8),
    "base_resolution": _int_flag(8, 16),
    "batch_size": _int_flag(1, 32),
    "seed": _int_flag(0, 20),
    "epochs": _int_flag(0, 1, huge=False),
    "n_bonafide": _int_flag(0, 8, huge=False),
    "n_morphed": _int_flag(0, 8),
}


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """A corpus and a checkpoint trained on it from SMALL_CONFIG, and that config cut to one epoch."""
    root = tmp_path_factory.mktemp("prepared")
    config = root / "run.cfg"
    config.write_text(SMALL_CONFIG.replace("epochs=2", "epochs=1"), encoding="ascii")
    paths = ["--corpus-dir", str(root / "corpus"), "--checkpoint", str(root / "model.ckpt")]
    for command, extra in (("gen-data", []), ("train", ["--epochs", "2"])):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(config), *paths, *extra]) == 0
    return root


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["gen-data", "train", "eval"]),
    flags=st.fixed_dictionaries({}, optional=FLAG_VALUES),
)
# the prepared corpus is 16 pixels: base 15 at phi 0.5 plans that side, base 12 another
@example(command="train", flags={"base_resolution": "15", "phi": "0.5", "seed": "1"}).via("a plan of the corpus side")
@example(command="train", flags={"base_resolution": "12"}).via("a plan of another side")
def test_every_flag_value_ends_in_success_one_error_line_or_a_usage_error(prepared, command, flags):
    with tempfile.TemporaryDirectory(dir=prepared) as work:
        shutil.copytree(prepared / "corpus", Path(work) / "corpus")
        shutil.copy(prepared / "model.ckpt", work)
        shutil.copy(prepared / "model.ckpt.plan", work)
        argv = [command, "--config", str(prepared / "run.cfg"), "--corpus-dir", f"{work}/corpus"]
        argv += ["--checkpoint", f"{work}/model.ckpt", "--output-dir", f"{work}/out"]
        argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    if code == 1:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# training at batch 32 on the calling thread

# 40 faces at the default 64 pixels: one batch of 32 per epoch
BATCH_32_CONFIG = "n_bonafide=20\nn_morphed=20\nseed=1\n"


def run_child(code: str, cwd: Path) -> None:
    """Run code in a fresh interpreter that imports morphlens from this checkout."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_diverging_batch_32_run_prints_one_error_line(capsys):
    # the batch-32 convs run under train's errstate, so no overflow warning reaches stderr
    Path("batch32.cfg").write_text(BATCH_32_CONFIG, encoding="ascii")
    assert run(capsys, "gen-data", "--config", "batch32.cfg")[0] == 0
    code, out, err = run(capsys, "train", "--config", "batch32.cfg", "--learning-rate", "1e200")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "training diverged" in err


def test_a_batch_32_train_starts_no_thread():
    Path("batch32.cfg").write_text(BATCH_32_CONFIG, encoding="ascii")
    child = (
        "import sys, threading\n"
        "from morphlens.cli import main\n"
        "for command in ('gen-data', 'train'):\n"
        "    assert main([command, '--config', 'batch32.cfg']) == 0\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    run_child(child, Path.cwd())


@pytest.fixture(scope="module")
def trained_at_batch_32(tmp_path_factory):
    """The BATCH_32_CONFIG corpus and checkpoint, written by this process."""
    root = tmp_path_factory.mktemp("batch-32")
    (root / "batch32.cfg").write_text(BATCH_32_CONFIG, encoding="ascii")
    paths = ["--corpus-dir", str(root / "corpus"), "--checkpoint", str(root / "model.ckpt")]
    for command in ("gen-data", "train"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(root / "batch32.cfg"), *paths]) == 0
    return root


# the batch-32 reads of a checkpoint, and the batch-1 calls of explain and the gradient audit
AFTER_TRAIN = {
    "eval": "assert main(['eval', *paths]) == 0\n",
    "explain": "assert main(['explain', *paths, '--image', image]) == 0\n",
    "dump-layer": "assert main(['dump-layer', *paths, '--image', image, '--layer-index', '2']) == 0\n",
    "gradient-check": (
        "from morphlens.autodiff import gradient_check\n"
        "from morphlens.config import RunConfig\n"
        "from morphlens.model import ClassificationObjective, build_model\n"
        "from morphlens.rng import Lcg\n"
        "model = build_model(RunConfig().plan(), 1)\n"
        "gradient_check(ClassificationObjective(model, 1), Lcg(7).uniform_array((1, 3, 64, 64)))\n"
    ),
}


@pytest.mark.parametrize("step", AFTER_TRAIN)
def test_a_step_after_train_starts_no_thread(trained_at_batch_32, step):
    root = trained_at_batch_32
    child = (
        "import sys, threading\n"
        "from morphlens.cli import main\n"
        f"paths = ['--config', {str(root / 'batch32.cfg')!r}, '--corpus-dir', {str(root / 'corpus')!r},"
        f" '--checkpoint', {str(root / 'model.ckpt')!r}]\n"
        f"image = {str(root / 'corpus' / 'morph' / '0003.ppm')!r}\n"
        f"{AFTER_TRAIN[step]}"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    run_child(child, Path.cwd())


@pytest.mark.skipif(sys.platform != "linux", reason="the freed heap top is trimmed by glibc's malloc")
def test_a_long_lived_process_explains_without_faulting_its_heap_in_again(trained_at_batch_32):
    # a process that never trained still keeps its freed heap: autodiff sets the policy at import
    root = trained_at_batch_32
    child = (
        "import contextlib, io, resource\n"
        "from morphlens.cli import main\n"
        f"argv = ['explain', '--config', {str(root / 'batch32.cfg')!r}, '--checkpoint', {str(root / 'model.ckpt')!r},"
        f" '--image', {str(root / 'corpus' / 'morph' / '0003.ppm')!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(argv) == 0\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    for _ in range(50):\n"
        "        assert main(argv) == 0\n"
        "per_request = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50\n"
        "assert per_request < 20, per_request\n"
    )
    run_child(child, Path.cwd())


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to pin to one"
)
def test_a_run_pinned_to_one_cpu_writes_the_bytes_of_an_unpinned_one(capsys):
    Path("batch32.cfg").write_text(BATCH_32_CONFIG, encoding="ascii")
    for command in ("gen-data", "train"):
        code, _, err = run(capsys, command, "--config", "batch32.cfg")
        assert code == 0, err
    pinned = Path("pinned")
    pinned.mkdir()
    shutil.copy("batch32.cfg", pinned)
    child = (
        "import os\n"
        f"os.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n"
        "from morphlens.cli import main\n"
        "for command in ('gen-data', 'train'):\n"
        "    assert main([command, '--config', 'batch32.cfg']) == 0\n"
    )
    run_child(child, pinned)
    for name in ("model.ckpt", "model.ckpt.plan", "corpus/manifest.tsv"):
        assert (pinned / name).read_bytes() == Path(name).read_bytes(), name
