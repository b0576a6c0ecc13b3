"""Run configuration: defaults, typed parsing, the print/parse fixpoint, the one reader and the one writer."""

import os

import pytest

from morphlens import config
from morphlens.config import (
    CONFIG_KEYS,
    RunConfig,
    format_config,
    load_config,
    parse_config,
    parse_value,
    read_file,
    read_text,
    write_file,
)
from morphlens.errors import CliError, ExplainError, FormatError, PlanConstraintError


def test_defaults_match_training_contract():
    cfg = RunConfig()
    assert cfg.epochs == 5
    assert cfg.batch_size == 32
    assert cfg.learning_rate == 0.05
    assert cfg.seed == 1
    assert cfg.base_depth == 2
    assert cfg.base_width == 8
    assert cfg.base_resolution == 64
    assert cfg.n_bonafide == 128
    assert cfg.n_morphed == 128
    assert cfg.phi == 0.0
    assert sum(cfg.ensemble_weights) == pytest.approx(1.0)


def test_every_key_appears_in_formatted_output():
    text = format_config(RunConfig())
    for key in CONFIG_KEYS:
        assert f"{key}=" in text


def test_parse_print_parse_is_a_fixpoint():
    cfg = RunConfig()
    cfg.phi = 0.1
    cfg.learning_rate = 1.0 / 3.0
    cfg.ensemble_weights = (0.2, 0.3, 0.5)
    cfg.corpus_dir = "elsewhere"
    text = format_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert format_config(again) == text


def test_parse_overrides_only_named_keys():
    cfg = parse_config("epochs=9\nseed=42\n")
    assert cfg.epochs == 9
    assert cfg.seed == 42
    assert cfg.batch_size == 32


def test_parse_skips_blanks_and_comments():
    cfg = parse_config("\n# a note\n  \nepochs=3\n# epochs=99\n")
    assert cfg.epochs == 3


def test_parse_does_not_mutate_base():
    base = RunConfig()
    out = parse_config("epochs=7", base=base)
    assert out.epochs == 7
    assert base.epochs == 5


def test_weights_parse_with_spaces():
    assert parse_value("ensemble_weights", "0.5, 0.25,0.25") == (0.5, 0.25, 0.25)


def test_parse_value_type_errors():
    with pytest.raises(FormatError):
        parse_value("epochs", "five")
    with pytest.raises(FormatError):
        parse_value("learning_rate", "fast")
    with pytest.raises(FormatError):
        parse_value("ensemble_weights", "0.5,0.5")
    with pytest.raises(FormatError):
        parse_value("unknown_key", "1")


def test_parse_config_rejects_bad_lines():
    with pytest.raises(FormatError):
        parse_config("epochs 5\n")
    with pytest.raises(FormatError):
        parse_config("mystery=1\n")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=77\nbase_resolution=16\n", encoding="ascii")
    cfg = load_config(path)
    assert cfg.seed == 77
    assert cfg.base_resolution == 16
    with pytest.raises(FormatError):
        load_config(tmp_path / "absent.cfg")


def test_validate_accepts_the_defaults_and_the_edge_values():
    RunConfig().validate()
    RunConfig(epochs=0, batch_size=1, learning_rate=5e-324, n_bonafide=0, n_morphed=0).validate()
    RunConfig(phi=0.0, tau=0.08, base_resolution=1024).validate()
    RunConfig(base_resolution=1, ensemble_weights=(1.0, 0.0, 0.0)).validate()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("epochs", -1, "epochs must be >= 0, got -1"),
        ("batch_size", 0, "batch-size must be >= 1, got 0"),
        ("learning_rate", 0.0, "learning-rate must be positive and finite, got 0.0"),
        ("learning_rate", -0.5, "learning-rate must be positive and finite, got -0.5"),
        ("learning_rate", float("nan"), "learning-rate must be positive and finite, got nan"),
        ("learning_rate", float("inf"), "learning-rate must be positive and finite, got inf"),
        ("n_bonafide", -3, "corpus sizes must be non-negative"),
        ("n_morphed", -1, "corpus sizes must be non-negative"),
    ],
)
def test_validate_refuses_a_bad_schedule_or_corpus_size(key, value, message):
    with pytest.raises(CliError) as info:
        RunConfig(**{key: value}).validate()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "key, value, error, message",
    [
        ("phi", -1.0, PlanConstraintError, "phi must be finite and >= 0, got -1.0"),
        ("tau", float("nan"), PlanConstraintError, "tau must be finite and >= 0, got nan"),
        ("alpha", 0.5, PlanConstraintError, "alpha, beta, gamma must each be >= 1, got (0.5, 1.1, 1.15)"),
        ("base_resolution", 5000, CliError, "base resolution 5000 is above the 1024-pixel maximum"),
        ("base_resolution", 0, PlanConstraintError, "base depth, width, and resolution must be positive"),
        ("ensemble_weights", (2.0, 2.0, 2.0), ExplainError, "ensemble weights must sum to 1, got 6.0"),
        (
            "ensemble_weights",
            (-1.0, 1.0, 1.0),
            ExplainError,
            "ensemble weights must be non-negative, got (-1.0, 1.0, 1.0)",
        ),
    ],
)
def test_validate_refuses_a_bad_plan_resolution_or_weight(key, value, error, message):
    # the messages are those of plan_scaling and explain.ensemble, which make the same checks
    with pytest.raises(error) as info:
        RunConfig(**{key: value}).validate()
    assert str(info.value) == message


# read_file and read_text


@pytest.mark.parametrize("make", [lambda path: None, os.mkdir], ids=["missing", "directory"])
def test_read_file_refuses_a_missing_file_or_a_directory(tmp_path, make):
    target = tmp_path / "a.ppm"
    make(target)
    with pytest.raises(FormatError) as info:
        read_file(target, "image")
    assert str(info.value) == f"image not found: {target}"


def test_read_text_splits_lines_as_text_mode_did_and_names_a_non_ascii_byte(tmp_path):
    target = tmp_path / "run.cfg"
    target.write_bytes(b"seed=7\r\nepochs=2\rbase_width=3\n")
    assert read_text(target, "config file").splitlines() == ["seed=7", "epochs=2", "base_width=3"]
    cfg = load_config(target)
    assert (cfg.seed, cfg.epochs, cfg.base_width) == (7, 2, 3)
    target.write_bytes(b"seed=7\n\xe9\n")
    with pytest.raises(FormatError) as info:
        read_text(target, "config file")
    assert str(info.value) == f"config file {target} is not ASCII text: byte 0xe9 at offset 7"


# write_file


def test_write_file_creates_a_file_with_the_bytes(tmp_path):
    target = tmp_path / "a.bin"
    write_file(target, b"\x00payload\n")
    assert target.read_bytes() == b"\x00payload\n"


def test_rewriting_a_file_with_a_shorter_payload_leaves_exactly_the_new_bytes(tmp_path):
    target = tmp_path / "a.bin"
    write_file(target, b"a much longer first payload")
    write_file(target, b"short")
    assert target.read_bytes() == b"short"
    write_file(target, b"")
    assert target.read_bytes() == b""


def test_write_file_rewrites_the_file_in_place_and_keeps_its_links_and_mode(tmp_path):
    target = tmp_path / "a.bin"
    write_file(target, b"old bytes")
    target.chmod(0o600)
    held = tmp_path / "held.bin"
    os.link(target, held)
    inode = target.stat().st_ino
    write_file(target, b"new")
    assert target.stat().st_ino == inode and target.stat().st_mode & 0o777 == 0o600
    assert held.read_bytes() == b"new"


def test_write_file_empties_an_existing_file_on_a_descriptor_closed_before_the_write(tmp_path, monkeypatch):
    # truncating on the writing descriptor makes its close start writeback that the next truncate waits for
    events = []
    real_os_open, real_close, real_open = os.open, os.close, open

    def os_open(path, flags, *args):
        fd = real_os_open(path, flags, *args)
        events.append(("os.open", fd, bool(flags & os.O_TRUNC)))
        return fd

    def close(fd):
        events.append(("close", fd))
        real_close(fd)

    def spy_open(path, mode="r", *args, **kwargs):
        events.append(("open", mode))
        return real_open(path, mode, *args, **kwargs)

    target = tmp_path / "a.bin"
    write_file(target, b"a longer first payload")
    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(os, "close", close)
    monkeypatch.setattr(config, "open", spy_open, raising=False)
    write_file(target, b"short")
    monkeypatch.undo()
    assert target.read_bytes() == b"short"
    fd = events[1][1]
    assert events == [("open", "xb"), ("os.open", fd, True), ("close", fd), ("open", "r+b")]


def test_write_file_writes_through_a_symlink(tmp_path):
    pointed = tmp_path / "pointed.bin"
    pointed.write_bytes(b"old bytes")
    target = tmp_path / "a.bin"
    target.symlink_to(pointed)
    write_file(target, b"new")
    assert target.is_symlink() and pointed.read_bytes() == b"new"
    dangling = tmp_path / "dangling.bin"
    dangling.symlink_to(tmp_path / "absent.bin")
    write_file(dangling, b"new")
    assert (tmp_path / "absent.bin").read_bytes() == b"new"


def test_write_file_refuses_a_directory_and_leaves_it(tmp_path):
    (tmp_path / "a.bin").mkdir()
    (tmp_path / "a.bin" / "inside").write_bytes(b"kept")
    with pytest.raises(OSError):
        write_file(tmp_path / "a.bin", b"new")
    assert (tmp_path / "a.bin" / "inside").read_bytes() == b"kept"
