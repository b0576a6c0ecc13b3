"""Run configuration: defaults, typed parsing, and the print/parse fixpoint."""

import pytest

from morphlens.config import (
    CONFIG_KEYS,
    RunConfig,
    format_config,
    load_config,
    parse_config,
    parse_value,
)
from morphlens.errors import CliError, FormatError


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
