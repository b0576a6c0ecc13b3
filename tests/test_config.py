"""Run configuration: defaults, typed parsing, the print/parse fixpoint, the one reader, writer and header rule."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlens import config
from morphlens.checkpoint import decode_params, encode_params
from morphlens.config import (
    CONFIG_KEYS,
    RunConfig,
    format_config,
    load_config,
    parse_config,
    parse_value,
    read_file,
    read_header,
    read_size,
    read_text,
    write_file,
)
from morphlens.errors import CliError, ExplainError, FormatError, PlanConstraintError
from morphlens.explain import (
    Heatmap,
    decode_feature_vector,
    decode_heatmap,
    encode_feature_vector,
    encode_heatmap,
)
from morphlens.model import model_shapes, plan_scaling
from morphlens.viz import RgbImage, decode_pgm, decode_ppm, encode_pgm, encode_ppm


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
    RunConfig(seed=0).validate()
    RunConfig(seed=2**32 - 1).validate()
    # 1025 and 6 plan the 1024- and 8-pixel sides
    RunConfig(phi=0.0, tau=0.08, base_resolution=1025).validate()
    RunConfig(base_resolution=6, ensemble_weights=(1.0, 0.0, 0.0)).validate()


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
        ("seed", -1, "seed must be in [0, 2**32), got -1"),
        ("seed", 2**32, "seed must be in [0, 2**32), got 4294967296"),
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
        (
            "base_resolution",
            5000,
            PlanConstraintError,
            "scaled input resolution 5000 * 1.0 is above the 1024-pixel maximum",
        ),
        ("base_resolution", 5, PlanConstraintError, "scaled input resolution 4 is below the 8-pixel minimum"),
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
    # the messages are those of plan_scaling, model.architecture and explain.ensemble,
    # which make the same checks
    with pytest.raises(error) as info:
        RunConfig(**{key: value}).validate()
    assert str(info.value) == message


@pytest.mark.parametrize("phi", [0.0, 1.0, 3.0, 30.0])
def test_validate_refuses_exactly_the_plans_model_shapes_refuses(phi):
    outcomes = set()
    for depth, width, side in itertools.product((1, 2, 12, 17), (1, 8, 300, 10**5), (1, 5, 6, 64, 1025, 1026)):
        sizes = {"base_depth": depth, "base_width": width, "base_resolution": side}
        try:
            model_shapes(plan_scaling(phi, **sizes))
            expected = None
        except PlanConstraintError as exc:
            expected = str(exc)
        try:
            RunConfig(phi=phi, **sizes).validate()
            refused = None
        except PlanConstraintError as exc:
            refused = str(exc)
        assert refused == expected, sizes
        outcomes.add(expected is None)
    assert outcomes == ({False} if phi == 30.0 else {True, False})


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


# read_header and read_size: the one header rule of the binary artifacts


def test_read_header_returns_the_fields_and_the_offset_past_the_newline():
    assert read_header(b"P6\n3 2\n255\n", 3, "PPM", ("width", "height")) == (["3", "2"], 7)


@pytest.mark.parametrize(
    "line, message",
    [
        (b"3 2", "PPM header line at byte 0 has no newline"),
        (b"3 \xff\n", "non-ASCII height in PPM header b'3 \\xff'"),
        (b"3 2 \xff\n", "non-ASCII height in PPM header"),  # the last label names any further field
        (b"3  2\n", "PPM header '3  2' is not fields separated by single spaces"),
        (b"3\t2\n", "is not fields separated by single spaces"),
        (b"3\x1c2\n", "is not fields separated by single spaces"),  # str.isspace, as encode_params checks names
        (b" 3 2\n", "is not fields separated by single spaces"),
        (b"3 2\r\n", "is not fields separated by single spaces"),
        (b"\n", "is not fields separated by single spaces"),
    ],
)
def test_read_header_refuses_a_line_off_the_rule(line, message):
    with pytest.raises(FormatError) as info:
        read_header(line, 0, "PPM", ("width", "height"))
    assert message in str(info.value)


def test_read_header_quotes_at_most_80_bytes_of_a_bad_line():
    with pytest.raises(FormatError) as info:
        read_header(b"\xff" * 1000 + b"\n", 0, "checkpoint", ("magic",))
    assert len(str(info.value)) < 400


@pytest.mark.parametrize("field", ["0", "01", "+2", "-2", "1_0", "2.0", "1e3", "x"])
def test_read_size_takes_only_the_digits_an_encoder_writes(field):
    with pytest.raises(FormatError) as info:
        read_size(field, "heatmap width")
    assert f"heatmap width {field!r} is not a positive decimal size" in str(info.value)


def test_read_size_reads_a_canonical_size():
    assert read_size("1024", "heatmap width") == 1024


# Every decoder below either refuses its input with FormatError or gives back
# a value that encodes to exactly the input bytes.


@pytest.mark.parametrize(
    "decode, data",
    [
        (decode_ppm, b"P6\n03 1\n255\n" + bytes(9)),
        (decode_pgm, b"P5\n1 01\n255\n" + bytes(1)),
        (decode_heatmap, b"XHM1 02 1 cam\n" + bytes(16)),
        (decode_params, b"MLNS1\nw +2\n" + bytes(16)),
        (decode_params, b"MLNS1\nw 1_0\n" + bytes(80)),
        (decode_params, b"MLNS1\nw\t 1\n" + bytes(8)),
        (decode_params, b"MLNS1\n 1\n" + bytes(8)),
        (decode_heatmap, b"XHM1 1 1 \xff\n" + bytes(8)),
        (decode_params, b"MLNS1\nw 4294967296 4294967296\n" + bytes(8)),  # 2**64 values wrapped to 0 in int64
    ],
    ids=["ppm-leading-zero", "pgm-leading-zero", "heatmap-leading-zero", "checkpoint-sign",
         "checkpoint-underscore", "checkpoint-tab-in-name", "checkpoint-empty-name", "heatmap-non-ascii",
         "checkpoint-size-overflow"],
)
def test_a_non_canonical_header_is_a_format_error(decode, data):
    with pytest.raises(FormatError):
        decode(data)


def _checkpoint_header_bytes(named):
    """Offsets of the magic and of every parameter header line in encode_params(named)."""
    magic = len(encode_params([]))
    offsets = list(range(magic))
    for k, (_, array) in enumerate(named):
        start = len(encode_params(named[:k]))
        offsets += range(start, start + len(encode_params(named[k : k + 1])) - magic - array.nbytes)
    return offsets


_PARAMS = [("c.w", np.arange(6.0).reshape(1, 2, 3)), ("b", np.array([0.5, -1.0]))]
_PPM = encode_ppm(RgbImage(np.arange(36, dtype=np.uint8).reshape(3, 4, 3)))
_PGM = encode_pgm(np.arange(10, dtype=np.uint8).reshape(2, 5))
_HEATMAP = encode_heatmap(Heatmap(np.arange(6.0).reshape(2, 3), "gradcam", normalized=False))
_VECTOR = encode_feature_vector(np.arange(12.0), 2, 2)
# (valid encoding, offsets of its header bytes, decode then encode); a header is all but the payload
_CODECS = {
    "checkpoint": (
        encode_params(_PARAMS),
        _checkpoint_header_bytes(_PARAMS),
        lambda data: encode_params(decode_params(data)),
    ),
    "heatmap": (_HEATMAP, range(len(_HEATMAP) - 6 * 8), lambda data: encode_heatmap(decode_heatmap(data))),
    "feature vector": (
        _VECTOR,
        range(len(_VECTOR) - 12 * 8),
        lambda data: encode_feature_vector(*decode_feature_vector(data)),
    ),
    "ppm": (_PPM, range(len(_PPM) - 36), lambda data: encode_ppm(decode_ppm(data))),
    "pgm": (_PGM, range(len(_PGM) - 10), lambda data: encode_pgm(decode_pgm(data))),
}


def test_the_header_offsets_cover_exactly_the_header_lines():
    data, offsets, _ = _CODECS["checkpoint"]
    assert bytes(data[i] for i in offsets) == b"MLNS1\nc.w 1 2 3\nb 2\n"
    assert all(data[offsets[-1]] == ord("\n") for data, offsets, _ in _CODECS.values())
    assert all(reencode(data) == data for data, _, reencode in _CODECS.values())


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    codec=st.sampled_from(sorted(_CODECS)),
    edit=st.sampled_from(["insert", "delete", "replace"]),
    where=st.integers(min_value=0),
    byte=st.sampled_from(b"0123456789 \t\r\n+-_.xe\xff") | st.integers(0, 255),
)
def test_one_edited_header_byte_is_refused_or_decodes_to_exactly_the_edited_bytes(codec, edit, where, byte):
    data, offsets, reencode = _CODECS[codec]
    at = offsets[where % len(offsets)]
    tail = data[at + (edit != "insert") :]
    edited = data[:at] + (bytes([byte]) if edit != "delete" else b"") + tail
    try:
        again = reencode(edited)
    except FormatError:
        return
    assert again == edited
