"""Flat key=value text: the run configuration and the one reader and printer.

Config files, the checkpoint's plan sidecar and the metrics report share
this syntax: one key=value pair per line, blank lines and # comments
skipped, spaces around key and value ignored, a later key winning. Floats
are printed with repr so parse(format(cfg)) == cfg bit-for-bit; the
ensemble weights are one comma-separated triple.

Every input file is read by read_file (read_text for text) and every
artifact, text or binary, is written by write_file; binary headers are read by read_header.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import CliError, FormatError


@dataclass
class RunConfig:
    phi: float = 0.0
    alpha: float = 1.2
    beta: float = 1.1
    gamma: float = 1.15
    tau: float = 0.15
    base_depth: int = 2
    base_width: int = 8
    base_resolution: int = 64
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 1
    n_bonafide: int = 128
    n_morphed: int = 128
    ensemble_weights: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    corpus_dir: str = "corpus"
    checkpoint: str = "model.ckpt"
    output_dir: str = "out"

    def validate(self) -> None:
        """Refuse a value no command can run with, before a corpus, checkpoint or image is read.

        The plan's and the ensemble weights' checks are the ones train and
        explain apply, so each message matches theirs; raises MorphLensError.
        """
        from .explain import check_weights  # explain imports this module

        if self.epochs < 0:
            raise CliError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise CliError(f"batch-size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < math.inf:
            raise CliError(f"learning-rate must be positive and finite, got {self.learning_rate!r}")
        if self.n_bonafide < 0 or self.n_morphed < 0:
            raise CliError("corpus sizes must be non-negative")
        self.plan()
        check_weights(self.ensemble_weights)

    def plan(self):
        """The config's scaling plan; raises PlanConstraintError if no model can be built from it."""
        from .model import PLAN_KEYS, architecture, plan_scaling  # model imports this module

        plan = plan_scaling(**{key: getattr(self, key) for key in PLAN_KEYS}, tau=self.tau)
        architecture(plan)
        return plan


_KINDS: dict[str, str] = {}
for field in fields(RunConfig):
    if field.name == "ensemble_weights":
        _KINDS[field.name] = "weights"
    elif field.type in ("int", int):
        _KINDS[field.name] = "int"
    elif field.type in ("float", float):
        _KINDS[field.name] = "float"
    else:
        _KINDS[field.name] = "str"

CONFIG_KEYS = tuple(_KINDS)


def parse_value(key: str, raw: str):
    """Parse one config value by its key's type; raises FormatError."""
    if key not in _KINDS:
        raise FormatError(f"unknown config key {key!r}")
    kind = _KINDS[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "weights":
            parts = [p.strip() for p in raw.split(",")]
            if len(parts) != 3:
                raise ValueError(f"need 3 comma-separated values, got {len(parts)}")
            return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"bad value for {key}: {exc}") from None
    return raw


def format_value(key: str, value) -> str:
    """Print one config value so parse_value gives it back exactly."""
    kind = _KINDS[key]
    if kind == "float":
        return repr(value)
    if kind == "weights":
        return ",".join(repr(float(w)) for w in value)
    return str(value)


def parse_pairs(text: str, kind: str) -> dict[str, str]:
    """The key=value pairs of a file's text; kind names the file in errors."""
    pairs: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise FormatError(f"{kind} line {line_no} is not key=value: {line!r}")
        key, _, raw = stripped.partition("=")
        pairs[key.strip()] = raw.strip()
    return pairs


def format_pairs(pairs: dict[str, str]) -> str:
    return "".join(f"{key}={value}\n" for key, value in pairs.items())


def read_file(path, kind: str) -> bytes:
    """A file's whole content; kind names it in errors.

    Anything but a regular file (missing, a directory, a FIFO, a device) is
    a FormatError, checked before anything is opened, so a FIFO never blocks.
    Path.read_bytes reads it: in this module only write_file calls open.
    """
    target = Path(path)
    if not target.is_file():
        raise FormatError(f"{kind} not found: {target}")
    return target.read_bytes()


def read_text(path, kind: str) -> str:
    """A text file's content; a non-ASCII byte is a FormatError, as in read_file."""
    data = read_file(path, kind)
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        byte = data[exc.start]
        raise FormatError(f"{kind} {Path(path)} is not ASCII text: byte {byte:#04x} at offset {exc.start}") from None


def read_header(data: bytes, pos: int, kind: str, labels: tuple[str, ...]) -> tuple[list[str], int]:
    """The fields of the header line at data[pos:] and the offset past its newline.

    Every binary header line is ASCII, ends in a newline, and splits by single spaces into non-empty
    fields free of whitespace (encode_params's name rule); anything else is a FormatError naming
    kind, the file. labels name the fields, the last one any further ones.
    """
    end = data.find(b"\n", pos)
    if end < 0:
        raise FormatError(f"{kind} header line at byte {pos} has no newline")
    raw = data[pos:end]
    if not raw.isascii():
        bad = next(i for i, part in enumerate(raw.split(b" ")) if not part.isascii())
        raise FormatError(f"non-ASCII {labels[min(bad, len(labels) - 1)]} in {kind} header {raw[:80]!r}")
    line = raw.decode("ascii")
    fields = line.split(" ")
    if fields != line.split():
        raise FormatError(f"{kind} header {line[:80]!r} is not fields separated by single spaces")
    return fields, end + 1


def read_size(field: str, what: str) -> int:
    """A size field of a header: plain decimal digits with no leading zero, as the encoders write it."""
    if not field.isdigit() or field[0] == "0":
        raise FormatError(f"{what} {field!r} is not a positive decimal size")
    return int(field)


def write_file(path, data: bytes) -> None:
    """Write data as path's whole content; a directory at path raises OSError.

    A new file costs one exclusive create. An existing one is emptied on a
    descriptor of its own, closed before the write: ext4 (auto_da_alloc)
    starts writeback when a descriptor that truncated a file is closed, and
    the next truncate of that file then waits for it. The file, its links
    and its mode are kept, and a symlink is written through. Nothing is
    fsynced: after a crash the file may be empty, never new bytes on an old
    tail.
    """
    try:
        handle = open(path, "xb")
    except FileExistsError:
        os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666))
        handle = open(path, "r+b")
    with handle:
        handle.write(data)


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Apply key=value text to base, or to the defaults."""
    cfg = RunConfig(**vars(base)) if base is not None else RunConfig()
    for key, raw in parse_pairs(text, "config").items():
        setattr(cfg, key, parse_value(key, raw))
    return cfg


def format_config(cfg: RunConfig) -> str:
    return format_pairs({key: format_value(key, getattr(cfg, key)) for key in CONFIG_KEYS})


def load_config(path) -> RunConfig:
    return parse_config(read_text(path, "config file"))
