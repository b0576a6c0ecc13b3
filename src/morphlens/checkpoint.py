"""Binary parameter checkpoints: named float64 arrays, bit-exact round-trip.

Layout: the magic line "MLNS1\n", then per parameter one ASCII header line
"name dim0 dim1 ...\n" followed immediately by the row-major array payload
as little-endian 64-bit floats. Parameters keep their written order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .config import read_file, write_file
from .errors import FormatError

MAGIC = b"MLNS1\n"


def encode_params(named: Iterable[tuple[str, np.ndarray]]) -> bytes:
    chunks = [MAGIC]
    for name, array in named:
        if not name or any(ch.isspace() for ch in name):
            raise FormatError(f"parameter name {name!r} is empty or contains whitespace")
        values = np.asarray(array, dtype=np.float64)
        if values.ndim < 1:
            values = values.reshape(1)
        header = " ".join([name, *(str(d) for d in values.shape)])
        chunks.append(header.encode("ascii") + b"\n")
        chunks.append(np.ascontiguousarray(values).astype("<f8").tobytes())
    return b"".join(chunks)


def decode_params(data: bytes) -> list[tuple[str, np.ndarray]]:
    if not data.startswith(MAGIC):
        raise FormatError("bad checkpoint magic, expected MLNS1")
    pos = len(MAGIC)
    entries: list[tuple[str, np.ndarray]] = []
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline < 0:
            raise FormatError("truncated checkpoint header line")
        tokens = data[pos:newline].split(b" ")
        if len(tokens) < 2:
            raise FormatError(f"checkpoint header needs a name and dimensions, got {data[pos:newline]!r}")
        try:
            name = tokens[0].decode("ascii")
        except UnicodeDecodeError:
            raise FormatError(f"non-ASCII parameter name in checkpoint header {data[pos:newline]!r}") from None
        try:
            dims = tuple(int(t) for t in tokens[1:])
        except ValueError:
            raise FormatError(f"non-integer dimension in checkpoint header {data[pos:newline]!r}") from None
        if any(d < 1 for d in dims):
            raise FormatError(f"non-positive dimension in checkpoint header {data[pos:newline]!r}")
        count = int(np.prod(dims))
        start = newline + 1
        end = start + count * 8
        if end > len(data):
            raise FormatError(
                f"checkpoint payload for {name!r} has {len(data) - start} bytes, expected {count * 8}"
            )
        values = np.frombuffer(data[start:end], dtype="<f8").reshape(dims).copy()
        entries.append((name, values))
        pos = end
    return entries


def save_params(path, named: Sequence[tuple[str, np.ndarray]]) -> None:
    write_file(path, encode_params(named))


def load_params(path) -> list[tuple[str, np.ndarray]]:
    return decode_params(read_file(path, "checkpoint"))
