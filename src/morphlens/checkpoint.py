"""Binary parameter checkpoints: named float64 arrays, bit-exact round-trip.

Layout: the magic line "MLNS1\n", then per parameter one ASCII header line
"name dim0 dim1 ...\n" followed immediately by the row-major array payload
as little-endian 64-bit floats. Parameters keep their written order.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .config import read_file, read_header, read_size, write_file
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
    magic, pos = read_header(data, 0, "checkpoint", ("magic",))
    if magic != ["MLNS1"]:
        raise FormatError("bad checkpoint magic, expected MLNS1")
    entries: list[tuple[str, np.ndarray]] = []
    while pos < len(data):
        fields, start = read_header(data, pos, "checkpoint", ("parameter name", "dimension"))
        name, *sizes = fields
        if not sizes:
            raise FormatError(f"checkpoint header needs a name and dimensions, got {name!r}")
        dims = tuple(read_size(size, "checkpoint dimension") for size in sizes)
        end = start + math.prod(dims) * 8
        if end > len(data):
            raise FormatError(
                f"checkpoint payload for {name!r} has {len(data) - start} bytes, expected {end - start}"
            )
        entries.append((name, np.frombuffer(data[start:end], dtype="<f8").reshape(dims).copy()))
        pos = end
    return entries


def save_params(path, named: Sequence[tuple[str, np.ndarray]]) -> None:
    write_file(path, encode_params(named))


def load_params(path) -> list[tuple[str, np.ndarray]]:
    return decode_params(read_file(path, "checkpoint"))
