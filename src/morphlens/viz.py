"""Heatmap colorization, overlays, and binary PGM/PPM codecs.

All pixel math rounds half-up (floor(x + 0.5)) so outputs are bit-stable,
and the codecs write the canonical uncompressed netpbm layout: magic line,
"width height" line, "255" line, then the raw payload.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import read_header, read_size
from .errors import FormatError, ImageError

# Weight of the heat image in every overlay.
OVERLAY_ALPHA = 0.4


def _as_uint8(array: np.ndarray, refusal: str) -> np.ndarray:
    """array as uint8 if it is uint8 or integers in [0, 255]; else ImageError(refusal + its dtype)."""
    if array.dtype == np.uint8:
        return array
    if not np.issubdtype(array.dtype, np.integer) or array.min() < 0 or array.max() > 255:
        raise ImageError(f"{refusal}, got {array.dtype}")
    return array.astype(np.uint8)


@dataclass(frozen=True, eq=False)
class RgbImage:
    """H x W x 3 uint8 pixel grid."""

    pixels: np.ndarray

    def __post_init__(self):
        array = np.asarray(self.pixels)
        if array.ndim != 3 or array.shape[2] != 3:
            raise ImageError(f"RgbImage needs an (H, W, 3) array, got shape {array.shape}")
        if array.shape[0] < 1 or array.shape[1] < 1:
            raise ImageError(f"RgbImage dimensions must be positive, got shape {array.shape}")
        object.__setattr__(self, "pixels", _as_uint8(array, "RgbImage pixels must be uint8 or integers in [0, 255]"))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _to_byte(unit_values: np.ndarray) -> np.ndarray:
    return np.floor(255.0 * unit_values + 0.5).astype(np.uint8)


def colorize(heatmaps: Sequence) -> tuple[RgbImage, ...]:
    """Map normalized heatmaps onto a blue (0) -> green (0.5) -> red (1) ramp.

    The same-size maps are stacked on a leading axis and colorized in one
    pass, one RgbImage each; a lone map is the one-map stack.
    """
    maps = tuple(heatmaps)
    if not maps or any(m.values.shape != maps[0].values.shape for m in maps):
        raise ImageError("colorize needs one or more heatmaps of one size")
    if not all(m.normalized for m in maps):
        raise ImageError("colorize needs a normalized heatmap")
    v = np.stack([m.values for m in maps])
    red = np.clip(2.0 * v - 1.0, 0.0, 1.0)
    green = 1.0 - np.abs(2.0 * v - 1.0)
    blue = np.clip(1.0 - 2.0 * v, 0.0, 1.0)
    pixels = np.stack([_to_byte(red), _to_byte(green), _to_byte(blue)], axis=-1)
    return tuple(RgbImage(p) for p in pixels)


def superimpose(base: RgbImage, heats: Sequence[RgbImage]) -> tuple[RgbImage, ...]:
    """Per-channel blend round((1 - OVERLAY_ALPHA) * base + OVERLAY_ALPHA * heat) of each heat.

    The heats are stacked and blended onto base in one pass, one RgbImage each.
    """
    heats = tuple(heats)
    if not heats:
        raise ImageError("superimpose needs at least one heat image")
    for h in heats:
        if base.pixels.shape != h.pixels.shape:
            raise ImageError(
                f"superimpose: base {base.height}x{base.width} and heat {h.height}x{h.width} differ"
            )
    stacked = np.stack([h.pixels for h in heats]).astype(np.float64)
    mixed = (1.0 - OVERLAY_ALPHA) * base.pixels.astype(np.float64) + OVERLAY_ALPHA * stacked
    return tuple(RgbImage(p) for p in np.floor(mixed + 0.5).astype(np.uint8))


def _parse_netpbm(data: bytes, kind: str, magic: str, channels: int) -> tuple[int, int, bytes]:
    fields, pos = read_header(data, 0, kind, ("magic",))
    if fields != [magic]:
        raise FormatError(f"bad {kind} magic, expected {magic}")
    dims, pos = read_header(data, pos, kind, ("width", "height"))
    maxval, pos = read_header(data, pos, kind, ("maxval",))
    if len(dims) != 2 or maxval != ["255"]:
        raise FormatError(f"{kind} header needs 'width height' and maxval 255, got {' '.join(dims + maxval)[:80]!r}")
    width, height = read_size(dims[0], f"{kind} width"), read_size(dims[1], f"{kind} height")
    payload = data[pos:]
    expected = width * height * channels
    if len(payload) != expected:
        raise FormatError(f"payload has {len(payload)} bytes, expected {expected}")
    return width, height, payload


def encode_ppm(image: RgbImage) -> bytes:
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.pixels.tobytes()


def decode_ppm(data: bytes) -> RgbImage:
    width, height, payload = _parse_netpbm(data, "PPM", "P6", 3)
    return RgbImage(np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy())


def encode_pgm(gray: np.ndarray) -> bytes:
    array = np.asarray(gray)
    if array.ndim != 2 or array.shape[0] < 1 or array.shape[1] < 1:
        raise ImageError(f"encode_pgm needs a non-empty 2-D array, got shape {array.shape}")
    array = _as_uint8(array, "encode_pgm needs uint8 data")
    header = f"P5\n{array.shape[1]} {array.shape[0]}\n255\n".encode("ascii")
    return header + np.ascontiguousarray(array).tobytes()


def decode_pgm(data: bytes) -> np.ndarray:
    width, height, payload = _parse_netpbm(data, "PGM", "P5", 1)
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()
