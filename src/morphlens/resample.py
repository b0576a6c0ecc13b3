"""Corner-aligned bilinear resampling of 2-D maps, which enlarges heatmaps."""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


def bilinear_resize(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (H, W) data so corners map exactly onto corners.

    Output row i samples the source at i * (in_h - 1) / (out_h - 1); a
    single-row or single-column source degenerates to replication. Same-size
    calls return an exact float64 copy.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 2:
        raise ShapeMismatchError(f"bilinear_resize expects 2-D data, got shape {array.shape}")
    in_h, in_w = array.shape
    if in_h < 1 or in_w < 1 or out_h < 1 or out_w < 1:
        raise ShapeMismatchError(f"bilinear_resize: degenerate size {array.shape} -> {(out_h, out_w)}")
    if (out_h, out_w) == (in_h, in_w):
        return array.copy()
    ys = np.arange(out_h, dtype=np.float64) * ((in_h - 1) / (out_h - 1) if out_h > 1 else 0.0)
    xs = np.arange(out_w, dtype=np.float64) * ((in_w - 1) / (out_w - 1) if out_w > 1 else 0.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0).reshape(out_h, 1)
    wx = (xs - x0).reshape(1, out_w)
    top = (1.0 - wx) * array[y0][:, x0] + wx * array[y0][:, x1]
    bottom = (1.0 - wx) * array[y1][:, x0] + wx * array[y1][:, x1]
    return (1.0 - wy) * top + wy * bottom
