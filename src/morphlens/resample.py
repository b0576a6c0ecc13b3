"""Corner-aligned bilinear resampling shared by preprocessing and heatmaps."""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


def bilinear_resize(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize (H, W) or (H, W, C) data so corners map exactly onto corners.

    Output row i samples the source at i * (in_h - 1) / (out_h - 1); a
    single-row or single-column source degenerates to replication. Same-size
    calls return an exact float64 copy.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.ndim not in (2, 3):
        raise ShapeMismatchError(f"bilinear_resize expects 2-D or 3-D data, got shape {array.shape}")
    in_h, in_w = array.shape[:2]
    if in_h < 1 or in_w < 1 or out_h < 1 or out_w < 1:
        raise ShapeMismatchError(f"bilinear_resize: degenerate size {array.shape[:2]} -> {(out_h, out_w)}")
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

    def plane(values: np.ndarray) -> np.ndarray:
        top = (1.0 - wx) * values[y0][:, x0] + wx * values[y0][:, x1]
        bottom = (1.0 - wx) * values[y1][:, x0] + wx * values[y1][:, x1]
        return (1.0 - wy) * top + wy * bottom

    if array.ndim == 2:
        return plane(array)
    # One channel at a time: broadcasting over a short last axis is slower.
    # The (H, W, C) result is a view of the channel-first stack.
    stack = np.empty((array.shape[2], out_h, out_w))
    for c in range(array.shape[2]):
        stack[c] = plane(array[:, :, c])
    return stack.transpose(1, 2, 0)
