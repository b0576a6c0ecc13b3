"""Gradient-based visual explanations and their stacking ensemble.

Three map families share one contract: float64 grids tagged with the method
that produced them and the class they explain.

* saliency: per-pixel max-over-channels |d score / d input pixel|.
* cam: the dense head's column for the target class contracted against the
  feature maps entering global average pooling; by construction the map's
  spatial mean plus the class bias reproduces the logit, which is asserted.
* gradcam: channel importance = spatial mean of d score / d those same
  feature maps, recombined with the maps and rectified. The pre-ReLU
  combination equals cam / (H * W), since pooling spreads the head weights
  uniformly over the grid.

All three read one forward and one backward of the class score; explain_all
returns them together from a single such pass.

The ensemble takes normalized same-size maps, forms a convex combination,
re-normalizes, and concatenates the flattened inputs (gradcam, cam,
saliency) into one feature vector.

Heatmap files: ASCII header "XHM1 H W method" on one line, then H * W
little-endian float64 values (3 * H * W with method "ensemble-vec").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, backward, select
from .config import read_header, read_size, write_file
from .errors import (
    ArchitectureError,
    ExplainError,
    FormatError,
    ResolutionMismatchError,
)
from .model import CnnModel, DenseLayer, DropoutLayer, GapLayer, single_image
from .resample import bilinear_resize

METHODS = ("saliency", "cam", "gradcam", "ensemble")
_VECTOR_METHOD = "ensemble-vec"


@dataclass(frozen=True, eq=False)
class Heatmap:
    """2-D importance map tagged with its method and target class."""

    values: np.ndarray
    method: str
    normalized: bool
    target_class: int | None = None

    def __post_init__(self):
        array = np.asarray(self.values, dtype=np.float64)
        if array.ndim != 2 or array.shape[0] < 1 or array.shape[1] < 1:
            raise ExplainError(f"heatmap values must be a non-empty 2-D grid, got shape {array.shape}")
        if self.method not in METHODS:
            raise ExplainError(f"unknown heatmap method {self.method!r}")
        if self.normalized:
            top = array.max()
            if array.min() < 0.0 or top > 1.0 or (top != 1.0 and top != 0.0):
                raise ExplainError("normalized heatmap must lie in [0, 1] with max 1 (or be all zero)")
        object.__setattr__(self, "values", array)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    combined: Heatmap
    feature_vector: np.ndarray


def _check_class(target_class: int) -> None:
    if target_class not in (0, 1):
        raise ExplainError(f"target class must be 0 or 1, got {target_class}")


# The activation index of the maps entering the pool, in a model _gap_head
# accepts: the pool, dropout and dense outputs follow them.
_POOL_INPUT = -4


def _gap_head(model: CnnModel) -> DenseLayer:
    layers = model.layers
    if (
        len(layers) < 3
        or not isinstance(layers[-3], GapLayer)
        or not isinstance(layers[-2], DropoutLayer)
        or not isinstance(layers[-1], DenseLayer)
    ):
        raise ArchitectureError("class-evidence maps need a pool -> dropout -> dense head")
    return layers[-1]


def _explained_pass(model: CnnModel, image, target_class: int) -> tuple[Tensor, list[Tensor]]:
    """One forward with the input on the tape, then one backward of the class score.

    Returns (logits, activations); activations[0] is the input, and every
    tensor on the tape holds its gradient of the class score.
    """
    x = Tensor(single_image(image), requires_grad=True)
    logits, activations = model.forward(x, train=False)
    backward(select(logits, target_class))
    return logits, activations


def _saliency(activations: list[Tensor], target_class: int) -> Heatmap:
    values = np.abs(activations[0].grad[0]).max(axis=0)
    return Heatmap(values, "saliency", normalized=False, target_class=target_class)


def _cam(head: DenseLayer, logits: Tensor, activations: list[Tensor], target_class: int) -> Heatmap:
    feature_maps = activations[_POOL_INPUT].data[0]  # (K, h, w)
    column = head.weights.data[:, target_class]
    values = np.tensordot(column, feature_maps, axes=([0], [0]))
    from_map = values.mean() + head.bias.data[target_class]
    direct = float(logits.data.reshape(-1)[target_class])
    if abs(from_map - direct) > 1e-9:
        raise ExplainError(
            f"map/score identity violated: mean(map) + bias = {from_map!r} but logit = {direct!r}"
        )
    return Heatmap(values, "cam", normalized=False, target_class=target_class)


def _gradcam(feature: Tensor, target_class: int, apply_relu: bool) -> tuple[Heatmap, np.ndarray]:
    importance = feature.grad[0].mean(axis=(1, 2))
    combination = np.tensordot(importance, feature.data[0], axes=([0], [0]))
    values = np.maximum(combination, 0.0) if apply_relu else combination
    return Heatmap(values, "gradcam", normalized=False, target_class=target_class), importance


def explain_all(model: CnnModel, image, target_class: int) -> tuple[Heatmap, Heatmap, Heatmap]:
    """(saliency, cam, gradcam) from one forward and one backward.

    cam and gradcam both read the maps entering the pool. Each map equals the
    one its own function returns, bit for bit.
    """
    _check_class(target_class)
    head = _gap_head(model)
    logits, activations = _explained_pass(model, image, target_class)
    return (
        _saliency(activations, target_class),
        _cam(head, logits, activations, target_class),
        _gradcam(activations[_POOL_INPUT], target_class, apply_relu=True)[0],
    )


def saliency_map(model: CnnModel, image, target_class: int) -> Heatmap:
    """Max over input channels of the absolute score gradient at each pixel."""
    _check_class(target_class)
    _, activations = _explained_pass(model, image, target_class)
    return _saliency(activations, target_class)


def cam(model: CnnModel, image, target_class: int) -> Heatmap:
    """Head-weight combination of the maps entering global average pooling.

    Also asserts the defining identity: mean(map) + class bias equals the
    logit the forward pass computed, to within 1e-9.
    """
    _check_class(target_class)
    head = _gap_head(model)
    logits, activations = _explained_pass(model, image, target_class)
    return _cam(head, logits, activations, target_class)


def gradcam(model: CnnModel, image, target_class: int, apply_relu: bool = True) -> tuple[Heatmap, np.ndarray]:
    """Rectified importance-weighted combination of the maps entering the pool.

    Needs the pool -> dropout -> dense head that cam needs. Returns the map
    and the per-channel importance. apply_relu=False returns the raw linear
    combination, which equals cam / (map cells).
    """
    _check_class(target_class)
    _gap_head(model)
    _, activations = _explained_pass(model, image, target_class)
    return _gradcam(activations[_POOL_INPUT], target_class, apply_relu)


def _normalize_values(values: np.ndarray) -> np.ndarray:
    low = values.min()
    high = values.max()
    if high == low:
        return np.zeros_like(values)
    return (values - low) / (high - low)


def normalize_map(heatmap: Heatmap) -> Heatmap:
    """Affine rescale onto [0, 1]; a constant map becomes all zeros."""
    return Heatmap(
        _normalize_values(heatmap.values), heatmap.method, normalized=True, target_class=heatmap.target_class
    )


def upsample(heatmap: Heatmap, height: int, width: int) -> Heatmap:
    """Corner-aligned bilinear enlargement to height x width."""
    if height < heatmap.height or width < heatmap.width:
        raise ResolutionMismatchError(
            f"upsample target {height}x{width} is smaller than the map {heatmap.height}x{heatmap.width}"
        )
    same = (height, width) == (heatmap.height, heatmap.width)
    return Heatmap(
        bilinear_resize(heatmap.values, height, width),
        heatmap.method,
        normalized=heatmap.normalized and same,
        target_class=heatmap.target_class,
    )


def check_weights(weights) -> np.ndarray:
    """Three finite, non-negative ensemble weights summing to 1, scaled to sum exactly 1."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (3,):
        raise ExplainError(f"ensemble needs exactly 3 weights, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ExplainError(f"ensemble weights must be finite, got {tuple(w.tolist())}")
    if (w < 0).any():
        raise ExplainError(f"ensemble weights must be non-negative, got {tuple(w.tolist())}")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ExplainError(f"ensemble weights must sum to 1, got {total!r}")
    return w / total


def ensemble(saliency: Heatmap, cam_map: Heatmap, gradcam_map: Heatmap, weights) -> EnsembleResult:
    """Convex combination of normalized same-size maps, re-normalized.

    weights follow the argument order (saliency, cam, gradcam); the feature
    vector concatenates the flattened maps as gradcam, cam, saliency.
    """
    maps = (saliency, cam_map, gradcam_map)
    for m in maps:
        if not m.normalized:
            raise ExplainError(f"ensemble needs normalized maps, {m.method} is not")
    shape = maps[0].values.shape
    if any(m.values.shape != shape for m in maps):
        sizes = ", ".join(f"{m.method} {m.height}x{m.width}" for m in maps)
        raise ResolutionMismatchError(f"ensemble maps differ in size: {sizes}")
    w = check_weights(weights)
    combined_raw = w[0] * maps[0].values + w[1] * maps[1].values + w[2] * maps[2].values
    classes = {m.target_class for m in maps}
    target_class = classes.pop() if len(classes) == 1 else None
    combined = Heatmap(_normalize_values(combined_raw), "ensemble", normalized=True, target_class=target_class)
    feature_vector = np.concatenate(
        [gradcam_map.values.ravel(), cam_map.values.ravel(), saliency.values.ravel()]
    )
    return EnsembleResult(combined, feature_vector)


def _encode(height: int, width: int, method: str, values: np.ndarray) -> bytes:
    header = f"XHM1 {height} {width} {method}\n".encode("ascii")
    return header + np.ascontiguousarray(values, dtype="<f8").tobytes()


def _decode(data: bytes, methods: tuple[str, ...]) -> tuple[int, int, str, np.ndarray]:
    fields, start = read_header(data, 0, "heatmap", ("magic", "height", "width", "method"))
    if len(fields) != 4 or fields[0] != "XHM1":
        raise FormatError(f"malformed heatmap header {' '.join(fields)[:80]!r}")
    height, width = read_size(fields[1], "heatmap height"), read_size(fields[2], "heatmap width")
    method = fields[3]
    if method not in methods:
        raise FormatError(f"heatmap method {method!r} is not one of {', '.join(methods)}")
    count = height * width * (3 if method == _VECTOR_METHOD else 1)
    payload = data[start:]
    if len(payload) != count * 8:
        raise FormatError(f"heatmap payload has {len(payload)} bytes, expected {count * 8}")
    return height, width, method, np.frombuffer(payload, dtype="<f8").copy()


def encode_heatmap(heatmap: Heatmap) -> bytes:
    return _encode(heatmap.height, heatmap.width, heatmap.method, heatmap.values)


def decode_heatmap(data: bytes) -> Heatmap:
    height, width, method, values = _decode(data, METHODS)
    return Heatmap(values.reshape(height, width), method, normalized=False)


def encode_feature_vector(values: np.ndarray, height: int, width: int) -> bytes:
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size != 3 * height * width:
        raise FormatError(f"feature vector has {flat.size} values, expected {3 * height * width}")
    return _encode(height, width, _VECTOR_METHOD, flat)


def decode_feature_vector(data: bytes) -> tuple[np.ndarray, int, int]:
    height, width, _, values = _decode(data, (_VECTOR_METHOD,))
    return values, height, width


def write_heatmap(path, heatmap: Heatmap) -> None:
    write_file(path, encode_heatmap(heatmap))
