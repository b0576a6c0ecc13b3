"""Colorization ramp, alpha blending, and the PGM/PPM byte codecs."""

import numpy as np
import pytest

from morphlens.errors import FormatError, ImageError
from morphlens.explain import Heatmap
from morphlens.viz import (
    OVERLAY_ALPHA,
    RgbImage,
    colorize,
    decode_pgm,
    decode_ppm,
    encode_pgm,
    encode_ppm,
    superimpose,
)


def unit_map(values):
    return Heatmap(np.asarray(values, dtype=np.float64), "ensemble", normalized=True)


# RgbImage


def test_rgb_image_accepts_integer_grids():
    image = RgbImage(np.zeros((2, 3, 3), dtype=np.int64))
    assert image.pixels.dtype == np.uint8
    assert image.height == 2
    assert image.width == 3


def test_rgb_image_rejects_bad_shapes_and_ranges():
    with pytest.raises(ImageError):
        RgbImage(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ImageError):
        RgbImage(np.zeros((2, 2, 4), dtype=np.uint8))
    with pytest.raises(ImageError):
        RgbImage(np.zeros((0, 2, 3), dtype=np.uint8))
    with pytest.raises(ImageError):
        RgbImage(np.full((2, 2, 3), 300, dtype=np.int64))
    with pytest.raises(ImageError):
        RgbImage(np.full((2, 2, 3), 0.5))


# colorize


def test_colorize_ramp_endpoints_and_midpoint():
    image = colorize([unit_map([[0.0, 0.5, 1.0]])])[0]
    assert tuple(image.pixels[0, 0]) == (0, 0, 255)
    assert tuple(image.pixels[0, 1]) == (0, 255, 0)
    assert tuple(image.pixels[0, 2]) == (255, 0, 0)


def test_colorize_quarter_points():
    image = colorize([unit_map([[0.25, 0.75, 1.0]])])[0]
    # v=0.25: red clamps to 0, green = 0.5, blue = 0.5 (rounds to 128).
    assert tuple(image.pixels[0, 0]) == (0, 128, 128)
    assert tuple(image.pixels[0, 1]) == (128, 128, 0)


def test_colorize_is_monotone_in_red_antitone_in_blue():
    grid = np.linspace(0.0, 1.0, 64).reshape(1, 64)
    image = colorize([unit_map(grid)])[0]
    red = image.pixels[0, :, 0].astype(int)
    blue = image.pixels[0, :, 2].astype(int)
    assert (np.diff(red) >= 0).all()
    assert (np.diff(blue) <= 0).all()


def test_colorize_rejects_unnormalized_maps():
    raw = Heatmap(np.array([[0.0, 3.0]]), "cam", normalized=False)
    with pytest.raises(ImageError):
        colorize([raw])


# superimpose


def test_superimpose_blend_arithmetic():
    base = RgbImage(np.full((1, 1, 3), 100, dtype=np.uint8))
    heat = RgbImage(np.array([[[200, 0, 0]]], dtype=np.uint8))
    out = superimpose(base, [heat])[0]
    assert tuple(out.pixels[0, 0]) == (140, 60, 60)


def test_superimpose_stays_between_inputs():
    rng = np.random.default_rng(1)
    base = RgbImage(rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8))
    heat = RgbImage(rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8))
    out = superimpose(base, [heat])[0].pixels.astype(int)
    low = np.minimum(base.pixels, heat.pixels).astype(int)
    high = np.maximum(base.pixels, heat.pixels).astype(int)
    assert (out >= low - 1).all()
    assert (out <= high + 1).all()


def test_superimpose_validation():
    base = RgbImage(np.zeros((2, 2, 3), dtype=np.uint8))
    heat = RgbImage(np.zeros((2, 3, 3), dtype=np.uint8))
    with pytest.raises(ImageError):
        superimpose(base, [heat])


# stacked colorize and superimpose


def ramp_reference(values):
    """The one-map ramp and byte rounding, written out per channel."""
    def to_byte(u):
        return np.floor(255.0 * u + 0.5).astype(np.uint8)

    red = np.clip(2.0 * values - 1.0, 0.0, 1.0)
    green = 1.0 - np.abs(2.0 * values - 1.0)
    blue = np.clip(1.0 - 2.0 * values, 0.0, 1.0)
    return np.stack([to_byte(red), to_byte(green), to_byte(blue)], axis=-1)


def blend_reference(base, heat):
    mixed = (1.0 - OVERLAY_ALPHA) * base.astype(np.float64) + OVERLAY_ALPHA * heat.astype(np.float64)
    return np.floor(mixed + 0.5).astype(np.uint8)


def tie_values():
    """Values v in [0, 1] where 255 * v + 0.5, or 255 * (2v - 1) + 0.5, is an integer."""
    grid = np.concatenate([np.arange(511) / 510.0, np.arange(1021) / 1020.0])
    ties = ((255.0 * grid + 0.5) % 1.0 == 0.0) | ((255.0 * np.abs(2.0 * grid - 1.0) + 0.5) % 1.0 == 0.0)
    return grid[ties]


def stack_maps():
    rng = np.random.default_rng(14)
    fixed = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    ties = tie_values()
    rows = [np.resize(fixed, 40), np.resize(ties, 40), rng.random(40), np.resize(ties[::-1], 40)]
    maps = []
    for row in rows:
        values = row.reshape(5, 8).copy()
        values[0, 0] = 1.0  # a normalized map has max 1
        maps.append(unit_map(values))
    return maps


def test_tie_values_hold_rounding_ties():
    ties = tie_values()
    assert ties.size >= 100
    assert 0.0 < ties.min() and ties.max() < 1.0


def test_stacked_colorize_equals_the_per_map_calls_byte_for_byte():
    maps = stack_maps()
    stacked = colorize(maps)
    assert isinstance(stacked, tuple) and len(stacked) == len(maps)
    for heatmap, image in zip(maps, stacked):
        (single,) = colorize([heatmap])
        assert image.pixels.tobytes() == single.pixels.tobytes()
        assert image.pixels.tobytes() == ramp_reference(heatmap.values).tobytes()


def test_stacked_superimpose_equals_the_per_map_calls_byte_for_byte():
    rng = np.random.default_rng(15)
    base = RgbImage(rng.integers(0, 256, size=(5, 8, 3)).astype(np.uint8))
    heats = list(colorize(stack_maps())) + [RgbImage(rng.integers(0, 256, size=(5, 8, 3)).astype(np.uint8))]
    stacked = superimpose(base, heats)
    assert isinstance(stacked, tuple) and len(stacked) == len(heats)
    for heat, image in zip(heats, stacked):
        (single,) = superimpose(base, [heat])
        assert image.pixels.tobytes() == single.pixels.tobytes()
        assert image.pixels.tobytes() == blend_reference(base.pixels, heat.pixels).tobytes()


def test_stacked_calls_refuse_an_empty_or_mixed_stack():
    maps = stack_maps()
    with pytest.raises(ImageError):
        colorize([])
    with pytest.raises(ImageError):
        colorize([maps[0], unit_map(np.ones((2, 2)))])
    with pytest.raises(ImageError):
        colorize([maps[0], Heatmap(np.ones((5, 8)), "cam", normalized=False)])
    base = RgbImage(np.zeros((5, 8, 3), dtype=np.uint8))
    with pytest.raises(ImageError):
        superimpose(base, [])
    with pytest.raises(ImageError):
        superimpose(base, [base, RgbImage(np.zeros((5, 7, 3), dtype=np.uint8))])


# PPM codec


def test_ppm_single_white_pixel_literal():
    image = RgbImage(np.full((1, 1, 3), 255, dtype=np.uint8))
    assert encode_ppm(image) == b"P6\n1 1\n255\n\xff\xff\xff"


def test_ppm_round_trip_is_exact():
    rng = np.random.default_rng(2)
    image = RgbImage(rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8))
    data = encode_ppm(image)
    again = decode_ppm(data)
    assert np.array_equal(again.pixels, image.pixels)
    assert encode_ppm(again) == data


def test_ppm_decode_rejects_malformed_input():
    good = encode_ppm(RgbImage(np.zeros((2, 3, 3), dtype=np.uint8)))
    with pytest.raises(FormatError):
        decode_ppm(b"P5" + good[2:])
    with pytest.raises(FormatError):
        decode_ppm(b"P6\n2 x\n255\n" + b"\x00" * 18)
    with pytest.raises(FormatError):
        decode_ppm(b"P6\n0 2\n255\n")
    with pytest.raises(FormatError):
        decode_ppm(b"P6\n3 2\n254\n" + b"\x00" * 18)
    with pytest.raises(FormatError):
        decode_ppm(b"P6\n3 2")


def test_ppm_truncated_payload_names_byte_counts():
    with pytest.raises(FormatError) as info:
        decode_ppm(b"P6\n3 2\n255\n" + b"\x00" * 17)
    assert "17" in str(info.value)
    assert "18" in str(info.value)


def test_ppm_header_orders_width_before_height():
    image = RgbImage(np.zeros((2, 5, 3), dtype=np.uint8))  # 2 rows, 5 columns
    assert encode_ppm(image).startswith(b"P6\n5 2\n255\n")
    assert decode_ppm(encode_ppm(image)).pixels.shape == (2, 5, 3)


# PGM codec


def test_pgm_round_trip_is_exact():
    rng = np.random.default_rng(3)
    gray = rng.integers(0, 256, size=(9, 7)).astype(np.uint8)
    data = encode_pgm(gray)
    assert data.startswith(b"P5\n7 9\n255\n")
    assert np.array_equal(decode_pgm(data), gray)


def test_pgm_encode_validation():
    with pytest.raises(ImageError):
        encode_pgm(np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(ImageError):
        encode_pgm(np.full((2, 2), 1.5))
    with pytest.raises(ImageError):
        encode_pgm(np.full((2, 2), -4, dtype=np.int64))


def test_pgm_decode_rejects_ppm_bytes():
    data = encode_ppm(RgbImage(np.zeros((2, 2, 3), dtype=np.uint8)))
    with pytest.raises(FormatError):
        decode_pgm(data)


def test_pgm_decode_truncated_payload():
    with pytest.raises(FormatError):
        decode_pgm(b"P5\n4 4\n255\n" + b"\x00" * 15)
