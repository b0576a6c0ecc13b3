"""Synthetic corpus: faces, morphs, preprocessing, model inputs, splits, disk round-trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphlens.data import (
    LAMBDA_MAX,
    LAMBDA_MIN,
    MAX_RESOLUTION,
    SPLIT_RATIO,
    DatasetSplit,
    LabeledImage,
    ModelInputs,
    Provenance,
    build_corpus,
    generate_face,
    load_corpus,
    morph,
    preprocess,
    save_corpus,
    split,
)
from morphlens.errors import DataError, FormatError
from morphlens.viz import RgbImage


def flat_face(value, uid="bf-x", size=8):
    pixels = np.full((size, size, 3), value, dtype=np.uint8)
    return LabeledImage(uid, RgbImage(pixels), 0, Provenance("generated"))


# generate_face


def test_generate_face_deterministic():
    a = generate_face(7, 3, 64)
    b = generate_face(7, 3, 64)
    assert np.array_equal(a.image.pixels, b.image.pixels)
    assert a.uid == b.uid == "bf-0003"


def test_generate_face_seeds_differ():
    for base in range(20):
        a = generate_face(base, 0, 32).image.pixels
        b = generate_face(base + 1000, 0, 32).image.pixels
        changed = (a != b).any(axis=2).mean()
        assert changed >= 0.01


def test_generate_face_contract():
    face = generate_face(1, 0, 16)
    assert face.label == 0
    assert face.provenance.kind == "generated"
    assert face.image.pixels.shape == (16, 16, 3)
    assert face.image.pixels.dtype == np.uint8
    with pytest.raises(DataError):
        generate_face(1, 0, 7)


def test_generate_face_rejects_a_side_above_the_cap():
    with pytest.raises(DataError, match=str(MAX_RESOLUTION)):
        generate_face(1, 0, MAX_RESOLUTION + 1)


def test_generate_face_has_structure():
    # face oval must change tone against the background, even under noise
    face = generate_face(5, 2, 64).image.pixels.astype(np.float64)
    center = face[24:40, 24:40].mean()
    corner = face[:8, :8].mean()
    assert center - corner > 20.0


# morph


def test_morph_midpoint_arithmetic():
    out = morph(flat_face(100, "a"), flat_face(200, "b"), 0.5)
    assert (out.image.pixels == 150).all()
    assert out.label == 1
    assert out.provenance == Provenance("blend", "a", "b", 0.5)


def test_morph_rejects_out_of_range_lambda():
    a, b = flat_face(10, "a"), flat_face(20, "b")
    with pytest.raises(DataError):
        morph(a, b, 0.1)
    with pytest.raises(DataError):
        morph(a, b, 0.76)


def test_morph_symmetry_dyadic():
    # exact only when 1 - (1 - lam) == lam, true for dyadic weights
    a = generate_face(3, 0, 32)
    b = generate_face(3, 1, 32)
    for lam in (0.25, 0.375, 0.5, 0.625, 0.75):
        left = morph(a, b, lam).image.pixels
        right = morph(b, a, 1.0 - lam).image.pixels
        assert np.array_equal(left, right)


def test_morph_pixels_between_parents():
    a = generate_face(9, 0, 32)
    b = generate_face(9, 1, 32)
    out = morph(a, b, 0.3).image.pixels.astype(np.int64)
    low = np.minimum(a.image.pixels, b.image.pixels).astype(np.int64) - 1
    high = np.maximum(a.image.pixels, b.image.pixels).astype(np.int64) + 1
    assert (out >= low).all() and (out <= high).all()


def test_morph_preconditions():
    a = flat_face(10, "a")
    with pytest.raises(DataError):
        morph(a, flat_face(20, "b", size=9), 0.5)
    morphed = morph(a, flat_face(20, "b"), 0.5)
    with pytest.raises(DataError):
        morph(morphed, a, 0.5)


def test_labeled_image_validation():
    pixels = RgbImage(np.zeros((8, 8, 3), dtype=np.uint8))
    with pytest.raises(DataError):
        LabeledImage("x", pixels, 2, Provenance("generated"))
    with pytest.raises(DataError):
        LabeledImage("x", pixels, 1, Provenance("generated"))
    with pytest.raises(DataError):
        LabeledImage("x", pixels, 1, Provenance("blend", "a", "b", 0.9))
    with pytest.raises(DataError):
        LabeledImage("x", pixels, 0, Provenance("blend", "a", "b", 0.5))


# build_corpus


def test_build_corpus_counts():
    corpus = build_corpus(2, 1, seed=3, resolution=16)
    assert len(corpus) == 3
    assert [s.label for s in corpus] == [0, 0, 1]


def test_build_corpus_deterministic():
    a = build_corpus(6, 4, seed=11, resolution=16)
    b = build_corpus(6, 4, seed=11, resolution=16)
    assert [s.uid for s in a] == [s.uid for s in b]
    for x, y in zip(a, b):
        assert np.array_equal(x.image.pixels, y.image.pixels)


def test_build_corpus_distinct_pairs_and_lambda_range():
    corpus = build_corpus(6, 10, seed=2, resolution=16)
    pairs = set()
    for sample in corpus:
        if sample.label == 1:
            p = sample.provenance
            key = tuple(sorted((p.source_a, p.source_b)))
            assert key not in pairs
            pairs.add(key)
            assert LAMBDA_MIN <= p.lam <= LAMBDA_MAX
    assert len(pairs) == 10


def test_build_corpus_infeasible():
    with pytest.raises(DataError):
        build_corpus(2, 2, seed=1, resolution=16)
    with pytest.raises(DataError):
        build_corpus(-1, 0, seed=1, resolution=16)


# preprocess


def test_preprocess_same_size_is_exact_division():
    face = generate_face(4, 0, 32)
    tensor = preprocess(face.image, 32)
    assert tensor.shape == (3, 32, 32)
    assert np.array_equal(tensor, face.image.pixels.astype(np.float64).transpose(2, 0, 1) / 255.0)


def test_preprocess_refuses_an_image_of_another_side():
    # nothing resizes an input image, larger or smaller than the model's side
    image = RgbImage(np.full((10, 10, 3), 51, dtype=np.uint8))
    for r in (8, 16, 33):
        with pytest.raises(DataError, match=f"^the image is 10x10 pixels, the model takes {r}x{r}; "):
            preprocess(image, r)


def test_preprocess_at_the_model_side_divides_every_byte_by_255():
    # every byte value once per channel, in a different order on each
    values = np.arange(256, dtype=np.uint8)
    pixels = np.stack([values, values[::-1], np.roll(values, 100)], axis=-1).reshape(16, 16, 3)
    tensor = preprocess(RgbImage(pixels), 16)
    assert tensor.dtype == np.float64 and tensor.flags.c_contiguous
    assert np.array_equal(tensor, pixels.transpose(2, 0, 1) / 255.0)
    assert tensor.tobytes() == ModelInputs([RgbImage(pixels)], 16)[0].tobytes()


def test_preprocess_refuses_a_side_below_8_as_an_image_of_another_side():
    with pytest.raises(DataError, match="^the image is 12x12 pixels, the model takes 7x7; "):
        preprocess(RgbImage(np.full((12, 12, 3), 100, dtype=np.uint8)), 7)


# model inputs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    side=st.integers(8, 20),
    other=st.integers(8, 20),
    off_side=st.lists(st.booleans(), min_size=5, max_size=5),
    rows=st.one_of(st.lists(st.integers(0, 4), max_size=8), st.slices(5)),
)
@example(side=16, other=12, off_side=[False] * 5, rows=[]).via("an empty index list")
@example(side=16, other=12, off_side=[False] * 5, rows=[3, 1, 3, 3]).via("repeated rows")
@example(side=16, other=12, off_side=[False] * 5, rows=slice(None, None, -2)).via("a reversed slice")
@example(side=16, other=12, off_side=[False] * 4 + [True], rows=[0]).via("one off-side image, the last")
@example(side=16, other=20, off_side=[True] * 5, rows=[0]).via("every image larger than the model side")
def test_a_batch_of_model_inputs_has_the_bytes_of_the_stacked_preprocess(side, other, off_side, rows):
    rng = np.random.default_rng(100 * side + other)
    images = [RgbImage(rng.integers(0, 256, size=(other if r else side,) * 2 + (3,), dtype=np.uint8)) for r in off_side]
    if other != side and any(off_side):
        # an off-side image raises DataError: nothing resizes it
        with pytest.raises(DataError, match=f"is {other}x{other} pixels, the model takes {side}x{side}; run"):
            ModelInputs(images, side)
        return
    inputs = ModelInputs(images, side)
    picked = range(5)[rows] if isinstance(rows, slice) else rows
    # an independent reference: preprocess shares ModelInputs' code
    pixels = np.stack([images[i].pixels for i in picked]) if len(picked) else np.empty((0, side, side, 3))
    expected = pixels.transpose(0, 3, 1, 2) / 255.0
    batch = inputs[rows]
    assert len(inputs) == 5
    assert batch.dtype == np.float64 and batch.shape == expected.shape
    assert batch.tobytes() == expected.tobytes()


def test_model_inputs_at_the_model_side_hold_the_uint8_pixels_alone():
    images = [generate_face(1, i, 64).image for i in range(16)]
    tracemalloc.start()
    try:
        inputs = ModelInputs(images, 64)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pixels = 16 * 3 * 64 * 64
    # one float64 image alone would be 8 * 3 * 64 * 64 bytes more
    assert pixels <= held <= peak < pixels + 4096
    assert len(inputs) == 16


# split


def test_split_exact_ten_samples():
    corpus = build_corpus(5, 5, seed=8, resolution=16)
    parts = split(corpus)
    assert isinstance(parts, DatasetSplit)
    assert len(parts.train) == 8 and len(parts.test) == 2
    assert sum(s.label for s in parts.train) == 4
    assert sum(s.label for s in parts.test) == 1


def test_split_deterministic_and_disjoint():
    corpus = build_corpus(8, 6, seed=2, resolution=16)
    a = split(corpus)
    b = split(corpus)
    assert [s.uid for s in a.train] == [s.uid for s in b.train]
    assert [s.uid for s in a.test] == [s.uid for s in b.test]
    train_ids = {s.uid for s in a.train}
    test_ids = {s.uid for s in a.test}
    assert not train_ids & test_ids
    assert len(train_ids) + len(test_ids) == len(corpus)


def test_split_ratio_within_one_sample_per_class():
    rng = np.random.default_rng(0)
    for trial in range(8):
        nb = int(rng.integers(3, 12))
        nm = int(rng.integers(1, nb * (nb - 1) // 2 + 1))
        corpus = build_corpus(nb, nm, seed=trial, resolution=16)
        parts = split(corpus)
        for label, total in ((0, nb), (1, nm)):
            got = sum(1 for s in parts.train if s.label == label)
            assert abs(got - SPLIT_RATIO * total) <= 0.5 + 1e-9


def test_split_errors():
    with pytest.raises(DataError):
        split([])


# save / load


def test_corpus_round_trip(tmp_path):
    corpus = build_corpus(4, 3, seed=6, resolution=16)
    save_corpus(tmp_path, corpus)
    manifest = (tmp_path / "manifest.tsv").read_text(encoding="ascii")
    lines = manifest.splitlines()
    assert len(lines) == 7
    assert lines[0].endswith("\t0\t-\t-\t-")
    assert len((tmp_path / "bonafide").glob("*.ppm").__iter__().__next__().read_bytes()) > 0
    loaded = load_corpus(tmp_path)
    assert len(loaded) == 7
    for original, copy in zip(corpus, loaded):
        assert original.uid == copy.uid
        assert original.label == copy.label
        assert np.array_equal(original.image.pixels, copy.image.pixels)
        if original.label == 1:
            assert copy.provenance.source_a == original.provenance.source_a
            assert copy.provenance.lam == pytest.approx(original.provenance.lam, abs=1e-6)


def test_saving_a_smaller_corpus_leaves_the_directory_matching_its_manifest(tmp_path):
    save_corpus(tmp_path, build_corpus(6, 6, seed=1, resolution=16))
    others = ["bonafide/notes.txt", "bonafide/0001.png", "morph/00009.ppm", "morph/12.ppm", "morph/0005.ppm.bak"]
    for name in others:
        (tmp_path / name).write_bytes(b"kept")
    save_corpus(tmp_path, build_corpus(3, 2, seed=1, resolution=16))
    labels = [line.split("\t")[1] for line in (tmp_path / "manifest.tsv").read_text(encoding="ascii").splitlines()]
    for sub, label in (("bonafide", "0"), ("morph", "1")):
        images = sorted(path.name for path in (tmp_path / sub).glob("[0-9][0-9][0-9][0-9].ppm"))
        assert images == [f"{index:04d}.ppm" for index in range(labels.count(label))]
    assert all((tmp_path / name).read_bytes() == b"kept" for name in others)
    assert len(load_corpus(tmp_path)) == 5


def test_load_corpus_errors(tmp_path):
    with pytest.raises(FormatError, match="^manifest not found: "):
        load_corpus(tmp_path)
    corpus = build_corpus(2, 1, seed=1, resolution=16)
    save_corpus(tmp_path, corpus)
    manifest = tmp_path / "manifest.tsv"
    good = manifest.read_text(encoding="ascii")

    manifest.write_text(good.replace("\t0\t", "\t7\t", 1), encoding="ascii")
    with pytest.raises(DataError):
        load_corpus(tmp_path)

    manifest.write_text("only\tfour\tfields\there\n", encoding="ascii")
    with pytest.raises(DataError):
        load_corpus(tmp_path)

    manifest.write_text(good, encoding="ascii")
    (tmp_path / "morph" / "0000.ppm").unlink()
    with pytest.raises(FormatError, match="^corpus image not found: "):
        load_corpus(tmp_path)
