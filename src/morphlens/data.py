"""Synthetic face corpus: generation, morphing, model inputs, splits, disk layout.

Faces are parametric (oval face region, two eye blobs, a mouth bar) over a
noisy background; every parameter comes from the seeded LCG so a corpus is a
pure function of its seed. Morphs are pixelwise blends of two distinct bona
fide faces, which leaves the classic blend artifacts: ghosted part edges and
flattened local contrast (averaging two independent noise fields shrinks its
amplitude by up to 1/sqrt(2)).

Nothing here resizes an image: a model input is its pixels divided by 255,
and an image whose side is not the model's is a DataError.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, read_file, read_text, write_file
from .errors import DataError
from .resample import bilinear_resize  # noqa: F401 -- names the benchmark tracer patches
from .rng import Lcg, derive_seed, noise_grid
from .viz import RgbImage, decode_ppm, encode_ppm

_FACE_STREAM = 0xFACE
_NOISE_STREAM = 0x701E
_PAIR_STREAM = 0x9A13
_SPLIT_STREAM = 0x5B17

# Uniform per-pixel noise amplitude, in 8-bit intensity units. Kept high so
# blending two faces measurably flattens local contrast, and sized so the
# darkest face tone minus the amplitude still stays above zero (no clipping,
# which would skew the noise statistics the classifier keys on).
NOISE_AMPLITUDE = 75.0

# Largest image side a face or a model input may have. A side this large
# already needs about 25 MB per float64 RGB image; a much larger one only
# ends in a failed allocation deep inside numpy.
MAX_RESOLUTION = 1024

LAMBDA_MIN = 0.25
LAMBDA_MAX = 0.75

# Share of each class that split puts in the train side.
SPLIT_RATIO = 0.8


@dataclass(frozen=True)
class Provenance:
    """Where a sample came from: generated directly, or blended from two ids."""

    kind: str  # "generated" | "blend"
    source_a: str | None = None
    source_b: str | None = None
    lam: float | None = None


@dataclass(frozen=True, eq=False)
class LabeledImage:
    uid: str
    image: RgbImage
    label: int  # 0 = bona fide, 1 = morphed
    provenance: Provenance

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label}")
        if self.label == 0 and self.provenance.kind != "generated":
            raise DataError("bona fide samples must carry generated provenance")
        if self.label == 1:
            p = self.provenance
            if p.kind != "blend" or p.source_a is None or p.source_b is None or p.lam is None:
                raise DataError("morphed samples must carry blend provenance")
            if not LAMBDA_MIN <= p.lam <= LAMBDA_MAX:
                raise DataError(f"blend weight {p.lam} outside [{LAMBDA_MIN}, {LAMBDA_MAX}]")


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    train: list[LabeledImage]
    test: list[LabeledImage]


def _check_face_resolution(resolution: int) -> None:
    if not 8 <= resolution <= MAX_RESOLUTION:
        raise DataError(f"face resolution must be in [8, {MAX_RESOLUTION}], got {resolution}")


def generate_face(seed: int, index: int, resolution: int = RunConfig.base_resolution) -> LabeledImage:
    """Deterministic synthetic face: all geometry and tones are LCG draws."""
    _check_face_resolution(resolution)
    rng = Lcg(derive_seed(seed, _FACE_STREAM, index))
    res = resolution
    yy, xx = np.mgrid[0:res, 0:res].astype(np.float64)

    canvas = np.empty((res, res, 3), dtype=np.float64)
    background = rng.uniform(85.0, 105.0)
    for channel in range(3):
        canvas[:, :, channel] = background + rng.uniform(-6.0, 6.0)

    skin = np.array([rng.uniform(160.0, 180.0), rng.uniform(135.0, 155.0), rng.uniform(115.0, 135.0)])
    cx = res * rng.uniform(0.47, 0.53)
    cy = res * rng.uniform(0.47, 0.53)
    rx = res * rng.uniform(0.24, 0.28)
    ry = res * rng.uniform(0.33, 0.37)
    face = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
    canvas[face] = skin

    eye_y = cy - ry * rng.uniform(0.28, 0.36)
    eye_dx = rx * rng.uniform(0.40, 0.50)
    eye_r = res * rng.uniform(0.035, 0.050)
    eye_tone = rng.uniform(80.0, 100.0)
    for side in (-1.0, 1.0):
        eye = (xx - (cx + side * eye_dx)) ** 2 + (yy - eye_y) ** 2 <= eye_r**2
        canvas[eye] = eye_tone

    mouth_y = cy + ry * rng.uniform(0.40, 0.50)
    mouth_hw = rx * rng.uniform(0.40, 0.55)
    mouth_hh = res * rng.uniform(0.020, 0.035)
    mouth_tone = rng.uniform(90.0, 110.0)
    mouth = (np.abs(xx - cx) <= mouth_hw) & (np.abs(yy - mouth_y) <= mouth_hh)
    canvas[mouth] = mouth_tone

    canvas += noise_grid(derive_seed(seed, _NOISE_STREAM, index), res, res, NOISE_AMPLITUDE)[:, :, None]
    pixels = np.clip(np.floor(canvas + 0.5), 0.0, 255.0).astype(np.uint8)
    return LabeledImage(
        uid=f"bf-{index:04d}",
        image=RgbImage(pixels),
        label=0,
        provenance=Provenance("generated"),
    )


def morph(a: LabeledImage, b: LabeledImage, lam: float, uid: str | None = None) -> LabeledImage:
    """Pixelwise blend round(lam * a + (1 - lam) * b), labeled as an attack."""
    if a.label != 0 or b.label != 0:
        raise DataError("morph parents must both be bona fide")
    if a.image.pixels.shape != b.image.pixels.shape:
        raise DataError(
            f"morph parents differ in size: {a.image.pixels.shape} vs {b.image.pixels.shape}"
        )
    if not LAMBDA_MIN <= lam <= LAMBDA_MAX:
        raise DataError(f"blend weight {lam} outside [{LAMBDA_MIN}, {LAMBDA_MAX}]")
    blended = lam * a.image.pixels.astype(np.float64) + (1.0 - lam) * b.image.pixels.astype(np.float64)
    pixels = np.floor(blended + 0.5).astype(np.uint8)
    return LabeledImage(
        uid=uid if uid is not None else f"mp-{a.uid}x{b.uid}",
        image=RgbImage(pixels),
        label=1,
        provenance=Provenance("blend", a.uid, b.uid, float(lam)),
    )


def build_corpus(
    n_bonafide: int = RunConfig.n_bonafide, n_morphed: int = RunConfig.n_morphed, seed: int = RunConfig.seed,
    resolution: int = RunConfig.base_resolution,
) -> list[LabeledImage]:
    """Bona fide faces followed by morphs over distinct unordered pairs."""
    if n_bonafide < 0 or n_morphed < 0:
        raise DataError("corpus sizes must be non-negative")
    _check_face_resolution(resolution)  # also when the corpus is empty
    max_pairs = n_bonafide * (n_bonafide - 1) // 2
    if n_morphed > max_pairs:
        raise DataError(
            f"{n_morphed} morphs requested but only {max_pairs} distinct pairs exist "
            f"for {n_bonafide} bona fide faces"
        )
    faces = [generate_face(seed, i, resolution) for i in range(n_bonafide)]
    rng = Lcg(derive_seed(seed, _PAIR_STREAM))
    used: set[tuple[int, int]] = set()
    morphs: list[LabeledImage] = []
    while len(morphs) < n_morphed:
        i = rng.randint(n_bonafide)
        j = rng.randint(n_bonafide)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in used:
            continue
        used.add(key)
        lam = rng.uniform(LAMBDA_MIN, LAMBDA_MAX)
        morphs.append(morph(faces[i], faces[j], lam, uid=f"mp-{len(morphs):04d}"))
    return faces + morphs


def _channel_first(image: RgbImage, resolution: int, what: str, remedy: str) -> np.ndarray:
    """The image's uint8 pixels channel-first; DataError if its side is not the model's."""
    height, width = image.pixels.shape[:2]
    if (height, width) != (resolution, resolution):
        raise DataError(
            f"{what} is {height}x{width} pixels, the model takes {resolution}x{resolution}; {remedy}"
        )
    return image.pixels.transpose(2, 0, 1)


def preprocess(image: RgbImage, resolution: int) -> np.ndarray:
    """One image at the model's side as a model input: its pixels divided by 255, channel-first."""
    pixels = _channel_first(image, resolution, "the image", "nothing resizes an input image")
    return np.ascontiguousarray(pixels) / 255.0


class ModelInputs:
    """A split's images at the model's side as one channel-first uint8 stack; `inputs[rows]` divides them by 255.

    An image of another side is a DataError: nothing here resizes.
    """

    def __init__(self, images: list[RgbImage], resolution: int):
        self._stack = np.empty((len(images), 3, resolution, resolution), dtype=np.uint8)
        remedy = "run `morphlens gen-data` with the same --phi and --base-resolution"
        for row, image in zip(self._stack, images):
            row[...] = _channel_first(image, resolution, "a corpus image", remedy)

    def __len__(self) -> int:
        return len(self._stack)

    def __getitem__(self, rows) -> np.ndarray:
        return np.divide(self._stack[rows], 255.0)


def split(corpus: list[LabeledImage], seed: int) -> DatasetSplit:
    """Seeded stratified partition; each class is cut at round(SPLIT_RATIO * n)."""
    if not corpus:
        raise DataError("cannot split an empty corpus")
    rng = Lcg(derive_seed(seed, _SPLIT_STREAM))
    train: list[LabeledImage] = []
    test: list[LabeledImage] = []
    for label in (0, 1):
        members = [s for s in corpus if s.label == label]
        order = list(range(len(members)))
        rng.shuffle(order)
        n_train = int(np.floor(SPLIT_RATIO * len(members) + 0.5))
        train.extend(members[i] for i in order[:n_train])
        test.extend(members[i] for i in order[n_train:])
    rng.shuffle(train)
    rng.shuffle(test)
    return DatasetSplit(train, test)


def save_corpus(directory, corpus: list[LabeledImage]) -> None:
    """Write bonafide/NNNN.ppm, morph/NNNN.ppm, and manifest.tsv.

    Manifest columns: id, label, source_a, source_b, lambda (6 decimals);
    bona fide rows carry "-" in the blend columns. One newline-terminated
    row per image, no header, rows in corpus order; an empty corpus writes an
    empty manifest, which load_corpus reads back as an empty corpus. Images
    an earlier, larger corpus left there (NNNN.ppm past the new counts) are
    deleted, so the directory matches its manifest; no other name is touched.
    """
    root = Path(directory)
    (root / "bonafide").mkdir(parents=True, exist_ok=True)
    (root / "morph").mkdir(parents=True, exist_ok=True)
    counters = {0: 0, 1: 0}
    rows = []
    for sample in corpus:
        sub = "bonafide" if sample.label == 0 else "morph"
        index = counters[sample.label]
        counters[sample.label] += 1
        write_file(root / sub / f"{index:04d}.ppm", encode_ppm(sample.image))
        if sample.label == 1:
            p = sample.provenance
            rows.append(f"{sample.uid}\t1\t{p.source_a}\t{p.source_b}\t{p.lam:.6f}")
        else:
            rows.append(f"{sample.uid}\t0\t-\t-\t-")
    write_file(root / "manifest.tsv", "".join(f"{row}\n" for row in rows).encode("ascii"))
    for label, sub in ((0, "bonafide"), (1, "morph")):
        for path in (root / sub).glob("*.ppm"):
            index = int(path.stem) if path.stem.isascii() and path.stem.isdigit() else -1
            if index >= counters[label] and path.name == f"{index:04d}.ppm":
                path.unlink()


def load_corpus(directory) -> list[LabeledImage]:
    root = Path(directory)
    samples: list[LabeledImage] = []
    counters = {0: 0, 1: 0}
    text = read_text(root / "manifest.tsv", "manifest")
    for line_no, line in enumerate(text.splitlines(), 1):
        fields = line.split("\t")
        if len(fields) != 5:
            raise DataError(f"manifest line {line_no} has {len(fields)} fields, expected 5")
        uid, label_text, source_a, source_b, lam_text = fields
        if label_text not in ("0", "1"):
            raise DataError(f"manifest line {line_no} has label {label_text!r}")
        label = int(label_text)
        sub = "bonafide" if label == 0 else "morph"
        path = root / sub / f"{counters[label]:04d}.ppm"
        counters[label] += 1
        image = decode_ppm(read_file(path, "corpus image"))
        if label == 1:
            try:
                lam = float(lam_text)
            except ValueError:
                raise DataError(f"manifest line {line_no} has blend weight {lam_text!r}") from None
            provenance = Provenance("blend", source_a, source_b, lam)
        else:
            provenance = Provenance("generated")
        samples.append(LabeledImage(uid, image, label, provenance))
    return samples
