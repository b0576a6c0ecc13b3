"""Compound-scaled CNN: planning, construction, training, prediction, dumps.

The architecture is a stack of conv/ReLU blocks (3x3 kernels, stride 2,
padding 1, so each block halves the grid) closed by a fixed head: global
average pooling, dropout(0.5), and a dense layer producing two logits
(index 0 = bona fide, 1 = morphed). Depth, width, and input resolution all
scale from one knob phi through per-axis coefficients.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff
from .autodiff import Tensor, backward, no_grad, softmax_cross_entropy
from .config import RunConfig, format_pairs, format_value, parse_pairs, parse_value, read_text, write_file
from .data import MAX_RESOLUTION, NOISE_AMPLITUDE, LabeledImage, ModelInputs
from .data import preprocess  # noqa: F401 -- names the benchmark tracer patches
from .errors import (
    DataError,
    FormatError,
    LayerIndexError,
    PlanConstraintError,
    ResolutionMismatchError,
    TrainingError,
)
from .rng import Lcg, derive_seed

_INIT_STREAM = 0x1217
_SHUFFLE_STREAM = 0x7767
_DROPOUT_STREAM = 0xD706

DROPOUT_RATE = 0.5
KERNEL_SIZE = 3
# Caps on a planned model, checked before anything is allocated. Ten blocks
# take the largest input to one cell, so 16 leaves room; 10 million float64
# parameters take 80 MB per copy. Widths double per block, so in practice the
# parameter cap stops a plan after about a dozen blocks.
MAX_DEPTH = 16
MAX_PARAMETERS = 10_000_000
# Nats by which train's last-epoch loss may exceed chance before the run
# counts as diverged; an untrained model, with its zero head, sits at chance.
DIVERGENCE_MARGIN = 0.05
CONV_STRIDE = 2
CONV_PADDING = 1
NUM_CLASSES = 2

# Initialization profile. First-stage kernels are contrast probes: a spatial
# pattern orthogonal to flat patches and to both linear shading ramps, so a
# unit responds to fine texture but not to smooth tone changes. The negative
# bias parks each probe _PROBE_THRESHOLD stds below its own noise response,
# which makes the rectified mean grow faster than linearly with local
# contrast. The second stage pairs zero-sum kernels with constant negative
# "absence" kernels whose positive bias fires when the stage below is quiet,
# giving the pooled features both signs of class correlation from step one.
_PROBE_GAIN = 4.0  # kernel scale relative to sqrt(2 / fan_in)
_PROBE_THRESHOLD = 1.2
_ABSENCE_RATIO = 0.5  # absence tap strength relative to _PROBE_GAIN
_ABSENCE_MARGIN = 0.8  # absence firing point as a fraction of the quiet-input drive
# E[relu(z - t)] for standard normal z at t = _PROBE_THRESHOLD.
_RECTIFIED_MEAN = math.exp(-_PROBE_THRESHOLD**2 / 2.0) / math.sqrt(2.0 * math.pi) - (
    _PROBE_THRESHOLD * 0.5 * math.erfc(_PROBE_THRESHOLD / math.sqrt(2.0))
)


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


@dataclass(frozen=True)
class ScalingPlan:
    """Compound-scaling exponent and coefficients plus the base dimensions."""

    phi: float
    alpha: float
    beta: float
    gamma: float
    base_depth: int
    base_width: int
    base_resolution: int

    def __post_init__(self):
        """Refuse a plan no model can be built from, however it was constructed."""
        if not (math.isfinite(self.phi) and self.phi >= 0):
            raise PlanConstraintError(f"phi must be finite and >= 0, got {self.phi}")
        if not (self.alpha >= 1 and self.beta >= 1 and self.gamma >= 1):
            raise PlanConstraintError(
                f"alpha, beta, gamma must each be >= 1, got ({self.alpha}, {self.beta}, {self.gamma})"
            )
        if self.base_depth < 1 or self.base_width < 1 or self.base_resolution < 1:
            raise PlanConstraintError("base depth, width, and resolution must be positive")
        try:
            self.depth_mult, self.width_mult, self.resolution_mult
        except OverflowError:
            message = f"phi = {self.phi!r} overflows alpha^phi, beta^phi or gamma^phi"
            raise PlanConstraintError(message) from None

    @property
    def depth_mult(self) -> float:
        return self.alpha**self.phi

    @property
    def width_mult(self) -> float:
        return self.beta**self.phi

    @property
    def resolution_mult(self) -> float:
        return self.gamma**self.phi


# The plan's fields, each also a config key: the CLI plans from them and the
# checkpoint sidecar records them and nothing else.
PLAN_KEYS = tuple(field.name for field in fields(ScalingPlan))


def plan_scaling(
    phi: float,
    alpha: float = RunConfig.alpha,
    beta: float = RunConfig.beta,
    gamma: float = RunConfig.gamma,
    base_depth: int = RunConfig.base_depth,
    base_width: int = RunConfig.base_width,
    base_resolution: int = RunConfig.base_resolution,
    tau: float = RunConfig.tau,
) -> ScalingPlan:
    """Derive depth/width/resolution multipliers alpha^phi, beta^phi, gamma^phi.

    The coefficients must satisfy alpha * beta^2 * gamma^2 in [2 - tau, 2 + tau]
    so one step of phi roughly doubles the model's cost; ScalingPlan itself
    refuses a bad phi, coefficient or base size and a multiplier that
    overflows a float.
    """
    plan = ScalingPlan(
        phi=float(phi),
        alpha=float(alpha),
        beta=float(beta),
        gamma=float(gamma),
        base_depth=int(base_depth),
        base_width=int(base_width),
        base_resolution=int(base_resolution),
    )
    if not (math.isfinite(tau) and tau >= 0):
        raise PlanConstraintError(f"tau must be finite and >= 0, got {tau!r}")
    try:
        product = alpha * beta**2 * gamma**2
    except OverflowError:  # a float power raises where a product would reach inf
        product = math.inf
    if not (2.0 - tau) <= product <= (2.0 + tau):
        raise PlanConstraintError(
            f"alpha * beta^2 * gamma^2 = {product!r} outside [{2.0 - tau!r}, {2.0 + tau!r}]"
        )
    return plan


class ConvLayer:
    kind = "conv"

    def __init__(self, name: str, kernels: Tensor, bias: Tensor, stride: int, padding: int):
        self.name = name
        self.kernels = kernels
        self.bias = bias
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        return autodiff.conv2d(x, self.kernels, self.bias, self.stride, self.padding)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{self.name}.kernels", self.kernels), (f"{self.name}.bias", self.bias)]


class ReluLayer:
    kind = "relu"

    def forward(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        return autodiff.relu(x)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []


class GapLayer:
    kind = "gap"

    def forward(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        return autodiff.global_average_pool(x)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []


class DropoutLayer:
    kind = "dropout"

    def __init__(self, rate: float):
        self.rate = rate

    def forward(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        return autodiff.dropout(x, self.rate, "train" if train else "eval", rng)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []


class DenseLayer:
    kind = "dense"

    def __init__(self, name: str, weights: Tensor, bias: Tensor):
        self.name = name
        self.weights = weights
        self.bias = bias

    def forward(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        return autodiff.dense(x, self.weights, self.bias)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(f"{self.name}.weights", self.weights), (f"{self.name}.bias", self.bias)]


class CnnModel:
    """Ordered layer list with named parameters."""

    def __init__(self, layers: list, input_resolution: int):
        self.layers = layers
        self.input_resolution = input_resolution

    def parameters(self) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = []
        for layer in self.layers:
            named.extend(layer.parameters())
        return named

    def forward(self, x: Tensor, train: bool = False, rng=None) -> tuple[Tensor, list[Tensor]]:
        """Run all layers; returns (logits, activations) with activations[0] = input."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        if x.data.ndim != 4:
            raise ResolutionMismatchError(f"forward input must be 4-D (batch, C, H, W), got {x.data.shape}")
        _, channels, height, width = x.shape
        if (height, width) != (self.input_resolution, self.input_resolution):
            raise ResolutionMismatchError(
                f"input is {height}x{width}, model expects {self.input_resolution}x{self.input_resolution}"
            )
        first = self.layers[0] if self.layers else None
        if first is not None and first.kind == "conv" and channels != first.kernels.shape[1]:
            raise ResolutionMismatchError(
                f"input has {channels} channels, model expects {first.kernels.shape[1]}"
            )
        activations = [x]
        current = x
        for layer in self.layers:
            current = layer.forward(current, train=train, rng=rng)
            activations.append(current)
        return current, activations

    def load_parameters(self, named: list[tuple[str, np.ndarray]]) -> None:
        """Replace every parameter; all entries are checked before any is assigned."""
        own = self.parameters()
        if len(named) != len(own):
            raise FormatError(f"checkpoint has {len(named)} parameters, model expects {len(own)}")
        for (got_name, values), (want_name, tensor) in zip(named, own):
            if got_name != want_name:
                raise FormatError(f"checkpoint parameter {got_name!r} where model expects {want_name!r}")
            if values.shape != tensor.data.shape:
                raise FormatError(
                    f"checkpoint parameter {got_name!r} has shape {values.shape}, "
                    f"model expects {tensor.data.shape}"
                )
            if not np.isfinite(values).all():
                raise FormatError(f"checkpoint parameter {got_name!r} holds non-finite values")
        for (_, values), (_, tensor) in zip(named, own):
            tensor.data = values.astype(np.float64, copy=True)


def _probe_patterns(count: int, rng: Lcg) -> list[np.ndarray]:
    """Unit-norm 3x3 patterns orthogonal to the constant and both ramp patches."""
    half = (KERNEL_SIZE - 1) / 2.0
    yy, xx = np.mgrid[0:KERNEL_SIZE, 0:KERNEL_SIZE].astype(np.float64) - half
    low_order = np.stack([np.ones_like(xx), xx, yy]).reshape(3, -1)
    low_order /= np.linalg.norm(low_order, axis=1, keepdims=True)  # already mutually orthogonal
    patterns: list[np.ndarray] = []
    while len(patterns) < count:
        v = rng.normal_array((KERNEL_SIZE * KERNEL_SIZE,))
        v -= low_order.T @ (low_order @ v)
        norm = float(np.linalg.norm(v))
        if norm < 1e-9:  # draw fell inside the projected-out span, try again
            continue
        patterns.append((v / norm).reshape(KERNEL_SIZE, KERNEL_SIZE))
    return patterns


def _zero_sum_kernel(in_channels: int, rms: float, rng: Lcg) -> np.ndarray:
    while True:
        v = rng.normal_array((in_channels, KERNEL_SIZE, KERNEL_SIZE))
        v -= v.mean()
        scale = float(np.sqrt(np.mean(v * v)))
        if scale > 1e-9:
            return v * (rms / scale)


def architecture(plan: ScalingPlan) -> tuple[int, list[int]]:
    """The planned input side and the channels of each conv block, with nothing allocated.

    A plan whose side leaves [8, MAX_RESOLUTION], or that is deeper than
    MAX_DEPTH conv blocks or larger than MAX_PARAMETERS parameters, is
    refused. Each size is compared before it is rounded to an integer, and a
    base too large for the caps is never multiplied out, so no plan
    overflows on its way to a refusal.
    """
    # The side rounds to a multiple of 4, so one scaled below
    # MAX_RESOLUTION + 1.5 rounds to at most that.
    scaled = plan.base_resolution * plan.resolution_mult if plan.base_resolution <= MAX_RESOLUTION + 1 else math.inf
    if not scaled < MAX_RESOLUTION + 1.5:
        raise PlanConstraintError(
            f"scaled input resolution {plan.base_resolution} * {plan.resolution_mult!r} "
            f"is above the {MAX_RESOLUTION}-pixel maximum"
        )
    side = 4 * _round_half_up(_round_half_up(scaled) / 4.0)
    if side < 8:
        raise PlanConstraintError(f"scaled input resolution {side} is below the 8-pixel minimum")
    if plan.base_depth > MAX_DEPTH or not plan.base_depth * plan.depth_mult < MAX_DEPTH + 0.5:
        raise PlanConstraintError(
            f"planned depth {plan.base_depth} * {plan.depth_mult!r} is above the {MAX_DEPTH}-block maximum"
        )
    widths: list[int] = []
    in_channels, parameters = 3, NUM_CLASSES
    for stage in range(_round_half_up(plan.base_depth * plan.depth_mult)):
        width = math.inf
        if plan.base_width <= MAX_PARAMETERS:
            width = plan.base_width * plan.width_mult * 2**stage
        if width <= MAX_PARAMETERS:  # a block has at least one parameter per channel
            width = _round_half_up(width)
        parameters += width * (in_channels * KERNEL_SIZE * KERNEL_SIZE + 1)
        # with the head's weights on this block, as if it were the last one
        if parameters + width * NUM_CLASSES > MAX_PARAMETERS:
            raise PlanConstraintError(
                f"planned model is above the {MAX_PARAMETERS}-parameter maximum at conv{stage} "
                f"(base width {plan.base_width}, width multiplier {plan.width_mult!r})"
            )
        widths.append(width)
        in_channels = width
    return side, widths


def model_shapes(plan: ScalingPlan) -> CnnModel:
    """The planned architecture with every parameter zero and no draws made.

    A checkpoint load fills it through load_parameters; build_model fills it
    from the seed's init stream. architecture refuses a plan before any
    allocation.
    """
    resolution, widths = architecture(plan)
    layers: list = []
    in_channels = 3
    for stage, width in enumerate(widths):
        layers.append(
            ConvLayer(
                f"conv{stage}",
                Tensor(np.zeros((width, in_channels, KERNEL_SIZE, KERNEL_SIZE)), requires_grad=True),
                Tensor(np.zeros(width), requires_grad=True),
                CONV_STRIDE,
                CONV_PADDING,
            )
        )
        layers.append(ReluLayer())
        in_channels = width
    layers.append(GapLayer())
    layers.append(DropoutLayer(DROPOUT_RATE))
    layers.append(
        DenseLayer(
            "head",
            Tensor(np.zeros((in_channels, NUM_CLASSES)), requires_grad=True),
            Tensor(np.zeros(NUM_CLASSES), requires_grad=True),
        )
    )
    return CnnModel(layers, resolution)


def build_model(plan: ScalingPlan, seed: int) -> CnnModel:
    """Deterministically construct and initialize the planned architecture.

    Initialization is structured, not generic noise: stage 0 gets thresholded
    contrast probes, stage 1 mixes zero-sum kernels with "absence" kernels
    (see the module constants), and deeper stages use plain zero-sum kernels.
    The dense head starts at zero, so an untrained model scores every input
    [0.5, 0.5]. All draws come from one seed-derived stream, so the same
    (plan, seed) rebuilds byte-identical parameters.
    """
    model = model_shapes(plan)
    rng = Lcg(derive_seed(seed, _INIT_STREAM))
    window = KERNEL_SIZE * KERNEL_SIZE
    # Per-channel std of the generator's pixel noise after the /255 preprocess, exact
    # because gen-data draws the corpus at the model's side (a resize would average it down).
    pixel_std = NOISE_AMPLITUDE / (255.0 * math.sqrt(3.0))
    probe_response = 0.0
    convs = [layer for layer in model.layers if layer.kind == "conv"]
    for stage, layer in enumerate(convs):
        kernels, bias = layer.kernels.data, layer.bias.data
        width, in_channels = kernels.shape[:2]
        scale = _PROBE_GAIN * math.sqrt(2.0 / (in_channels * window))
        if stage == 0:
            # One pattern shared by every input channel; the noise is shared
            # across channels too, so the pre-activation std has a closed form.
            spread = math.sqrt(float(in_channels))
            for f, pattern in enumerate(_probe_patterns(width, rng)):
                kernels[f] = pattern[None] * (3.0 * scale / spread)
            probe_std = 3.0 * scale * spread * pixel_std
            bias[:] = -_PROBE_THRESHOLD * probe_std
            probe_response = probe_std * _RECTIFIED_MEAN
        else:
            for f in range(width):
                kernels[f] = _zero_sum_kernel(in_channels, scale, rng)
            if stage == 1:
                strength = _ABSENCE_RATIO * _PROBE_GAIN
                for f in range(width - width // 2, width):
                    mix = np.array([rng.uniform(0.7, 1.3) for _ in range(in_channels)])
                    mix *= in_channels / mix.sum()
                    kernels[f] = (mix * (-strength / window))[:, None, None]
                    bias[f] = _ABSENCE_MARGIN * strength * in_channels * probe_response
    return model


@dataclass(frozen=True, eq=False)
class Prediction:
    scores: np.ndarray
    probabilities: np.ndarray
    predicted_class: int


def single_image(image) -> np.ndarray:
    """One (C, H, W) image, or a batch of one, as a float64 (1, C, H, W) array."""
    array = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    if array.ndim == 3:
        array = array[None]
    if array.ndim != 4 or array.shape[0] != 1:
        raise ResolutionMismatchError(f"expected one (C, H, W) image, got shape {array.shape}")
    return array


def predict(model: CnnModel, image) -> Prediction:
    """Class scores, softmax probabilities, and the larger logit's class, as train counts it (ties -> bona fide)."""
    with no_grad():
        logits, _ = model.forward(Tensor(single_image(image)))
    scores = logits.data[0].copy()
    shifted = np.exp(scores - scores.max())
    probabilities = shifted / shifted.sum()
    return Prediction(scores, probabilities, int(scores[1] > scores[0]))


@dataclass(frozen=True)
class TrainReport:
    epoch_losses: tuple[float, ...]
    train_accuracy: float


def _eval_logits(model: CnnModel, inputs: ModelInputs | np.ndarray, batch_size: int) -> np.ndarray:
    """No-grad logits of every input, in batch_size chunks so no patch matrix spans the whole split."""
    with no_grad():
        chunks = [model.forward(Tensor(inputs[i : i + batch_size]))[0].data for i in range(0, len(inputs), batch_size)]
    return np.concatenate(chunks) if chunks else np.empty((0, NUM_CLASSES))


def predicted_classes(model: CnnModel, inputs: ModelInputs, batch_size: int) -> np.ndarray:
    """Each input's class by predict's rule (the larger logit, ties -> bona fide), scored in batch_size chunks.

    A row's logits are the same bits at any batch size, so each class is the one predict gives its image.
    """
    logits = _eval_logits(model, inputs, batch_size)
    return (logits[:, 1] > logits[:, 0]).astype(np.int64)


def _balanced_order(pools: list[list[int]]) -> list[int]:
    """Merge per-class index pools so every prefix tracks the class ratio.

    Item k of a pool goes at the share of its pool still to come at its turn,
    (len - k) / len, highest share first; a tie goes to the lower class.
    """
    keyed = [
        (-(len(pool) - k) / len(pool), c, item) for c, pool in enumerate(pools) for k, item in enumerate(pool)
    ]
    return [item for _, _, item in sorted(keyed)]


def train(
    model: CnnModel,
    dataset: list[LabeledImage],
    epochs: int = RunConfig.epochs,
    batch_size: int = RunConfig.batch_size,
    learning_rate: float = RunConfig.learning_rate,
    seed: int = RunConfig.seed,
) -> TrainReport:
    """Mini-batch SGD on softmax cross-entropy; deterministic for a fixed seed.

    Batches are drawn from the split's ModelInputs. Each epoch
    reshuffles every class's samples from its own derived stream and then
    interleaves the classes proportionally, so each batch mirrors the overall
    class balance and both gradient streams are present in every update. The
    head dropout draws from a dedicated stream that advances across steps.
    Raises TrainingError as soon as a step's loss, or any parameter after the
    last update, is not finite. After at least one epoch it also raises when
    the last epoch's mean loss is above chance (ln 2) by more than
    DIVERGENCE_MARGIN, or when the train split holds both classes but every
    train sample is predicted the same class: a run that ends there has
    learned nothing a checkpoint should keep.
    """
    if not dataset:
        raise DataError("cannot train on an empty dataset")
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not 0 < learning_rate < math.inf:
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    inputs = ModelInputs([sample.image for sample in dataset], model.input_resolution)
    labels = np.array([sample.label for sample in dataset], dtype=np.int64)
    params = [tensor for _, tensor in model.parameters()]
    dropout_rng = Lcg(derive_seed(seed, _DROPOUT_STREAM))
    n = len(dataset)
    pools = [np.flatnonzero(labels == c).tolist() for c in (0, 1)]
    losses: list[float] = []
    diverged = f"training diverged, try a smaller learning rate than {learning_rate!r}"
    # A diverging run overflows long before TrainingError reports it; numpy's
    # warnings would only repeat that, with source paths, on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            shuffle_rng = Lcg(derive_seed(seed, _SHUFFLE_STREAM, epoch))
            for pool in pools:
                shuffle_rng.shuffle(pool)
            order = _balanced_order(pools)
            total = 0.0
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                logits = model.forward(Tensor(inputs[batch]), train=True, rng=dropout_rng)[0]
                loss = softmax_cross_entropy(logits, labels[batch])
                step_loss = float(loss.data)
                if not math.isfinite(step_loss):
                    raise TrainingError(
                        f"loss became {step_loss!r} at epoch {epoch + 1}, "
                        f"step {start // batch_size + 1}; {diverged}"
                    )
                store = backward(loss)
                for tensor in params:
                    grad = store.get(tensor)
                    if grad is not None:
                        tensor.data -= learning_rate * grad
                total += step_loss * len(batch)
                # the step's tape and gradients go before the next forward builds its own
                del logits, loss, store
            losses.append(total / n)
    for name, tensor in model.parameters():
        if not np.isfinite(tensor.data).all():
            raise TrainingError(f"parameter {name!r} is not finite after training; {diverged}")
    if epochs > 0 and losses[-1] > math.log(NUM_CLASSES) + DIVERGENCE_MARGIN:
        raise TrainingError(
            f"last-epoch loss {losses[-1]!r} is above chance, ln {NUM_CLASSES}, "
            f"by more than {DIVERGENCE_MARGIN}; {diverged}"
        )
    predictions = predicted_classes(model, inputs, batch_size)
    if epochs > 0 and all(pools) and (predictions == predictions[0]).all():
        raise TrainingError(
            f"every train sample is predicted class {predictions[0]}, though both classes are present; "
            "training collapsed, try more data, more epochs or another learning rate"
        )
    accuracy = float((predictions == labels).mean())
    return TrainReport(tuple(losses), accuracy)


def _activation_grid(values: np.ndarray) -> np.ndarray:
    """Tile one sample's channels into a square grayscale grid, min-max scaled.

    A spatial (1, K, H, W) activation gives one H x W tile per channel, each
    scaled by its own range. A feature vector (1, K) gives one cell per
    feature, all scaled by the vector's range: a 1x1 tile of its own would
    always be 0. A constant tile or vector is 0.
    """
    array = values[0]
    if array.ndim == 1:
        array = array[:, None, None]
        low, high = array.min(), array.max()
    else:
        low, high = array.min(axis=(1, 2), keepdims=True), array.max(axis=(1, 2), keepdims=True)
    span = high - low
    scaled = np.divide(array - low, span, out=np.zeros_like(array), where=span > 0)
    channels, height, width = array.shape
    side = math.isqrt(channels)
    if side * side < channels:
        side += 1
    tiles = np.zeros((side * side, height, width))
    tiles[:channels] = scaled
    grid = tiles.reshape(side, side, height, width).transpose(0, 2, 1, 3).reshape(side * height, side * width)
    return np.floor(255.0 * grid + 0.5).astype(np.uint8)


def dump_layer_activations(model: CnnModel, image, layer_index: int) -> tuple[Tensor, np.ndarray]:
    """Activation tensor at layer_index plus its tiled grayscale grid.

    Index 0 is the preprocessed input itself; index i > 0 is the output of
    layer i - 1 in the model's layer list.
    """
    if not 0 <= layer_index <= len(model.layers):
        raise LayerIndexError(
            f"layer index {layer_index} out of range (valid 0..{len(model.layers)})"
        )
    with no_grad():
        _, activations = model.forward(Tensor(single_image(image)))
    activation = activations[layer_index]
    return activation, _activation_grid(activation.data)


class ClassificationObjective:
    """Adapter giving gradient_check a scalar loss over the model's parameters."""

    def __init__(self, model: CnnModel, label: int = 1):
        self.model = model
        self.label = label

    def __call__(self, x: Tensor) -> Tensor:
        logits, _ = self.model.forward(x, train=False)
        return softmax_cross_entropy(logits, [self.label] * logits.shape[0])

    def parameters(self) -> list[tuple[str, Tensor]]:
        return self.model.parameters()


def save_plan_sidecar(path, plan: ScalingPlan) -> None:
    """Write the key=value sidecar of the plan that lets a checkpoint rebuild its model."""
    text = format_pairs({key: format_value(key, value) for key, value in asdict(plan).items()})
    write_file(path, text.encode("ascii"))


def load_plan_sidecar(path) -> ScalingPlan:
    """The plan a sidecar records; the sidecar is config text holding the plan keys alone.

    Any other key, such as the seed that sidecars recorded before the corpus
    fixed its own split, is a FormatError. ScalingPlan refuses a bad phi,
    coefficient or base size with PlanConstraintError. The alpha * beta^2 *
    gamma^2 window is not checked again: the sidecar does not record tau.
    """
    pairs = parse_pairs(read_text(path, "plan sidecar"), "sidecar")
    extra = [key for key in pairs if key not in PLAN_KEYS]
    if extra:
        raise FormatError(
            f"plan sidecar {path} has key {extra[0]!r}, which is not a plan key; "
            "retrain the checkpoint with `morphlens train` to write its sidecar anew"
        )
    missing = [key for key in PLAN_KEYS if key not in pairs]
    if missing:
        raise FormatError(f"sidecar is missing keys: {', '.join(missing)}")
    try:
        values = {key: parse_value(key, pairs[key]) for key in PLAN_KEYS}
    except FormatError as exc:
        raise FormatError(f"plan sidecar {path}: {exc}") from None
    return ScalingPlan(**values)
