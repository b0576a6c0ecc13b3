"""The three benchmark workloads: desk, screen and oracle.

Each workload is one closed-loop client that drives morphlens through its
public entry points: the CLI's `main` for desk and screen, and
`autodiff.gradient_check` for oracle. Every operation's output is checked;
a check that does not hold raises `CheckFailed`, and the runner counts the
operation as failed. All files go to fresh directories under a work root
inside the checkout, never the current directory.

Library functions are always looked up through their module (`cli.main`,
`autodiff.gradient_check`), so the traced run can wrap them in place.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from morphlens import autodiff, cli
from morphlens.autodiff import Tensor
from morphlens.config import RunConfig
from morphlens.explain import decode_feature_vector, decode_heatmap
from morphlens.metrics import parse_report
from morphlens.model import build_model, plan_scaling

# Criterion 7's bars. Every seed in DESK_SEEDS meets them at default settings;
# workload seeds pick a short cycle from this range.
DESK_SEEDS = range(1, 11)
DESK_CYCLE = 3
MAX_HTER = 0.15
MIN_TRAIN_ACCURACY = 0.95

SCREEN_IMAGES_PER_CLASS = 4
HEATMAPS = ("saliency", "cam", "gradcam", "ensemble")

# Criterion 1's shape: central differences at this step over every parameter
# of a randomized default-plan model, with labels alternating by state.
ORACLE_EPSILON = 1e-5
ORACLE_MAX_ERROR = 1e-4
ORACLE_STATES = 3
_STATE_STRIDE = 7919
_PARAM_SCALE = 0.5
_MEASURABLE_FLOOR = 3e-7  # smallest |gradient| the eps=1e-5 oracle can rate to 1e-4
_KINK_MARGIN = 3.0


class CheckFailed(Exception):
    """An operation completed but its output broke a benchmark check."""


def call_cli(argv: list[str], tracer=None) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag by exiting
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_commands(commands: list[list[str]], tracer=None) -> dict[str, tuple[float, str]]:
    """Run commands in order; returns {command: (seconds, stdout)}."""
    results = {}
    for argv in commands:
        start = time.perf_counter()
        code, out = call_cli(argv, tracer)
        results[argv[0]] = (time.perf_counter() - start, out)
        if code != 0:
            raise CheckFailed(f"`{' '.join(argv)}` exited {code}")
    return results


@contextlib.contextmanager
def inside(directory: Path):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class Workload:
    """One closed-loop client. `op` returns the operation's timed seconds.

    `summary` gives the workload's own metrics; `work_metric` names the one
    that counts work done per second. Rates are taken at the median operation.
    """

    name = ""
    work_metric = ""

    def __init__(self, work_root: Path, seed: int, tracer=None):
        self.work_root = work_root
        self.seed = seed
        self.tracer = tracer
        self._dirs: list[Path] = []

    def fresh_dir(self) -> Path:
        path = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work_root))
        self._dirs.append(path)
        return path

    def drop_dirs(self, keep: Path | None = None) -> None:
        for path in self._dirs:
            if path != keep:
                shutil.rmtree(path, ignore_errors=True)
        self._dirs = [keep] if keep is not None else []

    def setup(self) -> None:
        pass

    def op(self, index: int) -> float:
        raise NotImplementedError

    def summary(self, seconds: list[float]) -> dict[str, tuple[float, str]]:
        """Workload-specific metrics over the successful operations' times."""
        raise NotImplementedError

    def close(self) -> None:
        self.drop_dirs()


class Desk(Workload):
    """The researcher's path: gen-data, train, eval, explain, dump-layer."""

    name = "desk"
    work_metric = "train_samples_per_s"

    def __init__(self, work_root: Path, seed: int, tracer=None):
        super().__init__(work_root, seed, tracer)
        self.cycle = random.Random(seed).sample(list(DESK_SEEDS), DESK_CYCLE)
        self.artifacts: dict[int, dict[str, str]] = {}
        self.stages: dict[str, list[float]] = {}
        self.train_rates: list[float] = []
        self.last_dir: Path | None = None

    @staticmethod
    def commands(seed: int) -> list[list[str]]:
        image = "corpus/morph/0000.ppm"
        return [
            ["gen-data", "--seed", str(seed)],
            ["train", "--seed", str(seed)],
            ["eval"],
            ["explain", "--image", image],
            ["dump-layer", "--image", image, "--layer-index", "2"],
        ]

    def setup(self) -> None:
        self.pipeline(self.cycle[0])  # warm-up, checked like any other

    def op(self, index: int) -> float:
        elapsed, results, trained = self.pipeline(self.cycle[index % len(self.cycle)])
        for command, (seconds, _) in results.items():
            self.stages.setdefault(command, []).append(seconds)
        self.train_rates.append(trained / results["train"][0])
        return elapsed

    def pipeline(self, seed: int):
        """Run and check one pipeline; returns (seconds, per-command results, samples trained)."""
        directory = self.fresh_dir()
        self.drop_dirs(keep=directory)
        with inside(directory):
            start = time.perf_counter()
            results = run_commands(self.commands(seed), self.tracer)
            elapsed = time.perf_counter() - start
        self.last_dir = directory
        return elapsed, results, self._check(directory, seed, results)

    def _check(self, directory: Path, seed: int, results) -> int:
        train_out = results["train"][1]
        accuracy = [line for line in train_out.splitlines() if line.startswith("train_accuracy=")]
        if len(accuracy) != 1:
            raise CheckFailed("train printed no train_accuracy line")
        train_accuracy = float(accuracy[0].partition("=")[2])
        if not train_accuracy >= MIN_TRAIN_ACCURACY:
            raise CheckFailed(f"seed {seed}: train accuracy {train_accuracy} < {MIN_TRAIN_ACCURACY}")
        report = parse_report((directory / "out" / "metrics.txt").read_text(encoding="ascii"))
        hter = report.get("hter")
        if hter is None or not hter <= MAX_HTER:
            raise CheckFailed(f"seed {seed}: test HTER {hter} is undefined or > {MAX_HTER}")
        digest = tree_digest(directory)
        first = self.artifacts.setdefault(seed, digest)
        if digest != first:
            changed = sorted(k for k in first.keys() | digest.keys() if first.get(k) != digest.get(k))
            raise CheckFailed(f"seed {seed}: artifacts differ from its first run: {changed[:5]}")
        # eval scores exactly the test split, so the counts give its size
        tested = sum(int(report[key]) for key in ("tp", "tn", "fp", "fn"))
        corpus = len((directory / "corpus" / "manifest.tsv").read_text(encoding="ascii").splitlines())
        return RunConfig().epochs * (corpus - tested)

    def summary(self, seconds):
        return {
            "pipeline_s": (float(np.median(seconds)), "s"),
            "train_samples_per_s": (float(np.median(self.train_rates)), "samples/s"),
            "gen_data_s": (float(np.median(self.stages["gen-data"])), "s"),
            "eval_s": (float(np.median(self.stages["eval"])), "s"),
        }


class Screen(Workload):
    """Per-image use: one explain request against a checkpoint trained in set-up."""

    name = "screen"
    work_metric = "explain_per_s"

    def __init__(self, work_root: Path, seed: int, tracer=None, base_dir: Path | None = None):
        super().__init__(work_root, seed, tracer)
        self.rng = random.Random(seed)
        self.base_dir = base_dir
        self.pairs: list[tuple[str, int]] = []
        self.outputs: dict[tuple[str, int], dict[str, str]] = {}
        if base_dir is not None:
            self._pick_pairs()

    def setup(self) -> None:
        self.drop_dirs()
        directory = self.fresh_dir()
        train_seed = random.Random(self.seed).choice(list(DESK_SEEDS))
        with inside(directory):
            run_commands([["gen-data", "--seed", str(train_seed)], ["train", "--seed", str(train_seed)]])
        self.base_dir = directory
        self._pick_pairs()
        self.op(-1)  # warm-up request

    def _pick_pairs(self) -> None:
        picker = random.Random(self.seed)
        images = []
        for sub in ("bonafide", "morph"):
            names = sorted(p.name for p in (self.base_dir / "corpus" / sub).glob("*.ppm"))
            images += [f"corpus/{sub}/{name}" for name in picker.sample(names, SCREEN_IMAGES_PER_CLASS)]
        self.pairs = [(image, target) for image in images for target in (0, 1)]

    def op(self, index: int) -> float:
        image, target = self.rng.choice(self.pairs)
        with inside(self.base_dir):
            results = run_commands([["explain", "--image", image, "--target-class", str(target)]], self.tracer)
        self._check(self.base_dir / "out", (image, target))
        return results["explain"][0]

    def _check(self, out: Path, pair) -> None:
        shape = None
        for method in HEATMAPS:
            values = decode_heatmap((out / f"{method}.xhm").read_bytes()).values
            top = values.max()
            if not (np.isfinite(values).all() and values.min() >= 0.0 and top in (0.0, 1.0)):
                raise CheckFailed(f"{pair}: {method} map is not normalized onto [0, 1]")
            if shape not in (None, values.shape):
                raise CheckFailed(f"{pair}: {method} map is {values.shape}, others are {shape}")
            shape = values.shape
        vector, height, width = decode_feature_vector((out / "ensemble_vec.xhm").read_bytes())
        if (height, width) != shape or vector.size != 3 * height * width:
            raise CheckFailed(f"{pair}: feature vector has {vector.size} values for a {shape} map")
        digest = tree_digest(out)
        if self.outputs.setdefault(pair, digest) != digest:
            raise CheckFailed(f"{pair}: a repeated request wrote different bytes")

    def summary(self, seconds):
        ordered = sorted(seconds)
        rank = -(-99 * len(ordered) // 100)  # nearest-rank 99th percentile
        p50 = float(np.median(ordered))
        return {
            "explain_p50_ms": (1e3 * p50, "ms"),
            "explain_p99_ms": (1e3 * ordered[rank - 1], "ms"),
            "explain_p99_beyond": (float(len(ordered) - rank), "count"),
            "explain_per_s": (1.0 / p50, "req/s"),
        }


class ClassLoss:
    """Softmax cross-entropy of the model's logits against one fixed label.

    This is the scalar network `gradient_check` probes: callable on an input
    tensor, with the model's parameters.
    """

    def __init__(self, model, label: int):
        self.model = model
        self.label = label

    def __call__(self, x: Tensor) -> Tensor:
        logits, _ = self.model.forward(x, train=False)
        return autodiff.softmax_cross_entropy(logits, [self.label] * logits.shape[0])

    def parameters(self):
        return self.model.parameters()


def randomized_default_model(seed: int):
    """Default-plan model and input image with every value drawn uniformly."""
    model = build_model(plan_scaling(0.0), seed=0)
    rng = np.random.default_rng(seed)
    for _, tensor in model.parameters():
        tensor.data = rng.uniform(-_PARAM_SCALE, _PARAM_SCALE, size=tensor.data.shape)
    resolution = model.input_resolution
    image = rng.uniform(0.0, 1.0, size=(1, 3, resolution, resolution))
    return model, image


def valid_oracle_state(model, image, label: int) -> bool:
    """Criterion 1's rule for a state the finite-difference oracle can rate.

    Every pre-activation of both conv blocks must clear three times the
    largest shift one epsilon-sized parameter step can cause, so no central
    difference straddles a ReLU kink; and every nonzero gradient component
    must exceed the oracle's rounding-noise floor.
    """
    _, activations = model.forward(Tensor(image), train=False)
    convs = [i for i, layer in enumerate(model.layers) if layer.kind == "conv"]
    a0, a1 = (activations[i + 1].data for i in convs)
    channel_l1 = float(np.abs(model.layers[convs[1]].kernels.data).sum(axis=(2, 3)).max())
    reach0 = ORACLE_EPSILON * max(1.0, float(image.max()))
    reach1 = ORACLE_EPSILON * max(1.0, float(np.maximum(a0, 0.0).max()), channel_l1)
    if np.abs(a0).min() <= _KINK_MARGIN * reach0 or np.abs(a1).min() <= _KINK_MARGIN * reach1:
        return False
    store = autodiff.backward(ClassLoss(model, label)(Tensor(image)))
    grads = np.concatenate([np.abs(store[p].reshape(-1)) for _, p in model.parameters()])
    nonzero = grads[grads > 0.0]
    return nonzero.size == 0 or nonzero.min() > _MEASURABLE_FLOOR


class Oracle(Workload):
    """The developer's path: a full finite-difference audit of one model state."""

    name = "oracle"
    work_metric = "probes_per_s"

    def __init__(self, work_root: Path, seed: int, tracer=None):
        super().__init__(work_root, seed, tracer)
        self.states: list = []
        self.worst: dict[int, float] = {}
        self.probes = 0

    def setup(self) -> None:
        starts = random.Random(self.seed)
        self.states = []
        for k in range(ORACLE_STATES):
            attempt, label = starts.randrange(1 << 30), k % 2
            while True:
                model, image = randomized_default_model(attempt)
                if valid_oracle_state(model, image, label):
                    break
                attempt += _STATE_STRIDE
            self.states.append((ClassLoss(model, label), image))
        self.probes = sum(p.data.size for _, p in self.states[0][0].parameters())
        self.op(0)  # warm-up, checked like any other

    def op(self, index: int) -> float:
        slot = index % len(self.states)
        loss, image = self.states[slot]
        start = time.perf_counter()
        worst = autodiff.gradient_check(loss, image, epsilon=ORACLE_EPSILON)
        elapsed = time.perf_counter() - start
        if not worst < ORACLE_MAX_ERROR:
            raise CheckFailed(f"state {slot}: worst relative gradient error {worst:.3e}")
        if self.worst.setdefault(slot, worst) != worst:
            raise CheckFailed(f"state {slot}: repeated audit gave {worst!r}, first gave {self.worst[slot]!r}")
        return elapsed

    def summary(self, seconds):
        return {"probes_per_s": (self.probes / float(np.median(seconds)), "probes/s")}


WORKLOADS = {w.name: w for w in (Desk, Screen, Oracle)}
