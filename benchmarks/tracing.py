"""Spans for the traced run, and the per-layer metrics computed from them.

`Tracer.install` wraps morphlens functions where their callers look them up
(a name imported into `morphlens.cli` is wrapped there, a module attribute
such as `morphlens.autodiff.conv2d` on its module, a method on its class).
Each call records a span: name, start, end, parent span, request id, the
phase of the run, and a few attributes such as the batch size. The backward
closure each autodiff op attaches to its output is wrapped as well, which
gives op backward time. Spans stay in memory until `write` is called.

Self time is a span's duration minus the durations of its child spans; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from pathlib import Path

from morphlens.autodiff import Tensor

NAME, START, END, PARENT, REQUEST, PHASE, ATTRS = range(7)


def _batch(args, kwargs) -> dict:
    x = args[0] if args else kwargs.get("x")
    shape = x.shape if isinstance(x, Tensor) else getattr(x, "shape", ())
    return {"batch": shape[0] if len(shape) > 1 else 1}


def _method_batch(args, kwargs) -> dict:
    return _batch(args[1:], kwargs)


def _normal_count(args, kwargs) -> dict:
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    count = 1
    for dim in (shape if isinstance(shape, tuple) else (shape,)):
        count *= int(dim)
    return {"draws": count}


def _probes(args, kwargs) -> dict:
    return {"probes": sum(p.data.size for _, p in args[0].parameters())}


# (where the caller looks the function up, attribute, span name, attributes)
_FUNCTIONS = [
    ("morphlens.cli", "build_parser", "cli.build_parser", None),
    ("morphlens.cli", "resolve_config", "config.resolve_config", None),
    ("morphlens.cli", "build_model", "model.build_model", None),
    ("morphlens.cli", "train", "model.train", None),
    ("morphlens.cli", "predict", "model.predict", None),
    ("morphlens.cli", "load_plan_sidecar", "model.load_plan_sidecar", None),
    ("morphlens.model:CnnModel", "forward", "model.forward", _method_batch),
    ("morphlens.model:CnnModel", "load_parameters", "model.load_parameters", None),
    ("morphlens.model", "backward", "autodiff.backward", None),
    ("morphlens.explain", "backward", "autodiff.backward", None),
    ("morphlens.autodiff", "backward", "autodiff.backward", None),
    ("morphlens.autodiff", "gradient_check", "autodiff.gradient_check", _probes),
    ("morphlens.rng:Lcg", "normal_array", "rng.normal_array", _normal_count),
    ("morphlens.rng:Lcg", "uniform_array", "rng.uniform_array", None),
    ("morphlens.cli", "build_corpus", "data.build_corpus", None),
    ("morphlens.cli", "save_corpus", "data.save_corpus", None),
    ("morphlens.cli", "load_corpus", "data.load_corpus", None),
    ("morphlens.cli", "preprocess", "data.preprocess", None),
    ("morphlens.model", "preprocess", "data.preprocess", None),
    ("morphlens.data", "bilinear_resize", "resample.bilinear_resize", None),
    ("morphlens.explain", "bilinear_resize", "resample.bilinear_resize", None),
    ("morphlens.cli", "saliency_map", "explain.saliency_map", None),
    ("morphlens.cli", "cam", "explain.cam", None),
    ("morphlens.cli", "gradcam", "explain.gradcam", None),
    ("morphlens.cli", "ensemble", "explain.ensemble", None),
    ("morphlens.cli", "upsample", "explain.upsample", None),
    ("morphlens.cli", "normalize_map", "explain.normalize_map", None),
    ("morphlens.cli", "write_heatmap", "explain.write_heatmap", None),
    ("morphlens.cli", "decode_ppm", "viz.decode_ppm", None),
    ("morphlens.data", "decode_ppm", "viz.decode_ppm", None),
    ("morphlens.cli", "encode_ppm", "viz.encode_ppm", None),
    ("morphlens.data", "encode_ppm", "viz.encode_ppm", None),
    ("morphlens.cli", "colorize", "viz.colorize", None),
    ("morphlens.cli", "superimpose", "viz.superimpose", None),
    ("morphlens.cli", "save_params", "checkpoint.save_params", None),
    ("morphlens.cli", "load_params", "checkpoint.load_params", None),
    ("morphlens.cli", "compute_metrics", "metrics.compute_metrics", None),
]

# Autodiff ops: (where the caller looks the op up, op name). Their spans carry
# the batch size and whether the output joined the tape.
_OPS = [
    ("morphlens.autodiff", "conv2d"),
    ("morphlens.autodiff", "relu"),
    ("morphlens.autodiff", "global_average_pool"),
    ("morphlens.autodiff", "dropout"),
    ("morphlens.autodiff", "dense"),
    ("morphlens.autodiff", "softmax_cross_entropy"),
    ("morphlens.model", "softmax_cross_entropy"),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span recorder that patches morphlens while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.request: str | None = None
        self.phase = "workload"
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _begin(self, name: str, attrs) -> list:
        span = [name, 0, 0, self._open[-1] if self._open else None, self.request, self.phase, attrs]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _end(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, attrs=None):
        record = self._begin(name, attrs)
        try:
            yield record
        finally:
            self._end(record)

    def wrap(self, fn, name: str, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._begin(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(record)

        return traced

    def wrap_op(self, fn, op: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = _batch(args, kwargs)
            record = self._begin(f"autodiff.{op}.fwd", attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(record)
            # eval-mode dropout hands back its input; only wrap nodes this op made
            attrs["taped"] = out.op == op
            if attrs["taped"]:
                out._backward = self.wrap(out._backward, f"autodiff.{op}.bwd", lambda a, k: attrs)
            return out

        return traced

    def _patch(self, path: str, attr: str, wrapper_of) -> None:
        owner = _owner(path)
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def install(self) -> None:
        for path, attr, name, attrs_of in _FUNCTIONS:
            self._patch(path, attr, lambda fn, name=name, attrs_of=attrs_of: self.wrap(fn, name, attrs_of))
        for path, op in _OPS:
            self._patch(path, op, lambda fn, op=op: self.wrap_op(fn, op))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times in ns from the first span."""
        origin = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="ascii") as sink:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span[NAME],
                    "start_ns": span[START] - origin,
                    "end_ns": span[END] - origin,
                    "parent": span[PARENT],
                    "request": span[REQUEST],
                    "phase": span[PHASE],
                }
                if span[ATTRS]:
                    record.update(span[ATTRS])
                sink.write(json.dumps(record) + "\n")


class SpanIndex:
    """Derived per-span facts: duration, self time and enclosing spans."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.duration = [span[END] - span[START] for span in spans]
        self.self_time = list(self.duration)
        # Spans are recorded in start order, so a parent precedes its children.
        self.command: list[int | None] = [None] * len(spans)
        self.in_train = [False] * len(spans)
        self.in_check = [False] * len(spans)
        self.by_name: dict[tuple[str, str], list[int]] = {}
        for index, span in enumerate(spans):
            self.by_name.setdefault((span[NAME], span[PHASE]), []).append(index)
            parent = span[PARENT]
            if parent is not None:
                self.self_time[parent] -= self.duration[index]
                self.command[index] = self.command[parent]
                self.in_train[index] = self.in_train[parent] or spans[parent][NAME] == "model.train"
                self.in_check[index] = self.in_check[parent] or spans[parent][NAME] == "autodiff.gradient_check"
            if span[NAME].startswith("cli."):
                self.command[index] = index

    def select(self, name: str, phase: str, where=None) -> list[int]:
        picked = self.by_name.get((name, phase), [])
        return picked if where is None else [i for i in picked if where(self, i)]


def _batch_is(size):
    return lambda ix, i: ix.spans[i][ATTRS]["batch"] == size


def _in_train(ix, i):
    return ix.in_train[i]


def _untaped_probe(ix, i):
    return ix.in_check[i] and not ix.spans[i][ATTRS]["taped"]


def _in_explain(ix, i):
    command = ix.command[i]
    return command is not None and ix.spans[command][NAME] == "cli.explain"


def _median_of(field):
    def aggregate(ix, picked):
        return statistics.median(getattr(ix, field)[i] for i in picked)

    return aggregate


def _sum_per(key):
    """Median over groups (by key) of the summed span durations."""

    def aggregate(ix, picked):
        groups: dict = {}
        for i in picked:
            groups[key(ix, i)] = groups.get(key(ix, i), 0) + ix.duration[i]
        return statistics.median(groups.values())

    return aggregate


def _count_per_explain(ix, picked):
    requests = len(ix.select("cli.explain", ix.spans[picked[0]][PHASE]))
    return len(picked) / requests


def _calls_per_probe(ix, picked):
    checks = ix.select("autodiff.gradient_check", ix.spans[picked[0]][PHASE])
    return len(picked) / sum(ix.spans[i][ATTRS]["probes"] for i in checks)


def _init_draws_kept(ix, picked):
    """Share of build_model's normal draws, in explain commands, that survive.

    A draw is discarded when the same command later overwrites the model's
    parameters from the checkpoint. No draws at all wastes nothing: 1.0.
    """
    loads = {ix.command[i] for i in ix.select("model.load_parameters", ix.spans[picked[0]][PHASE])}
    drawn = kept = 0
    for i in picked:
        count = ix.spans[i][ATTRS]["draws"]
        drawn += count
        kept += 0 if ix.command[i] in loads else count
    return kept / drawn if drawn else 1.0


_PER_CALL = _median_of("duration")
_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3, "count": 1.0, "ratio": 1.0}

# (metric, unit, better, span name, filter, aggregate, phases searched)
_LAYERED = ("workload", "coverage")
LAYER_METRICS = [
    ("cli.build_parser_ms", "ms", "lower", "cli.build_parser", None, _PER_CALL),
    ("model.build_model_ms", "ms", "lower", "model.build_model", None, _PER_CALL),
    ("model.forward_ms.b1", "ms", "lower", "model.forward", _batch_is(1), _PER_CALL),
    ("model.forward_ms.b32", "ms", "lower", "model.forward", _batch_is(32), _PER_CALL),
    ("model.train_s", "s", "lower", "model.train", None, _PER_CALL),
    ("model.predict_ms", "ms", "lower", "model.predict", None, _PER_CALL),
    ("model.load_plan_sidecar_ms", "ms", "lower", "model.load_plan_sidecar", None, _PER_CALL),
    ("autodiff.conv2d.fwd_ms.b1", "ms", "lower", "autodiff.conv2d.fwd", _batch_is(1), _PER_CALL),
    ("autodiff.conv2d.fwd_ms.b32", "ms", "lower", "autodiff.conv2d.fwd", _batch_is(32), _PER_CALL),
    ("autodiff.conv2d.bwd_ms.b1", "ms", "lower", "autodiff.conv2d.bwd", _batch_is(1), _PER_CALL),
    ("autodiff.conv2d.bwd_ms.b32", "ms", "lower", "autodiff.conv2d.bwd", _batch_is(32), _PER_CALL),
    *(
        (f"autodiff.{op}.{way}_ms", "ms", "lower", f"autodiff.{op}.{way}", _in_train, _PER_CALL)
        for op in ("relu", "global_average_pool", "dropout", "dense", "softmax_cross_entropy")
        for way in ("fwd", "bwd")
    ),
    ("autodiff.backward.walk_ms", "ms", "lower", "autodiff.backward", None, _median_of("self_time")),
    ("autodiff.gradient_check_s", "s", "lower", "autodiff.gradient_check", None, _PER_CALL),
    ("autodiff.conv2d.calls_per_probe", "count", "lower", "autodiff.conv2d.fwd", _untaped_probe, _calls_per_probe),
    ("rng.normal_array_ms", "ms", "lower", "rng.normal_array", _in_explain, _sum_per(lambda ix, i: ix.command[i])),
    ("rng.init_draws_kept_ratio", "ratio", "higher", "rng.normal_array", _in_explain, _init_draws_kept),
    ("rng.uniform_array_ms", "ms", "lower", "rng.uniform_array", _in_train, _PER_CALL),
    ("data.build_corpus_ms", "ms", "lower", "data.build_corpus", None, _PER_CALL),
    ("data.save_corpus_ms", "ms", "lower", "data.save_corpus", None, _PER_CALL),
    ("data.load_corpus_ms", "ms", "lower", "data.load_corpus", None, _PER_CALL),
    ("data.preprocess_us", "us", "lower", "data.preprocess", None, _PER_CALL),
    ("resample.bilinear_resize_us", "us", "lower", "resample.bilinear_resize", None, _PER_CALL),
    *(
        (f"explain.{fn}_ms", "ms", "lower", f"explain.{fn}", None, _PER_CALL)
        for fn in ("saliency_map", "cam", "gradcam", "ensemble", "upsample", "normalize_map", "write_heatmap")
    ),
    ("explain.forwards_per_request", "count", "lower", "model.forward", _in_explain, _count_per_explain),
    ("explain.backwards_per_request", "count", "lower", "autodiff.backward", _in_explain, _count_per_explain),
    ("viz.decode_ppm_us", "us", "lower", "viz.decode_ppm", None, _PER_CALL),
    ("viz.encode_ppm_us", "us", "lower", "viz.encode_ppm", None, _PER_CALL),
    ("viz.colorize_ms", "ms", "lower", "viz.colorize", None, _PER_CALL),
    ("viz.superimpose_ms", "ms", "lower", "viz.superimpose", None, _PER_CALL),
    ("checkpoint.save_params_ms", "ms", "lower", "checkpoint.save_params", None, _PER_CALL),
    ("checkpoint.load_params_ms", "ms", "lower", "checkpoint.load_params", None, _PER_CALL),
    ("config.resolve_config_us", "us", "lower", "config.resolve_config", None, _PER_CALL),
    ("metrics.compute_metrics_us", "us", "lower", "metrics.compute_metrics", None, _PER_CALL),
]

SWEEP_PHIS = (0, 1, 2, 3)
SWEEP_BATCHES = (1, 32)
# conv2d time per model pass (summed over the model's conv layers) at each plan.
SWEEP_METRICS = [
    (f"autodiff.conv2d.{way}_ms.phi{phi}.b{batch}", "ms", "lower", f"autodiff.conv2d.{way}", phi, batch)
    for way in ("fwd", "bwd")
    for phi in SWEEP_PHIS
    for batch in SWEEP_BATCHES
]

TRACE_METRICS = [
    ("trace.untraced_op_p50_ms", "ms", "lower"),
    ("trace.traced_op_p50_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def sweep_request(phi: int, batch: int, rep: int) -> str:
    return f"sweep:phi{phi}:b{batch}:{rep}"


def layer_metrics(spans: list[list]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics, plus the names of those no span sampled.

    Each metric comes from the traced workload's own spans where it exercises
    that layer, otherwise from the one-operation coverage pass. Unsampled
    metrics read 0.
    """
    ix = SpanIndex(spans)
    values: dict[str, tuple[float, str]] = {}
    missing: list[str] = []
    for metric, unit, _, name, where, aggregate in LAYER_METRICS:
        value = None
        for phase in _LAYERED:
            picked = ix.select(name, phase, where)
            if picked:
                value = aggregate(ix, picked)
                break
        if value is None:
            missing.append(metric)
        values[metric] = ((value or 0) * _SCALE[unit], unit)
    for metric, unit, _, name, phi, batch in SWEEP_METRICS:
        prefix = f"sweep:phi{phi}:b{batch}:"
        picked = ix.select(name, "sweep", lambda ix, i: ix.spans[i][REQUEST].startswith(prefix))
        value = _sum_per(lambda ix, i: ix.spans[i][REQUEST])(ix, picked) if picked else None
        if value is None:
            missing.append(metric)
        values[metric] = ((value or 0) * _SCALE[unit], unit)
    return values, missing
