"""Tests of the benchmark itself: run them with `python3 -m pytest benchmarks`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracing import END, NAME, PARENT, START, SpanIndex, Tracer  # noqa: E402

from morphlens import autodiff  # noqa: E402
from morphlens.autodiff import Tensor  # noqa: E402


def test_smoke_mode_names_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True, timeout=170, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["smoke"] == "ok"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignored = shutil.ignore_patterns("_work", "_out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=ignored)
    argv = [sys.executable, "benchmarks/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_records_op_spans_and_restores_functions():
    original = autodiff.conv2d
    tracer = Tracer()
    tracer.install()
    try:
        assert autodiff.conv2d is not original
        x = Tensor(np.ones((2, 1, 4, 4)))
        kernels = Tensor(np.ones((1, 1, 3, 3)), requires_grad=True)
        out = autodiff.conv2d(x, kernels, Tensor(np.zeros(1), requires_grad=True), 1, 1)
        logits = autodiff.dense(autodiff.global_average_pool(out), Tensor(np.ones((1, 2))), Tensor(np.zeros(2)))
        autodiff.backward(autodiff.softmax_cross_entropy(logits, [0, 1]))
    finally:
        tracer.uninstall()
    assert autodiff.conv2d is original

    names = [span[NAME] for span in tracer.spans]
    assert names.count("autodiff.conv2d.fwd") == 1
    assert names.count("autodiff.conv2d.bwd") == 1
    walk = names.index("autodiff.backward")
    assert tracer.spans[names.index("autodiff.conv2d.bwd")][PARENT] == walk
    index = SpanIndex(tracer.spans)
    children = sum(index.duration[i] for i, span in enumerate(tracer.spans) if span[PARENT] == walk)
    span = tracer.spans[walk]
    assert index.self_time[walk] == span[END] - span[START] - children
