"""Benchmark morphlens on three workloads: desk, screen and oracle.

    python3 benchmarks/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

One closed-loop client in this process runs the workload's operation
back to back for --seconds and checks each output. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones named in BENCHMARK.json; with
--trace 1 they are the per-layer ones, from a traced run that also reports
its own overhead. The lines before it give the machine fingerprint and the
workload's own metrics by name and unit. See benchmarks/README.md.

The benchmark imports morphlens from the src/ directory of the checkout it
sits in, and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / "_work"
OUT_DIR = HERE / "_out"
SPEC = ROOT / "BENCHMARK.json"

# One closed-loop client on a 2-core host: pin BLAS to one thread so the
# client never competes with its own BLAS pool.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
SWEEP_REPS = 3
SCREEN_COVERAGE_REQUESTS = 5
WORKLOAD_NAMES = ("desk", "screen", "oracle")


def prepare_environment() -> None:
    """Fix what the caller's environment could change; call before importing numpy."""
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # MORPHLENS_SEED silently overrides --seed in every command.
    os.environ.pop("MORPHLENS_SEED", None)
    sys.dont_write_bytecode = True
    if not (SRC / "morphlens" / "__init__.py").is_file():
        raise SystemExit(f"error: no morphlens sources at {SRC}")
    sys.path.insert(0, str(SRC))


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            return int(getter())
    return None


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text(encoding="ascii").strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text(encoding="ascii").strip() if target and target.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "git_commit": commit,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float | None, max_ops: int | None, label: str, tracer=None):
    """Run operations back to back until `seconds` pass or `max_ops` ran, at least one.

    Returns (successful operation times, attempted, failed).
    """
    times: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or (
        (seconds is None or time.perf_counter() - start < seconds) and (max_ops is None or attempted < max_ops)
    ):
        if tracer is not None:
            tracer.request = f"{label}:{attempted}"
        attempted += 1
        try:
            times.append(workload.op(attempted - 1))
        except Exception:  # a failed operation is counted, and the client goes on
            failed += 1
            print(f"operation {label}:{attempted - 1} failed:", file=sys.stderr)
            traceback.print_exc()
    return times, attempted, failed


def new_workload(name: str, seed: int):
    from workloads import WORKLOADS

    return WORKLOADS[name](WORK_ROOT, seed)


def run_untraced(name: str, seed: int, seconds: float, setup_reps: int, max_ops: int | None, import_s: float):
    workload = new_workload(name, seed)
    try:
        setups = []
        for _ in range(setup_reps):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        times, attempted, failed = measure(workload, seconds, max_ops, name)
        if not times:
            raise SystemExit(f"error: every {name} operation failed")
        own = workload.summary(times)
        setup_s = import_s + statistics.median(setups)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (1e3 * statistics.median(times), "ms"),
            "work_per_s": (own[workload.work_metric][0], "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        report = {
            "setup_s": (setup_s, "s"),
            "failed_ratio": (failed / attempted, "ratio"),
            "peak_rss_mb": metrics["peak_rss_mb"],
            **own,
            "samples": (float(len(times)), "count"),
        }
        return metrics, report, attempted, failed
    finally:
        workload.close()


def run_traced(name: str, seed: int, seconds: float, max_ops: int | None, sweep_reps: int):
    """Untraced half, traced half, then one traced operation of every other workload."""
    import numpy as np
    from tracing import SWEEP_BATCHES, SWEEP_PHIS, Tracer, layer_metrics, sweep_request
    from workloads import Screen

    from morphlens import autodiff
    from morphlens.model import build_model, plan_scaling

    tracer = Tracer()
    workloads = {name: new_workload(name, seed)}
    try:
        workloads[name].setup()
        plain, attempted, failed = measure(workloads[name], seconds / 2, max_ops, f"{name}-untraced")
        tracer.install()
        try:
            workloads[name].tracer = tracer
            traced, n, f = measure(workloads[name], seconds / 2, max_ops, name, tracer)
            attempted, failed = attempted + n, failed + f
            tracer.phase = "coverage"
            for other in WORKLOAD_NAMES:
                if other == name:
                    continue
                if other == "screen":  # explain against the desk pipeline's checkpoint
                    workload = Screen(WORK_ROOT, seed, tracer, base_dir=workloads["desk"].last_dir)
                    requests = SCREEN_COVERAGE_REQUESTS
                else:
                    workload = new_workload(other, seed)
                    tracer.phase = "setup"
                    workload.setup()
                    tracer.phase = "coverage"
                    workload.tracer, requests = tracer, 1
                workloads[other] = workload
                _, n, f = measure(workload, None, requests, other, tracer)
                attempted, failed = attempted + n, failed + f
            tracer.phase = "sweep"
            rng = np.random.default_rng(seed)
            for phi in SWEEP_PHIS:
                model = build_model(plan_scaling(float(phi)), seed)
                res = model.input_resolution
                for batch in SWEEP_BATCHES:
                    images = rng.uniform(0.0, 1.0, size=(batch, 3, res, res))
                    labels = [i % 2 for i in range(batch)]
                    for rep in range(sweep_reps):
                        tracer.request = sweep_request(phi, batch, rep)
                        logits, _ = model.forward(images, train=False)
                        autodiff.backward(autodiff.softmax_cross_entropy(logits, labels))
        finally:
            tracer.uninstall()
    finally:
        for workload in workloads.values():
            workload.close()
    if not plain or not traced:
        raise SystemExit(f"error: every untraced or traced {name} operation failed")
    metrics, missing = layer_metrics(tracer.spans)
    untraced_p50, traced_p50 = statistics.median(plain), statistics.median(traced)
    metrics["trace.untraced_op_p50_ms"] = (1e3 * untraced_p50, "ms")
    metrics["trace.traced_op_p50_ms"] = (1e3 * traced_p50, "ms")
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50 - 1.0, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{name}.jsonl"
    tracer.write(trace_path)
    report = {
        "spans": (float(len(tracer.spans)), "count"),
        "untraced_samples": (float(len(plain)), "count"),
        "traced_samples": (float(len(traced)), "count"),
    }
    if missing:
        print(f"warning: no span sampled {', '.join(missing)}; they read 0", file=sys.stderr)
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    return metrics, report, attempted, failed


def result_line(metrics: dict, attempted: int, failed: int) -> str:
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        }
    )


def run_one(name, seed, seconds, trace, setup_reps=SETUP_REPS, max_ops=None, sweep_reps=SWEEP_REPS):
    """Measure one workload; returns (result line, human-readable lines)."""
    start = time.perf_counter()
    import workloads  # noqa: F401  (imports morphlens and numpy)

    import morphlens

    import_s = time.perf_counter() - start
    if not Path(morphlens.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: morphlens was imported from {morphlens.__file__}, not {SRC}")
    WORK_ROOT.mkdir(exist_ok=True)
    if trace:
        metrics, report, attempted, failed = run_traced(name, seed, seconds, max_ops, sweep_reps)
    else:
        metrics, report, attempted, failed = run_untraced(name, seed, seconds, setup_reps, max_ops, import_s)
    lines = [f"fingerprint {json.dumps(fingerprint())}"]
    lines += [f"metric {name} {key} {value!r} {unit}" for key, (value, unit) in report.items()]
    return result_line(metrics, attempted, failed), lines


def validate(result: dict, expected: dict[str, str]) -> list[str]:
    """Problems with one result line against the metric names and units expected."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    counts = {key: result.get(key) for key in ("correct", "attempted", "failed")}
    if counts != {"correct": True, "attempted": counts["attempted"], "failed": 0} or not counts["attempted"] >= 1:
        problems.append(f"counts are {counts}")
    got = result.get("metrics", {})
    if set(got) != set(expected):
        problems.append(f"metrics missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}")
    for key, unit in expected.items():
        entry = got.get(key, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or value != value:
            problems.append(f"{key}: {entry}")
    return problems


def smoke() -> int:
    """One operation of each workload, untraced, then one short traced run."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    runs = [(name, False, end_to_end) for name in WORKLOAD_NAMES] + [("desk", True, per_layer)]
    for name, trace, expected in runs:
        line, lines = run_one(name, 1, 0, trace, setup_reps=1, max_ops=1, sweep_reps=1)
        print("\n".join(lines))
        problems += [f"{name} trace={int(trace)}: {p}" for p in validate(json.loads(line), expected)]
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok", "runs": len(runs), "problems": len(problems)}))
    return 1 if problems else 0


def run_all(args) -> int:
    """Each workload in its own process, so each gets its own peak RSS."""
    merged, attempted, failed = {}, 0, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted, failed = attempted + result["attempted"], failed + result["failed"]
        merged.update({f"{name}.{key}": (m["value"], m["unit"]) for key, m in result["metrics"].items()})
    print(result_line(merged, attempted, failed))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one operation of each workload, then a traced run")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    prepare_environment()
    try:
        if args.smoke:
            return smoke()
        if args.workload == "all":
            return run_all(args)
        line, lines = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(line)
        return 0
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
