"""The benchmark's tracer patches morphlens names where callers look them up.

Every patched name must still exist, and uninstalling must put the originals
back, so a rename or deletion in the library fails here rather than only in
the benchmark's traced mode.
"""

from pathlib import Path

from morphlens import autodiff, cli, explain, model

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_patches_every_hook_and_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from tracing import Tracer

    named = [(autodiff, "conv2d"), (cli, "saliency_map"), (model, "backward"), (explain, "bilinear_resize")]
    before = [getattr(owner, attr) for owner, attr in named]
    tracer = Tracer()
    try:
        tracer.install()  # AttributeError when a name the tracer patches is gone
        patched = list(tracer._patched)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert len(patched) > len(named)
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    assert [getattr(owner, attr) for owner, attr in named] == before
