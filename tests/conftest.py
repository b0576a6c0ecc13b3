"""Fixtures shared across test files."""

import functools
import tracemalloc

import pytest

from morphlens.data import build_corpus, split
from morphlens.model import build_model, plan_scaling, train


@pytest.fixture(scope="session")
def default_train():
    """`default_train(seed, traced)`: a train at the desk defaults, cached for the session.

    It returns the trained model, its report, and the tracemalloc peak in
    bytes when traced (else None). The defaults are 128 + 128 faces at
    64 pixels, phi 0, 5 epochs of batch 32.
    """

    @functools.cache
    def run(seed, traced):
        part = split(build_corpus(128, 128, seed, 64))
        model = build_model(plan_scaling(0.0), seed)
        if not traced:
            return model, train(model, part.train, seed=seed), None
        tracemalloc.start()
        try:
            return model, train(model, part.train, seed=seed), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
