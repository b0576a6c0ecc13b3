"""Seeded LCG streams and the hashed per-pixel noise field."""

import numpy as np
import pytest

from morphlens.rng import Lcg, derive_seed, noise_grid


def test_derive_seed_deterministic_and_salted():
    assert derive_seed(1, 0xFACE) == derive_seed(1, 0xFACE)
    assert derive_seed(1, 0xFACE) != derive_seed(2, 0xFACE)
    assert derive_seed(1, 0xFACE) != derive_seed(1, 0xBEEF)
    assert derive_seed(1, 0xFACE, 0) != derive_seed(1, 0xFACE, 1)
    assert 0 <= derive_seed(123456789, 7, 8, 9) < 2**32


def test_lcg_streams_repeat():
    first, second = Lcg(99), Lcg(99)
    a = [first.next_u32() for _ in range(5)]
    b = [second.next_u32() for _ in range(5)]
    assert a == b
    assert len(set(a)) > 1


def test_uniform_bounds():
    rng = Lcg(4)
    draws = [rng.uniform(-2.0, 3.0) for _ in range(2000)]
    assert all(-2.0 <= d < 3.0 for d in draws)
    assert abs(np.mean(draws) - 0.5) < 0.15


def test_randint_covers_range():
    rng = Lcg(8)
    draws = [rng.randint(7) for _ in range(3000)]
    assert set(draws) == set(range(7))


def test_shuffle_is_a_permutation():
    rng = Lcg(15)
    for n in (1, 2, 5, 33):
        items = list(range(n))
        rng.shuffle(items)
        assert sorted(items) == list(range(n))


def test_normal_array_moments():
    values = Lcg(21).normal_array((20000,), 1.5, 2.0)
    assert abs(values.mean() - 1.5) < 0.05
    assert abs(values.std() - 2.0) < 0.05


def test_uniform_array_shape_and_range():
    values = Lcg(5).uniform_array((7, 3), 10.0, 12.0)
    assert values.shape == (7, 3)
    assert ((values >= 10.0) & (values < 12.0)).all()


@pytest.mark.parametrize("count", [0, 1, 2, 511, 512, 513])
def test_uniform_array_equals_the_scalar_draws_and_leaves_the_same_state(count):
    for seed, low, high in ((0, 0.0, 1.0), (7, -2.5, 7.25), (2**32 - 1, 10.0, 12.0)):
        vector, scalar = Lcg(seed), Lcg(seed)
        values = vector.uniform_array((count,), low, high)
        expected = np.array([scalar.uniform(low, high) for _ in range(count)], dtype=np.float64)
        assert values.tobytes() == expected.tobytes()
        assert vector.state == scalar.state


def test_noise_grid_deterministic():
    assert np.array_equal(noise_grid(3, 16, 16, 40.0), noise_grid(3, 16, 16, 40.0))
    assert not np.array_equal(noise_grid(3, 16, 16, 40.0), noise_grid(4, 16, 16, 40.0))


def test_noise_grid_range_and_stats():
    grid = noise_grid(11, 128, 128, 50.0)
    assert grid.shape == (128, 128)
    assert (np.abs(grid) <= 50.0).all()
    assert abs(grid.mean()) < 1.0
    # std of uniform(-a, a) is a/sqrt(3)
    assert abs(grid.std() - 50.0 / np.sqrt(3.0)) < 1.0


def test_noise_grid_neighbors_uncorrelated():
    # adjacent-pixel correlation must vanish or the blend-variance signal is biased
    grid = noise_grid(29, 128, 128, 1.0)
    flat = grid - grid.mean()
    for a, b in ((flat[:, :-1], flat[:, 1:]), (flat[:-1, :], flat[1:, :]), (flat[:-1, :-1], flat[1:, 1:])):
        corr = (a * b).mean() / (a.std() * b.std())
        assert abs(corr) < 0.05
