"""Seeded pseudo-randomness for every stochastic choice in the library.

All randomness flows through one 32-bit linear congruential generator,

    state' = (1664525 * state + 1013904223) mod 2^32

(the Numerical Recipes constants), so corpora, initializations, and dropout
masks are reproducible across platforms without depending on any external
generator's version; uniform_array computes a block of states at once in
closed form, with the bits of as many scalar draws. Full-image noise grids
instead hash each pixel index through a murmur-style avalanche mix (see
noise_grid) so they can be produced vectorized with no correlation between
neighboring pixels.
"""

from __future__ import annotations

import math

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK32_U64 = np.uint64(_MASK32)
_MULT = 1664525
_INC = 1013904223
_SALT_MULT = 22695477  # decorrelates salt streams in derive_seed
_PIXEL_HASH = 2654435761  # Knuth multiplicative hash, spreads pixel indices
_MIX_A = 0x85EBCA6B  # murmur3 finalizer constants
_MIX_B = 0xC2B2AE35


def derive_seed(seed: int, *salts: int) -> int:
    """Fold salt values into a seed, giving independent named streams."""
    state = seed & _MASK32
    for salt in salts:
        state = (_MULT * state + _SALT_MULT * (salt & _MASK32) + _INC) & _MASK32
    return state


class Lcg:
    """Scalar LCG stream with uniform, integer, N(0, 1) and shuffle draws."""

    def __init__(self, seed: int):
        self.state = seed & _MASK32
        self._spare_normal: float | None = None

    def next_u32(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK32
        return self.state

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * (self.next_u32() / 2.0**32)

    def randint(self, n: int) -> int:
        """Integer in [0, n)."""
        if n < 1:
            raise ValueError("randint needs n >= 1")
        value = int(self.next_u32() / 2.0**32 * n)
        return min(value, n - 1)

    def normal(self) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # Box-Muller; offsets keep the uniforms strictly inside (0, 1).
        u1 = (self.next_u32() + 0.5) / 2.0**32
        u2 = (self.next_u32() + 0.5) / 2.0**32
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def uniform_array(self, shape) -> np.ndarray:
        """The next prod(shape) [0, 1) draws at once, equal bit for bit to as many uniform calls.

        Draw k (from 1) reads the state a^k·s + c·(1 + a + … + a^(k−1)) mod 2^32,
        with s the current state, a = _MULT and c = _INC. A wrapping uint64 cumprod
        and cumsum give both terms exactly mod 2^64, so mod 2^32, and nothing divides
        by a − 1 (even, so not invertible mod 2^32). The stream is left where the
        scalar calls would leave it.
        """
        count = int(np.prod(shape))
        powers = np.cumprod(np.full(count, _MULT, dtype=np.uint64))
        sums = np.cumsum(powers) - powers + np.uint64(1)
        states = (powers * np.uint64(self.state) + sums * np.uint64(_INC)) & _MASK32_U64
        if count:
            self.state = int(states[-1])
        return (states / 2.0**32).reshape(shape)

    def normal_array(self, shape) -> np.ndarray:
        count = int(np.prod(shape))
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            values[i] = self.normal()
        return values.reshape(shape)


def noise_grid(seed: int, height: int, width: int, amplitude: float) -> np.ndarray:
    """Uniform noise in [-amplitude, amplitude], one independent value per pixel.

    Each pixel's value is a pure function of (seed, flat index): the index is
    spread by a multiplicative hash, xored with the seed, and pushed through
    the murmur3 avalanche finalizer. The finalizer's bit mixing is what makes
    neighboring pixels statistically independent; plain LCG steps would leave
    sequential indices strongly correlated.
    """
    mask = np.uint64(_MASK32)
    idx = np.arange(height * width, dtype=np.uint64)
    state = ((idx * np.uint64(_PIXEL_HASH)) ^ np.uint64(seed & _MASK32)) & mask
    state ^= state >> np.uint64(16)
    state = (state * np.uint64(_MIX_A)) & mask
    state ^= state >> np.uint64(13)
    state = (state * np.uint64(_MIX_B)) & mask
    state ^= state >> np.uint64(16)
    uniforms = state.astype(np.float64) / 2.0**32
    return ((2.0 * uniforms - 1.0) * amplitude).reshape(height, width)
