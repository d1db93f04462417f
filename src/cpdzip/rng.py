"""Reproducible sampling from the model.

PRNG contract (pinned; never change without a format-version bump):

* Raw bits come from CPython's Mersenne Twister (``random.Random``), which is
  platform-independent for integer seeds.
* The stream for trial t under master seed s is seeded with
  ``mix64(s XOR mix64(t + 1))`` where mix64 is the SplitMix64 finalizer, so
  trials are reproducible under any execution order.
* Symbols are drawn by exact cumulative-rational inversion of a 64-bit
  uniform integer: with common denominator b, draws >= b * floor(2^64 / b)
  (the boundary slice) are rejected and redrawn, making every symbol
  probability exactly its rational value.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right

from .model import Distribution, ModelSpec
from .tensors import FactorMatrix, FactorTuple, replicate

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer; a fixed 64-bit bijective mixing function."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def stream_seed(master: int, index: int) -> int:
    return mix64((master & _MASK64) ^ mix64((index + 1) & _MASK64))


def stream_rng(master: int, index: int) -> random.Random:
    """Independent, reproducible RNG stream for (master seed, trial index)."""
    return random.Random(stream_seed(master, index))


class RationalSampler:
    """Exact sampler for one distribution via 64-bit CDF inversion."""

    def __init__(self, dist: Distribution):
        denom = math.lcm(*(p.denominator for p in dist.probs))
        cum = []
        acc = 0
        for p in dist.probs:
            acc += p.numerator * (denom // p.denominator)
            cum.append(acc)
        assert acc == denom  # normalized distributions only
        self.denom = denom
        self.cum = cum
        self.limit = (1 << 64) - ((1 << 64) % denom)

    def draw_index(self, rng: random.Random) -> int:
        while True:
            u = rng.getrandbits(64)
            if u < self.limit:
                return bisect_right(self.cum, u % self.denom)


def _mode_samplers(m: ModelSpec, mode: int) -> list[RationalSampler]:
    return [RationalSampler(m.dist(mode, r)) for r in range(m.components)]


def sample_matrix(m: ModelSpec, mode: int, rng: random.Random) -> FactorMatrix:
    """Sample one factor matrix; entries drawn column-major (pinned order)."""
    alphabet = m.alphabet(mode)
    samplers = _mode_samplers(m, mode)
    n, r_count = m.dim, m.components
    cols = [
        [alphabet.symbols[samplers[r].draw_index(rng)] for _ in range(n)]
        for r in range(r_count)
    ]
    rows = tuple(tuple(cols[r][j] for r in range(r_count)) for j in range(n))
    return FactorMatrix(mode, rows, alphabet)


def sample_tuple(m: ModelSpec, rng: random.Random) -> FactorTuple:
    """Sample a factor tuple; supersymmetric models sample once and replicate."""
    if m.supersymmetric:
        mats = replicate(sample_matrix(m, 1, rng), m.order)
    else:
        mats = tuple(sample_matrix(m, i, rng) for i in range(1, m.order + 1))
    return FactorTuple(mats)
