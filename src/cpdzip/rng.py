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
  probability exactly its rational value.  A common denominator above 2^64
  leaves no word to accept and is refused with a ``CpdzipError``.
* A trial draws its independently sampled matrices in mode order, each one
  column-major: column r's n entries, then column r + 1's.

Batched and single draws are equivalent.  ``getrandbits(64 * k)`` fills its
result with 32-bit outputs from the least significant end, so word j of that
value is exactly the j-th of k successive ``getrandbits(64)`` calls.  A trial
of k symbols therefore reads one k-word batch, takes its words in order,
skips each rejected one, and after the batch continues with one
``getrandbits(64)`` per word: the same words decide the same symbols as k
calls of ``RationalSampler.draw_index``, and the stream ends in the same
state.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from functools import partial
from itertools import chain, repeat
from operator import mod

from .model import CpdzipError, Distribution, ModelSpec
from .tensors import FactorMatrix, FactorTuple, expand_modes

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
        if denom > 1 << 64:  # limit would be 0 and every word rejected
            raise CpdzipError(
                f"cannot sample a distribution with common denominator {denom}: "
                "it exceeds 2^64, the range of one 64-bit draw"
            )
        self.denom = denom
        self.cum = cum
        self.limit = (1 << 64) - ((1 << 64) % denom)

    def draw_index(self, rng: random.Random) -> int:
        while True:
            u = rng.getrandbits(64)
            if u < self.limit:
                return bisect_right(self.cum, u % self.denom)


class DrawTable:
    """Samplers of a model's independently drawn modes (of ``modes``, if
    given), built once per call and passed to each trial's draw.

    ``samplers[i][r]`` draws column r of mode ``modes[i]``, whose alphabet is
    ``alphabets[i]``.  One trial reads ``words`` = len(modes) * n * R words;
    no sampler rejects a word below ``limit``, the least of their limits.
    """

    __slots__ = ("model", "modes", "alphabets", "samplers", "words", "limit")

    def __init__(self, m: ModelSpec, modes: tuple[int, ...] | None = None):
        if modes is None:
            modes = tuple(range(1, m.independent_matrices + 1))
        self.model = m
        self.modes = modes
        self.alphabets = tuple(m.alphabet(i) for i in modes)
        self.samplers = tuple(
            tuple(RationalSampler(m.dist(i, r)) for r in range(m.components)) for i in modes
        )
        self.words = len(modes) * m.dim * m.components
        self.limit = min(s.limit for row in self.samplers for s in row)


def draw_indices(table: DrawTable, rng: random.Random) -> list[list[list[int]]]:
    """Symbol indices of one trial: ``out[i][r]`` is column r of mode
    ``table.modes[i]``, n indices, drawn in the pinned order from one batch."""
    n, k = table.model.dim, table.words
    batch = rng.getrandbits(64 * k).to_bytes(8 * k, sys.byteorder)
    words = memoryview(batch).cast("Q").tolist()
    if max(words) < table.limit:  # no word is rejected: column c is the c-th run of n words
        starts = iter(range(0, k, n))
        return [
            [
                list(map(bisect_right, repeat(s.cum, n), map(mod, words[i:i + n], repeat(s.denom, n))))
                for s, i in zip(samplers, starts)
            ]
            for samplers in table.samplers
        ]
    stream = chain(words, iter(partial(rng.getrandbits, 64), None))
    out = []
    for samplers in table.samplers:
        cols = []
        for s in samplers:
            col = []
            while len(col) < n:
                u = next(stream)
                if u < s.limit:
                    col.append(bisect_right(s.cum, u % s.denom))
            cols.append(col)
        out.append(cols)
    return out


def draw_rows(table: DrawTable, rng: random.Random) -> list[list[tuple]]:
    """One trial's matrices as rows of symbols, one matrix per mode of the table."""
    out = []
    for alphabet, cols in zip(table.alphabets, draw_indices(table, rng)):
        symbols = alphabet.symbols
        out.append(list(zip(*[[symbols[k] for k in col] for col in cols])))
    return out


def draw_tuple(table: DrawTable, rng: random.Random) -> FactorTuple:
    """One trial's factor tuple; a supersymmetric model's one matrix is
    replicated into every mode."""
    mats = [FactorMatrix(mode, rows) for mode, rows in zip(table.modes, draw_rows(table, rng))]
    return FactorTuple(expand_modes(table.model, mats))


def sample_matrix(m: ModelSpec, mode: int, rng: random.Random) -> FactorMatrix:
    """Sample one factor matrix; entries drawn column-major (pinned order)."""
    table = DrawTable(m, (mode,))
    return FactorMatrix(mode, draw_rows(table, rng)[0])


def sample_tuple(m: ModelSpec, rng: random.Random) -> FactorTuple:
    """Sample a factor tuple; supersymmetric models sample once and replicate."""
    return draw_tuple(DrawTable(m), rng)
