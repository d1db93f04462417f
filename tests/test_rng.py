"""The pinned PRNG stream and the batched draw engine.

The pinned values were recorded with the one-word-per-symbol sampler that
preceded the batched engine; they hold the stream itself, not only its
determinism within one version.  The differential tests check the engine
against a per-symbol oracle of ``RationalSampler.draw_index`` calls in the
pinned order (mode by mode, each matrix column-major).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdzip.experiments import estimate_full_rank_prob
from cpdzip.model import Alphabet, CpdzipError, Distribution, ModelSpec
from cpdzip.rng import (
    DrawTable,
    RationalSampler,
    draw_indices,
    sample_matrix,
    sample_tuple,
    stream_rng,
)
from cpdzip.typicality import log_prob_matrix, spectrum_samples

WIDE = 2**63 + 1  # about half of all 64-bit words fall in its boundary slice


def _dist(*probs) -> Distribution:
    return Distribution(tuple(Fraction(p) for p in probs))


SIGNS = Alphabet((-1, 1))
MODELS = {
    "skewed": ModelSpec(3, 5, 2, (SIGNS, SIGNS, Alphabet((Fraction(-1, 2), 2))), (
        (_dist("1/4", "3/4"), _dist("2/3", "1/3")),
        (_dist("1/10", "9/10"), _dist("1/2", "1/2")),
        (_dist("5/7", "2/7"), _dist("3/8", "5/8")),
    )),
    "supersymmetric": ModelSpec(
        3, 4, 2, (SIGNS,) * 3, ((_dist("1/3", "2/3"), _dist("3/4", "1/4")),) * 3,
        supersymmetric=True,
    ),
    "zero": ModelSpec(2, 4, 2, (Alphabet((-1, 0, 1)),) * 2, (
        (_dist("1/2", "0", "1/2"), _dist("1/5", "3/10", "1/2")),
        (_dist("0", "1/3", "2/3"), _dist("1/3", "1/3", "1/3")),
    )),
    "wide": ModelSpec(
        2, 3, 2, (Alphabet((0, 1)),) * 2,
        ((_dist(Fraction(2**62, WIDE), Fraction(2**62 + 1, WIDE)),) * 2,) * 2,
    ),
}

def test_sampler_accepts_denominators_up_to_2_to_64():
    exact = RationalSampler(_dist(Fraction(1, 2**64), Fraction(2**64 - 1, 2**64)))
    assert exact.limit == 2**64  # every word is accepted
    assert exact.draw_index(stream_rng(3, 0)) in (0, 1)
    b = 2**64 + 1
    with pytest.raises(CpdzipError, match=str(b)):
        RationalSampler(_dist(Fraction(1, b), Fraction(b - 1, b)))


# Per model and master seed: the rows of trials 0 and 1, one string per
# independently sampled matrix, each entry as its alphabet index, rows
# separated by '|'; then three spectrum samples (float.hex) and the
# full-rank successes of 40 trials, one per mode.
PINNED = {
    "skewed": {
        "tuples": {
            11: (("10|11|10|11|11", "11|11|11|11|11", "10|11|11|01|01"),
                 ("10|00|10|10|11", "10|00|11|10|11", "10|01|01|01|01")),
            12: (("10|10|10|10|10", "10|11|10|11|10", "00|01|11|01|01"),
                 ("00|11|10|01|10", "01|10|10|10|11", "01|10|01|01|01")),
            13: (("10|10|11|10|00", "11|11|10|11|10", "01|01|01|10|01"),
                 ("11|00|10|10|00", "01|01|11|11|11", "00|11|00|01|01")),
        },
        "spectrum": {
            11: ("0x1.aed7bb5d40c35p+1", "0x1.b0d01a90ba413p+1", "0x1.d80b581d233edp+1"),
            12: ("0x1.4ab1e5de4d378p+1", "0x1.deae9420fda7ap+1", "0x1.a77a60eff86b8p+1"),
            13: ("0x1.78905f6e909dep+1", "0x1.0921b93963301p+2", "0x1.986e428db143ap+1"),
        },
        "full_rank": {11: (37, 36, 39), 12: (35, 37, 37), 13: (37, 39, 39)},
    },
    "supersymmetric": {
        "tuples": {
            11: (("11|10|10|01",), ("11|10|00|00",)),
            12: (("00|10|10|00",), ("00|00|10|11",)),
            13: (("10|10|10|10",), ("10|10|10|00",)),
        },
        "spectrum": {
            11: ("0x1.6a6df1cb2e5bbp+0", "0x1.507acdde6ec36p+0", "0x1.507acdde6ec36p+0"),
            12: ("0x1.0a2b23f3bab73p+0", "0x1.507acdde6ec36p+0", "0x1.241e47e07a4f8p+0"),
            13: ("0x1.62e42fefa39efp-1", "0x1.bb9d3beb8c86ap-1", "0x1.6a6df1cb2e5bbp+0"),
        },
        "full_rank": {11: (39, 39, 39), 12: (36, 36, 36), 13: (33, 33, 33)},
    },
    "zero": {
        "tuples": {
            11: (("22|22|21|02", "21|22|21|11"), ("20|01|21|01", "22|21|22|11")),
            12: (("22|02|20|00", "21|12|21|10"), ("01|22|21|02", "21|12|20|11")),
            13: (("02|21|21|20", "21|21|22|20"), ("21|02|00|00", "10|21|20|22")),
        },
        "spectrum": {
            11: ("0x1.987ea5a03466ap+1", "0x1.d6824486176fcp+1", "0x1.dc57d88a90956p+1"),
            12: ("0x1.d8f8bb866f4d4p+1", "0x1.bf059799afb4fp+1", "0x1.bcf4e482fbedap+1"),
            13: ("0x1.affb528c9c218p+1", "0x1.d3232781f627ap+1", "0x1.9fa2a3921b0d3p+1"),
        },
        "full_rank": {11: (40, 39), 12: (39, 36), 13: (40, 37)},
    },
    "wide": {
        "tuples": {
            11: (("00|11|10", "01|01|01"), ("11|10|10", "00|10|01")),
            12: (("00|10|00", "00|11|11"), ("11|11|10", "00|00|11")),
            13: (("00|00|10", "01|11|01"), ("11|01|10", "11|10|00")),
        },
        "spectrum": {
            seed: ("0x1.62e42fefa39c0p+1",) * 3 for seed in (11, 12, 13)
        },
        "full_rank": {11: (31, 22), 12: (27, 27), 13: (28, 28)},
    },
}


def _index_rows(m, x) -> str:
    symbols = m.alphabet(x.mode).symbols
    return "|".join("".join(str(symbols.index(v)) for v in row) for row in x.rows)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_pinned_stream(name):
    m, pinned = MODELS[name], PINNED[name]
    for seed, trials in pinned["tuples"].items():
        for t, expected in enumerate(trials):
            ft = sample_tuple(m, stream_rng(seed, t))
            mats = ft.matrices[: m.independent_matrices]
            assert tuple(_index_rows(m, x) for x in mats) == expected
    for seed, expected in pinned["spectrum"].items():
        assert tuple(v.hex() for v in spectrum_samples(m, 3, seed)) == expected
    for seed, expected in pinned["full_rank"].items():
        got = estimate_full_rank_prob(m, 40, seed)
        assert tuple(e.successes for e in got) == expected


# --- differential: batched engine vs one draw_index call per symbol -------------


def _oracle(m: ModelSpec, modes, rng) -> list[list[list[int]]]:
    return [
        [
            [sampler.draw_index(rng) for _ in range(m.dim)]
            for sampler in (RationalSampler(m.dist(i, r)) for r in range(m.components))
        ]
        for i in modes
    ]


# Denominators include 2^63 + 1 and 3 * 2^62, whose boundary slices hold
# about 1/2 and 1/4 of all 64-bit words, and 2^64, which has none.
DENOMINATORS = [2, 3, 4, 10, 97, WIDE, 3 * 2**62, 2**64]


@st.composite
def distributions(draw, size):
    d = draw(st.sampled_from(DENOMINATORS))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=size - 1, max_size=size - 1)))
    bounds = [0, *cuts, d]
    return Distribution(tuple(Fraction(b - a, d) for a, b in zip(bounds, bounds[1:])))


@st.composite
def models(draw):
    order = draw(st.integers(2, 4))
    components = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    supersymmetric = draw(st.booleans())
    independent = 1 if supersymmetric else order
    alphabets, dists = [], []
    for _ in range(independent):
        size = draw(st.integers(2, 3))
        alphabets.append(Alphabet(tuple(range(-1, size - 1))))
        dists.append(tuple(draw(distributions(size)) for _ in range(components)))
    if supersymmetric:
        alphabets, dists = alphabets * order, dists * order
    return ModelSpec(order, n, components, tuple(alphabets), tuple(dists), supersymmetric)


@given(models(), st.integers(0, 2**64 - 1), st.integers(0, 50))
@settings(max_examples=300, deadline=None)
def test_batched_draws_equal_per_symbol_draws(m, seed, trial):
    modes = range(1, m.independent_matrices + 1)
    expected_rng, rng = stream_rng(seed, trial), stream_rng(seed, trial)
    expected = _oracle(m, modes, expected_rng)
    assert draw_indices(DrawTable(m), rng) == expected
    assert rng.getstate() == expected_rng.getstate()  # the stream ends where it would

    ft = sample_tuple(m, stream_rng(seed, trial))
    for x, cols in zip(ft.matrices, expected * m.order if m.supersymmetric else expected):
        symbols = m.alphabet(x.mode).symbols
        assert x.rows == tuple(zip(*[[symbols[k] for k in col] for col in cols]))

    mode = m.order
    x = sample_matrix(m, mode, stream_rng(seed, trial))
    (cols,) = _oracle(m, (mode,), stream_rng(seed, trial))
    symbols = m.alphabet(mode).symbols
    assert x.mode == mode
    assert x.rows == tuple(zip(*[[symbols[k] for k in col] for col in cols]))


@given(models(), st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_spectrum_samples_equal_log_prob_of_sampled_tuples(m, seed):
    expected = []
    for t in range(3):
        ft = sample_tuple(m, stream_rng(seed, t))
        total = math.fsum(
            log_prob_matrix(ft.matrices[i], m) for i in range(m.independent_matrices)
        )
        expected.append((-total / m.dim).hex())
    assert [v.hex() for v in spectrum_samples(m, 3, seed)] == expected
