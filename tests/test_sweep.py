"""Differential tests of the exact sweep engine against per-tuple composition.

``sweep_compositions`` and ``tuple_probabilities`` must agree, tuple by tuple
and in product order, with ``compose_entries``, ``composes_to`` and products
of ``matrix_probability``.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

from cpdzip.analysis import bilinear_sign_model, cubic_sign_model, rank_one_sign_model
from cpdzip.model import Alphabet, BudgetExceededError, Distribution, ModelSpec, uniform
from cpdzip.rational import pack_scalars
from cpdzip.tensors import (
    ExactTensor,
    FactorMatrix,
    compose_entries,
    composes_to,
    sweep_compositions,
)
from cpdzip.typicality import (
    matrix_probability,
    mode_space_size,
    mode_spaces,
    tuple_probabilities,
)

U2 = uniform(2)
SKEWED = Distribution((Fraction(1, 4), Fraction(3, 4)))
FRACTIONAL = Alphabet((Fraction(-1, 2), Fraction(1, 3), 2))
THIRDS = Distribution((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))

MODELS = {
    "rank-one order 3": rank_one_sign_model(2, 3, [SKEWED, U2, SKEWED]),
    "bilinear R=2": bilinear_sign_model(2, SKEWED, U2, U2, SKEWED),
    "cubic supersymmetric": cubic_sign_model(3, SKEWED, U2),
    # products such as (-1/2) * 2 give integral Fractions inside the sweep
    "fractional alphabet": ModelSpec(2, 2, 2, (FRACTIONAL,) * 2, ((THIRDS, THIRDS),) * 2),
}


def replicated_tuples(m, spaces):
    """Every tuple in product order; a supersymmetric matrix fills all modes."""
    for mats in product(*spaces):
        if m.supersymmetric:
            mats = tuple(FactorMatrix(i, mats[0].rows) for i in range(1, m.order + 1))
        yield mats


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_matches_per_tuple_composition(name):
    m = MODELS[name]
    spaces = mode_spaces(m, 1 << 20, "test sweep")
    swept = list(sweep_compositions(spaces, m.order))
    tuples = list(replicated_tuples(m, spaces))
    space = math.prod(mode_space_size(m, i) for i in range(1, m.independent_matrices + 1))
    assert len(swept) == len(tuples) == space
    previous = None
    for mats, entries in zip(tuples, swept):
        composed = compose_entries(mats)
        assert entries == composed
        assert pack_scalars(entries) == pack_scalars(composed)
        assert composes_to(mats, ExactTensor(m.order, m.dim, tuple(composed)))
        if previous is not None:
            assert composes_to(mats, previous) == (entries == list(previous.entries))
        previous = ExactTensor(m.order, m.dim, tuple(composed))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_tuple_probabilities_match_per_tuple_products(name):
    m = MODELS[name]
    spaces = mode_spaces(m, 1 << 20, "test sweep")
    probs = list(tuple_probabilities(m, spaces))
    assert probs == [
        math.prod((matrix_probability(x, m) for x in mats), start=Fraction(1))
        for mats in product(*spaces)
    ]
    assert sum(probs) == 1


def test_mode_spaces_budget_counts_tuples():
    m = rank_one_sign_model(2, 3, [U2] * 3)  # 4 matrices per mode, 64 tuples
    with pytest.raises(BudgetExceededError, match="test sweep needs 64 items"):
        mode_spaces(m, 63, "test sweep")
    assert [len(s) for s in mode_spaces(m, 64, "test sweep")] == [4, 4, 4]
    cubic = cubic_sign_model(3, U2, U2)  # one independent matrix: 64 tuples
    with pytest.raises(BudgetExceededError):
        mode_spaces(cubic, 63, "test sweep")
    assert [len(s) for s in mode_spaces(cubic, 64, "test sweep")] == [64]
