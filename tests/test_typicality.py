import math
import statistics
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpdzip.analysis import rank_one_sign_model
from cpdzip.model import (
    Alphabet,
    BudgetExceededError,
    CpdzipError,
    Distribution,
    ModelSpec,
    entropy,
    theoretical_threshold,
    uniform,
)
from cpdzip.tensors import FactorMatrix
from cpdzip.typicality import (
    TypicalityParams,
    TypicalityUndecidableError,
    enumerate_typical,
    is_typical_matrix,
    iter_mode_matrices,
    log_prob_matrix,
    matrix_probability,
    mode_matrices,
    mode_space_size,
    spectrum_samples,
    typicality_mass,
)

SKEWED = Distribution((Fraction(1, 4), Fraction(3, 4)))  # P(-1)=1/4, P(1)=3/4


def skewed_model(n, order=1):
    return rank_one_sign_model(n, order, [SKEWED] * order)


def column_matrix(symbols, mode=1):
    return FactorMatrix(mode, tuple((s,) for s in symbols))


def test_log_prob_uniform_binary():
    m = rank_one_sign_model(4, 1, [uniform(2)])
    x = column_matrix((1, 1, -1, 1))
    assert log_prob_matrix(x, m) == pytest.approx(-4 * math.log(2), rel=1e-14)


def test_log_prob_skewed_column():
    m = skewed_model(4)
    x = column_matrix((1, 1, 1, -1))
    expected = 3 * math.log(3 / 4) + math.log(1 / 4)
    assert log_prob_matrix(x, m) == pytest.approx(expected, rel=1e-13)


def test_log_prob_two_columns_is_sum_of_per_column_values():
    a = Alphabet((-1, 1))
    m = ModelSpec(1, 3, 2, (a,), ((SKEWED, uniform(2)),))
    x = FactorMatrix(1, ((1, -1), (-1, 1), (1, 1)))
    col0 = column_matrix((1, -1, 1))
    col1 = column_matrix((-1, 1, 1))
    m0 = ModelSpec(1, 3, 1, (a,), ((SKEWED,),))
    m1 = ModelSpec(1, 3, 1, (a,), ((uniform(2),),))
    assert log_prob_matrix(x, m) == pytest.approx(
        log_prob_matrix(col0, m0) + log_prob_matrix(col1, m1), rel=1e-13
    )


def test_log_prob_zero_probability_is_minus_inf():
    a = Alphabet((-1, 0, 1))
    m = ModelSpec(1, 2, 1, (a,), ((Distribution((Fraction(1, 2), 0, Fraction(1, 2))),),))
    x = column_matrix((0, 1))
    assert log_prob_matrix(x, m) == -math.inf


def test_log_prob_rejects_off_alphabet_entries():
    m = skewed_model(2)
    with pytest.raises(ValueError):
        log_prob_matrix(column_matrix((1, 2)), m)


@pytest.mark.parametrize("gamma", [0, Fraction(-1, 10)])
def test_nonpositive_gamma_is_refused(gamma):
    with pytest.raises(CpdzipError) as info:
        TypicalityParams(gamma, 3)
    assert isinstance(info.value, ValueError)


def test_matrix_probability_exact():
    m = skewed_model(4)
    x = column_matrix((1, 1, 1, -1))
    assert matrix_probability(x, m) == Fraction(3, 4) ** 3 * Fraction(1, 4)


def test_uniform_every_matrix_typical_even_at_tiny_gamma():
    m = rank_one_sign_model(3, 1, [uniform(2)])
    p = TypicalityParams(Fraction(1, 10**9), 3)
    for x in iter_mode_matrices(m, 1):
        assert is_typical_matrix(x, m, p)


def test_typicality_threshold_skewed_all_high_column():
    # deviation |4 ln(4/3) - 4H| = ln 3; typical iff gamma > ln(3)/4 = 0.2746530721...
    m = skewed_model(4)
    x = column_matrix((1, 1, 1, 1))
    assert is_typical_matrix(x, m, TypicalityParams(Fraction(2747, 10000), 4))
    assert not is_typical_matrix(x, m, TypicalityParams(Fraction(2746, 10000), 4))


def test_typicality_boundary_uses_interval_arithmetic():
    # gamma within 1e-7 of the exact threshold ln(3)/4 forces the interval path
    m = skewed_model(4)
    x = column_matrix((1, 1, 1, 1))
    thr = math.log(3) / 4
    above = Fraction(int((thr + 1e-7) * 10**12), 10**12)
    below = Fraction(int((thr - 1e-7) * 10**12), 10**12)
    assert is_typical_matrix(x, m, TypicalityParams(above, 4))
    assert not is_typical_matrix(x, m, TypicalityParams(below, 4))


def test_zero_probability_symbol_makes_matrix_atypical():
    a = Alphabet((-1, 0, 1))
    m = ModelSpec(1, 2, 1, (a,), ((Distribution((Fraction(1, 2), 0, Fraction(1, 2))),),))
    x = column_matrix((0, 1))
    assert not is_typical_matrix(x, m, TypicalityParams(Fraction(100), 2))


def test_enumerate_typical_uniform_is_everything():
    m = rank_one_sign_model(3, 1, [uniform(2)])
    enum = enumerate_typical(m, TypicalityParams(Fraction(1, 10), 3), 1)
    assert enum.count == 8
    assert enum.positions == tuple(range(8))


def test_enumeration_order_is_lexicographic_column_major():
    m = rank_one_sign_model(2, 1, [uniform(2)])
    mats = list(iter_mode_matrices(m, 1))
    # symbol index order: (-1,-1), (-1,1), (1,-1), (1,1) reading the column
    assert [x.column(0) for x in mats] == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    a = Alphabet((-1, 1))
    m2 = ModelSpec(1, 2, 2, (a,), ((uniform(2), uniform(2)),))
    mats2 = list(iter_mode_matrices(m2, 1))
    assert mats2[0].rows == ((-1, -1), (-1, -1))
    assert mats2[1].rows == ((-1, -1), (-1, 1))  # column 1 varies last, row-within-column first
    assert mats2[2].rows == ((-1, 1), (-1, -1))  # columns (-1, -1) and (1, -1)
    # the second matrix differs from the first in the LAST column-major digit
    assert mats2[1].column(0) == (-1, -1) and mats2[1].column(1) == (-1, 1)


def test_enumerate_typical_matches_brute_filter():
    m = skewed_model(4)
    p = TypicalityParams(Fraction(1, 10), 4)
    enum = enumerate_typical(m, p, 1)
    h = entropy(SKEWED)
    brute = []
    for x in iter_mode_matrices(m, 1):
        dev = -log_prob_matrix(x, m) - 4 * h
        assert abs(abs(dev) - 0.4) > 1e-3  # no boundary cases in this grid
        if abs(dev) < 0.4:
            brute.append(x)
    assert list(mode_matrices(m, 1, enum.positions)) == brute


def test_typical_count_respects_entropy_bound():
    for gamma in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)):
        m = skewed_model(6)
        enum = enumerate_typical(m, TypicalityParams(gamma, 6), 1)
        bound = 6 * (entropy(SKEWED) + float(gamma))
        if enum.count:
            assert enum.log_cardinality <= bound + 1e-9


def test_typicality_monotone_in_gamma():
    m = skewed_model(5)
    small = enumerate_typical(m, TypicalityParams(Fraction(1, 10), 5), 1)
    large = enumerate_typical(m, TypicalityParams(Fraction(1, 4), 5), 1)
    assert set(small.positions) <= set(large.positions)


def test_typicality_mass_uniform_is_one():
    m = rank_one_sign_model(4, 1, [uniform(2)])
    assert typicality_mass(m, TypicalityParams(Fraction(1, 100), 4), 1) == 1


def test_typicality_mass_huge_gamma_is_one():
    m = skewed_model(4)
    assert typicality_mass(m, TypicalityParams(Fraction(50), 4), 1) == 1


def test_typicality_mass_exact_value_skewed():
    # at n=6, gamma=0.15 the typical set is exactly the columns with 4 or 5
    # high-probability symbols (deviations 0.548 / 0.550 nats; all others
    # exceed 0.9); mass = 15 p^4 q^2 + 6 p^5 q with p=3/4
    m = skewed_model(6)
    mass = typicality_mass(m, TypicalityParams(Fraction(15, 100), 6), 1)
    p, q = Fraction(3, 4), Fraction(1, 4)
    expected = 15 * p**4 * q**2 + 6 * p**5 * q
    assert mass == expected
    assert mass < 1 - Fraction(15, 100)  # below the 1-gamma level at this n


def test_total_probability_over_full_space_is_exactly_one():
    m = skewed_model(4)
    total = sum(
        (matrix_probability(x, m) for x in iter_mode_matrices(m, 1)), Fraction(0)
    )
    assert total == 1
    a = Alphabet((-1, 1))
    m2 = ModelSpec(1, 3, 2, (a,), ((SKEWED, uniform(2)),))
    total2 = sum(
        (matrix_probability(x, m2) for x in iter_mode_matrices(m2, 1)), Fraction(0)
    )
    assert total2 == 1


def test_enumerate_typical_budget_refusal():
    m = skewed_model(4)
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_typical(m, TypicalityParams(Fraction(1, 10), 4), 1, budget=8)
    assert exc.value.required == 16
    # the mode space (16) and the type tuples (5) both exceed the budget: the
    # mode-space check comes first
    with pytest.raises(BudgetExceededError, match="mode-1 enumeration") as exc:
        enumerate_typical(m, TypicalityParams(Fraction(1, 10), 4), 1, budget=4)
    assert exc.value.required == 16


def test_spectrum_uniform_saturates():
    m = rank_one_sign_model(4, 3, [uniform(2)] * 3)
    samples = spectrum_samples(m, 32, seed=9)
    target = theoretical_threshold(m)
    for v in samples:
        assert v == pytest.approx(target, rel=1e-12)


def test_spectrum_mean_and_variance_scaling():
    dists = [
        Distribution((Fraction(1, 4), Fraction(3, 4))),
        Distribution((Fraction(2, 3), Fraction(1, 3))),
        Distribution((Fraction(3, 5), Fraction(2, 5))),
    ]
    trials = 4000
    m8 = rank_one_sign_model(8, 3, dists)
    m16 = rank_one_sign_model(16, 3, dists)
    s8 = spectrum_samples(m8, trials, seed=1234)
    s16 = spectrum_samples(m16, trials, seed=1234)
    target = theoretical_threshold(m8)
    for samples in (s8, s16):
        mean = statistics.fmean(samples)
        se = math.sqrt(statistics.pvariance(samples) / trials)
        assert abs(mean - target) <= 3 * se
    ratio = statistics.pvariance(s16) / statistics.pvariance(s8)
    assert 0.375 <= ratio <= 0.625  # i.i.d. scaling: variance halves at 2n


def test_spectrum_deterministic_given_seed():
    m = skewed_model(6)
    assert spectrum_samples(m, 50, seed=7) == spectrum_samples(m, 50, seed=7)
    assert spectrum_samples(m, 50, seed=7) != spectrum_samples(m, 50, seed=8)


def test_mode_space_size():
    m = skewed_model(4)
    assert mode_space_size(m, 1) == 16
    a = Alphabet((-1, 0, 1))
    m3 = ModelSpec(2, 2, 2, (a, a), ((uniform(3), uniform(3)),) * 2)
    assert mode_space_size(m3, 2) == 3**4


# --- the type path against matrix-by-matrix enumeration -------------------------------

SIGN = Alphabet((-1, 1))
SKEWED_PAIR = (SKEWED, Distribution((Fraction(2, 3), Fraction(1, 3))))
GAMMA_STAR_7 = Fraction(1595910, 9780433)  # |D|/n of a 735-matrix family at n=7, within 1e-14


def one_mode_model(n, alphabet, dists):
    return ModelSpec(1, n, len(dists), (alphabet,), (tuple(dists),))


FRACTIONAL_MODEL = one_mode_model(
    3,
    Alphabet((Fraction(-1, 2), Fraction(1, 3), 2)),
    (
        Distribution((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))),
        Distribution((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))),
    ),
)
ZERO_SYMBOL_MODEL = one_mode_model(
    3,
    Alphabet((-1, 0, 1)),
    (
        Distribution((Fraction(1, 2), 0, Fraction(1, 2))),
        Distribution((Fraction(1, 5), Fraction(3, 5), Fraction(1, 5))),
    ),
)


def assert_type_path_matches_oracle(m, p):
    typical = [
        (pos, x) for pos, x in enumerate(iter_mode_matrices(m, 1)) if is_typical_matrix(x, m, p)
    ]
    enum = enumerate_typical(m, p, 1)
    assert enum.positions == tuple(pos for pos, _ in typical)
    assert tuple(mode_matrices(m, 1, enum.positions)) == tuple(x for _, x in typical)
    expected = sum((matrix_probability(x, m) for _, x in typical), Fraction(0))
    assert typicality_mass(m, p, 1) == expected
    assert enum.table.mass == expected
    return enum


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_type_path_matches_oracle_skewed_pair(n):
    m = one_mode_model(n, SIGN, SKEWED_PAIR)
    for gamma in (Fraction(1, 10), Fraction(1, 4)):
        enum = assert_type_path_matches_oracle(m, TypicalityParams(gamma, n))
        assert 0 < enum.count < enum.space_size


def test_type_path_matches_oracle_zero_probability_symbol():
    for gamma in (Fraction(1, 10), Fraction(1, 2), Fraction(50)):
        enum = assert_type_path_matches_oracle(ZERO_SYMBOL_MODEL, TypicalityParams(gamma, 3))
        typical = mode_matrices(ZERO_SYMBOL_MODEL, 1, enum.positions)
        assert all(row[0] != 0 for x in typical for row in x.rows)


def test_type_path_matches_oracle_fractional_alphabet():
    for gamma in (Fraction(1, 10), Fraction(1, 3)):
        assert_type_path_matches_oracle(FRACTIONAL_MODEL, TypicalityParams(gamma, 3))


def test_type_path_matches_oracle_uniform_columns():
    # balanced column types give empty deviation terms: typical without a float
    m = one_mode_model(4, SIGN, (uniform(2), uniform(2)))
    enum = assert_type_path_matches_oracle(m, TypicalityParams(Fraction(1, 100), 4))
    assert enum.count == enum.space_size


def test_type_path_matches_oracle_on_the_interval_boundary(monkeypatch):
    import cpdzip.typicality as typicality

    calls = []
    enclose = typicality._deviation_enclosure
    monkeypatch.setattr(
        typicality, "_deviation_enclosure", lambda t, bits: calls.append(bits) or enclose(t, bits)
    )
    m = one_mode_model(7, SIGN, SKEWED_PAIR)
    enum = assert_type_path_matches_oracle(m, TypicalityParams(GAMMA_STAR_7, 7))
    assert calls  # the boundary family was decided by exact enclosures
    assert enum.count == 2485


def test_typicality_mass_counts_type_tuples_not_the_mode_space(monkeypatch):
    import cpdzip.typicality as typicality

    def forbidden(*args, **kwargs):
        raise AssertionError("typicality_mass must not enumerate matrices")

    monkeypatch.setattr(typicality, "iter_mode_matrices", forbidden)
    monkeypatch.setattr(typicality, "mode_matrices", forbidden)
    monkeypatch.setattr(typicality, "enumerate_typical", forbidden)
    m = one_mode_model(4, SIGN, SKEWED_PAIR)  # 5 column types, 25 type tuples, 256 matrices
    p = TypicalityParams(Fraction(1, 10), 4)
    with pytest.raises(BudgetExceededError) as exc:
        typicality_mass(m, p, 1, budget=24)
    assert exc.value.required == 25
    assert 0 < typicality_mass(m, p, 1, budget=25) < 1


def test_enumerations_and_masses_build_no_factor_matrix(monkeypatch):
    import cpdzip.typicality as typicality

    cases = [
        (one_mode_model(6, SIGN, SKEWED_PAIR), Fraction(1, 10)),
        (one_mode_model(7, SIGN, SKEWED_PAIR), GAMMA_STAR_7),
        (ZERO_SYMBOL_MODEL, Fraction(1, 2)),
        (FRACTIONAL_MODEL, Fraction(1, 3)),
    ]

    def outputs():
        out = []
        for m, gamma in cases:
            p = TypicalityParams(gamma, m.dim)
            enum = enumerate_typical(m, p, 1)
            out.append((enum.positions, enum.count, typicality_mass(m, p, 1)))
        return out

    expected = outputs()

    def forbidden(*args, **kwargs):
        raise AssertionError("an enumeration or a mass built a factor matrix")

    monkeypatch.setattr(typicality, "FactorMatrix", forbidden)
    assert outputs() == expected


@st.composite
def mode_positions(draw):
    """(|A|, n, R, positions) with a mode space of at most 2^12 matrices."""
    size = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    max_n = {1: 4, 2: 12 // r, 3: 7 // r}[size]
    n = draw(st.integers(1, max_n))
    space = size ** (n * r)
    return size, n, r, draw(st.lists(st.integers(0, space - 1), min_size=1, max_size=8))


@given(mode_positions())
@settings(max_examples=200, deadline=None)
def test_mode_matrices_read_positions_in_the_format_spec_order(case):
    # FORMAT.md: position k is the k-th digit string of product(range(|A|), repeat=n*R),
    # read column-major: digit c*n + j is the symbol index of row j, column c
    size, n, r, positions = case
    alphabet = Alphabet((Fraction(-1, 2), 0, 3)[:size])
    m = ModelSpec(1, n, r, (alphabet,), ((uniform(size),) * r,))
    digits = list(product(range(size), repeat=n * r))
    got = list(mode_matrices(m, 1, positions))
    assert len(got) == len(positions)
    for pos, x in zip(positions, got):
        d = digits[pos]
        rows = tuple(tuple(alphabet.symbols[d[c * n + j]] for c in range(r)) for j in range(n))
        assert (x.mode, x.rows, x.alphabet) == (1, rows, alphabet)


def test_typicality_mass_at_n64():
    m = one_mode_model(64, SIGN, SKEWED_PAIR)  # a 2^128-matrix mode space
    mass = typicality_mass(m, TypicalityParams(Fraction(1, 10), 64), 1)
    assert 0 < mass <= 1
    assert typicality_mass(m, TypicalityParams(Fraction(50), 64), 1) == 1


# --- integer deviation terms against the Fraction formula --------------------------


def fraction_deviation_terms(counts, n, m, mode):
    """(c - n p, p) as Fractions per symbol of positive probability with a
    non-zero coefficient; None if P(X) = 0."""
    terms = []
    for r, column in enumerate(counts):
        for c, q in zip(column, m.dist(mode, r).probs):
            if q == 0:
                if c:
                    return None
                continue
            coeff = Fraction(c) - n * q
            if coeff:
                terms.append((coeff, q))
    return terms


def fraction_float_deviation(terms):
    return math.fsum(
        float(c) * (math.log(q.denominator) - math.log(q.numerator)) for c, q in terms
    )


@pytest.mark.parametrize(
    "m, gamma, escalations",
    [
        (one_mode_model(7, SIGN, SKEWED_PAIR), Fraction(1, 10), 0),
        (one_mode_model(7, SIGN, SKEWED_PAIR), GAMMA_STAR_7, 1),  # the (3, 5) family
        (FRACTIONAL_MODEL, Fraction(1, 10), 0),
        (FRACTIONAL_MODEL, Fraction(1, 3), 0),
        (ZERO_SYMBOL_MODEL, Fraction(1, 2), 0),
    ],
    ids=["n7-1/10", "n7-gamma*", "fractional-1/10", "fractional-1/3", "zero-symbol-1/2"],
)
def test_integer_deviation_terms_give_the_fraction_formulas_float(m, gamma, escalations):
    import cpdzip.typicality as typicality

    n, p = m.dim, TypicalityParams(gamma, m.dim)
    types = typicality._column_types(m.alphabet(1).size, n)
    near = 0
    for counts in product(types, repeat=m.components):
        expected = fraction_deviation_terms(counts, n, m, 1)
        terms = typicality._deviation_terms(counts, n, m, 1)
        if expected is None:
            assert terms is None
            assert not typicality._is_typical_counts(counts, n, m, 1, p)
            continue
        assert all(type(a) is int for a, _ in terms)
        assert [(Fraction(a, q.denominator), q) for a, q in terms] == expected
        dev = typicality._float_deviation(terms)
        assert dev.hex() == fraction_float_deviation(expected).hex()
        slack = float(n * gamma) - abs(dev)
        if terms and abs(slack) <= typicality._FLOAT_MARGIN:
            near += 1  # decided in interval arithmetic
        elif terms:
            assert typicality._is_typical_counts(counts, n, m, 1, p) == (slack > 0)
    assert near == escalations


# --- exact enclosures against an mpmath interval oracle ------------------------------


def mpmath_interval_decision(terms, bound_num, bound_den):
    """Typicality near the boundary in mpmath interval arithmetic, on the same
    precision ladder: True/False, or "undecidable" past its top rung."""
    iv = mpmath.iv
    old_prec = iv.prec
    try:
        for prec in (113, 240, 512, 1024):
            iv.prec = prec
            dev = iv.mpf(0)
            for a, q in terms:
                coeff = iv.mpf(a) / iv.mpf(q.denominator)
                dev += coeff * iv.log(iv.mpf(q.denominator) / iv.mpf(q.numerator))
            bound = iv.mpf(bound_num) / iv.mpf(bound_den)
            upper, lower = bound - dev, bound + dev
            if upper.b < 0 or lower.b < 0:
                return False
            if upper.a > 0 and lower.a > 0:
                return True
    finally:
        iv.prec = old_prec
    return "undecidable"


@st.composite
def boundary_instances(draw):
    """A one-mode model (2-4 symbols, R <= 2, n <= 12) whose distributions may
    hold zero and numerator-1 probabilities, one tuple of column types over
    the support, and gamma = |float D| / n + eps, so every decision is made
    within n * 1e-9 of the boundary."""
    size = draw(st.integers(2, 4))
    n = draw(st.integers(1, 12))
    weights = st.lists(
        st.sampled_from([0, 1, 1, 2, 3, 5, 7]), min_size=size, max_size=size
    ).filter(any)
    dists = tuple(
        Distribution(tuple(Fraction(w, sum(ws)) for w in ws))
        for ws in draw(st.lists(weights, min_size=1, max_size=2))
    )
    counts = tuple(
        tuple(map(symbols.count, range(size)))
        for symbols in (
            draw(st.lists(st.sampled_from([k for k, q in enumerate(d.probs) if q]),
                          min_size=n, max_size=n))
            for d in dists
        )
    )
    eps = draw(st.sampled_from([0.0, 1e-9, -1e-9, 1e-12, -1e-12, 1e-15, -1e-15]))
    return one_mode_model(n, Alphabet(tuple(range(size))), dists), counts, eps


@given(boundary_instances())
@settings(max_examples=300, deadline=None)
def test_exact_enclosures_decide_the_boundary_as_mpmath_intervals_do(instance):
    import cpdzip.typicality as typicality

    m, counts, eps = instance
    n = m.dim
    terms = typicality._deviation_terms(counts, n, m, 1)
    assume(terms)
    dev = abs(typicality._float_deviation(terms))
    gamma = Fraction(dev / n + eps)
    assume(gamma > 0)
    p = TypicalityParams(gamma, n)
    assert abs(float(n * gamma) - dev) <= typicality._FLOAT_MARGIN  # decided near the boundary
    try:
        decision = typicality._is_typical_counts(counts, n, m, 1, p)
    except TypicalityUndecidableError:
        decision = "undecidable"
    expected = mpmath_interval_decision(terms, n * gamma.numerator, gamma.denominator)
    assert decision == expected


def test_a_boundary_point_undecided_at_113_bits_climbs_the_ladder(monkeypatch):
    # D = (7/3) ln 2 for four 0s and one 1 under (1/3, 2/3) at n = 5; with
    # n * gamma the midpoint of its 113-bit enclosure, only a higher rung decides.
    import cpdzip.typicality as typicality

    m = one_mode_model(5, Alphabet((0, 1)), [Distribution((Fraction(1, 3), Fraction(2, 3)))])
    counts = ((4, 1),)
    terms = typicality._deviation_terms(counts, 5, m, 1)
    lo, hi = typicality._deviation_enclosure(terms, 113)
    gamma = (lo + hi) / 2 / 5
    calls = []
    enclose = typicality._deviation_enclosure
    monkeypatch.setattr(
        typicality, "_deviation_enclosure", lambda t, bits: calls.append(bits) or enclose(t, bits)
    )
    decision = typicality._is_typical_counts(counts, 5, m, 1, TypicalityParams(gamma, 5))
    with mpmath.workprec(4000):
        dev = mpmath.mpf(7) / 3 * mpmath.log(2)
        expected = dev < mpmath.mpf(gamma.numerator) * 5 / gamma.denominator
    assert calls == [113, 240]
    assert decision is expected is True


@given(boundary_instances())
@settings(max_examples=100, deadline=None)
def test_midpoints_of_the_113_bit_enclosure_climb_the_ladder_and_match_mpmath(instance):
    # n * gamma at the midpoint of the 113-bit enclosure of |D| lies strictly
    # inside it, so only a higher rung can decide the instance
    import cpdzip.typicality as typicality

    m, counts, _ = instance
    n = m.dim
    terms = typicality._deviation_terms(counts, n, m, 1)
    assume(terms)
    lo, hi = typicality._deviation_enclosure(terms, 113)
    assume(lo > 0 or hi < 0)  # |D| encloses as (|lo|, |hi|) only off zero
    gamma = (abs(lo) + abs(hi)) / 2 / n
    calls = []
    enclose = typicality._deviation_enclosure
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            typicality, "_deviation_enclosure",
            lambda t, bits: calls.append(bits) or enclose(t, bits),
        )
        decision = typicality._is_typical_counts(counts, n, m, 1, TypicalityParams(gamma, n))
    with mpmath.workprec(4000):
        dev = mpmath.fsum(
            mpmath.mpf(a) / q.denominator * (mpmath.log(q.denominator) - mpmath.log(q.numerator))
            for a, q in terms
        )
        expected = abs(dev) < mpmath.mpf(gamma.numerator) * n / gamma.denominator
    assert calls[0] == 113 and max(calls) > 113
    assert decision is bool(expected)


@given(boundary_instances())
@settings(max_examples=100, deadline=None)
def test_deviation_enclosures_hold_d_strictly_inside(instance):
    import cpdzip.typicality as typicality

    m, counts, _ = instance
    terms = typicality._deviation_terms(counts, m.dim, m, 1)
    assume(terms)
    with mpmath.workprec(4000):
        dev = mpmath.fsum(
            mpmath.mpf(a) / q.denominator * (mpmath.log(q.denominator) - mpmath.log(q.numerator))
            for a, q in terms
        )
        for bits in typicality._INTERVAL_PRECISIONS:
            lo, hi = typicality._deviation_enclosure(terms, bits)
            assert hi - lo < Fraction(1, 2 ** (bits - 16))
            assert mpmath.mpf(lo.numerator) / lo.denominator < dev
            assert dev < mpmath.mpf(hi.numerator) / hi.denominator
