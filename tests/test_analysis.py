import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpdzip import analysis
from cpdzip.analysis import (
    CheckRow,
    PermScalingRelation,
    UnsupportedModelError,
    WRelation,
    _full_rank_cogenerators,
    _tuple_sort_key,
    banded_rows_matrix_tensor,
    bilinear_sign_model,
    brute_force_zero_prob,
    count_factorizations,
    cubic_census_classification,
    cubic_sign_model,
    cubic_sign_tensor,
    exact_rank_deficiency_prob,
    find_perm_scaling,
    find_w_relation,
    full_rank_prob_bound,
    gamma_bound,
    prob_zero_tensor,
    rank_one_sign_model,
    uniqueness_census,
    verify_examples,
)
from cpdzip.model import (
    Alphabet,
    BudgetExceededError,
    CpdzipError,
    Distribution,
    ModelSpec,
    uniform,
)
from cpdzip.rng import sample_tuple, stream_rng
from cpdzip.tensors import (
    FactorMatrix,
    FactorTuple,
    ShapeError,
    cpd_compose,
    pivot_rows,
    rank_exact,
    replicate,
    unfold,
    zero_tensor,
)
from cpdzip.typicality import space_table

import linalg_oracle

U2 = uniform(2)


def generic_sign_model(n, order=3, r=2):
    a = Alphabet((-1, 1))
    row = tuple(U2 for _ in range(r))
    return ModelSpec(order, n, r, (a,) * order, (row,) * order)


# --- order-3 supersymmetric counts ------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cubic_zero_tensor_count_is_2_to_n(n):
    m = cubic_sign_model(n, U2, U2)
    census = count_factorizations(zero_tensor(3, n), m)
    assert census.total_count == 2**n
    # every generator is a rank-deficient [a, -a] matrix
    assert census.full_rank_count == 0
    for ft in census.representatives:
        x = ft.matrices[0]
        assert x.column(1) == tuple(-v for v in x.column(0))


def test_cubic_single_anchor_count_is_2():
    n = 4
    m = cubic_sign_model(n, U2, U2)
    t = cubic_sign_tensor((1, 1, 1, 1), (-1, -1, -1, 1))
    census = count_factorizations(t, m)
    assert census.total_count == 2


def test_cubic_all_anchors_count_is_1():
    n = 4
    m = cubic_sign_model(n, U2, U2)
    t = cubic_sign_tensor((1, 1, 1, 1), (1, 1, 1, 1))
    assert count_factorizations(t, m).total_count == 1


def test_cubic_census_classification_n3():
    rows = cubic_census_classification(3)
    assert all(r.ok for r in rows)
    assert rows[-1].observed == "ok"


def test_cubic_census_classification_enforces_budget():
    # n=3: one 3 x 2 sign matrix per tuple, 2^6 = 64 tuples
    with pytest.raises(BudgetExceededError):
        cubic_census_classification(3, budget=63)
    assert cubic_census_classification(3, budget=64)[-1].ok


def test_cubic_census_respects_supersymmetric_space():
    # the census enumerates one matrix and replicates; total candidates 2^(2n)
    m = cubic_sign_model(2, U2, U2)
    census = count_factorizations(zero_tensor(3, 2), m, budget=16)
    assert census.total_count == 4
    with pytest.raises(BudgetExceededError):
        count_factorizations(zero_tensor(3, 2), m, budget=15)


# --- order-2 counts -----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_bilinear_zero_count_is_2_to_2n_plus_1(n):
    m = bilinear_sign_model(n, U2, U2, U2, U2)
    census = count_factorizations(zero_tensor(2, n), m)
    assert census.total_count == 2 ** (2 * n + 1)
    assert census.full_rank_count == 0


@pytest.mark.parametrize("m_rows,expected", [(1, 32), (2, 16), (3, 8)])
def test_bilinear_banded_counts(m_rows, expected):
    n = 4
    model = bilinear_sign_model(n, U2, U2, U2, U2)
    t = banded_rows_matrix_tensor(n, m_rows)
    census = count_factorizations(t, model)
    assert census.total_count == expected == 2 ** (n - m_rows + 2)
    # the second factor matrix is rank-deficient in every generator
    for ft in census.representatives:
        assert rank_exact(ft.matrices[1].rows) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_bilinear_full_census_recorded(n):
    from cpdzip.analysis import bilinear_census_summary

    histogram = bilinear_census_summary(n)
    # every tuple in the 2^(4n) space lands somewhere
    assert sum(count * tensors for count, tensors in histogram.items()) == 2 ** (4 * n)
    # the zero matrix is the unique tensor with the maximal count 2^(2n+1)
    assert histogram[2 ** (2 * n + 1)] == 1
    assert max(histogram) == 2 ** (2 * n + 1)


def test_banded_tensor_shape():
    t = banded_rows_matrix_tensor(4, 2)
    assert t.entries[:4] == (0, 0, 0, 0)
    assert t.entries[4:8] == (2, 2, 2, 2)
    assert t.entries[8:12] == (2, 2, 2, 2)
    assert t.entries[12:] == (0, 0, 0, 0)


# --- closed-form probabilities ------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_cubic_zero_prob_uniform(n):
    m = cubic_sign_model(n, U2, U2)
    assert prob_zero_tensor(m) == Fraction(1, 2) ** n
    assert prob_zero_tensor(m) == brute_force_zero_prob(m)


@pytest.mark.parametrize("n", [2, 3])
def test_cubic_zero_prob_skewed_matches_brute_force(n):
    p = Distribution((Fraction(1, 4), Fraction(3, 4)))
    q = Distribution((Fraction(2, 3), Fraction(1, 3)))
    m = cubic_sign_model(n, p, q)
    # bracket: P(-1)Q(1) + P(1)Q(-1) = 1/12 + 6/12 = 7/12
    assert prob_zero_tensor(m) == Fraction(7, 12) ** n
    assert prob_zero_tensor(m) == brute_force_zero_prob(m)


def test_bilinear_zero_prob_uniform_n2():
    m = bilinear_sign_model(2, U2, U2, U2, U2)
    assert prob_zero_tensor(m) == Fraction(1, 8)
    assert prob_zero_tensor(m) == brute_force_zero_prob(m)


def test_bilinear_zero_prob_skewed_matches_brute_force():
    px = Distribution((Fraction(1, 4), Fraction(3, 4)))
    pu = Distribution((Fraction(1, 3), Fraction(2, 3)))
    py = Distribution((Fraction(2, 5), Fraction(3, 5)))
    pv = U2
    m = bilinear_sign_model(2, px, pu, py, pv)
    assert prob_zero_tensor(m) == brute_force_zero_prob(m)


SKEW_P = Distribution((Fraction(1, 4), Fraction(3, 4)))
SKEW_Q = Distribution((Fraction(2, 3), Fraction(1, 3)))
NO_MINUS = Distribution((Fraction(0), Fraction(1)))  # -1 has probability zero


@pytest.mark.parametrize(
    "shape, n",
    [("cubic", 2), ("cubic", 3), ("cubic", 4), ("bilinear", 2), ("bilinear", 3)],
)
def test_zero_prob_equals_the_probability_table_entry(shape, n):
    # Weighing only the tuples that compose to zero gives the zero id's entry
    # of the whole table's per-id totals, with any distributions on one table.
    dists = {
        "uniform": (U2, U2, U2, U2),
        "skewed": (SKEW_P, SKEW_Q, SKEW_Q, SKEW_P),
        "zero-probability symbol": (NO_MINUS, SKEW_Q, SKEW_P, NO_MINUS),
    }
    if shape == "cubic":
        models = [cubic_sign_model(n, *d[:2]) for d in dists.values()]
    else:
        models = [bilinear_sign_model(n, *d) for d in dists.values()]
    space = space_table(models[0], 1 << 16, "test sweep")
    zero = space.key_to_id[zero_tensor(models[0].order, n).key()]
    for m in models:
        totals, denominator = space.probabilities(m)
        observed = analysis._zero_prob(space, m)
        assert observed == Fraction(totals[zero], denominator) == prob_zero_tensor(m)


def test_zero_prob_weighs_only_the_zero_generators(monkeypatch):
    calls = count_calls(monkeypatch, "matrix_probability")
    m = cubic_sign_model(3, SKEW_P, SKEW_Q)
    space = space_table(m, 64, "test sweep")
    assert analysis._zero_prob(space, m) == Fraction(7, 12) ** 3
    assert 0 < len(calls) <= 8  # one per zero generator: 2^3 of the 64 matrices


def test_prob_zero_refuses_other_shapes():
    with pytest.raises(UnsupportedModelError):
        prob_zero_tensor(rank_one_sign_model(3, 3, [U2] * 3))
    with pytest.raises(UnsupportedModelError):
        prob_zero_tensor(generic_sign_model(3))  # order 3 but not supersymmetric


# --- full-rank probability bounds ---------------------------------------------------


def test_full_rank_bound_values():
    p = Distribution((Fraction(1, 4), Fraction(3, 4)))
    m = rank_one_sign_model(5, 1, [U2])
    b = full_rank_prob_bound(m)
    assert b.rho_per_mode == (Fraction(1, 2),)
    assert b.zeta_per_mode == (Fraction(1, 32),)

    a = Alphabet((-1, 1))
    m2 = ModelSpec(1, 10, 2, (a,), ((p, p),))
    b2 = full_rank_prob_bound(m2)
    assert b2.rho_per_mode == (Fraction(3, 4),)
    assert b2.zeta_per_mode == (Fraction(3, 4) ** 10 + Fraction(3, 4) ** 9,)
    assert float(b2.zeta_per_mode[0]) == pytest.approx(0.13139820098876953)


def test_zeta_decreasing_in_n():
    p = Distribution((Fraction(1, 4), Fraction(3, 4)))
    a = Alphabet((-1, 1))
    zetas = []
    for n in (4, 6, 8, 10):
        m = ModelSpec(1, n, 2, (a,), ((p, p),))
        zetas.append(full_rank_prob_bound(m).zeta_per_mode[0])
    assert all(x > y for x, y in zip(zetas, zetas[1:]))


def test_exact_rank_deficiency_2x2_uniform_is_half():
    m = generic_sign_model(2)
    assert exact_rank_deficiency_prob(m, 1) == Fraction(1, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("skewed", [False, True])
def test_rank_deficiency_below_zeta(n, skewed):
    a = Alphabet((-1, 1))
    d = Distribution((Fraction(3, 4), Fraction(1, 4))) if skewed else U2
    m = ModelSpec(3, n, 2, (a,) * 3, ((d, d),) * 3)
    bound = full_rank_prob_bound(m)
    for mode in (1, 2, 3):
        assert exact_rank_deficiency_prob(m, mode) <= bound.zeta_per_mode[mode - 1]


def test_rank_one_no_zero_symbol_never_deficient():
    m = rank_one_sign_model(3, 2, [U2] * 2)
    assert exact_rank_deficiency_prob(m, 1) == 0


# --- gamma bound --------------------------------------------------------------------


def test_gamma_bound_sign_order3():
    assert gamma_bound(generic_sign_model(4)) == 32  # 2! * 4^2


def test_gamma_bound_rank_one_sign():
    m = rank_one_sign_model(4, 3, [U2] * 3)
    assert gamma_bound(m) == 4  # scaling triples with product 1


def test_gamma_bound_asymmetric_alphabet_counts_symbol_ratios():
    a = Alphabet((1, 2))
    m = ModelSpec(3, 4, 2, (a,) * 3, ((U2, U2),) * 3)
    # per column: ratio triples from {1/2, 1, 2} with product 1, of which there are 7
    assert gamma_bound(m) == math.factorial(2) * 7**2
    # scalings that do not map the whole alphabet into itself still occur:
    # this tensor has 4 full-rank factorizations, more than R! = 2
    m2 = ModelSpec(3, 2, 2, (a,) * 3, ((U2, U2),) * 3)
    rows = (((1, 1), (1, 2)), ((2, 1), (2, 2)), ((1, 2), (2, 1)))
    t = cpd_compose(FactorTuple(tuple(FactorMatrix(i, x) for i, x in enumerate(rows, 1))))
    cert = uniqueness_census(t, m2)
    assert cert.certified
    assert (cert.full_rank_count, cert.bound) == (4, 98)


SMALL_SYMBOLS = (-2, -1, 0, Fraction(1, 2), 1, 2)


@st.composite
def order3_instances(draw):
    """An order-3 model over small alphabets (zero allowed) whose tuple space
    is within the brute-force cap, and a tensor of a full-rank tuple."""
    r = draw(st.integers(1, 2))
    n = draw(st.integers(r, 3 if r == 1 else 2))
    symbols = st.sets(st.sampled_from(SMALL_SYMBOLS), min_size=2, max_size=3)
    alphabets = tuple(Alphabet(tuple(sorted(draw(symbols)))) for _ in range(3))
    m = ModelSpec(3, n, r, alphabets, tuple((uniform(a.size),) * r for a in alphabets))
    # small enough to keep the brute-force reference of other tests fast
    assume(math.prod(a.size ** (n * r) for a in alphabets) <= 1 << 18)
    element = [st.sampled_from(a.symbols) for a in alphabets]
    mats = tuple(
        FactorMatrix(i, tuple(tuple(draw(element[i - 1]) for _ in range(r)) for _ in range(n)))
        for i in (1, 2, 3)
    )
    assume(all(rank_exact(x.rows) == r for x in mats))
    return m, cpd_compose(FactorTuple(mats))


@given(order3_instances())
@settings(max_examples=20, deadline=None)
def test_gamma_bound_caps_brute_force_counts_of_certified_tensors(instance):
    m, t = instance
    cert = uniqueness_census(t, m)  # the peeled search; a differential test checks it
    assert cert.bound == gamma_bound(m)
    # a violation-free census stays within the bound, which is why
    # ``certified`` may require both
    if not cert.violations:
        assert cert.full_rank_count <= cert.bound
        assert cert.certified


def test_gamma_bound_order2_counts_invertible_minors():
    m = bilinear_sign_model(4, U2, U2, U2, U2)
    # 8 invertible 2x2 sign matrices, bound = 8^2
    assert gamma_bound(m) == 64


def fraction_gamma_bound(m):
    """The order >= 3 bound counted on Fractions: the reference for the int count."""
    per_mode = []
    for i in range(1, m.order + 1):
        nonzero = [Fraction(s) for s in m.alphabet(i).symbols if s != 0]
        per_mode.append({b / a for a in nonzero for b in nonzero})
    per_column = sum(1 for lams in product(*per_mode) if math.prod(lams) == 1)
    return math.factorial(m.components) * per_column**m.components


@given(
    st.integers(3, 4).flatmap(
        lambda order: st.lists(
            st.sets(st.sampled_from(SMALL_SYMBOLS), min_size=2, max_size=3),
            min_size=order,
            max_size=order,
        )
    ),
    st.integers(1, 2),
)
@settings(max_examples=100, deadline=None)
def test_gamma_bound_equals_the_fraction_count(symbol_sets, r):
    alphabets = tuple(Alphabet(tuple(sorted(s))) for s in symbol_sets)
    m = ModelSpec(len(alphabets), 2, r, alphabets, tuple((uniform(a.size),) * r for a in alphabets))
    assert gamma_bound(m) == fraction_gamma_bound(m)


# --- essential uniqueness ------------------------------------------------------------


def full_rank_sample(m, seed, trial):
    while True:
        ft = sample_tuple(m, stream_rng(seed, trial))
        if all(rank_exact(x.rows) == m.components for x in ft.matrices):
            return ft
        trial += 10_000


def test_uniqueness_census_order3_certifies_all():
    m = generic_sign_model(4)
    for trial in range(5):
        ft = full_rank_sample(m, 101, trial)
        cert = uniqueness_census(cpd_compose(ft), m)
        assert cert.violations == ()
        assert cert.full_rank_count <= cert.bound
        assert cert.certified
        assert len(cert.relations) == cert.full_rank_count - 1
        for rel in cert.relations:
            assert isinstance(rel, PermScalingRelation)
            for r in range(m.components):
                prod_lam = math.prod(
                    (rel.lambdas[i][r] for i in range(3)), start=Fraction(1)
                )
                assert prod_lam == 1


def test_uniqueness_census_matches_brute_force_at_n3():
    m = generic_sign_model(3)
    ft = full_rank_sample(m, 103, 0)
    t = cpd_compose(ft)
    census = count_factorizations(t, m, budget=1 << 20)
    cert = uniqueness_census(t, m)
    assert cert.full_rank_count == census.full_rank_count
    # the generic full-rank class is the full orbit: 2 permutations x 16 scalings
    assert census.full_rank_count == 32
    assert len(census.classes) == 1 and len(census.classes[0]) == 32


def test_uniqueness_rank_one_scaling_only():
    m = rank_one_sign_model(3, 3, [U2] * 3)
    ft = full_rank_sample(m, 107, 0)
    t = cpd_compose(ft)
    cert = uniqueness_census(t, m)
    assert cert.certified
    assert cert.full_rank_count == 4  # sign flip patterns with product 1
    for rel in cert.relations:
        assert rel.permutation == (0,)
        assert math.prod((rel.lambdas[i][0] for i in range(3)), start=Fraction(1)) == 1


def test_uniqueness_order2_w_relation():
    m = bilinear_sign_model(3, U2, U2, U2, U2)
    ft = full_rank_sample(m, 109, 0)
    t = cpd_compose(ft)
    cert = uniqueness_census(t, m)
    assert cert.certified
    assert cert.full_rank_count >= 1
    for rel in cert.relations:
        assert isinstance(rel, WRelation)
        assert rank_exact(rel.w) == 2


def fractional_model(order, n, alphabets):
    return ModelSpec(order, n, 2, alphabets, tuple((uniform(a.size),) * 2 for a in alphabets))


HALVES = Alphabet((-1, Fraction(1, 2), 1))
NEG_HALF = Alphabet((Fraction(-1, 2), 1))
SIGNS = Alphabet((-1, 1))


@pytest.mark.parametrize(
    "m, trial",
    [
        (fractional_model(3, 2, (HALVES, SIGNS, NEG_HALF)), 0),
        (fractional_model(3, 2, (HALVES, SIGNS, NEG_HALF)), 11),
        (fractional_model(2, 3, (HALVES, SIGNS)), 0),
        (fractional_model(2, 3, (HALVES, SIGNS)), 1),
    ],
)
def test_pruned_census_matches_brute_force_off_the_sign_alphabet(m, trial):
    # Fractional alphabets send the pruned search's solves and the column
    # ratios through their Fraction branches.
    t = cpd_compose(full_rank_sample(m, 7, trial))
    brute = count_factorizations(t, m, full_rank_only=True, budget=1 << 20)
    pruned = _full_rank_cogenerators(t, m)
    assert len(pruned) >= 2
    assert pruned == sorted(brute.full_rank_tuples, key=_tuple_sort_key)
    assert any(type(v) is Fraction for x in pruned[0].matrices for row in x.rows for v in row)
    cert = uniqueness_census(t, m)
    assert cert.certified and cert.full_rank_count == len(pruned)
    for rel in cert.relations:
        if m.order == 2:
            assert isinstance(rel, WRelation)
            continue
        assert all(type(lam) is Fraction for lams in rel.lambdas for lam in lams)


def test_pruned_census_finds_non_integral_column_ratios():
    m = fractional_model(3, 2, (HALVES, SIGNS, NEG_HALF))
    cert = uniqueness_census(cpd_compose(full_rank_sample(m, 7, 11)), m)
    lambdas = {lam for rel in cert.relations for lams in rel.lambdas for lam in lams}
    assert lambdas == {Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1)}


@st.composite
def cogenerator_instances(draw):
    """A model of order 2-4 over small alphabets (zero and 1/2 allowed) with at
    most 2^16 tuples, and the tensor of any tuple, of full rank or not.  A
    supersymmetric model has one alphabet for every mode, and its tensor is
    that of a replicated matrix or of any tuple."""
    order = draw(st.integers(2, 4))
    r = draw(st.integers(1, 2))
    supersymmetric = draw(st.booleans())
    symbols = st.sets(st.sampled_from(SMALL_SYMBOLS), min_size=2, max_size=3)
    if supersymmetric:
        alphabets = (Alphabet(tuple(sorted(draw(symbols)))),) * order
        per_row = alphabets[0].size ** r  # one matrix is swept
    else:
        alphabets = tuple(Alphabet(tuple(sorted(draw(symbols)))) for _ in range(order))
        per_row = math.prod(a.size for a in alphabets) ** r  # the space is per_row^n
    n = draw(st.integers(1, max(k for k in range(1, 5) if per_row**k <= 1 << 16)))
    dists = tuple((uniform(a.size),) * r for a in alphabets)
    m = ModelSpec(order, n, r, alphabets, dists, supersymmetric=supersymmetric)
    mats = []
    for i, a in enumerate(alphabets, 1):
        entry = st.sampled_from(a.symbols)
        mats.append(FactorMatrix(i, tuple(tuple(draw(entry) for _ in range(r)) for _ in range(n))))
    if supersymmetric and draw(st.booleans()):
        mats = replicate(mats[0], order)
    return m, cpd_compose(FactorTuple(mats))


ZERO_ONE = Alphabet((0, 1))
EYE = ((1, 0), (0, 1))


@given(cogenerator_instances())
@example((  # the identity over {0, 1}: its two factorizations have zeros on the pivot rows
    ModelSpec(2, 2, 2, (ZERO_ONE,) * 2, ((uniform(2),) * 2,) * 2),
    cpd_compose(FactorTuple((FactorMatrix(1, EYE), FactorMatrix(2, EYE)))),
))
@example((  # a full-rank X: its supersymmetric set is X up to column order
    cubic_sign_model(3, U2, U2),
    cpd_compose(FactorTuple(replicate(FactorMatrix(1, ((1, 1), (1, -1), (-1, 1))), 3))),
))
@settings(max_examples=200, deadline=None)
def test_peeled_search_equals_the_brute_force_full_rank_set(instance):
    m, t = instance
    brute = count_factorizations(t, m, full_rank_only=True, budget=1 << 16)
    assert _full_rank_cogenerators(t, m) == sorted(brute.full_rank_tuples, key=_tuple_sort_key)


def count_calls(monkeypatch, *names) -> list:
    """Record the arguments of each call to the named ``analysis`` functions."""
    calls = []
    for name in names:
        def counted(*args, _fn=getattr(analysis, name), _name=name):
            calls.append((_name, args))
            return _fn(*args)

        monkeypatch.setattr(analysis, name, counted)
    return calls


def test_census_cost_is_polynomial_in_n(monkeypatch):
    # Testing each of the |A|^n alphabet vectors for span membership would
    # make 2^16 rank calls here; the peeled search makes a few dozen.  A
    # supersymmetric model takes the same search: its full-rank X has only
    # the column swap, as no sign but 1 has cube 1.
    calls = count_calls(monkeypatch, "pivot_rows", "rank_exact", "solve_exact")
    n = 16
    for m, count in ((generic_sign_model(n), 32), (cubic_sign_model(n, U2, U2), 2)):
        calls.clear()
        cert = uniqueness_census(cpd_compose(full_rank_sample(m, 101, 0)), m)
        assert cert.certified and (cert.full_rank_count, cert.bound) == (count, 32)
        assert 0 < len(calls) <= 64 * n


def test_every_census_solve_is_r_by_r(monkeypatch):
    # The span coefficients come from an R x R core of the pivot rows, not
    # from the n^(N-1) x (R + n) system, and each candidate's solve has R rows.
    calls = count_calls(monkeypatch, "solve_exact")
    n = 16
    for m in (generic_sign_model(n), cubic_sign_model(n, U2, U2)):
        calls.clear()
        cert = uniqueness_census(cpd_compose(full_rank_sample(m, 101, 0)), m)
        assert cert.certified
        assert calls and all(len(a) == len(b) == 2 for _, (a, b) in calls)
    t = cpd_compose(full_rank_sample(generic_sign_model(n), 101, 1))
    u = unfold(t, 3)
    calls.clear()
    analysis._span_vectors(u, [u[p] for p in pivot_rows(u)], Alphabet((-1, 1)))
    assert [(len(a), len(b)) for _, (a, b) in calls] == [(2, 2)]


@given(cogenerator_instances())
@settings(max_examples=150, deadline=None)
def test_span_vectors_equal_the_full_solve(instance):
    m, t = instance
    for mode in range(1, m.order + 1):
        u = unfold(t, mode)
        u_p = [u[p] for p in pivot_rows(u)]
        if not u_p:
            continue
        alphabet = m.alphabet(mode)
        assert analysis._span_vectors(u, u_p, alphabet) == linalg_oracle.span_vectors(
            u, u_p, alphabet
        )


def test_census_certifies_sampled_tensors_at_n_32():
    # Five sampled full-rank R = 2 sign tensors at n = 32: each one's
    # full-rank generators are exactly its orbit of 2! * 2^4 tuples.
    m = generic_sign_model(32)
    for trial in range(5):
        cert = uniqueness_census(cpd_compose(full_rank_sample(m, 131, trial)), m)
        assert cert.certified
        assert cert.full_rank_count == cert.bound == 32


def test_census_ranks_each_recovered_matrix_once(monkeypatch):
    # Candidates share their leading matrices; each is ranked once per census.
    calls = count_calls(monkeypatch, "rank_exact")
    m = generic_sign_model(4)
    for trial in range(4):
        calls.clear()
        cert = uniqueness_census(cpd_compose(full_rank_sample(m, 101, trial)), m)
        assert cert.certified
        ranked = [args[0] for _, args in calls]
        assert len(ranked) == len(set(ranked)) > 0


def test_supersymmetric_census_factors_no_row(monkeypatch):
    # Every mode of a supersymmetric tuple holds X_N, so each row of K^T is
    # compared with x_r^(N-1) instead of being factored into other tuples.
    calls = count_calls(monkeypatch, "_rank_one_factors")
    for alphabet in (Alphabet((-1, 1)), Alphabet((-2, -1, 1, 2))):
        row = (uniform(alphabet.size),) * 2
        m = ModelSpec(3, 8, 2, (alphabet,) * 3, (row,) * 3, supersymmetric=True)
        cert = uniqueness_census(cpd_compose(full_rank_sample(m, 101, 0)), m)
        assert cert.certified and cert.full_rank_count == 2
    assert calls == []


def test_census_builds_one_fraction_per_distinct_lambda(monkeypatch):
    # The relation checks run on the scalars the columns hold; a Fraction is
    # built only for a reported lambda, once per value.
    built = []

    def counted(*args, _fraction=Fraction):
        built.append(args)
        return _fraction(*args)

    monkeypatch.setattr(analysis, "Fraction", counted)
    m = generic_sign_model(16)
    cert = uniqueness_census(cpd_compose(full_rank_sample(m, 101, 0)), m)
    values = {lam for rel in cert.relations for lams in rel.lambdas for lam in lams}
    assert cert.certified and values == {Fraction(-1), Fraction(1)}
    assert len(built) <= len(values)


PINNED_REFERENCE = (
    ((-1, -1), (-1, -1), (-1, 1), (1, 1)),
    ((-1, -1), (-1, -1), (1, -1), (-1, -1)),
    ((1, -1), (-1, 1), (1, 1), (-1, 1)),
)
PINNED_RELATIONS = [  # (permutation, lambdas per mode)
    ((0, 1), ((1, 1), (1, -1), (1, -1))),
    ((0, 1), ((1, 1), (-1, 1), (-1, 1))),
    ((0, 1), ((1, 1), (-1, -1), (-1, -1))),
    ((1, 0), ((1, 1), (1, 1), (1, 1))),
    ((1, 0), ((1, 1), (1, -1), (1, -1))),
    ((1, 0), ((1, 1), (-1, 1), (-1, 1))),
    ((1, 0), ((1, 1), (-1, -1), (-1, -1))),
    ((0, 1), ((1, -1), (1, 1), (1, -1))),
    ((0, 1), ((1, -1), (1, -1), (1, 1))),
    ((0, 1), ((1, -1), (-1, 1), (-1, -1))),
    ((0, 1), ((1, -1), (-1, -1), (-1, 1))),
    ((1, 0), ((1, -1), (1, 1), (1, -1))),
    ((1, 0), ((1, -1), (1, -1), (1, 1))),
    ((1, 0), ((1, -1), (-1, 1), (-1, -1))),
    ((1, 0), ((1, -1), (-1, -1), (-1, 1))),
    ((1, 0), ((-1, 1), (1, 1), (-1, 1))),
    ((1, 0), ((-1, 1), (1, -1), (-1, -1))),
    ((1, 0), ((-1, 1), (-1, 1), (1, 1))),
    ((1, 0), ((-1, 1), (-1, -1), (1, -1))),
    ((0, 1), ((-1, 1), (1, 1), (-1, 1))),
    ((0, 1), ((-1, 1), (1, -1), (-1, -1))),
    ((0, 1), ((-1, 1), (-1, 1), (1, 1))),
    ((0, 1), ((-1, 1), (-1, -1), (1, -1))),
    ((1, 0), ((-1, -1), (1, 1), (-1, -1))),
    ((1, 0), ((-1, -1), (1, -1), (-1, 1))),
    ((1, 0), ((-1, -1), (-1, 1), (1, -1))),
    ((1, 0), ((-1, -1), (-1, -1), (1, 1))),
    ((0, 1), ((-1, -1), (1, 1), (-1, -1))),
    ((0, 1), ((-1, -1), (1, -1), (-1, 1))),
    ((0, 1), ((-1, -1), (-1, 1), (1, -1))),
    ((0, 1), ((-1, -1), (-1, -1), (1, 1))),
]


def test_uniqueness_certificate_is_pinned_in_full():
    m = generic_sign_model(4)
    cert = uniqueness_census(cpd_compose(full_rank_sample(m, 101, 0)), m)
    assert (cert.full_rank_count, cert.bound, cert.violations) == (32, 32, ())
    assert tuple(x.rows for x in cert.reference.matrices) == PINNED_REFERENCE
    assert [(rel.permutation, rel.lambdas) for rel in cert.relations] == PINNED_RELATIONS
    for rel in cert.relations:
        assert all(type(lam) is Fraction for lams in rel.lambdas for lam in lams)
        for ref, other, lams in zip(cert.reference.matrices, rel.other.matrices, rel.lambdas):
            for r, lam in enumerate(lams):
                assert other.column(r) == tuple(lam * v for v in ref.column(rel.permutation[r]))


def test_uniqueness_census_requires_full_rank_generator():
    m = generic_sign_model(3)
    with pytest.raises(CpdzipError):
        uniqueness_census(zero_tensor(3, 3), m)


def test_uniqueness_census_refuses_a_tensor_of_another_shape():
    t = cpd_compose(full_rank_sample(generic_sign_model(3), 103, 0))
    with pytest.raises(CpdzipError, match="shape"):
        uniqueness_census(t, generic_sign_model(4))


def test_find_perm_scaling_detects_column_swap():
    rows = ((1, 1), (1, -1), (-1, 1))
    x = FactorMatrix(1, rows)
    ref = FactorTuple(tuple(FactorMatrix(i, rows) for i in (1, 2, 3)))
    swapped_rows = tuple((b, a) for a, b in rows)
    other = FactorTuple(tuple(FactorMatrix(i, swapped_rows) for i in (1, 2, 3)))
    rel = find_perm_scaling(ref, other)
    assert rel is not None
    assert rel.permutation == (1, 0)


def test_find_perm_scaling_rejects_unrelated():
    ref = FactorTuple(
        tuple(FactorMatrix(i, ((1, 1), (1, -1), (-1, 1))) for i in (1, 2, 3))
    )
    other = FactorTuple(
        tuple(FactorMatrix(i, ((1, 1), (1, -1), (-1, -1))) for i in (1, 2, 3))
    )
    assert find_perm_scaling(ref, other) is None


def test_find_w_relation_certifies_inverse_transpose_pair():
    x1 = FactorMatrix(1, ((1, 1), (1, -1), (-1, 1)))
    x2 = FactorMatrix(2, ((1, -1), (1, 1), (1, 1)))
    ref = FactorTuple((x1, x2))
    # W = [[0, 1], [1, 0]] swaps columns; (W^-1)^T = W
    y1 = FactorMatrix(1, tuple((b, a) for a, b in x1.rows))
    y2 = FactorMatrix(2, tuple((b, a) for a, b in x2.rows))
    rel = find_w_relation(ref, FactorTuple((y1, y2)))
    assert rel is not None
    assert rel.w == ((0, 1), (1, 0))


def sign_tuple(order, n, r):
    return full_rank_sample(generic_sign_model(n, order, r), 113, 0)


SHAPE_MISMATCHES = [  # (order, n, R) of the reference, then of the other tuple
    ((3, 3, 2), (3, 4, 2)),
    ((3, 3, 2), (2, 3, 2)),
    ((3, 3, 2), (3, 3, 1)),
]


def both_shapes(ref_shape, other_shape):
    """A pattern for a message naming the other tuple's shape, then the reference's."""
    (o1, n1, r1), (o2, n2, r2) = ref_shape, other_shape
    return f"order-{o2} .*n={n2}, R={r2} .*order-{o1} .*n={n1}, R={r1}"


@pytest.mark.parametrize("ref_shape, other_shape", SHAPE_MISMATCHES)
def test_find_perm_scaling_refuses_tuples_of_different_shapes(ref_shape, other_shape):
    with pytest.raises(ShapeError, match=both_shapes(ref_shape, other_shape)):
        find_perm_scaling(sign_tuple(*ref_shape), sign_tuple(*other_shape))


@pytest.mark.parametrize(
    "ref_shape, other_shape", [((2, 3, 2), (3, 3, 2)), ((2, 3, 2), (2, 4, 2))]
)
def test_find_w_relation_refuses_tuples_of_different_shapes(ref_shape, other_shape):
    with pytest.raises(ShapeError, match=both_shapes(ref_shape, other_shape)):
        find_w_relation(sign_tuple(*ref_shape), sign_tuple(*other_shape))


def test_find_w_relation_refuses_order3_tuples():
    with pytest.raises(ShapeError, match="order-2"):
        find_w_relation(sign_tuple(3, 3, 2), sign_tuple(3, 3, 2))


def fraction_column_ratio(ref_col, other_col):
    a0 = b0 = None
    for a, b in zip(ref_col, other_col):
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return None
        if a0 is None:
            a0, b0 = a, b
        elif b * a0 != b0 * a:
            return None
    return None if a0 is None else Fraction(b0) / Fraction(a0)


def fraction_perm_scaling(ref, other):
    """The relation check run on Fractions: the reference for the int checks."""
    ref_cols = [x.columns() for x in ref.matrices]
    other_cols = [x.columns() for x in other.matrices]
    r_count = len(ref_cols[0])
    permutation = []
    for rc in range(r_count):
        match = None
        for ref_c in range(r_count):
            if fraction_column_ratio(ref_cols[0][ref_c], other_cols[0][rc]) is not None:
                match = ref_c
                break
        if match is None:
            return None
        permutation.append(match)
    if len(set(permutation)) != r_count:
        return None
    lambdas = []
    for ref_i, other_i in zip(ref_cols, other_cols):
        lams = []
        for rc in range(r_count):
            lam = fraction_column_ratio(ref_i[permutation[rc]], other_i[rc])
            if lam is None:
                return None
            lams.append(lam)
        lambdas.append(tuple(lams))
    for rc in range(r_count):
        if math.prod(lams[rc] for lams in lambdas) != 1:
            return None
    return PermScalingRelation(other, tuple(permutation), tuple(lambdas))


NONZERO_RATIOS = (-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2)


@st.composite
def relation_instances(draw):
    """A reference of order 3-4 and R <= 2 over small alphabets (zero and 1/2
    allowed), and tuples of its shape: arbitrary ones, and the reference with
    its columns permuted and scaled, by ratio tuples of product 1 or by any."""
    order = draw(st.integers(3, 4))
    r = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    symbols = st.sets(st.sampled_from(SMALL_SYMBOLS), min_size=2, max_size=3)
    entries = [st.sampled_from(sorted(draw(symbols))) for _ in range(order)]

    def matrix(i):
        rows = tuple(tuple(draw(entries[i - 1]) for _ in range(r)) for _ in range(n))
        return FactorMatrix(i, rows)

    ref = FactorTuple(tuple(matrix(i) for i in range(1, order + 1)))
    others = []
    kinds = st.sampled_from(("product 1", "any scaling", "arbitrary"))
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind == "arbitrary":
            others.append(FactorTuple(tuple(matrix(i) for i in range(1, order + 1))))
            continue
        perm = draw(st.permutations(range(r)))
        scalings = []
        for _ in range(r):
            lams = [draw(st.sampled_from(NONZERO_RATIOS)) for _ in range(order - 1)]
            if kind == "product 1":
                lams.append(1 / math.prod(lams, start=Fraction(1)))
            else:
                lams.append(draw(st.sampled_from(NONZERO_RATIOS)))
            scalings.append(lams)
        mats = []
        for i, x in enumerate(ref.matrices, 1):
            rows = tuple(tuple(scalings[c][i - 1] * row[perm[c]] for c in range(r)) for row in x.rows)
            mats.append(FactorMatrix(i, rows))
        others.append(FactorTuple(mats))
    return ref, others


@given(relation_instances())
@settings(max_examples=300, deadline=None)
def test_perm_scaling_equals_the_fraction_check(instance):
    ref, others = instance
    relate = analysis._relation_to(ref)  # one lambda memo across the others
    for other in others:
        expected = fraction_perm_scaling(ref, other)
        for rel in (find_perm_scaling(ref, other), relate(other)):
            assert (rel is None) == (expected is None)
            if rel is not None:
                assert rel.permutation == expected.permutation
                assert rel.lambdas == expected.lambdas
                assert all(type(lam) is Fraction for lams in rel.lambdas for lam in lams)


def test_relation_test_matches_a_shared_matrix_again_under_another_permutation():
    # The tuples share their mode-2 and mode-3 matrices, but their mode-1
    # columns come in opposite orders, so the shared matrices must be matched
    # again under the second permutation, where they fail.
    a = ((1, 1), (1, -1), (-1, 1))
    b = ((1, -1), (1, 1), (-1, -1))
    ref = FactorTuple((FactorMatrix(1, a), FactorMatrix(2, b), FactorMatrix(3, a)))
    swapped = FactorTuple((FactorMatrix(1, tuple((y, x) for x, y in a)),) + ref.matrices[1:])
    relate = analysis._relation_to(ref)
    assert relate(ref).permutation == (0, 1)
    assert find_perm_scaling(ref, swapped) is None
    assert relate(swapped) is None


# --- verify-examples ------------------------------------------------------------------


def test_verify_examples_fast_all_pass():
    rows = verify_examples(fast=True)
    assert rows
    assert all(isinstance(r, CheckRow) for r in rows)
    failures = [r for r in rows if not r.ok]
    assert failures == []


FULL_RUN_ROWS = [
    ("order3 zero-tensor count n=2", "4", "4", True),
    ("order3 zero-tensor count n=3", "8", "8", True),
    ("order3 zero-tensor count n=4", "16", "16", True),
    ("order3 zero-tensor count n=5", "32", "32", True),
    ("order3 single-anchor count n=4", "2", "2", True),
    ("order3 unique count n=4", "1", "1", True),
    ("order3-census n=3 all 33 tensors classified", "ok", "ok", True),
    ("order2 zero-matrix count n=2", "32", "32", True),
    ("order2 zero-matrix count n=3", "128", "128", True),
    ("order2 banded count n=4 m=1", "32", "32", True),
    ("order2 banded count n=4 m=2", "16", "16", True),
    ("order2 banded count n=4 m=3", "8", "8", True),
    ("order3 zero-prob uniform n=2", "1/4", "1/4", True),
    ("order3 zero-prob skewed n=2", "49/144", "49/144", True),
    ("order3 zero-prob uniform n=3", "1/8", "1/8", True),
    ("order3 zero-prob skewed n=3", "343/1728", "343/1728", True),
    ("order2 zero-prob uniform n=2", "1/8", "1/8", True),
]


def test_verify_examples_full_run_rows_are_pinned(monkeypatch):
    builds = []
    build = analysis.space_table
    monkeypatch.setattr(
        analysis, "space_table", lambda m, *args: builds.append((m.order, m.dim)) or build(m, *args)
    )
    rows = verify_examples()
    assert [(r.name, r.observed, r.expected, r.ok) for r in rows] == FULL_RUN_ROWS
    # each space's table is built once and read by every check on it: the
    # cubic n=3 table serves its zero count, the classification and both
    # zero-probability models, and the order-2 n=2 table its zero count and
    # zero probability
    assert Counter(builds) == {
        (3, 2): 1, (3, 3): 1, (3, 4): 1, (3, 5): 1, (2, 2): 1, (2, 3): 1, (2, 4): 1
    }
    assert len(builds) == 7


def test_verify_examples_refuses_a_budget_below_its_first_table():
    with pytest.raises(BudgetExceededError, match="factorization census") as info:
        verify_examples(fast=True, budget=15)
    assert info.value.required == 16  # the cubic n=2 space, 2^4 tuples


def test_verify_examples_refuses_a_budget_below_the_banded_table():
    # every cubic and order-2 n <= 3 table fits 4096; the order-2 n=4 one holds 2^16
    with pytest.raises(BudgetExceededError, match="factorization census") as info:
        verify_examples(budget=4096)
    assert info.value.required == 65536


def test_count_ranks_each_distinct_matrix_once_a_call(monkeypatch):
    calls = count_calls(monkeypatch, "rank_exact")
    m = bilinear_sign_model(3, U2, U2, U2, U2)
    space = space_table(m, 4096, "factorization census")
    census = analysis._count_in(space, zero_tensor(2, 3), m)
    generators = list(space.tuples_with_id(space.key_to_id[zero_tensor(2, 3).key()]))
    distinct = {x.rows for mats in generators for x in mats}
    ranked = [args[0] for _, args in calls]
    assert len(ranked) == len(set(ranked)) == len(distinct) < 2 * len(generators)
    # the census is the one that ranks every matrix of every tuple
    assert (census.total_count, census.full_rank_count) == (128, 0)
    assert census.representatives == tuple(FactorTuple(mats) for mats in generators[:64])
    assert census.full_rank_tuples == census.classes == ()
    x = FactorMatrix(1, ((1, 1), (1, -1), (-1, 1)))
    y = FactorMatrix(2, ((1, -1), (1, 1), (-1, -1)))
    census = analysis._count_in(space, cpd_compose([x, y]), m, full_rank_only=True)
    full = [
        FactorTuple(mats)
        for mats in space.tuples_with_id(space.key_to_id[cpd_compose([x, y]).key()])
        if all(linalg_oracle.rank_exact(z.rows) == 2 for z in mats)
    ]
    assert census.full_rank_tuples == tuple(full) and census.full_rank_count == len(full) > 1
    assert census.representatives == tuple(full[:64])
    assert census.classes == analysis._equivalence_classes(full)


def test_counts_on_a_shared_table_equal_count_factorizations():
    targets = {
        bilinear_sign_model(4, U2, U2, U2, U2): [
            banded_rows_matrix_tensor(4, m_rows) for m_rows in (1, 2, 3)
        ],
        cubic_sign_model(4, U2, U2): [
            zero_tensor(3, 4),
            cubic_sign_tensor((1, 1, 1, 1), (-1, -1, -1, 1)),
            cubic_sign_tensor((1, 1, 1, 1), (1, 1, 1, 1)),
        ],
        **{cubic_sign_model(n, U2, U2): [zero_tensor(3, n)] for n in (2, 3, 5)},
        **{bilinear_sign_model(n, U2, U2, U2, U2): [zero_tensor(2, n)] for n in (2, 3)},
    }
    for m, tensors in targets.items():
        space = space_table(m, 1 << 16, "factorization census")  # the largest holds 2^16
        for t in tensors:
            for full_rank_only in (False, True):
                shared = analysis._count_in(space, t, m, full_rank_only)
                assert shared == count_factorizations(t, m, full_rank_only)
