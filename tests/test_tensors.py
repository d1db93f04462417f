import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdzip import tensors
from cpdzip.rational import ScalarError, compact
from cpdzip.tensors import (
    DocumentError,
    ExactTensor,
    FactorMatrix,
    FactorTuple,
    ShapeError,
    compose_entries,
    cpd_compose,
    khatri_rao,
    khatri_rao_chain,
    kruskal_rank,
    mat_mul,
    matrix_from_dict,
    matrix_to_dict,
    outer_product,
    pivot_rows,
    rank_exact,
    solve_exact,
    tensor_from_dict,
    tensor_to_dict,
    transpose,
    unfold,
    zero_tensor,
)
from cpdzip.model import CpdzipError

import linalg_oracle


def frac_matrix(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def factor(mode, rows):
    return FactorMatrix(mode, tuple(tuple(v for v in row) for row in rows))


def random_fraction(rng, span=4):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_factor(rng, mode, n, r):
    return factor(mode, [[random_fraction(rng) for _ in range(r)] for _ in range(n)])


def random_full_rank_factor(rng, mode, n, r):
    while True:
        x = random_factor(rng, mode, n, r)
        if rank_exact(x.rows) == r:
            return x


# --- outer product / composition ------------------------------------------------


def test_outer_product_signs():
    t = outer_product([(1, -1), (1, 1)])
    assert t.entries == (1, 1, -1, -1)


def test_outer_product_all_ones_cube():
    t = outer_product([(1, 1)] * 3)
    assert t.entries == (1,) * 8


def test_outer_product_rationals_against_naive_oracle():
    a = (Fraction(1, 2), Fraction(2))
    b = (Fraction(3), Fraction(1, 3))
    t = outer_product([a, b])
    # independent oracle: direct nested multiplication
    oracle = [a[i] * b[j] for i in range(2) for j in range(2)]
    assert list(t.entries) == oracle
    assert t.entries == (Fraction(3, 2), Fraction(1, 6), 6, Fraction(2, 3))


def test_outer_product_length_mismatch():
    with pytest.raises(ShapeError):
        outer_product([(1, 2), (1, 2, 3)])


@given(
    st.integers(2, 3),
    st.integers(1, 3),
    st.integers(1, 2),
    st.sampled_from([(-1, 0, 2), (-1, Fraction(1, 2), 2), (Fraction(-3, 2), Fraction(2, 3))]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_compose_entries_types_match_entrywise_fraction_sums(order, n, r, alphabet, rnd):
    # Every entry is the exact sum of products, int exactly when integral.
    mats = [
        FactorMatrix(i, tuple(tuple(rnd.choice(alphabet) for _ in range(r)) for _ in range(n)))
        for i in range(1, order + 1)
    ]
    expected = []
    for idx in product(range(n), repeat=order):
        total = Fraction(0)
        for c in range(r):
            term = Fraction(1)
            for x, j in zip(mats, idx):
                term *= x.rows[j][c]
            total += term
        expected.append(compact(total))
    got = compose_entries(mats)
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


def test_cpd_compose_sign_cancellation_is_zero():
    # X = [a, -a] replicated over three modes composes to the zero tensor
    a = (1, 1)
    x = factor(1, [(a[j], -a[j]) for j in range(2)])
    mats = tuple(FactorMatrix(i, x.rows) for i in (1, 2, 3))
    assert cpd_compose(FactorTuple(mats)) == zero_tensor(3, 2)


def test_cpd_compose_bilinear_cancellation_is_zero():
    # X1 = [x, a*x], X2 = [y, -a*y] with a = 1
    x1 = factor(1, [(1, 1), (1, 1)])
    x2 = factor(2, [(1, -1), (1, -1)])
    assert cpd_compose(FactorTuple((x1, x2))) == zero_tensor(2, 2)


def test_cpd_compose_single_component_reduces_to_outer():
    rng = random.Random(5)
    vecs = [[random_fraction(rng) for _ in range(3)] for _ in range(3)]
    mats = tuple(factor(i + 1, [[v] for v in vec]) for i, vec in enumerate(vecs))
    assert cpd_compose(FactorTuple(mats)) == outer_product(vecs)


def test_cpd_compose_multilinear_column_scaling():
    rng = random.Random(11)
    mats = [random_factor(rng, i, 3, 2) for i in (1, 2, 3)]
    base = cpd_compose(FactorTuple(tuple(mats)))
    s = Fraction(3, 7)
    scaled = [
        factor(1, [(row[0] * s, row[1]) for row in mats[0].rows]),
        factor(2, [(row[0] / s, row[1]) for row in mats[1].rows]),
        mats[2],
    ]
    assert cpd_compose(FactorTuple(tuple(scaled))) == base


def test_cpd_compose_permutation_scaling_invariance():
    rng = random.Random(13)
    mats = [random_factor(rng, i, 3, 2) for i in (1, 2, 3)]
    base = cpd_compose(FactorTuple(tuple(mats)))
    lams = [(Fraction(2), Fraction(1, 3)), (Fraction(1, 2), Fraction(-1)), (Fraction(1), Fraction(-3))]
    # product over modes per column is 1
    assert lams[0][0] * lams[1][0] * lams[2][0] == 1
    assert lams[0][1] * lams[1][1] * lams[2][1] == 1
    perm = (1, 0)
    transformed = [
        factor(
            i + 1,
            [
                tuple(x.rows[j][perm[c]] * lams[i][c] for c in range(2))
                for j in range(3)
            ],
        )
        for i, x in enumerate(mats)
    ]
    assert cpd_compose(FactorTuple(tuple(transformed))) == base


# --- unfolding and Khatri-Rao ----------------------------------------------------


def test_unfold_rank_one_has_rank_one():
    t = outer_product([(1, 2), (3, 4), (5, 6)])
    assert rank_exact(unfold(t, 1)) == 1
    assert rank_exact(unfold(t, 2)) == 1


def test_unfold_order_two_is_the_matrix_itself():
    t = ExactTensor(2, 2, (1, 2, 3, 4))
    assert unfold(t, 1) == [[1, 2], [3, 4]]
    assert unfold(t, 2) == [[1, 3], [2, 4]]


def test_unfold_mode_out_of_range():
    with pytest.raises(ShapeError):
        unfold(zero_tensor(2, 2), 3)


def test_unfold_khatri_rao_identity_all_modes():
    rng = random.Random(23)
    mats = [random_factor(rng, i, 3, 2) for i in (1, 2, 3)]
    t = cpd_compose(FactorTuple(tuple(mats)))
    for mode in (1, 2, 3):
        others = [mats[i - 1].rows for i in range(3, 0, -1) if i != mode]
        chain = khatri_rao_chain(others)
        lhs = transpose(unfold(t, mode))
        rhs = mat_mul(chain, transpose(mats[mode - 1].rows))
        assert [[Fraction(v) for v in row] for row in lhs] == [
            [Fraction(v) for v in row] for row in rhs
        ]


def test_unfold_khatri_rao_identity_order_four():
    rng = random.Random(29)
    mats = [random_factor(rng, i, 2, 2) for i in (1, 2, 3, 4)]
    t = cpd_compose(FactorTuple(tuple(mats)))
    chain = khatri_rao_chain([mats[3].rows, mats[2].rows, mats[1].rows])
    lhs = transpose(unfold(t, 1))
    assert [[Fraction(v) for v in r] for r in lhs] == [
        [Fraction(v) for v in r] for r in mat_mul(chain, transpose(mats[0].rows))
    ]


def test_khatri_rao_single_columns():
    assert khatri_rao([[1], [1]], [[1], [-1]]) == [[1], [-1], [1], [-1]]


def test_khatri_rao_against_kronecker_oracle():
    rng = random.Random(31)
    a = [[random_fraction(rng) for _ in range(2)] for _ in range(3)]
    b = [[random_fraction(rng) for _ in range(2)] for _ in range(3)]
    kr = khatri_rao(a, b)
    for c in range(2):
        acol = [row[c] for row in a]
        bcol = [row[c] for row in b]
        kron = [x * y for x in acol for y in bcol]  # independent per-column oracle
        assert [row[c] for row in kr] == kron


def test_khatri_rao_column_mismatch():
    with pytest.raises(ShapeError):
        khatri_rao([[1, 2]], [[1]])


def test_khatri_rao_k_rank_bound_instance():
    a = [[1, 0], [0, 1], [1, 1]]
    b = [[1, 1], [1, -1], [0, 1]]
    assert kruskal_rank(a) == 2 and kruskal_rank(b) == 2
    kr = khatri_rao(a, b)
    assert kruskal_rank(kr) >= min(kruskal_rank(a) + kruskal_rank(b) - 1, 2)


def test_sylvester_consistency_full_rank_chain():
    rng = random.Random(37)
    mats = [random_full_rank_factor(rng, i, 4, 2) for i in (1, 2, 3)]
    chain = khatri_rao_chain([mats[2].rows, mats[1].rows])
    prod = mat_mul(chain, transpose(mats[0].rows))
    assert rank_exact(prod) == 2


# --- exact rank --------------------------------------------------------------------


def det_oracle(m):
    """Laplace-expansion determinant over Fractions (independent oracle)."""
    k = len(m)
    if k == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * det_oracle(minor)
    return total


def rank_oracle(m):
    """Largest t with a nonzero t x t minor, by exhaustive minors."""
    n_rows, n_cols = len(m), len(m[0])
    for t in range(min(n_rows, n_cols), 0, -1):
        for rows in combinations(range(n_rows), t):
            for cols in combinations(range(n_cols), t):
                sub = [[m[i][j] for j in cols] for i in rows]
                if det_oracle(sub) != 0:
                    return t
    return 0


def test_rank_identity():
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert rank_exact(eye) == 4


def test_rank_proportional_columns():
    m = [[1, -1], [2, -2], [-3, 3]]
    assert rank_exact(m) == 1


def test_rank_zero_matrix_and_empty():
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([]) == 0


def test_rank_against_minor_oracle_random():
    rng = random.Random(41)
    for _ in range(25):
        m = [[random_fraction(rng, 3) for _ in range(3)] for _ in range(5)]
        assert rank_exact(m) == rank_oracle(m)


def test_rank_rational_rows_scaling_safe():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)], [0, 0]]
    assert rank_exact(m) == rank_oracle(m) == 2
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert rank_exact(singular) == rank_oracle(singular) == 1


# --- Kruskal rank -------------------------------------------------------------------


def krank_oracle(m):
    cols = transpose(m)
    r = len(cols)
    best = 0
    for t in range(1, r + 1):
        if all(
            rank_oracle(transpose([cols[i] for i in s])) == t
            for s in combinations(range(r), t)
        ):
            best = t
        else:
            break
    return best


def test_kruskal_rank_identity():
    assert kruskal_rank([[1, 0], [0, 1]]) == 2


def test_kruskal_rank_e1_e2_sum():
    m = [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
    assert kruskal_rank(m) == 2
    assert rank_exact(m) == 2


def test_kruskal_rank_zero_column_convention():
    assert kruskal_rank([[1, 0], [1, 0]]) == 0


def test_kruskal_rank_exhaustive_sign_matrices():
    # every {-1, 1}^(3 x 2) matrix: oracle equality and k = rank at full column rank
    for bits in product((-1, 1), repeat=6):
        m = [list(bits[0:2]), list(bits[2:4]), list(bits[4:6])]
        k = kruskal_rank(m)
        assert k == krank_oracle(m)
        r = rank_exact(m)
        assert k <= r
        if r == 2:
            assert k == r


small_fractions = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


def matrix_strategy(rows, cols):
    return st.lists(
        st.lists(small_fractions, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@given(matrix_strategy(3, 2), matrix_strategy(3, 2))
@settings(max_examples=40)
def test_khatri_rao_columns_are_kroneckers(a, b):
    kr = khatri_rao(a, b)
    for c in range(2):
        expected = [row[c] * brow[c] for row in a for brow in b]
        assert [row[c] for row in kr] == expected


@given(matrix_strategy(4, 3))
@settings(max_examples=40)
def test_kruskal_rank_never_exceeds_rank(m):
    k = kruskal_rank(m)
    r = rank_exact(m)
    assert 0 <= k <= r
    if r == 3:  # full column rank forces equality
        assert k == r


@given(matrix_strategy(5, 2), matrix_strategy(2, 3))
@settings(max_examples=60)
def test_pivot_rows_are_a_row_basis(a, b):
    # a product through two columns has rank <= 2 with five rows: some rows
    # must be skipped
    for m in (mat_mul(a, b), a):
        rows = pivot_rows(m)
        assert rows == sorted(set(rows))
        assert len(rows) == rank_exact([m[i] for i in rows]) == rank_oracle(m)


@given(matrix_strategy(2, 2), matrix_strategy(2, 2), matrix_strategy(2, 2))
@settings(max_examples=30)
def test_unfold_compose_identity_property(m1, m2, m3):
    mats = tuple(FactorMatrix(i + 1, tuple(tuple(r) for r in m)) for i, m in enumerate((m1, m2, m3)))
    t = cpd_compose(FactorTuple(mats))
    chain = khatri_rao_chain([mats[2].rows, mats[1].rows])
    lhs = transpose(unfold(t, 1))
    rhs = mat_mul(chain, transpose(mats[0].rows))
    assert [[Fraction(v) for v in row] for row in lhs] == [
        [Fraction(v) for v in row] for row in rhs
    ]


# --- solve --------------------------------------------------------------------------


def test_solve_exact_recovers_product():
    rng = random.Random(43)
    a = [[random_fraction(rng) for _ in range(2)] for _ in range(4)]
    while rank_exact(a) != 2:
        a = [[random_fraction(rng) for _ in range(2)] for _ in range(4)]
    x = [[random_fraction(rng) for _ in range(3)] for _ in range(2)]
    b = mat_mul(a, x)
    sol = solve_exact(a, b)
    assert [[Fraction(v) for v in row] for row in sol] == [
        [Fraction(v) for v in row] for row in x
    ]


def test_solve_exact_detects_inconsistency():
    a = [[1, 0], [0, 1], [1, 1]]
    b = [[1], [1], [3]]  # inconsistent: 1 + 1 != 3
    assert solve_exact(a, b) is None


def solve_over_fractions(a, b):
    """Oracle: Gauss-Jordan elimination over Fractions on [A | B]."""
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    width = len(b[0]) if b else 0
    aug = [[Fraction(v) for v in a[i]] + [Fraction(v) for v in b[i]] for i in range(n_rows)]
    rank = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if aug[i][col]), None)
        if pivot_row is None:
            return None
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        piv = aug[rank][col]
        aug[rank] = [v / piv for v in aug[rank]]
        for i in range(n_rows):
            if i != rank and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[rank])]
        rank += 1
    if any(aug[i][n_cols + k] for i in range(rank, n_rows) for k in range(width)):
        return None
    return [[compact(aug[r][n_cols + k]) for k in range(width)] for r in range(rank)]


def compact_fraction(num, den):
    return compact(Fraction(num, den))


@st.composite
def linear_systems(draw):
    """(A, B) with int or fractional entries; A of full or deficient column
    rank, B = A X, A X with one entry perturbed, or unrelated to A."""
    entry = (
        st.integers(-4, 4)
        if draw(st.booleans())
        else st.builds(compact_fraction, st.integers(-4, 4), st.integers(1, 4))
    )
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3))

    def matrix(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    a = matrix(n_rows, n_cols)
    if n_cols > 1 and draw(st.booleans()):  # deficient: last column depends on the others
        coeffs = [draw(entry) for _ in range(n_cols - 1)]
        for row in a:
            row[-1] = sum(c * v for c, v in zip(coeffs, row[:-1]))
    kind = draw(st.sampled_from(["product", "perturbed", "free"]))
    if kind == "free":
        b = matrix(n_rows, width)
    else:
        b = mat_mul(a, matrix(n_cols, width))
        if kind == "perturbed":
            i, k = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, width - 1))
            b[i][k] += draw(st.integers(1, 3))
    return a, b


def entry_types(sol):
    return None if sol is None else [[type(v) for v in row] for row in sol]


@given(linear_systems())
@settings(max_examples=400, deadline=None)
def test_solve_exact_matches_fraction_gauss_jordan(system):
    a, b = system
    expected = solve_over_fractions(a, b)
    got = solve_exact(a, b)
    assert got == expected
    assert entry_types(got) == entry_types(expected)


def test_solve_exact_refuses_row_count_mismatch():
    with pytest.raises(ShapeError):
        solve_exact([[1], [2]], [[1]])
    with pytest.raises(ShapeError):
        solve_exact([[1]], [[1], [2]])


def test_int_linear_algebra_builds_no_fraction(monkeypatch):
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(tensors, "Fraction", CountingFraction)
    a = [[1, -1], [1, 1], [-1, 1], [2, 3]]
    assert rank_exact(a) == 2
    assert solve_exact(a, mat_mul(a, [[3, -1], [2, 5]])) == [[3, -1], [2, 5]]
    assert built == []
    assert solve_exact([[2]], [[1]]) == [[Fraction(1, 2)]]
    assert built == [(1, 2)]


# --- differential: the reference copies in linalg_oracle ------------------------------


def exact_entries(draw):
    """Ints, Fractions (integral ones kept as Fractions), or a mix of both."""
    fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    return draw(st.sampled_from([st.integers(-9, 9), fractions, st.integers(-3, 3) | fractions]))


@st.composite
def exact_tensors(draw):
    order, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    entry = exact_entries(draw)
    return ExactTensor(order, n, tuple(draw(st.lists(entry, min_size=n**order, max_size=n**order))))


@given(exact_tensors())
@settings(max_examples=200, deadline=None)
def test_unfold_equals_the_per_entry_decode(t):
    for mode in range(1, t.order + 1):
        got, expected = unfold(t, mode), linalg_oracle.unfold(t, mode)
        assert got == expected
        assert entry_types(got) == entry_types(expected)


@st.composite
def exact_matrices(draw):
    """A tall, square or wide matrix of int and Fraction entries: drawn entry
    by entry, or a product through fewer columns than either side has, so of
    deficient rank."""
    entry = exact_entries(draw)
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def matrix(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    if not draw(st.booleans()):
        return matrix(n_rows, n_cols)
    k = draw(st.integers(0, min(n_rows, n_cols) - 1))
    if k == 0:
        return [[0] * n_cols for _ in range(n_rows)]
    return mat_mul(matrix(n_rows, k), matrix(k, n_cols))


@given(exact_matrices())
@settings(max_examples=300, deadline=None)
def test_pivot_rows_and_rank_equal_the_full_elimination(m):
    for matrix in (m, transpose(m)):
        assert pivot_rows(matrix) == linalg_oracle.pivot_rows(matrix)
        assert rank_exact(matrix) == linalg_oracle.rank_exact(matrix)


@given(exact_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_solve_exact_equals_the_reference(a, data):
    n_rows, n_cols = len(a), len(a[0])
    width = data.draw(st.integers(1, 3))
    entry = st.integers(-4, 4)
    x = [[data.draw(entry) for _ in range(width)] for _ in range(n_cols)]
    b = mat_mul(a, x) if data.draw(st.booleans()) else [
        [data.draw(entry) for _ in range(width)] for _ in range(n_rows)
    ]
    got = solve_exact(a, b)
    expected = linalg_oracle.solve_exact(a, b)
    assert got == expected
    assert entry_types(got) == entry_types(expected)


# --- serialization -------------------------------------------------------------------


def test_tensor_json_round_trip():
    t = ExactTensor(2, 2, (Fraction(1, 3), -2, 0, Fraction(7, 5)))
    assert tensor_from_dict(tensor_to_dict(t)) == t


def test_matrix_json_round_trip():
    x = FactorMatrix(2, ((Fraction(1, 2), 1), (-1, Fraction(5, 3))))
    assert matrix_from_dict(matrix_to_dict(x)) == x


def test_json_readers_return_integral_values_as_int():
    doc = {"kind": "tensor", "order": 1, "dim": 4, "entries": ["4/2", "-3/1", 5, "-1/2"]}
    t = tensor_from_dict(doc)
    assert t.entries == (2, -3, 5, Fraction(-1, 2))
    assert [type(e) for e in t.entries[:3]] == [int, int, int]
    with pytest.raises(ScalarError):  # the sign belongs on the numerator
        tensor_from_dict(dict(doc, entries=["4/2", "-3/1", 5, "1/-2"]))
    x = matrix_from_dict(
        {"kind": "factor_matrix", "mode": 1, "rows": 1, "cols": 2, "entries": [["6/3", "1/3"]]}
    )
    assert x.rows == ((2, Fraction(1, 3)),) and type(x.rows[0][0]) is int


@pytest.mark.parametrize("bad", [" 1_0 ", "1/2", 0.5, 1.0, True, False, None, [1]])
def test_json_writers_refuse_entries_that_are_not_exact_scalars(bad):
    # ExactTensor and FactorMatrix hold any objects; the writers must not
    # coerce them (" 1_0 " once became "10/1", True "1/1", 0.5 "1/2").
    for entries in ((bad, 1, Fraction(1, 2)), (1, Fraction(1, 2), bad), (1, bad, 1)):
        with pytest.raises(ScalarError):
            tensor_to_dict(ExactTensor(1, 3, entries))
        with pytest.raises(ScalarError):
            matrix_to_dict(FactorMatrix(1, tuple((v,) for v in entries)))


def test_json_writers_accept_ints_and_fractions():
    t = ExactTensor(1, 4, (1, Fraction(1), Fraction(-3, 6), 0))
    assert tensor_to_dict(t)["entries"] == ["1/1", "1/1", "-1/2", "0/1"]
    x = FactorMatrix(1, ((2, Fraction(4, 2)), (Fraction(1, 3), -1)))
    assert matrix_to_dict(x)["entries"] == [["2/1", "2/1"], ["1/3", "-1/1"]]


def test_tensor_from_dict_rejects_other_kinds():
    doc = tensor_to_dict(zero_tensor(2, 2))
    for kind in ("factor_matrix", None, "Tensor"):
        bad = dict(doc, kind=kind)
        with pytest.raises(CpdzipError):
            tensor_from_dict(bad)
    with pytest.raises(CpdzipError):
        tensor_from_dict({k: v for k, v in doc.items() if k != "kind"})


def test_matrix_from_dict_rejects_other_kinds():
    doc = matrix_to_dict(FactorMatrix(1, ((1, 0), (0, 1))))
    for kind in ("tensor", None):
        with pytest.raises(CpdzipError):
            matrix_from_dict(dict(doc, kind=kind))


@pytest.mark.parametrize("name", ["order", "dim", "entries"])
def test_tensor_from_dict_requires_every_field(name):
    doc = tensor_to_dict(zero_tensor(2, 2))
    del doc[name]
    with pytest.raises(DocumentError, match=name):
        tensor_from_dict(doc)


@pytest.mark.parametrize(
    "name, value",
    [("order", "2"), ("order", 2.0), ("dim", 2.5), ("dim", True), ("dim", None), ("entries", "0000")],
)
def test_tensor_from_dict_refuses_mistyped_fields(name, value):
    doc = dict(tensor_to_dict(zero_tensor(2, 2)), **{name: value})
    with pytest.raises(DocumentError, match=name):
        tensor_from_dict(doc)


@pytest.mark.parametrize("name", ["mode", "rows", "cols", "entries"])
def test_matrix_from_dict_requires_every_field(name):
    doc = matrix_to_dict(FactorMatrix(1, ((1, 0), (0, 1))))
    del doc[name]
    with pytest.raises(DocumentError, match=name):
        matrix_from_dict(doc)


@pytest.mark.parametrize(
    "name, value",
    [
        ("mode", "1"),
        ("mode", 1.0),
        ("entries", ["10", "01"]),
        ("rows", "2"),
        ("rows", 2.0),
        ("rows", True),
        ("rows", 0),
        ("cols", None),
        ("cols", 2.5),
        ("cols", -2),
        ("rows", 5),  # one reading per document: a 2 x 2 matrix is not 5 x 2
        ("cols", 1),
        ("entries", [["1/1", "0/1"], ["1/1"]]),
    ],
)
def test_matrix_from_dict_refuses_mistyped_fields(name, value):
    doc = dict(matrix_to_dict(FactorMatrix(1, ((1, 0), (0, 1)))), **{name: value})
    with pytest.raises(DocumentError, match=name):
        matrix_from_dict(doc)


def test_tensor_from_dict_rejects_zero_denominator():
    doc = tensor_to_dict(zero_tensor(2, 2))
    doc["entries"][1] = "1/0"
    with pytest.raises(CpdzipError):
        tensor_from_dict(doc)


def test_composition_of_fractional_factors_returns_integral_entries_as_int():
    half = Fraction(1, 2)
    t = outer_product([(half, 2), (2, half)])
    assert t.entries == (1, Fraction(1, 4), 4, 1)
    assert [type(e) for e in t.entries] == [int, Fraction, int, int]
    mats = (factor(1, [[half], [2]]), factor(2, [[2], [half]]))
    assert cpd_compose(mats).entries == t.entries
    assert [type(e) for e in cpd_compose(mats).entries] == [int, Fraction, int, int]


@pytest.mark.parametrize(
    "rows", [((1, 2), (3,)), ((1,), (2, 3)), ((1, 2), (3, 4), ()), ((), (1,))]
)
def test_ragged_factor_matrix_is_refused(rows):
    with pytest.raises(ShapeError, match="ragged"):
        FactorMatrix(1, rows)


def test_empty_and_rectangular_factor_matrices_are_accepted():
    empty = FactorMatrix(1, ())
    assert (empty.rows, empty.n, empty.r) == ((), 0, 0)
    x = FactorMatrix(2, [[1, -1], [Fraction(1, 2), 0]])
    assert (x.rows, x.n, x.r) == (((1, -1), (Fraction(1, 2), 0)), 2, 2)
