"""Differential tests of the exact sweep engine against per-tuple composition.

A ``SpaceTable``'s tensor ids must agree, tuple by tuple and in product
order, with ``pack_scalars(compose_entries(...))`` and ``composes_to``; its
per-id probabilities must equal grouped sums of products of
``matrix_probability``; ``measure_scheme``'s error probability must equal a
plain ``Fraction`` sum over the full tuple space.
"""

import math
from fractions import Fraction
from itertools import compress, product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdzip import codec, sweep, tensors
from cpdzip.analysis import bilinear_sign_model, cubic_sign_model, rank_one_sign_model
from cpdzip.codec import build_decode_book, measure_scheme
from cpdzip.model import (
    Alphabet,
    BudgetExceededError,
    Distribution,
    ModelSpec,
    mode_space_size,
    uniform,
)
from cpdzip.rational import pack_scalars
from cpdzip.sweep import intern_space, iter_mode_matrices, space_table
from cpdzip.tensors import (
    ExactTensor,
    FactorMatrix,
    compose_entries,
    composes_to,
    cpd_compose,
    zero_tensor,
)
from cpdzip.typicality import TypicalityParams, matrix_probability

U2 = uniform(2)
SKEWED = Distribution((Fraction(1, 4), Fraction(3, 4)))
FRACTIONAL = Alphabet((Fraction(-1, 2), Fraction(1, 3), 2))
THIRDS = Distribution((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
HALF_TWO = Alphabet((Fraction(1, 2), 2))
FIFTHS = Distribution((Fraction(1, 5), Fraction(4, 5)))

MODELS = {
    "rank-one order 3": rank_one_sign_model(2, 3, [SKEWED, U2, SKEWED]),
    "bilinear R=2": bilinear_sign_model(2, SKEWED, U2, U2, SKEWED),
    "cubic supersymmetric": cubic_sign_model(3, SKEWED, U2),
    # products such as (-1/2) * 2 give integral Fractions inside the sweep
    "fractional alphabet": ModelSpec(2, 2, 2, (FRACTIONAL,) * 2, ((THIRDS, THIRDS),) * 2),
    # Khatri-Rao rows such as (1/2 * 2, 2 * 2) and blocks such as 1/2 * 2 + 2 * 1/2
    # hold integral Fractions
    "fractional order 3 R=2": ModelSpec(
        3, 2, 2, (HALF_TWO,) * 3, ((FIFTHS, U2), (U2, FIFTHS), (FIFTHS, FIFTHS))
    ),
}


def replicated_tuples(m, spaces):
    """Every tuple in product order; a supersymmetric matrix fills all modes."""
    for mats in product(*spaces):
        if m.supersymmetric:
            mats = tuple(FactorMatrix(i, mats[0].rows) for i in range(1, m.order + 1))
        yield mats


def mode_matrices(m):
    """Every matrix of each independent mode, canonical order, without a table."""
    return [list(iter_mode_matrices(m, i)) for i in range(1, m.independent_matrices + 1)]


def tuple_keys(table):
    """The key of every tuple of a ``SpaceTable``, in product order."""
    return [table.id_keys[tid] for tid in table.tuple_ids]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_matches_per_tuple_composition(name):
    m = MODELS[name]
    table = space_table(m, 1 << 20, "test sweep")
    spaces = table.spaces
    keys = tuple_keys(table)
    tuples = list(replicated_tuples(m, spaces))
    space = math.prod(mode_space_size(m, i) for i in range(1, m.independent_matrices + 1))
    assert len(keys) == len(tuples) == space
    previous = None
    for mats, key in zip(tuples, keys):
        composed = compose_entries(mats)
        assert key == pack_scalars(composed)
        tensor = ExactTensor(m.order, m.dim, tuple(composed))
        assert key == tensor.key()
        assert composes_to(mats, tensor)
        if previous is not None:
            assert composes_to(mats, previous) == (key == previous.key())
        previous = tensor


def test_fractional_sweep_meets_integral_fractions():
    # Products such as 1/2 * 2 make the sweep's rows and blocks hold integral
    # Fractions, which must pack like the equal ints for the keys to match
    # ``cpd_compose``.
    m = MODELS["fractional order 3 R=2"]
    keys = set(tuple_keys(space_table(m, 1 << 20, "test sweep")))
    half = Fraction(1, 2)
    rows = (((half, 2), (2, 2)), ((2, half), (2, 2)), ((2, 2), (2, half)))
    composed = cpd_compose([FactorMatrix(i, x) for i, x in enumerate(rows, 1)])
    assert {type(v) for v in composed.entries} == {int, Fraction}
    assert composed.key() in keys


def test_sweep_of_an_empty_first_or_last_mode():
    m = MODELS["rank-one order 3"]
    spaces = mode_matrices(m)
    for modes in (spaces[:-1] + [[]], [[]] + spaces[1:]):
        empty = intern_space(modes, m.order)
        assert (empty.tuple_ids, empty.key_to_id, empty.id_keys) == ([], {}, [])
        assert empty.probabilities(m)[0] == []


SWEEP_SYMBOLS = (-2, -1, 0, Fraction(1, 2), 1, 2)


@st.composite
def sweep_instances(draw):
    """A model of order 2-4 and R <= 2 over small alphabets (zero and 1/2
    allowed), supersymmetric or not, with at most 2^16 tuples."""
    order = draw(st.integers(2, 4))
    r = draw(st.integers(1, 2))
    supersymmetric = draw(st.booleans())
    symbols = st.sets(st.sampled_from(SWEEP_SYMBOLS), min_size=2, max_size=3)
    if supersymmetric:
        alphabets = (Alphabet(tuple(sorted(draw(symbols)))),) * order
        per_row = alphabets[0].size ** r  # one matrix is swept
    else:
        alphabets = tuple(Alphabet(tuple(sorted(draw(symbols)))) for _ in range(order))
        per_row = math.prod(a.size for a in alphabets) ** r  # the space is per_row^n
    n = draw(st.integers(1, max(k for k in range(1, 5) if per_row**k <= 1 << 16)))
    dists = tuple((uniform(a.size),) * r for a in alphabets)
    return ModelSpec(order, n, r, alphabets, dists, supersymmetric=supersymmetric)


@given(sweep_instances())
@settings(max_examples=60, deadline=None)
def test_tensor_ids_equal_the_partition_of_packed_compositions(m):
    table = space_table(m, 1 << 16, "test sweep")
    packed = [pack_scalars(compose_entries(mats)) for mats in replicated_tuples(m, table.spaces)]
    first: dict[bytes, int] = {}  # packed composition -> id, in first-occurrence order
    for key in packed:
        first.setdefault(key, len(first))
    # equal ids exactly when the packed compositions are equal, numbered in
    # first-occurrence order
    assert table.tuple_ids == [first[key] for key in packed]
    # each id's key is the packed composition of its first tuple
    assert list(table.key_to_id.items()) == list(first.items())
    assert table.id_keys == list(first)


def test_cold_table_packs_each_distinct_last_mode_block_once(monkeypatch):
    # Bytes are packed per distinct block, not per tuple or per (prefix row,
    # last-mode matrix) pair; slabs and keys are joins of packed bytes.
    packed = []

    def counted(values, _pack=pack_scalars):
        packed.append(values)
        return _pack(values)

    monkeypatch.setattr(sweep, "pack_scalars", counted)
    m = rank_one_sign_model(5, 3, [U2] * 3)  # the codec's rank-one sign model
    table = codec._space_index(m, 1 << 15)
    spaces = table.spaces
    prefix_rows = {
        tuple(map(mul, u, v)) for x in spaces[0] for u in x.rows for y in spaces[1] for v in y.rows
    }
    blocks = {
        tuple(sum(map(mul, w, row)) for row in x.rows) for w in prefix_rows for x in spaces[2]
    }
    assert (len(table.tuple_ids), len(table.id_keys), len(blocks)) == (32768, 8192, 32)
    assert 0 < len(packed) <= len(blocks)


@st.composite
def supersymmetric_lists(draw):
    """An order of 2-4 and a list of n x R matrices (R 1-3, zero and 1/2
    allowed): a canonical space shuffled, or a sub-sample with repeats."""
    order = draw(st.integers(2, 4))
    r = draw(st.integers(1, 3))
    alphabet = Alphabet(tuple(sorted(draw(st.sets(st.sampled_from(SWEEP_SYMBOLS), min_size=2,
                                                  max_size=3)))))
    n = draw(st.integers(1, max(k for k in range(1, 4) if alphabet.size ** (k * r) <= 729)))
    m = ModelSpec(order, n, r, (alphabet,) * order, ((uniform(alphabet.size),) * r,) * order,
                  supersymmetric=True)
    space = list(iter_mode_matrices(m, 1))
    picks = draw(st.one_of(
        st.permutations(range(len(space))),
        st.lists(st.integers(0, len(space) - 1), max_size=60),
    ))
    return order, [space[i] for i in picks]


@given(supersymmetric_lists())
@settings(max_examples=80, deadline=None)
def test_supersymmetric_ids_equal_the_partition_of_packed_compositions(instance):
    # Any matrix list, not only a canonical space: the multiset memo must not
    # lean on the list's order or on each matrix occurring once.
    order, mats = instance
    table = intern_space([mats], order)
    tuple_ids, key_to_id = table.tuple_ids, table.key_to_id
    first: dict[bytes, int] = {}
    packed = [pack_scalars(compose_entries(tensors.replicate(x, order))) for x in mats]
    for key in packed:
        first.setdefault(key, len(first))
    assert tuple_ids == [first[key] for key in packed]
    assert list(key_to_id.items()) == list(first.items())


@st.composite
def product_lists(draw):
    """An order of 2-4 and one list of n x R matrices per mode (R 1-3, zero
    and 1/2 allowed), each a canonical mode space shuffled or a sub-sample
    with repeats, with 1 to 4096 tuples in all."""
    order = draw(st.integers(2, 4))
    r = draw(st.integers(1, 3))
    symbols = st.sets(st.sampled_from(SWEEP_SYMBOLS), min_size=2, max_size=3)
    alphabets = tuple(Alphabet(tuple(sorted(draw(symbols)))) for _ in range(order))
    largest = max(a.size for a in alphabets) ** r
    n = draw(st.integers(1, max(k for k in range(1, 4) if largest**k <= 64)))
    m = ModelSpec(order, n, r, alphabets, tuple((uniform(a.size),) * r for a in alphabets))
    lists, room = [], 4096
    for mode in range(1, order + 1):
        space = list(iter_mode_matrices(m, mode))
        picks = st.lists(st.integers(0, len(space) - 1), min_size=1, max_size=min(6, room))
        if len(space) <= room:
            picks = st.one_of(st.permutations(range(len(space))), picks)
        lists.append([space[i] for i in draw(picks)])
        room //= max(1, len(lists[-1]))
    return order, lists


@given(product_lists())
@settings(max_examples=60, deadline=None)
def test_product_ids_equal_the_partition_of_packed_compositions(instance):
    # The top level is interned on its slab tuples, not on the joined keys;
    # any per-mode lists, repeats included, must give the ids and keys of
    # interning the packed compositions.
    order, lists = instance
    table = intern_space(lists, order)
    tuple_ids, key_to_id = table.tuple_ids, table.key_to_id
    first: dict[bytes, int] = {}
    packed = [pack_scalars(compose_entries(mats)) for mats in product(*lists)]
    for key in packed:
        first.setdefault(key, len(first))
    assert tuple_ids == [first[key] for key in packed]
    assert list(key_to_id.items()) == list(first.items())
    # a repeated matrix gives the tuples it sits in the ids of its first copy
    seen: dict[tuple, int] = {}
    for rows, tid in zip(product(*[[x.rows for x in mats] for mats in lists]), tuple_ids):
        assert seen.setdefault(rows, tid) == tid


def test_cubic_table_packs_each_column_multiset_once(monkeypatch):
    packed = []

    def counted(values, _pack=pack_scalars):
        packed.append(values)
        return _pack(values)

    monkeypatch.setattr(sweep, "pack_scalars", counted)
    mats = list(iter_mode_matrices(cubic_sign_model(5, U2, U2), 1))
    table = intern_space([mats], 3)
    tuple_ids, key_to_id = table.tuple_ids, table.key_to_id
    multisets = {tuple(sorted(x.columns())) for x in mats}
    assert (len(mats), len(multisets), len(key_to_id)) == (1024, 528, 513)
    assert len(set(tuple_ids)) == 513
    assert 0 < len(packed) <= len(multisets)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_tuples_with_id_equal_the_filtered_product(name):
    m = MODELS[name]
    spaces = mode_matrices(m)
    # a matrix of 3s last in every mode gives the last tuple a tensor no other
    # tuple has
    for mats in spaces:
        mats.append(FactorMatrix(mats[0].mode, ((3,) * m.components,) * m.dim))
    table = intern_space(spaces, m.order)
    assert table.tuple_ids.count(table.tuple_ids[-1]) == 1
    for tid in [None, *range(len(table.id_keys))]:
        expected = list(compress(product(*spaces), (t == tid for t in table.tuple_ids)))
        assert list(table.tuples_with_id(tid)) == expected
    assert list(table.tuples_with_id(table.tuple_ids[-1])) == [tuple(s[-1] for s in spaces)]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_tuple_probabilities_match_per_tuple_products(name):
    # per-id totals against per-tuple Fraction products grouped by packed
    # composition, in first-occurrence order
    m = MODELS[name]
    table = space_table(m, 1 << 20, "test sweep")
    totals, denominator = table.probabilities(m)
    assert all(type(w) is int for w in totals)
    spaces = mode_matrices(m)
    grouped: dict[bytes, Fraction] = {}
    for mats, tensor_mats in zip(product(*spaces), replicated_tuples(m, spaces)):
        key = pack_scalars(compose_entries(tensor_mats))
        prob = math.prod((matrix_probability(x, m) for x in mats), start=Fraction(1))
        grouped[key] = grouped.get(key, 0) + prob
    assert list(grouped) == table.id_keys
    assert [Fraction(w, denominator) for w in totals] == list(grouped.values())
    assert sum(totals) == denominator


def fraction_error_oracle(m, p):
    """Exact error probability by ``Fraction`` sums over the full tuple space:
    a tuple decodes correctly when its tensor is the composition of the
    smallest typical tuple generating it (or, with no typical tuple, the zero
    tensor)."""
    book = build_decode_book(m, p)
    spaces = mode_matrices(m)
    typical = {cpd_compose(book.tuple_at(i)).key() for i in range(book.tuple_count)}
    decodable = typical or {zero_tensor(m.order, m.dim).key()}
    error = Fraction(0)
    for mats, tensor_mats in zip(product(*spaces), replicated_tuples(m, spaces)):
        if pack_scalars(compose_entries(tensor_mats)) not in decodable:
            error += math.prod((matrix_probability(x, m) for x in mats), start=Fraction(1))
    return error


ORACLE_MODELS = {
    **MODELS,
    "rank-one order 3 n=3": rank_one_sign_model(3, 3, [SKEWED, U2, SKEWED]),
}


@pytest.mark.parametrize(
    "name, gamma, error",
    [
        ("rank-one order 3", Fraction(1, 3), Fraction(0)),
        ("rank-one order 3 n=3", Fraction(1, 4), Fraction(175, 256)),
        ("bilinear R=2", Fraction(1, 10), Fraction(7, 8)),  # empty codebook
        ("cubic supersymmetric", Fraction(1, 3), Fraction(5, 64)),
        ("fractional alphabet", Fraction(1, 2), Fraction(365813, 1679616)),
        ("fractional order 3 R=2", Fraction(1, 2), Fraction(229049, 390625)),
    ],
)
def test_exact_error_prob_matches_fraction_oracle(name, gamma, error):
    m = ORACLE_MODELS[name]
    p = TypicalityParams(gamma, m.dim)
    assert measure_scheme(m, p).exact_error_prob == fraction_error_oracle(m, p) == error


def typical_index_oracle(m, book):
    """Packed composition -> smallest codebook index, walking every typical
    tuple in codebook-index order in plain Python."""
    spaces = mode_matrices(m)
    first: dict[bytes, int] = {}
    for index, pos in enumerate(product(*(e.positions for e in book.enums))):
        (mats,) = replicated_tuples(m, [[space[k]] for space, k in zip(spaces, pos)])
        first.setdefault(pack_scalars(compose_entries(mats)), index)
    return first


GATHER_GAMMAS = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(50))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_gathered_codebook_index_matches_the_plain_walk(name):
    m = MODELS[name]
    space = codec._space_index(m, 1 << 20)
    sizes = set()
    for gamma in GATHER_GAMMAS:
        cb = codec.build_codebook(m, TypicalityParams(gamma, m.dim))
        oracle = typical_index_oracle(m, cb)
        # items and insertion order: keys appear in ascending codebook index
        assert list(cb.tensor_to_index.items()) == list(oracle.items())
        assert sum(1 for _ in space.typical_ids(cb.enums)) == cb.tuple_count
        sizes.add(cb.tuple_count)
    modes = range(1, m.independent_matrices + 1)
    assert max(sizes) == math.prod(mode_space_size(m, i) for i in modes)  # every tuple typical
    if name == "bilinear R=2":
        assert min(sizes) == 0  # an empty codebook at gamma = 1/10
    assert len(sizes) > 1


def test_first_indices_keeps_each_ids_first_position_in_order():
    assert codec._first_indices(iter([3, 1, 3, 0, 1, 2])) == {3: 0, 1: 1, 0: 3, 2: 5}
    assert list(codec._first_indices([3, 1, 3, 0, 1, 2])) == [3, 1, 0, 2]
    assert codec._first_indices(()) == {}


def test_empty_codebook_builds_without_a_sweep(monkeypatch):
    m = MODELS["bilinear R=2"]
    monkeypatch.setattr(codec, "_space_index", None)  # any full-space sweep would fail
    cb = codec.build_codebook(m, TypicalityParams(Fraction(1, 10), m.dim))
    assert (cb.tuple_count, cb.tensor_to_index) == (0, {})
    assert cb.fallback_tensor == zero_tensor(m.order, m.dim)


def test_space_table_budget_counts_tuples():
    m = rank_one_sign_model(2, 3, [U2] * 3)  # 4 matrices per mode, 64 tuples
    with pytest.raises(BudgetExceededError, match="test sweep needs 64 items"):
        space_table(m, 63, "test sweep")
    assert [len(s) for s in space_table(m, 64, "test sweep").spaces] == [4, 4, 4]
    cubic = cubic_sign_model(3, U2, U2)  # one independent matrix: 64 tuples
    with pytest.raises(BudgetExceededError):
        space_table(cubic, 63, "test sweep")
    assert [len(s) for s in space_table(cubic, 64, "test sweep").spaces] == [64]
