import math
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdzip import codec, typicality
from cpdzip.analysis import bilinear_sign_model, cubic_sign_model, rank_one_sign_model
from cpdzip.cli import main
from cpdzip.codec import (
    MAGIC,
    VERSION,
    Codeword,
    CodewordRangeError,
    DecodeError,
    FLAG_FALLBACK,
    FLAG_TYPICAL,
    build_codebook,
    build_decode_book,
    codeword_from_bytes,
    codeword_to_bytes,
    decode,
    encode,
    length_bound_nats,
    measure_scheme,
)
from cpdzip.model import (
    Alphabet,
    BudgetExceededError,
    CpdzipError,
    Distribution,
    ModelSpec,
    model_hash,
    save_model,
    theoretical_threshold,
    uniform,
)
from cpdzip.tensors import ExactTensor, ShapeError, cpd_compose, zero_tensor
from cpdzip.typicality import TypicalityParams, typicality_mass

SKEWED = Distribution((Fraction(1, 4), Fraction(3, 4)))


def uniform_rank_one(n, order=3):
    return rank_one_sign_model(n, order, [uniform(2)] * order)


def skewed_rank_one(n, order=3):
    return rank_one_sign_model(n, order, [SKEWED] * order)


def test_uniform_codebook_counts_and_collisions():
    m = uniform_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    assert cb.tuple_count == 64
    # sign collisions (s1 a, s2 b, s3 c) with s1 s2 s3 = 1 give 4 tuples per tensor
    assert len(cb.tensor_to_index) == 16
    assert cb.size == 65
    assert cb.fallback_index == 64


def test_encode_first_tuple_gets_index_zero():
    m = uniform_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    t = cpd_compose(cb.tuple_at(0))
    cw = encode(t, cb)
    assert cw.flag == FLAG_TYPICAL and cw.index == 0


def test_decode_encode_identity_on_codebook_image():
    m = uniform_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    for index in range(cb.tuple_count):
        t = cpd_compose(cb.tuple_at(index))
        cw = encode(t, cb)
        assert decode(cw, cb) == t
        # encode is canonical: re-encoding the decoded tensor is stable
        assert encode(decode(cw, cb), cb) == cw


def test_equal_tensors_from_different_tuples_share_codewords():
    m = uniform_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    a, b, c = (1, -1), (1, 1), (-1, 1)
    t1 = cpd_compose(_rank_one_tuple(a, b, c))
    t2 = cpd_compose(_rank_one_tuple(tuple(-x for x in a), tuple(-x for x in b), c))
    assert t1 == t2
    assert encode(t1, cb) == encode(t2, cb)


def _rank_one_tuple(*vectors):
    from cpdzip.tensors import FactorMatrix, FactorTuple

    mats = tuple(
        FactorMatrix(i + 1, tuple((v,) for v in vec)) for i, vec in enumerate(vectors)
    )
    return FactorTuple(mats)


def test_fallback_round_trip_for_unindexed_tensor():
    # at n=2, gamma=0.3, all-(-1) columns are atypical, so the all-(-1) tensor
    # has no typical generating tuple and must hit the fallback slot
    m = skewed_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(3, 10), 2))
    assert cb.tuple_count > 0
    t = ExactTensor(3, 2, (-1,) * 8)
    assert t.key() not in cb.tensor_to_index
    cw = encode(t, cb)
    assert cw.flag == FLAG_FALLBACK and cw.index == cb.fallback_index
    assert decode(cw, cb) == cb.fallback_tensor


def test_empty_codebook_falls_back_to_zero_tensor():
    # at n=2, gamma=0.1 no skewed column is typical (all deviations >= 0.549)
    m = skewed_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    assert cb.tuple_count == 0 and cb.size == 1
    assert cb.fallback_tensor == zero_tensor(3, 2)
    cw = encode(cpd_compose(_rank_one_tuple((1, 1), (1, 1), (1, 1))), cb)
    assert cw.flag == FLAG_FALLBACK
    assert decode(cw, cb) == zero_tensor(3, 2)


def test_supersymmetric_codebook_tuples_replicate():
    m = cubic_sign_model(2, uniform(2), uniform(2))
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    assert cb.tuple_count == 16  # single 2x2 sign matrix enumeration
    ft = cb.tuple_at(5)
    assert ft.order == 3
    assert ft.matrices[0].rows == ft.matrices[1].rows == ft.matrices[2].rows
    for index in range(cb.tuple_count):
        t = cpd_compose(cb.tuple_at(index))
        assert decode(encode(t, cb), cb) == t


def test_codebook_deterministic():
    m = skewed_rank_one(3)
    p = TypicalityParams(Fraction(1, 4), 3)
    cb1 = build_codebook(m, p)
    cb2 = build_codebook(m, p)
    assert cb1.tensor_to_index == cb2.tensor_to_index
    assert cb1.fallback_tensor == cb2.fallback_tensor


def test_tuple_at_matches_lexicographic_product():
    m = skewed_rank_one(2, order=2)
    p = TypicalityParams(Fraction(3, 10), 2)
    cb = build_codebook(m, p)
    expected = list(product(*cb.matrices))
    for i, mats in enumerate(expected):
        assert cb.tuple_at(i).matrices == mats


def test_codeword_bytes_round_trip_and_layout():
    m = uniform_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    cw = encode(cpd_compose(cb.tuple_at(17)), cb)
    blob = codeword_to_bytes(cw)
    assert blob[:4] == b"TCPD" and blob[4] == 1
    assert blob[5] == 3 and blob[6] == 1  # N, R
    assert int.from_bytes(blob[7:9], "big") == 2  # n
    assert int.from_bytes(blob[9:13], "big") == 1  # gamma numerator
    assert int.from_bytes(blob[13:17], "big") == 10  # gamma denominator
    assert blob[17:49] == model_hash(m)
    assert codeword_from_bytes(blob) == cw


def test_codeword_rejects_corruption():
    m = uniform_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    cw = encode(cpd_compose(cb.tuple_at(3)), cb)
    blob = bytearray(codeword_to_bytes(cw))

    with pytest.raises(DecodeError):
        codeword_from_bytes(bytes(blob[:-1]))  # truncated

    bad_magic = bytes(b"XXXX") + bytes(blob[4:])
    with pytest.raises(DecodeError):
        codeword_from_bytes(bad_magic)

    # index beyond |M|
    big = Codeword(cw.order, cw.components, cw.n, cw.gamma, cw.model_digest, FLAG_TYPICAL, 10_000)
    with pytest.raises(DecodeError):
        decode(big, cb)


def test_decode_rejects_header_mismatches():
    m = uniform_rank_one(2)
    p = TypicalityParams(Fraction(1, 10), 2)
    cb = build_codebook(m, p)
    cw = encode(cpd_compose(cb.tuple_at(0)), cb)

    other_model = skewed_rank_one(2)
    other_cb = build_codebook(other_model, p)
    with pytest.raises(DecodeError):
        decode(cw, other_cb)  # model hash differs

    other_gamma = build_codebook(m, TypicalityParams(Fraction(1, 5), 2))
    with pytest.raises(DecodeError):
        decode(cw, other_gamma)


def test_measure_scheme_uniform_zero_error():
    for n in (2, 3):
        m = uniform_rank_one(n)
        report = measure_scheme(m, TypicalityParams(Fraction(1, 10), n))
        assert report.exact_error_prob == 0
        assert report.error_prob_bound == 0
        assert report.log_M_nats <= report.length_bound_nats


def test_measure_scheme_error_bounded_by_mass_product():
    m = skewed_rank_one(3)
    for gamma in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)):
        p = TypicalityParams(gamma, 3)
        report = measure_scheme(m, p)
        masses = [typicality_mass(m, p, i) for i in (1, 2, 3)]
        assert report.masses == tuple(masses)
        assert report.exact_error_prob <= 1 - math.prod(masses, start=Fraction(1))
        assert 0 <= report.exact_error_prob <= 1


def test_measure_scheme_error_non_increasing_in_gamma():
    m = skewed_rank_one(3)
    gammas = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    errors = [measure_scheme(m, TypicalityParams(g, 3)).exact_error_prob for g in gammas]
    assert all(a >= b for a, b in zip(errors, errors[1:]))
    assert errors[-1] == 0  # everything typical at gamma = 1 for this model


def test_length_bound_holds_across_grid():
    for n in (2, 3, 4):
        for gamma in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4)):
            for m in (uniform_rank_one(n), skewed_rank_one(n)):
                p = TypicalityParams(gamma, n)
                cb = build_codebook(m, p)
                bound = n * (
                    theoretical_threshold(m) + m.order * m.components * float(gamma)
                ) + math.log(2)
                assert cb.log_size_nats <= bound + 1e-12
                assert length_bound_nats(m, p) == pytest.approx(bound, rel=1e-13)


def test_supersymmetric_length_bound_uses_single_matrix():
    m = cubic_sign_model(3, SKEWED, uniform(2))
    p = TypicalityParams(Fraction(1, 10), 3)
    cb = build_codebook(m, p)
    bound = 3 * (theoretical_threshold(m) + 1 * 2 * 0.1) + math.log(2)
    assert length_bound_nats(m, p) == pytest.approx(bound, rel=1e-13)
    assert cb.log_size_nats <= bound + 1e-12


def test_huge_gamma_codebook_is_entire_tuple_space():
    m = skewed_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(50), 2))
    assert cb.tuple_count == 4**3  # every matrix typical
    for i in (1, 2, 3):
        assert typicality_mass(m, TypicalityParams(Fraction(50), 2), i) == 1


def test_masses_never_exceed_one():
    m = skewed_rank_one(3)
    for gamma in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 2)):
        for mode in (1, 2, 3):
            mass = typicality_mass(m, TypicalityParams(gamma, 3), mode)
            assert 0 <= mass <= 1


def test_each_type_tuple_is_decided_once_per_build(monkeypatch, tmp_path):
    # R=2 order 3, binary, n=3: 4 column types, 16 type tuples per mode, 3 modes
    sign = Alphabet((-1, 1))
    skew = Distribution((Fraction(3, 4), Fraction(1, 4)))
    m = ModelSpec(3, 3, 2, (sign,) * 3, ((skew, skew),) * 3)
    p = TypicalityParams(Fraction(1, 10), 3)
    calls = []
    decide = typicality._is_typical_counts
    monkeypatch.setattr(
        typicality, "_is_typical_counts", lambda *args: calls.append(args) or decide(*args)
    )
    build_codebook(m, p)
    assert len(calls) == 48
    calls.clear()
    measure_scheme(m, p)
    assert len(calls) == 48
    calls.clear()
    save_model(m, tmp_path / "model.json")
    args = ["codebook", "--model", str(tmp_path / "model.json"), "--gamma", "1/10", "--stats"]
    assert main([*args, "--out", str(tmp_path / "stats.json")]) == 0
    assert len(calls) == 48


def test_measure_scheme_budget_refusal():
    m = uniform_rank_one(4)
    with pytest.raises(BudgetExceededError):
        measure_scheme(m, TypicalityParams(Fraction(1, 10), 4), budget=100)


def test_measure_scheme_budget_refusal_does_not_depend_on_earlier_calls():
    m = rank_one_sign_model(3, 3, [(Fraction(3, 4), Fraction(1, 4))] * 3)
    p = TypicalityParams(Fraction(1, 10), 3)
    with pytest.raises(BudgetExceededError):
        measure_scheme(m, p, budget=100)
    assert measure_scheme(m, p).exact_error_prob == Fraction(58975, 65536)
    with pytest.raises(BudgetExceededError):
        measure_scheme(m, p, budget=100)


def test_measure_scheme_checks_the_shape_before_any_sweep(monkeypatch):
    m = uniform_rank_one(5)
    p = TypicalityParams(Fraction(1, 10), 3)
    monkeypatch.setattr(codec, "_space_index", None)  # any sweep would fail
    for budget in (100, 1 << 16):
        with pytest.raises(ShapeError):
            measure_scheme(m, p, budget=budget)


def test_measure_scheme_counts_the_fallback_tensor_as_decodable():
    # at n=2 no matrix of this model is typical: the codebook is empty, and
    # only the zero tensor, the fallback, decodes to itself
    m = bilinear_sign_model(2, uniform(2), SKEWED, SKEWED, uniform(2))
    p = TypicalityParams(Fraction(1, 10), 2)
    book = build_decode_book(m, p)
    assert book.tuple_count == 0 and book.fallback_tensor == zero_tensor(2, 2)
    # x y^T + u v^T = 0 iff (u, v) is (-x, y) or (x, -y): probability 2 (1/4)^2
    assert measure_scheme(m, p).exact_error_prob == Fraction(7, 8)


def _never(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize(
    "m, gamma",
    [
        (skewed_rank_one(3), Fraction(1, 10)),
        (cubic_sign_model(3, SKEWED, uniform(2)), Fraction(1, 4)),
        (bilinear_sign_model(2, uniform(2), SKEWED, SKEWED, uniform(2)), Fraction(1, 10)),
    ],
    ids=["rank-one", "supersymmetric", "empty-codebook"],
)
def test_measure_scheme_builds_no_decode_book_or_matrix(m, gamma, monkeypatch):
    p = TypicalityParams(gamma, m.dim)
    expected = measure_scheme(m, p)
    with monkeypatch.context() as patch:
        patch.setattr(codec, "build_decode_book", _never)
        patch.setattr(codec, "mode_matrices", _never)
        assert measure_scheme(m, p) == expected
    if expected.codebook_size == 1:  # the empty codebook's fallback is the zero tensor
        assert build_decode_book(m, p).fallback_tensor == zero_tensor(m.order, m.dim)
        assert expected.exact_error_prob == Fraction(7, 8)


def test_models_differing_only_in_dists_share_one_structure_table():
    table = codec._space_index(uniform_rank_one(2), 64)
    assert codec._space_index(skewed_rank_one(2), 64) is table
    info = codec._structure_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_memos_hold_at_most_four_entries():
    for n, order in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        measure_scheme(skewed_rank_one(n, order), TypicalityParams(Fraction(1, 10), n))
    for memo in (codec._structure_table, codec._tensor_probabilities):
        info = memo.cache_info()
        assert info.misses == 5 and info.currsize == info.maxsize == 4


def test_encode_shape_mismatch():
    from cpdzip.tensors import ShapeError

    m = uniform_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    with pytest.raises(ShapeError):
        encode(zero_tensor(3, 3), cb)


def test_gamma_outside_u32_refused():
    m = uniform_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    cw = encode(cpd_compose(cb.tuple_at(0)), cb)
    huge = Codeword(cw.order, cw.components, cw.n, Fraction(1, 1 << 33), cw.model_digest, cw.flag, cw.index)
    with pytest.raises(ValueError):
        codeword_to_bytes(huge)


def test_codeword_to_bytes_refuses_out_of_range_fields():
    m = uniform_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    cw = encode(cpd_compose(cb.tuple_at(0)), cb)
    fields = vars(cw)
    for change in (
        {"gamma": Fraction(1 << 32, 3)},
        {"gamma": Fraction(-1, 3)},
        {"order": 256},
        {"components": 256},
        {"n": 65536},
        {"flag": 256},
        {"index": 1 << (8 * 255)},
        {"index": -1},
    ):
        with pytest.raises(CodewordRangeError) as info:
            codeword_to_bytes(Codeword(**{**fields, **change}))
        assert isinstance(info.value, CpdzipError) and isinstance(info.value, ValueError)
    longest = Codeword(**{**fields, "index": (1 << (8 * 255)) - 1})
    assert codeword_from_bytes(codeword_to_bytes(longest)) == longest


def _wire(num=1, den=10, length=None, index=b"\x05"):
    header = MAGIC + bytes([VERSION, 3, 1]) + (2).to_bytes(2, "big")
    gamma = num.to_bytes(4, "big") + den.to_bytes(4, "big")
    length = len(index) if length is None else length
    return header + gamma + bytes(32) + bytes([FLAG_TYPICAL, length]) + index


def test_codeword_from_bytes_accepts_one_form_per_codeword():
    assert codeword_from_bytes(_wire()).index == 5
    assert codeword_from_bytes(_wire(index=b"\x00")).index == 0
    for blob in (
        _wire(index=b"\x00\x05"),  # leading zero byte
        _wire(index=b"\x00\x00"),  # zero takes one byte
        _wire(length=0, index=b""),  # L = 0
        _wire(num=0),
        _wire(den=0),
        _wire(num=2, den=20),  # not in lowest terms
    ):
        with pytest.raises(DecodeError):
            codeword_from_bytes(blob)


u8 = st.integers(0, 255)
u32 = st.sampled_from([0, 1, 2, 3, 4, 10, 20, (1 << 32) - 1]) | st.integers(0, (1 << 32) - 1)


def _mostly(value, other):
    """``value`` three times in four, otherwise a draw from ``other``."""
    return st.integers(0, 3).flatmap(lambda k: st.just(value) if k else other)


@st.composite
def near_codewords(draw):
    """Byte strings shaped like codewords, with every field drawn freely."""
    head = draw(_mostly(MAGIC + bytes([VERSION]), st.binary(min_size=5, max_size=5)))
    index = draw(st.binary(max_size=3))
    length = draw(_mostly(len(index), u8))
    return (
        head
        + bytes([draw(u8), draw(u8)])
        + draw(st.integers(0, 65535)).to_bytes(2, "big")
        + draw(u32).to_bytes(4, "big")
        + draw(u32).to_bytes(4, "big")
        + draw(st.binary(min_size=32, max_size=32))
        + bytes([draw(u8), length])
        + index
        + draw(_mostly(b"", st.binary(max_size=2)))
    )


@given(st.binary(max_size=64) | near_codewords())
@settings(max_examples=500)
def test_every_byte_string_round_trips_or_is_refused(blob):
    try:
        cw = codeword_from_bytes(blob)
    except DecodeError:
        return
    assert codeword_to_bytes(cw) == blob


def test_integral_fraction_entries_encode_like_their_int_twin():
    m = uniform_rank_one(2)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    hit = cpd_compose(cb.tuple_at(17))
    miss = ExactTensor(3, 2, (-1,) * 7 + (1,))
    for t in (hit, miss):
        twin = ExactTensor(3, 2, tuple(Fraction(e) for e in t.entries))
        assert twin == t and twin.key() == t.key()
        assert codeword_to_bytes(encode(twin, cb)) == codeword_to_bytes(encode(t, cb))


def _all_codewords(book):
    m, gamma = book.model, book.params.gamma
    for index in range(book.tuple_count):
        yield Codeword(m.order, m.components, m.dim, gamma, book.model_digest, FLAG_TYPICAL, index)
    yield Codeword(
        m.order, m.components, m.dim, gamma, book.model_digest, FLAG_FALLBACK, book.fallback_index
    )


@pytest.mark.parametrize(
    "m",
    [uniform_rank_one(n) for n in (2, 3)]
    + [skewed_rank_one(n) for n in (2, 3)]
    + [cubic_sign_model(n, SKEWED, uniform(2)) for n in (2, 3)],
    ids=lambda m: f"{'super' if m.supersymmetric else 'rank-one'}-n{m.dim}",
)
def test_decode_book_decodes_like_the_codebook(m, monkeypatch):
    for gamma in (Fraction(1, 10), Fraction(1, 4)):
        p = TypicalityParams(gamma, m.dim)
        cb = build_codebook(m, p)
        with monkeypatch.context() as patch:
            patch.setattr(codec, "_space_index", None)  # a decode book never sweeps
            book = build_decode_book(m, p)
            assert book.model_digest == cb.model_digest == model_hash(m)
            assert book.tuple_count == cb.tuple_count
            for cw in _all_codewords(book):
                assert decode(cw, book) == decode(cw, cb)


@pytest.mark.parametrize(
    "m, gamma",
    [
        (skewed_rank_one(3), Fraction(1, 10)),
        (skewed_rank_one(3), Fraction(1, 2)),
        (bilinear_sign_model(2, SKEWED, uniform(2), SKEWED, SKEWED), Fraction(1, 2)),
    ],
    ids=["rank-one-1/10", "rank-one-1/2", "bilinear-1/2"],
)
def test_codebook_over_budget_path_matches_full_space_path(m, gamma, monkeypatch):
    p = TypicalityParams(gamma, m.dim)
    full = build_codebook(m, p)
    full_space = math.prod(e.space_size for e in full.enums)
    budget = max(full.tuple_count, *(e.space_size for e in full.enums))
    assert 0 < full.tuple_count <= budget < full_space
    with monkeypatch.context() as patch:
        patch.setattr(codec, "_space_index", None)  # the budget forbids the full sweep
        small = build_codebook(m, p, budget=budget)
    assert small.tensor_to_index == full.tensor_to_index
    assert small.size == full.size and small.fallback_tensor == full.fallback_tensor


HALF_TWO = Alphabet((Fraction(1, 2), 2))


@pytest.mark.parametrize(
    "m, gamma",
    [(uniform_rank_one(n), Fraction(1, 4)) for n in (2, 3, 4)]
    + [
        (skewed_rank_one(3), Fraction(1, 10)),
        (cubic_sign_model(3, SKEWED, uniform(2)), Fraction(1, 4)),
        (ModelSpec(3, 2, 2, (HALF_TWO,) * 3, ((uniform(2),) * 2,) * 3), Fraction(1, 4)),
    ],
    ids=["rank-one-n2", "rank-one-n3", "rank-one-n4", "skewed-n3", "super-n3", "halves-R2"],
)
def test_decode_composes_like_cpd_compose_of_tuple_at(m, gamma):
    book = build_decode_book(m, TypicalityParams(gamma, m.dim))
    assert book.tuple_count > 0
    integral = fractional = 0
    for cw in _all_codewords(book):
        got = decode(cw, book)
        if cw.flag == FLAG_FALLBACK:
            assert got == book.fallback_tensor
            continue
        want = cpd_compose(book.tuple_at(cw.index))
        assert got == want
        assert [type(e) for e in got.entries] == [type(e) for e in want.entries]
        for e in got.entries:
            if type(e) is int:
                integral += 1
            else:
                assert e.denominator != 1  # integral values come back as int
                fractional += 1
    if m.alphabets[0] == HALF_TWO:
        assert integral and fractional  # products such as 1/2 * 2 * 2 are integral


def test_decode_refuses_every_bad_codeword_of_a_direct_decode():
    m = skewed_rank_one(3)
    book = build_decode_book(m, TypicalityParams(Fraction(1, 10), 3))
    good = next(_all_codewords(book))
    bad = [
        replace(good, model_digest=bytes(32)),
        replace(good, order=2),
        replace(good, components=2),
        replace(good, n=4),
        replace(good, gamma=Fraction(1, 5)),
        replace(good, flag=FLAG_FALLBACK, index=0),
        replace(good, flag=2),
        replace(good, index=book.tuple_count),
        replace(good, index=-1),
    ]
    for cw in bad:
        with pytest.raises(DecodeError):
            decode(cw, book)
