"""The immutable record base that the package's records share."""

from fractions import Fraction

import pytest

from cpdzip.analysis import rank_one_sign_model
from cpdzip.census import PermScalingRelation
from cpdzip.codec import Codebook, Codeword, DecodeBook, build_codebook
from cpdzip.model import ModelSpec, uniform
from cpdzip.records import Record, replace
from cpdzip.tensors import ExactTensor, FactorMatrix, FactorTuple, ShapeError
from cpdzip.typicality import (
    TypicalEnumeration,
    TypicalityParams,
    TypicalityParamsError,
    enumerate_typical,
)


class Pair(Record):
    a: int
    b: int = 2


class OtherPair(Record):
    a: int
    b: int = 2


class Triple(Pair):
    c: str = "c"


def test_fields_come_from_annotations_bases_first_with_class_attribute_defaults():
    assert Triple._fields == ("a", "b", "c")
    assert vars(Triple(1)) == {"a": 1, "b": 2, "c": "c"}
    assert Triple(1, c="x") == Triple(a=1, b=2, c="x")


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # a is missing
    ((1, 2, 3), {}),
    ((1,), {"a": 1}),
    ((1,), {"z": 1}),
])
def test_a_bad_field_list_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_an_unknown_field_is_named():
    with pytest.raises(TypeError, match=r"^Pair\(\) got unexpected field\(s\) 'z', 'y'$"):
        Pair(1, 2, z=3, y=4)


@pytest.mark.parametrize("record", [
    Pair(1),
    ExactTensor(2, 1, (0,)),
    FactorMatrix(1, ((1, -1),)),
    Codeword(3, 1, 2, Fraction(1, 10), bytes(32), 0, 5),
    rank_one_sign_model(2, 3, [uniform(2)] * 3),
    PermScalingRelation(FactorTuple((FactorMatrix(1, ((1,),)),)), (0,), ((Fraction(1),),)),
])
def test_assigning_or_deleting_any_attribute_raises(record):
    name = record._fields[0]
    before = vars(record).copy()
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert vars(record) == before


def test_records_of_two_classes_with_equal_fields_are_not_equal():
    assert Pair(1) != OtherPair(1)
    assert Pair(1) == Pair(1, 2) and OtherPair(1) == OtherPair(1)
    assert len({Pair(1), OtherPair(1)}) == 2
    assert Pair(1, 2) != (1, 2)


def test_equal_records_hash_equal_and_as_the_tuple_of_their_fields():
    built = FactorMatrix(1, [[1, -1], [1, 1]])
    same = FactorMatrix(1, ((1, -1), (1, 1)))
    assert built == same and hash(built) == hash(same)
    assert hash(built) == hash((1, ((1, -1), (1, 1))))
    assert hash(FactorTuple((built,))) == hash(((built,),))  # one field: still a tuple
    cw = Codeword(3, 1, 2, Fraction(1, 10), bytes(32), 0, 5)
    assert cw == replace(cw) and hash(cw) == hash(replace(cw))
    assert cw != replace(cw, index=6)
    assert TypicalityParams(Fraction(1, 10), 3) == TypicalityParams("1/10", 3)


def test_typical_enumeration_equality_compares_every_field():
    m = rank_one_sign_model(2, 3, [uniform(2)] * 3)
    enum = enumerate_typical(m, TypicalityParams(Fraction(1, 10), 2), 1)
    other = replace(enum)
    assert other == enum and hash(other) == hash(enum)
    assert replace(enum, space_size=enum.space_size + 1) != enum
    assert replace(enum, mass=enum.mass + 1) != enum
    assert isinstance(enum, TypicalEnumeration)


def test_replace_builds_through_init_and_checks_again():
    p = TypicalityParams(Fraction(1, 10), 3)
    assert replace(p, n=4) == TypicalityParams(Fraction(1, 10), 4)
    assert replace(p, gamma="1/5").gamma == Fraction(1, 5)  # normalized again
    with pytest.raises(TypicalityParamsError):
        replace(p, gamma=0)
    t = ExactTensor(2, 2, (0, 0, 0, 0))
    with pytest.raises(ShapeError):
        replace(t, entries=(0, 0, 0))
    with pytest.raises(TypeError):
        replace(t, shape=(2, 2))
    m = rank_one_sign_model(2, 3, [uniform(2)] * 3)
    assert replace(m, dists=[]).dists == ()


def test_a_codebook_carries_every_decode_book_field():
    m = rank_one_sign_model(2, 3, [uniform(2)] * 3)
    cb = build_codebook(m, TypicalityParams(Fraction(1, 10), 2))
    assert isinstance(cb, DecodeBook) and type(cb) is Codebook
    assert Codebook._fields == (*DecodeBook._fields, "tensor_to_index")
    assert set(vars(cb)) == set(Codebook._fields)


def test_repr_reads_as_the_dataclass_text():
    assert repr(TypicalityParams(Fraction(1, 10), 3)) == (
        "TypicalityParams(gamma=Fraction(1, 10), n=3)"
    )
    m = ModelSpec(1, 1, 1, [], [])
    assert repr(m) == (
        "ModelSpec(order=1, dim=1, components=1, alphabets=(), dists=(), supersymmetric=False)"
    )


def test_a_relation_built_by_its_own_init_is_the_record_the_generic_one_built():
    # PermScalingRelation writes its fields itself, as the census builds one
    # per related tuple; equality, hash, repr and replace stay the record's
    other = FactorTuple((FactorMatrix(1, ((1, -1),)), FactorMatrix(2, ((-1, 1),))))
    rel = PermScalingRelation(other, (1, 0), ((Fraction(1), Fraction(-1)),) * 2)
    assert vars(rel) == {"other": other, "permutation": (1, 0), "lambdas": rel.lambdas}
    assert rel == PermScalingRelation(other=other, permutation=(1, 0), lambdas=rel.lambdas)
    assert hash(rel) == hash((other, (1, 0), rel.lambdas))
    assert replace(rel) == rel and replace(rel, permutation=(0, 1)) != rel
    assert repr(rel) == (
        f"PermScalingRelation(other={other!r}, permutation=(1, 0), "
        "lambdas=((Fraction(1, 1), Fraction(-1, 1)), (Fraction(1, 1), Fraction(-1, 1))))"
    )
