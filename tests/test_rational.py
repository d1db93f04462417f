from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdzip.model import CpdzipError
from cpdzip.rational import (
    ScalarError,
    compact,
    pack_scalars,
    parse_scalar,
    parse_scalars,
    rational_str,
    scalar_strs,
    to_fraction,
)

ints = st.integers(-(10**30), 10**30)
nonzero = ints.filter(lambda q: q != 0)


@st.composite
def ratio_strings(draw):
    """'p/q' strings in the one accepted grammar, integral or not (q >= 1)."""
    p = draw(ints | st.integers(-20, 20))
    q = draw(st.integers(1, 10**30) | st.sampled_from([1, 2, 3]))
    if draw(st.booleans()):
        p *= q  # integral value, e.g. "4/2"
    return f"{p}/{q}"


scalars = st.one_of(
    ints,
    ratio_strings(),
    st.builds(str, ints),
    st.builds(Fraction, ints, nonzero),
)


@given(scalars)
@settings(max_examples=300)
def test_parse_scalar_equals_fraction_path(value):
    expected = compact(to_fraction(value))
    got = parse_scalar(value)
    assert got == expected
    assert type(got) is type(expected)


@given(st.one_of(ints, st.builds(Fraction, ints, nonzero)))
@settings(max_examples=300)
def test_rational_str_equals_fraction_form(value):
    f = Fraction(value)
    assert rational_str(value) == f"{f.numerator}/{f.denominator}"
    assert rational_str(compact(value)) == rational_str(value)


@pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0", " -3 / 0 "])
def test_zero_denominator_is_a_cpdzip_error(text):
    with pytest.raises(CpdzipError):
        parse_scalar(text)
    with pytest.raises(ScalarError):
        to_fraction(text)


@pytest.mark.parametrize("value", ["", "1/", "/2", "1/2/3", "x", 1.5, True, None])
def test_malformed_scalar_is_a_cpdzip_error(value):
    with pytest.raises(ScalarError):
        parse_scalar(value)


@pytest.mark.parametrize("text", ["", "1/", "/2", "1/2/3", "x", "abc", "0.1", "1/x"])
def test_to_fraction_malformed_string_is_a_scalar_error(text):
    with pytest.raises(ScalarError):
        to_fraction(text)


LENIENT = [
    " 1/2", "1/2 ", "1 /2", "1/ 2", "\t3", "3\n", " -3 / 0 ",  # padding
    "+3", "+3/4", "3/+4", "1/-2", "-1/-2", "--1",  # signs
    "1_0", "1/1_0",  # underscores
    "\u0663", "1/\u0664", "\uff11", "\N{MINUS SIGN}1",  # non-ASCII digits and minus
]


@pytest.mark.parametrize("text", LENIENT)
def test_scalar_strings_outside_the_grammar_are_refused(text):
    with pytest.raises(ScalarError):
        parse_scalar(text)
    with pytest.raises(ScalarError):
        to_fraction(text)
    with pytest.raises(ScalarError):
        parse_scalars(["1/1", text, "1/1"])


@given(ratio_strings(), st.sampled_from([" ", "\t", "\n", "+", "_", "\u0663"]), st.data())
@settings(max_examples=200)
def test_any_character_outside_the_grammar_is_refused(text, extra, data):
    at = data.draw(st.integers(0, len(text)))
    with pytest.raises(ScalarError):
        parse_scalar(text[:at] + extra + text[at:])


class Text(str):
    """A str subclass: equal and hash-equal to its plain twin, so a
    value-keyed table would merge the two."""


GOOD_TEXT = ["1/1", "-1/1", "1/2", "4/2", "0/1", "-3/9", "7"]
BAD_TEXT = ["x", " 1/2", "1/0", "1/-2", ""]
OTHERS = [1, -1, 0, 2, Fraction(1, 2), Fraction(2), True, False, 1.0, 0.5, [1], None, Text("1/1")]
text_lists = st.lists(st.sampled_from(GOOD_TEXT), max_size=12) | st.lists(
    st.sampled_from(GOOD_TEXT + BAD_TEXT), max_size=12
)
mixed_lists = text_lists | st.lists(st.sampled_from(GOOD_TEXT + BAD_TEXT + OTHERS), max_size=12)


def _outcome(fn, values):
    """A result with each entry's type, or the exception type and message."""
    try:
        out = fn(values)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return list(out), [type(v) for v in out]


@given(mixed_lists)
@settings(max_examples=400)
def test_parse_scalars_reads_like_parse_scalar_entry_by_entry(values):
    # The message names the offending value, so equal messages mean the same
    # (first) bad entry was refused.
    got = _outcome(parse_scalars, values)
    assert got == _outcome(lambda v: tuple(map(parse_scalar, v)), values)
    assert got[0] is ScalarError or isinstance(got[0], list)


@given(st.lists(st.sampled_from([1, -1, 0, 2, Fraction(1, 2), Fraction(2), Fraction(-7, 3)]))
       | mixed_lists)
@settings(max_examples=400)
def test_scalar_strs_writes_like_rational_str_entry_by_entry(values):
    got = _outcome(scalar_strs, values)
    assert got == _outcome(lambda v: [rational_str(x) for x in v], values)


# --- key packing ------------------------------------------------------------------

small_ints = st.integers(-3, 3)
# 2^(7k) - 2 ... 2^(7k) + 1, where a varint grows by one byte; as a
# denominator directly, as a numerator after zigzag (u // 2 and -(u // 2))
edges = st.builds(lambda k, d: (1 << 7 * k) + d, st.integers(1, 10), st.integers(-2, 1))
wide_ints = st.one_of(
    st.integers(-(2**70), 2**70),
    small_ints,
    edges.map(lambda u: u // 2),
    edges.map(lambda u: -(u // 2)),
)
key_scalars = st.one_of(
    wide_ints,
    st.builds(Fraction, wide_ints, st.integers(1, 2**70) | st.integers(1, 4) | edges),
    st.builds(Fraction, wide_ints),  # integral Fractions, zero among them
)
key_lists = st.lists(key_scalars, max_size=8)


@st.composite
def key_pairs(draw):
    """Two scalar lists, often equal entry by entry or one entry apart."""
    a = draw(key_lists)
    how = draw(st.sampled_from(["same", "as_fractions", "one_entry", "any"]))
    if how == "same":
        return a, list(a)
    if how == "as_fractions":
        return a, [Fraction(v) for v in a]
    if how == "one_entry" and a:
        i = draw(st.integers(0, len(a) - 1))
        return a, a[:i] + [draw(key_scalars)] + a[i + 1:]
    return a, draw(key_lists)


def _varint(u: int) -> bytes:
    """LEB128: 7-bit groups, least significant first, continuation bit on all but the last."""
    groups = [u >> shift & 0x7F for shift in range(0, max(u.bit_length(), 1), 7)]
    return bytes([g | 0x80 for g in groups[:-1]] + groups[-1:])


def _key_reference(values) -> bytes:
    """Per scalar: varint of the zigzagged numerator, then varint of the denominator."""
    return b"".join(
        _varint(2 * f.numerator if f >= 0 else -2 * f.numerator - 1) + _varint(f.denominator)
        for f in map(Fraction, values)
    )


@given(key_pairs())
@settings(max_examples=400)
def test_pack_scalars_is_an_injective_concatenative_key(pair):
    a, b = pair
    assert (pack_scalars(a) == pack_scalars(b)) == (a == b)
    assert pack_scalars(a + b) == pack_scalars(a) + pack_scalars(b)
    integral = [compact(Fraction(v)) for v in a if Fraction(v).denominator == 1]
    assert pack_scalars(map(Fraction, integral)) == pack_scalars(integral)
    assert pack_scalars(a) == _key_reference(a)


def test_pack_scalars_golden_bytes():
    # 1 -> 02 01, -1 -> 01 01, 1/2 -> 02 02, 0 -> 00 01
    assert pack_scalars((1, -1, Fraction(1, 2), 0)).hex() == "0201010102020001"
    # zigzag(-64) = 127 -> 7f; zigzag(64) = 128 -> 80 01; zigzag(-300) = 599 -> d7 04
    assert pack_scalars((-64, 64, Fraction(-300, 7))).hex() == "7f01800101d70407"
