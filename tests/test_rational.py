from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdzip.model import CpdzipError
from cpdzip.rational import ScalarError, compact, parse_scalar, rational_str, to_fraction

ints = st.integers(-(10**30), 10**30)
nonzero = ints.filter(lambda q: q != 0)
spaces = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def ratio_strings(draw):
    """'p/q' strings, integral or not, with either sign on q and optional padding."""
    p = draw(ints | st.integers(-20, 20))
    q = draw(nonzero | st.sampled_from([1, -1, 2, -2, 3]))
    if draw(st.booleans()):
        p *= q  # integral value, e.g. "4/2"
    pad = [draw(spaces) for _ in range(4)]
    return f"{pad[0]}{p}{pad[1]}/{pad[2]}{q}{pad[3]}"


scalars = st.one_of(
    ints,
    ratio_strings(),
    st.builds(lambda p, s: f"{s}{p}{s}", ints, spaces),
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


@pytest.mark.parametrize("text", ["1/0", "0/0", " -3 / 0 "])
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
