"""Exact rational scalars: parsing, canonical text form, injective key packing.

Scalars are Python ints or ``fractions.Fraction`` values.  Integral values are
stored as plain ints: the numeric tower keeps equality and hashing consistent
between ``int`` and ``Fraction``, and int arithmetic is much cheaper inside
the enumeration loops.  The readers below return integral values as ints, so
tensors and matrices built from their output need no further normalization.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence, Union

from .errors import CpdzipError

Scalar = Union[int, Fraction]


class ScalarError(CpdzipError, ValueError):
    """A value is not an exact rational in an accepted form."""


# The one accepted scalar string: an optional minus sign, ASCII digits, and
# an optional '/' with an ASCII-digit denominator (the schemas' pattern).
_SCALAR_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_EXACT_TYPES = {int, Fraction}  # the types the JSON writers accept


def _ratio(text: str) -> tuple[int, int]:
    """(p, q) of a 'p' or 'p/q' string, q >= 1 and not reduced."""
    match = _SCALAR_TEXT.fullmatch(text)
    if match is None:
        raise ScalarError(f"not an exact rational: {text!r}")
    num, den = match.groups()
    try:
        p, q = int(num), int(den) if den else 1
    except ValueError:  # more digits than int() converts
        raise ScalarError(f"not an exact rational: {text!r}") from None
    if q == 0:
        raise ScalarError(f"zero denominator in {text!r}")
    return p, q


def to_fraction(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or 'p' / 'p/q' string."""
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*_ratio(value))
    raise TypeError(f"not an exact rational: {value!r}")


def parse_scalar(value) -> Scalar:
    """Read an int, Fraction, or 'p' / 'p/q' string; integral values as int.

    Equal in value and type to ``compact(to_fraction(value))``, without
    building a Fraction for integral input.
    """
    if type(value) is int:
        return value
    if type(value) is str:
        p, q = _ratio(value)
        if p % q == 0:
            return p // q
        return Fraction(p, q)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return compact(Fraction(value))
    raise ScalarError(f"not an exact rational: {value!r}")


def parse_scalars(values: Sequence) -> tuple[Scalar, ...]:
    """``tuple(map(parse_scalar, values))``, parsing each distinct string once.

    The table is keyed on the values only when every one is exactly a
    ``str``: a value-keyed table would merge ``1``, ``True``, ``1.0`` and
    ``Fraction(1)``, and unhashable entries would raise ``TypeError``.  Both
    paths refuse the first bad entry with the same ``ScalarError``.
    """
    if set(map(type, values)) != {str}:
        return tuple(map(parse_scalar, values))
    table = dict.fromkeys(values)
    for text in table:
        table[text] = parse_scalar(text)
    return tuple(map(table.__getitem__, values))


def rational_str(value: Scalar) -> str:
    """Canonical 'p/q' form, q >= 1 and lowest terms; pinned for JSON and hashing.

    Only an exact ``int`` or ``Fraction`` is written; anything else (a bool,
    a float, a string) is a ``ScalarError``, never coerced.
    """
    if type(value) is int:
        return f"{value}/1"
    if type(value) is not Fraction:
        raise ScalarError(f"not an exact rational scalar: {value!r}")
    return f"{value.numerator}/{value.denominator}"


def scalar_strs(values: Sequence[Scalar]) -> list[str]:
    """``[rational_str(v) for v in values]``, formatting each distinct value
    once; equal values share one string.

    Equal ints and Fractions have one canonical form, so a value-keyed table
    gives the same strings.  A list holding any other type goes through
    ``rational_str`` one by one, so its first such entry is refused, even
    one (``True``) that equals an accepted value.
    """
    if not set(map(type, values)) <= _EXACT_TYPES:
        return [rational_str(v) for v in values]
    table = dict.fromkeys(values)
    for value in table:
        table[value] = rational_str(value)
    if len(values) < 2:  # itemgetter of one key returns it bare, of none raises
        return [table[v] for v in values]
    return list(itemgetter(*values)(table))


def compact(value: Scalar) -> Scalar:
    """Collapse an integral Fraction to int; exact value is unchanged."""
    if type(value) is not int and isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def scalar_fragment(value: Scalar) -> bytes:
    """One scalar's key bytes: the varint of its zigzagged numerator, then
    the varint of its denominator (7 bits a byte, least significant first,
    high bit set on every byte but the last).  An integral Fraction gives
    the bytes of the equal int."""
    if isinstance(value, int):
        num, den = value, 1
    else:
        num, den = value.numerator, value.denominator
    out = bytearray()
    for u in ((num << 1) if num >= 0 else ((-num) << 1) - 1, den):
        while u > 0x7F:
            out.append(u & 0x7F | 0x80)
            u >>= 7
        out.append(u)
    return bytes(out)


# The fragment of every int whose zigzag fits one varint byte (-64..63), built
# once; any other scalar is packed by ``scalar_fragment`` on each call.  The
# keys go in descending order: in CPython hash(-1) == hash(-2), and a -1
# inserted after -2 would make every lookup of -1 probe past it.
_ONE_BYTE_FRAGMENTS = {value: scalar_fragment(value) for value in range(63, -65, -1)}


def pack_scalars(values: Iterable[Scalar]) -> bytes:
    """Injective byte encoding of a scalar sequence (self-delimiting varints).

    Reads only the constant one-byte table when every value is in it, and
    writes no state."""
    values = tuple(values)
    try:
        return b"".join(map(_ONE_BYTE_FRAGMENTS.__getitem__, values))
    except KeyError:
        return b"".join(map(scalar_fragment, values))
