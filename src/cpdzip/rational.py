"""Exact rational scalars: parsing, canonical text form, compact binary packing.

Scalars are Python ints or ``fractions.Fraction`` values.  Integral values are
stored as plain ints: the numeric tower keeps equality and hashing consistent
between ``int`` and ``Fraction``, and int arithmetic is much cheaper inside
the enumeration loops.  The readers below return integral values as ints, so
tensors and matrices built from their output need no further normalization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import CpdzipError

Scalar = Union[int, Fraction]


class ScalarError(CpdzipError, ValueError):
    """A value is not an exact rational in an accepted form."""


def to_fraction(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or 'p' / 'p/q' string."""
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.strip().partition("/")
        try:
            p, q = int(num), int(den) if slash else 1
        except ValueError:
            raise ScalarError(f"not an exact rational: {value!r}") from None
        if q == 0:
            raise ScalarError(f"zero denominator in {value!r}")
        return Fraction(p, q)
    raise TypeError(f"not an exact rational: {value!r}")


def parse_scalar(value) -> Scalar:
    """Read an int, Fraction, or 'p' / 'p/q' string; integral values as int.

    Equal in value and type to ``compact(to_fraction(value))``, without
    building a Fraction for integral input.
    """
    if type(value) is int:
        return value
    if type(value) is str:
        num, slash, den = value.partition("/")
        try:
            p = int(num)
            q = int(den) if slash and den != "1" else 1
        except ValueError:
            raise ScalarError(f"not an exact rational: {value!r}") from None
        if q == 1:
            return p
        if q == 0:
            raise ScalarError(f"zero denominator in {value!r}")
        if p % q == 0:
            return p // q
        return Fraction(p, q)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return compact(Fraction(value))
    raise ScalarError(f"not an exact rational: {value!r}")


def rational_str(value: Scalar) -> str:
    """Canonical 'p/q' form, q >= 1 and lowest terms; pinned for JSON and hashing."""
    if type(value) is int:
        return f"{value}/1"
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def compact(value: Scalar) -> Scalar:
    """Collapse an integral Fraction to int; exact value is unchanged."""
    if type(value) is not int and isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def _uvarint(out: bytearray, u: int) -> None:
    while True:
        b = u & 0x7F
        u >>= 7
        if u:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ValueError("truncated varint")
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7


def write_scalar(out: bytearray, value: Scalar) -> None:
    """Append one scalar as zigzag-varint numerator + varint denominator."""
    if isinstance(value, int):
        num, den = value, 1
    else:
        num, den = value.numerator, value.denominator
    zz = (num << 1) if num >= 0 else ((-num) << 1) - 1
    _uvarint(out, zz)
    _uvarint(out, den)


def read_scalar(buf: bytes, pos: int) -> tuple[Scalar, int]:
    zz, pos = _read_uvarint(buf, pos)
    den, pos = _read_uvarint(buf, pos)
    num = (zz >> 1) if not zz & 1 else -((zz + 1) >> 1)
    if den == 1:
        return num, pos
    return compact(Fraction(num, den)), pos


# Per-scalar encodings repeat heavily inside tensor sweeps; memoize them.
_FRAGMENTS: dict[Scalar, bytes] = {}
_FRAGMENT_CAP = 1 << 16


def scalar_fragment(value: Scalar) -> bytes:
    frag = _FRAGMENTS.get(value)
    if frag is None:
        out = bytearray()
        write_scalar(out, value)
        frag = bytes(out)
        if len(_FRAGMENTS) < _FRAGMENT_CAP:
            _FRAGMENTS[value] = frag
    return frag


def pack_scalars(values: Iterable[Scalar]) -> bytes:
    """Injective byte encoding of a scalar sequence (self-delimiting varints)."""
    values = tuple(values)
    try:  # every scalar already memoized: no per-scalar Python call
        return b"".join(map(_FRAGMENTS.__getitem__, values))
    except KeyError:
        return b"".join(map(scalar_fragment, values))
