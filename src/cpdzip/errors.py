"""Base error of the package, and the JSON document boundary that raises it."""

from __future__ import annotations

import json

_REQUIRED = object()


class CpdzipError(Exception):
    """Base class for errors raised by this package."""


class DocumentError(CpdzipError, ValueError):
    """An input document is not of the expected form."""


def read_json(path):
    """Parse one JSON file; a file that is not UTF-8 JSON raises DocumentError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DocumentError(f"{path} is not a JSON document: {exc}") from exc


def json_field(data, name: str, kind: type, default=_REQUIRED):
    """``data[name]``, which must be exactly of type ``kind``: neither ``true``
    nor ``3.0`` is read as an integer.  An absent field yields ``default`` if
    one is given; otherwise, like a mistyped one, it raises DocumentError."""
    if not isinstance(data, dict):
        raise DocumentError(f"expected a JSON object, got {type(data).__name__}")
    if name not in data:
        if default is _REQUIRED:
            raise DocumentError(f"document has no {name!r} field")
        return default
    value = data[name]
    if type(value) is not kind:
        raise DocumentError(f"field {name!r} must be of type {kind.__name__}, got {value!r}")
    return value


def refuse_unknown_fields(data, known) -> None:
    """Raise DocumentError if the object ``data`` has a field outside ``known``."""
    unknown = sorted(set(data) - set(known)) if isinstance(data, dict) else []
    if unknown:
        raise DocumentError(f"unknown field(s) {', '.join(map(repr, unknown))}")
