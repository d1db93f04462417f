"""Immutable records: the frozen-dataclass behaviour that the package uses,
with no code generated at import.

Every command starts a fresh interpreter.  The standard library's dataclass
generator loads ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
``@dataclass`` compiles its methods with ``exec`` while its module loads;
``Record`` does neither.  A subclass declares its fields as annotations:

    class Point(Record):
        x: int
        y: int = 0

``Point(1)`` and ``Point(x=1, y=0)`` build the same record, ``==`` and
``hash`` compare the fields, ``repr`` reads ``Point(x=1, y=0)``, and
assigning or deleting an attribute raises ``AttributeError``.
"""

from operator import attrgetter

_set = object.__setattr__


class Record:
    """Base of the package's immutable records.

    Fields are the annotated names of the class and of its ``Record`` bases,
    bases first; a class attribute named after a field is its default.
    Fields named in ``_uncompared`` take no part in ``==`` or ``hash``.
    Records of different classes are never equal.

    ``__init__`` takes the fields positionally or by name, writes each with
    ``object.__setattr__``, then calls ``__post_init__``, which may normalize
    a field the same way or refuse the values.  A class built on a hot path
    may define its own ``__init__`` that writes every field the same way.
    Instances keep a ``__dict__`` holding exactly their fields.
    """

    _uncompared: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields: list[str] = []
        for klass in reversed(cls.__mro__[:cls.__mro__.index(Record)]):
            fields += [n for n in klass.__dict__.get("__annotations__", ()) if n not in fields]
        cls._fields = tuple(fields)
        cls._defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}
        compared = [n for n in fields if n not in cls._uncompared]
        get = attrgetter(*compared)
        # The key is always a tuple, so a record hashes as its dataclass did.
        cls._key = get if len(compared) > 1 else staticmethod(lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._values(args, kwargs)
        for field, value in zip(fields, args):
            _set(self, field, value)
        self.__post_init__()

    @classmethod
    def _values(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from ``__init__``'s arguments and
        the defaults; a TypeError unless they give each field once."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)} positional")
        given = dict(zip(fields, args))
        if twice := kwargs.keys() & given.keys():
            raise TypeError(f"{name}() got multiple values for {', '.join(map(repr, twice))}")
        given.update(kwargs)
        if len(given) < len(fields):
            given = {**cls._defaults, **given}
        if missing := [f for f in fields if f not in given]:
            raise TypeError(f"{name}() missing field(s) {', '.join(map(repr, missing))}")
        if len(given) > len(fields):
            unknown = [f for f in given if f not in fields]
            raise TypeError(f"{name}() got unexpected field(s) {', '.join(map(repr, unknown))}")
        return list(map(given.__getitem__, fields))

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


def replace(record: Record, /, **changes) -> Record:
    """A copy of ``record`` with ``changes`` applied, built by its class's
    ``__init__``: every check that construction makes runs again."""
    return type(record)(**{**{n: getattr(record, n) for n in record._fields}, **changes})
