"""The exact sweep engine: canonical mode matrices and the one space table.

Every exhaustive sweep of a tuple space (the codec's full-space table, the
factorization census, the zero-tensor sweeps, the census experiments) reads
one ``SpaceTable``: each tuple's tensor id from ``tensors.intern_tensors``
and each id's packed key.  ``mode_matrices`` is the one code that turns a
canonical position into a matrix.  Only the commands that sweep or build
matrices load this module; typicality decisions and sampling do not.
"""

from __future__ import annotations

import math
from itertools import chain, compress, product
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .model import BudgetExceededError, ModelSpec, mode_space_size
from .records import Record
from .tensors import FactorMatrix, intern_tensors

if TYPE_CHECKING:
    from .typicality import TypicalEnumeration


def mode_matrices(
    m: ModelSpec, mode: int, positions: Iterable[int]
) -> Iterator[FactorMatrix]:
    """The mode matrices at ``positions`` of the canonical enumeration.

    Canonical order is lexicographic over symbol indices read column-major
    (column 0 rows top to bottom, then column 1, ...); this order is pinned
    by the format spec and shared by the codec's tuple indexing.  So column r
    of the matrix at a position is digit r of it in base |A|^n, most
    significant first, and a column digit is read as n symbols in
    ``product`` order.
    """
    alphabet = m.alphabet(mode)
    columns = list(product(alphabet.symbols, repeat=m.dim))
    base = len(columns)
    weights = [base**r for r in reversed(range(m.components))]
    for pos in positions:
        rows = zip(*(columns[pos // w % base] for w in weights))
        yield FactorMatrix(mode, rows)


def iter_mode_matrices(m: ModelSpec, mode: int) -> Iterator[FactorMatrix]:
    """Full-space enumeration of mode matrices in canonical order."""
    return mode_matrices(m, mode, range(mode_space_size(m, mode)))


def check_space_budget(m: ModelSpec, budget: int, what: str) -> None:
    """Raise ``BudgetExceededError`` naming ``what`` when the full tuple space
    of ``m`` holds more than ``budget`` tuples."""
    total = math.prod(mode_space_size(m, i) for i in range(1, m.independent_matrices + 1))
    if total > budget:
        raise BudgetExceededError(total, budget, what)


class SpaceTable(Record):
    """Every tuple of a tuple space with its tensor id, as ``intern_tensors``
    numbers them, and each id's packed key (``id_keys``, ``key_to_id``).

    ``spaces`` holds the matrices of each independent mode.  Tuple i is the
    i-th of ``product(*spaces)``, mode 1 most significant; only the methods
    below read that order.
    """

    spaces: Sequence[Sequence[FactorMatrix]]
    tuple_ids: list[int]
    key_to_id: dict[bytes, int]
    id_keys: list[bytes]

    def tuples(self) -> Iterator[tuple[FactorMatrix, ...]]:
        """The matrices of every tuple, one per independent mode, in table order."""
        return product(*self.spaces)

    def tuples_with_id(self, tid: int | None) -> Iterator[tuple[FactorMatrix, ...]]:
        """The matrices of every tuple whose tensor id is ``tid``, in order.

        The matching positions are found by ``list.index`` and only those are
        unranked, last mode fastest, into their matrices.
        """
        find, spaces = self.tuple_ids.index, self.spaces[::-1]
        pos = -1
        while True:
            try:
                pos = find(tid, pos + 1)
            except ValueError:
                return
            picks, rest = [], pos
            for mats in spaces:
                rest, i = divmod(rest, len(mats))
                picks.append(mats[i])
            yield tuple(picks[::-1])

    def typical_ids(self, enums: tuple[TypicalEnumeration, ...]) -> Iterator[int]:
        """The tensor id of every typical tuple, in codebook-index order, for
        a table of the full space: one ``tuple_ids`` slice per typical prefix
        of the leading modes, filtered by the last mode's typical mask."""
        tuple_ids = self.tuple_ids
        last, positions = len(self.spaces[-1]), set(enums[-1].positions)
        mask = [pos in positions for pos in range(last)]
        bases, stride = [0], len(tuple_ids)
        for enum, mats in zip(enums[:-1], self.spaces):
            stride //= len(mats)
            bases = [base + pos * stride for base in bases for pos in enum.positions]
        return chain.from_iterable(compress(tuple_ids[b : b + last], mask) for b in bases)

    def probabilities(self, m: ModelSpec) -> tuple[list[int], int]:
        """Total model probability of each tensor id under ``m``, as int
        numerators over one denominator: the product over modes of the lcm of
        the mode's matrix-probability denominators, so every sum runs on ints.
        """
        from .typicality import matrix_probability  # a census weighs no table

        weights = []
        denominator = 1
        for mats in self.spaces:
            probs = [matrix_probability(x, m) for x in mats]
            d = math.lcm(*(q.denominator for q in probs))
            weights.append([q.numerator * (d // q.denominator) for q in probs])
            denominator *= d
        totals = [0] * len(self.id_keys)
        ids = iter(self.tuple_ids)
        inner = weights[-1]
        for outer in product(*weights[:-1]):
            base = math.prod(outer)
            for w, tid in zip(inner, ids):  # inner first: zip stops without taking an id
                totals[tid] += base * w
        return totals, denominator


def intern_space(spaces: Sequence[Sequence[FactorMatrix]], order: int) -> SpaceTable:
    """The ``SpaceTable`` of the tuples ``product(*spaces)`` of an order-``order``
    model (one list for a supersymmetric one)."""
    tuple_ids, key_to_id = intern_tensors(spaces, order)
    return SpaceTable(spaces, tuple_ids, key_to_id, list(key_to_id))


def space_table(m: ModelSpec, budget: int, what: str) -> SpaceTable:
    """The ``SpaceTable`` of every matrix of each independent mode of ``m``,
    canonical order, after ``check_space_budget``."""
    check_space_budget(m, budget, what)
    modes = range(1, m.independent_matrices + 1)
    return intern_space([list(iter_mode_matrices(m, i)) for i in modes], m.order)
