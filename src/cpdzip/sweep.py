"""The exact sweep engine: canonical mode matrices and the one space table.

Every exhaustive sweep of a tuple space (the codec's full-space table, the
factorization census, the zero-tensor sweeps, the census experiments) reads
one ``SpaceTable``, built by ``intern_space``: each tuple's tensor id and
each id's packed key.  ``mode_matrices`` is the one code that turns a
canonical position into a matrix, and ``unrank`` the one that turns a tuple
index into its matrices.  Only the commands that sweep or build matrices
load this module; typicality decisions and sampling do not.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import partial, reduce
from itertools import chain, compress, count, product
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .model import ModelSpec, checked_size, mode_space_power, mode_space_size
from .rational import Scalar, over_common_denominator, pack_scalars
from .records import Record
from .tensors import FactorMatrix

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
    modes = range(1, m.independent_matrices + 1)
    checked_size([mode_space_power(m, i) for i in modes], budget, what)


def unrank(spaces: Sequence[Sequence[FactorMatrix]], index: int) -> list[FactorMatrix]:
    """The matrices of tuple ``index`` of ``product(*spaces)``, mode 1 most
    significant: the index is read in mixed radix, last mode fastest."""
    mats = []
    for mode_space in reversed(spaces):
        index, pos = divmod(index, len(mode_space))
        mats.append(mode_space[pos])
    mats.reverse()
    return mats


class SpaceTable(Record):
    """Every tuple of a tuple space with its tensor id, as ``intern_space``
    numbers them, and each id's packed key (``id_keys``, ``key_to_id``).

    ``spaces`` holds the matrices of each independent mode.  Tuple i is the
    i-th of ``product(*spaces)``, mode 1 most significant; only the methods
    below and ``unrank`` read that order.
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
        unranked into their matrices.
        """
        find, spaces = self.tuple_ids.index, self.spaces
        pos = -1
        while True:
            try:
                pos = find(tid, pos + 1)
            except ValueError:
                return
            yield tuple(unrank(spaces, pos))

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
            nums, d = over_common_denominator([matrix_probability(x, m) for x in mats])
            weights.append(nums)
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
    """The ``SpaceTable`` of the tuples ``product(*spaces)`` of an
    order-``order`` model: the tensor id of every tuple, and the key of each
    id.

    ``spaces`` holds one list of matrices per mode; tuples come in
    ``itertools.product(*spaces)`` order, mode 1 most significant.  A single
    list is used in all ``order`` modes (the supersymmetric case).  Equal ids
    mean equal tensors, ids are numbered in order of first occurrence, and
    each key equals ``pack_scalars(compose_entries(tuple))`` byte for byte.

    The tensor splits on its first index into n slabs, and a slab splits on
    its next index the same way down to the last mode.  With w an R-vector
    (the product of the rows already fixed), the slab
    P(w; k) = sum_r w_r X_k[:, r] (x) ... (x) X_N[:, r] is the n-tuple of the
    slabs P(w * X_k[i, :]; k+1), and P(w; N) is an n-entry block.  Each
    level's slabs are interned (``_slab_bytes``), so bytes are packed once
    per distinct block and joined once per distinct slab.  The top level is
    hash-consed the same way: a tuple's id is interned on the tuple of its n
    top-level slabs, and a key is joined once per id.  This numbers ids as
    interning the joined keys would: every scalar packs to a self-delimiting
    varint pair (a prefix code) and every top-level slab packs n^(N-1)
    scalars, so a key splits back into its n slabs in one way only, and two
    slab tuples are equal exactly when their joins are.

    A supersymmetric tensor is the sum of its columns' N-fold outer powers,
    sum_r x_r (x) ... (x) x_r, so it depends only on the multiset of the
    matrix's columns.  Each distinct column's power is computed once, each
    distinct multiset (the sorted column tuple) has its powers summed and
    packed once, and every matrix with that multiset takes its id.  Ids are
    interned on the packed bytes, since two multisets can give one tensor
    (x and -x cancel at odd N).
    """
    tuple_ids: list[int] = []
    key_to_id: dict[bytes, int] = {}
    if len(spaces) == 1:
        intern = key_to_id.setdefault
        powers: dict[tuple, Sequence[Scalar]] = {}
        multiset_ids: dict[tuple, int] = {}
        for x in spaces[0]:
            cols = tuple(sorted(zip(*x.rows)))
            tid = multiset_ids.get(cols)
            if tid is None:
                for col in cols:
                    if col not in powers:
                        term = col
                        for _ in range(order - 1):
                            term = [a * b for a in term for b in col]
                        powers[col] = term
                entries = reduce(partial(map, add), map(powers.__getitem__, cols))
                tid = multiset_ids[cols] = intern(pack_scalars(entries), len(key_to_id))
            tuple_ids.append(tid)
    elif all(spaces):
        first, *rest = spaces
        slabs = _slab_bytes(rest)
        ids: defaultdict[tuple, int] = defaultdict(count().__next__)
        for x in first:  # the top level is interned on its n slabs, and joined once per id
            tuple_ids += map(ids.__getitem__, zip(*map(slabs, x.rows)))
        key_to_id = dict(zip(map(b"".join, ids), ids.values()))
    return SpaceTable(spaces, tuple_ids, key_to_id, list(key_to_id))


def _slab_bytes(
    modes: Sequence[Sequence[FactorMatrix]],
) -> Callable[[tuple], list[bytes]]:
    """A function of an R-vector w giving the packed bytes of P(w; k) for
    every tuple of ``modes`` (X_k, ..., X_N), in product order, memoized per w.

    Slabs are interned: equal slabs share one bytes object, found by the
    scalars of a block or by the n bytes objects of a slab's children.
    """
    here, *below = modes
    memo: dict[tuple, list[bytes]] = {}
    interned: dict[tuple, bytes] = {}
    if below:
        children = _slab_bytes(below)
        join = b"".join

        def parts_of(w):  # the n child slabs of each matrix of this mode
            return chain.from_iterable(
                zip(*[children(tuple(map(mul, w, row))) for row in x.rows]) for x in here
            )
    else:
        join = pack_scalars

        def parts_of(w):  # the block of each last-mode matrix
            return (tuple(sum(map(mul, w, row)) for row in x.rows) for x in here)

    def slabs(w: tuple) -> list[bytes]:
        out = memo.get(w)
        if out is None:
            out = memo[w] = []
            for parts in parts_of(w):
                packed = interned.get(parts)
                if packed is None:
                    packed = interned[parts] = join(parts)
                out.append(packed)
        return out

    return slabs


def space_table(m: ModelSpec, budget: int, what: str) -> SpaceTable:
    """The ``SpaceTable`` of every matrix of each independent mode of ``m``,
    canonical order, after ``check_space_budget``."""
    check_space_budget(m, budget, what)
    modes = range(1, m.independent_matrices + 1)
    return intern_space([list(iter_mode_matrices(m, i)) for i in modes], m.order)
