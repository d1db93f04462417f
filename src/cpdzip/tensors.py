"""Exact dense tensors, factor matrices, and rational linear algebra.

All arithmetic is exact: entries are ints or Fractions and equality is
entrywise.  Rank and linear solve use fraction-free (Bareiss) elimination:
each row is scaled to ints by the lcm of its denominators, every division is
exact and checked, and a Fraction is built only for a non-integral solution
entry.  There are no tolerances.  Matrices passed to the linear-algebra
helpers are plain sequences of row sequences.

Integral values are held as ints.  Tensors and factor matrices take their
entries as given; the places where an integral Fraction can arise (JSON
parsing, composition of fractional factors, ``solve_exact``) collapse it to
an int before construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, islice, product
from typing import Sequence

from .errors import DocumentError, json_field
from .model import CpdzipError, ModelSpec, count_text
from .rational import (
    Scalar,
    compact,
    over_common_denominator,
    pack_scalars,
    parse_scalars,
    scalar_strs,
)
from .records import Record, _set

Matrix = Sequence[Sequence[Scalar]]


class ShapeError(CpdzipError):
    """Operands have inconsistent shapes."""


class ExactTensor(Record):
    """Dense order-N tensor with equal mode sizes, row-major entries.

    Row-major means the flat index of (i_1, ..., i_N) is sum_j i_j * n^(N-j),
    i.e. the last index varies fastest.
    """

    order: int
    dim: int
    entries: tuple[Scalar, ...]

    def __init__(self, order: int, dim: int, entries: Sequence[Scalar]):
        # |dim|^order >= 2^(order * (bits of dim - 1)) refuses a far larger power unbuilt
        size = len(entries)
        if order * (dim.bit_length() - 1) > size.bit_length() or size != dim**order:
            raise ShapeError(
                f"order-{order} tensor of dim {dim} needs "
                f"{count_text([(dim, order)])} entries, got {size}"
            )
        _set(self, "order", order)
        _set(self, "dim", dim)
        _set(self, "entries", tuple(entries))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.dim,) * self.order

    def key(self) -> bytes:
        """Injective byte key for hashing/grouping of exact tensors."""
        return pack_scalars(self.entries)


def zero_tensor(order: int, dim: int) -> ExactTensor:
    return ExactTensor(order, dim, (0,) * dim**order)


class FactorMatrix(Record):
    """n x R matrix of mode ``mode`` (1-based); columns are component vectors."""

    mode: int
    rows: tuple[tuple[Scalar, ...], ...]

    def __init__(self, mode: int, rows: Matrix):
        rows = tuple(map(tuple, rows))
        if len(set(map(len, rows))) > 1:
            raise ShapeError("ragged factor matrix")
        _set(self, "mode", mode)
        _set(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def r(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, r: int) -> tuple[Scalar, ...]:
        return tuple(row[r] for row in self.rows)

    def columns(self) -> list[tuple[Scalar, ...]]:
        return [self.column(r) for r in range(self.r)]


class FactorTuple(Record):
    """Ordered N-tuple of factor matrices with consistent n and R."""

    matrices: tuple[FactorMatrix, ...]

    def __init__(self, matrices: Sequence[FactorMatrix]):
        mats = tuple(matrices)
        if not mats:
            raise ShapeError("empty factor tuple")
        n, r = mats[0].n, mats[0].r
        if any(x.n != n or x.r != r for x in mats):
            raise ShapeError("factor matrices disagree on n or R")
        _set(self, "matrices", mats)

    @property
    def order(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].n

    @property
    def components(self) -> int:
        return self.matrices[0].r


def replicate(x: FactorMatrix, order: int) -> tuple[FactorMatrix, ...]:
    """``x`` copied into each of modes 1..``order``: the matrices of a
    supersymmetric tuple."""
    return tuple(FactorMatrix(i, x.rows) for i in range(1, order + 1))


def expand_modes(m: ModelSpec, mats: Sequence[FactorMatrix]) -> Sequence[FactorMatrix]:
    """Every mode's matrix from one matrix per independent mode of ``m``: a
    supersymmetric model's one matrix replicated, otherwise ``mats`` as given."""
    return replicate(mats[0], m.order) if m.supersymmetric else mats


def _outer_flat(vectors: Sequence[Sequence[Scalar]]) -> list[Scalar]:
    # Row-major outer product: the last vector's index varies fastest.
    out: list[Scalar] = [1]
    for v in vectors:
        out = [x * y for x in out for y in v]
    return out


def _collapse(entries: list[Scalar], factors) -> list[Scalar]:
    """``entries`` composed from the scalars ``factors``, integral values as int.

    Sums and products of ints are ints, so only fractional factors pay for a
    pass over the entries.  ``factors`` is read in one C-level pass.
    """
    if set(map(type, factors)) <= {int}:
        return entries
    return [compact(e) for e in entries]


def outer_product(vectors: Sequence[Sequence[Scalar]]) -> ExactTensor:
    """Outer product of N equal-length vectors, T[i_1..i_N] = prod_j v_j[i_j]."""
    if not vectors:
        raise ShapeError("need at least one vector")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ShapeError("outer product requires equal-length vectors")
    flat = _collapse(_outer_flat(vectors), chain.from_iterable(vectors))
    return ExactTensor(len(vectors), n, tuple(flat))


def compose_entries(matrices: Sequence[FactorMatrix]) -> list[Scalar]:
    """Flat row-major entries of sum_r (outer product of the r-th columns)."""
    # item r: the r-th column of every mode, each matrix's columns read once
    cols = list(zip(*[zip(*m.rows) for m in matrices]))
    acc = _outer_flat(cols[0])
    for col in cols[1:]:
        acc = [a + b for a, b in zip(acc, _outer_flat(col))]
    return _collapse(acc, chain.from_iterable(chain.from_iterable(cols)))


def cpd_compose(t: FactorTuple | Sequence[FactorMatrix]) -> ExactTensor:
    """Compose a factor tuple into its dense tensor, exactly."""
    mats = t.matrices if isinstance(t, FactorTuple) else tuple(t)
    if isinstance(t, Sequence):
        FactorTuple(tuple(mats))  # shape check
    return ExactTensor(len(mats), mats[0].n, tuple(compose_entries(mats)))


def composes_to(matrices: Sequence[FactorMatrix], target: ExactTensor) -> bool:
    """Entrywise comparison with early exit; cheaper than composing fully.

    The sweeps read ``sweep.intern_space``; this stays as the independent
    oracle that the tests check the engine against.
    """
    n = matrices[0].n
    order = len(matrices)
    if target.order != order or target.dim != n:
        return False
    r_count = matrices[0].r
    cols = [[m.column(r) for m in matrices] for r in range(r_count)]
    entries = target.entries
    flat = 0
    for idx in product(range(n), repeat=order):
        total = 0
        for col in cols:
            p = col[0][idx[0]]
            for j in range(1, order):
                p = p * col[j][idx[j]]
            total += p
        if total != entries[flat]:
            return False
        flat += 1
    return True


def unfold(t: ExactTensor, mode: int) -> list[list[Scalar]]:
    """Mode-``mode`` unfolding into an n x n^(N-1) matrix.

    Row i holds every entry with i_mode = i.  Columns enumerate the remaining
    indices with the smallest remaining mode varying fastest, so that
    unfold(T, 1)^T = (X_N (*) ... (*) X_2) X_1^T when T composes from
    (X_1, ..., X_N), with (*) the Khatri-Rao product.  The analogous identity
    holds for every mode with the chain running over the other modes in
    descending order.
    """
    if not 1 <= mode <= t.order:
        raise ShapeError(f"mode {mode} out of range for order {t.order}")
    n, order = t.dim, t.order
    # flat offset of each column: index i_j contributes i_j * n^(order - j),
    # and each later remaining mode varies slower than the ones before it
    offsets = [0]
    for j in range(1, order + 1):
        if j != mode:
            stride = n ** (order - j)
            offsets = [o + d * stride for d in range(n) for o in offsets]
    entries, row_stride = t.entries, n ** (order - mode)
    return [[entries[base + o] for o in offsets] for base in map(row_stride.__mul__, range(n))]


def khatri_rao(a: Matrix, b: Matrix) -> list[list[Scalar]]:
    """Column-wise Kronecker product; column r is kron(a[:, r], b[:, r])."""
    if not a or not b:
        raise ShapeError("empty operand")
    r = len(a[0])
    if len(b[0]) != r:
        raise ShapeError(f"column counts differ: {r} vs {len(b[0])}")
    out = []
    for arow in a:
        for brow in b:
            out.append([arow[c] * brow[c] for c in range(r)])
    return out


def khatri_rao_chain(mats: Sequence[Matrix]) -> list[list[Scalar]]:
    """Left-fold Khatri-Rao product of a sequence of matrices."""
    if not mats:
        raise ShapeError("empty chain")
    acc = [list(row) for row in mats[0]]
    for m in mats[1:]:
        acc = khatri_rao(acc, m)
    return acc


def transpose(m: Matrix) -> list[list[Scalar]]:
    return [list(col) for col in zip(*m)]


def mat_mul(a: Matrix, b: Matrix) -> list[list[Scalar]]:
    if a and b and len(a[0]) != len(b):
        raise ShapeError("inner dimensions disagree")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _integer_rows(m: Matrix) -> list[list[int]]:
    """Fresh int rows, each one scaled by the lcm of its denominators.

    Scaling a row by a nonzero constant keeps both the rank of a matrix and
    the solutions of a linear system.  An all-int row is found and copied by
    C-level passes.
    """
    return [
        list(row) if set(map(type, row)) <= {int} else over_common_denominator(row)[0]
        for row in m
    ]


def _bareiss_row(row: list[int], top: list[int], col: int, prev: int) -> list[int]:
    """(top[col] * row - row[col] * top) / prev: one fraction-free elimination
    step of ``row`` by the pivot row ``top``; the division must be exact."""
    pivot, f = top[col], row[col]
    out = [pivot * x - f * y for x, y in zip(row, top)]
    if prev != 1:
        if any(v % prev for v in out):
            raise ArithmeticError("Bareiss exact division failed")
        out = [v // prev for v in out]
    return out


def pivot_rows(m: Matrix) -> list[int]:
    """Ascending indices of a maximal linearly independent set of rows.

    Fraction-free (Bareiss 1968) elimination with row pivoting.  Each
    eliminated pivot row is a nonzero multiple of its original row plus a
    combination of earlier pivot rows, so the original rows at the pivot
    positions span the row space; their number is the rank.

    Elimination stops at the rank: once every row below the pivots is zero
    no later column holds a pivot, and the last column's pivot leaves no
    column to eliminate.  The pivots chosen are those of the full sweep.
    """
    rows = _integer_rows(m)
    if not rows or not rows[0]:
        return []
    order = list(range(len(rows)))
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        order[rank], order[pivot_row] = order[pivot_row], order[rank]
        top = rows[rank]
        rank += 1
        if col == n_cols - 1:
            break
        rows[rank:] = [_bareiss_row(row, top, col, prev) for row in rows[rank:]]
        if not any(map(any, rows[rank:])):
            break
        prev = top[col]
    return sorted(order[:rank])


def rank_exact(m: Matrix) -> int:
    """Exact matrix rank by fraction-free Bareiss elimination with pivoting."""
    return len(pivot_rows(m))


def kruskal_rank(m: Matrix) -> int:
    """Largest t such that every subset of t columns is linearly independent.

    A matrix containing a zero column has k-rank 0 by convention (the t = 1
    quantifier already fails).
    """
    if not m or not m[0]:
        return 0
    cols = transpose(m)
    if any(all(v == 0 for v in col) for col in cols):
        return 0
    upper = rank_exact(m)
    r = len(cols)
    for t in range(min(upper, r), 0, -1):
        if all(
            rank_exact(transpose([cols[i] for i in subset])) == t
            for subset in combinations(range(r), t)
        ):
            return t
    return 0


def solve_exact(a: Matrix, b: Matrix) -> list[list[Scalar]] | None:
    """Solve A X = B exactly for A with full column rank.

    Returns None when A is not of full column rank or the system is
    inconsistent.  Fraction-free (Bareiss) Gauss-Jordan elimination on the
    augmented rows [A | B], each scaled to ints: with p_k the pivot of step k
    (p_-1 = 1), step k sets every other row to
    (p_k row_i - row_i[k] row_k) / p_(k-1), an exact division.  Afterwards the
    left part of the pivot rows is d times the identity, d the last pivot, so
    row k of X is the right-hand side of pivot row k over d.  Solution entries
    are ints where integral and Fractions in lowest terms otherwise; no
    Fraction is built for int input and an integral solution.
    """
    if len(a) != len(b):
        raise ShapeError(f"A has {len(a)} rows but B has {len(b)}")
    n_cols = len(a[0]) if a else 0
    rows = _integer_rows([list(ra) + list(rb) for ra, rb in zip(a, b)])
    prev = 1
    for k in range(n_cols):
        pivot_row = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot_row is None:
            return None  # not full column rank
        rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
        top = rows[k]
        rows = [row if i == k else _bareiss_row(row, top, k, prev) for i, row in enumerate(rows)]
        prev = top[k]
    # consistency: the right-hand sides of the rows below the rank must vanish
    if any(any(row[n_cols:]) for row in rows[n_cols:]):
        return None
    return [
        [v // prev if v % prev == 0 else Fraction(v, prev) for v in row[n_cols:]]
        for row in rows[:n_cols]
    ]


# --- JSON documents -----------------------------------------------------------


def tensor_to_dict(t: ExactTensor) -> dict:
    return {
        "kind": "tensor",
        "order": t.order,
        "dim": t.dim,
        "entries": scalar_strs(t.entries),
    }


def _check_kind(data, kind: str) -> None:
    found = data.get("kind") if isinstance(data, dict) else None
    if found != kind:
        raise DocumentError(f"expected a {kind!r} document, got kind {found!r}")


def tensor_from_dict(data: dict) -> ExactTensor:
    _check_kind(data, "tensor")
    return ExactTensor(
        json_field(data, "order", int),
        json_field(data, "dim", int),
        parse_scalars(json_field(data, "entries", list)),
    )


def matrix_to_dict(x: FactorMatrix) -> dict:
    strs = iter(scalar_strs([v for row in x.rows for v in row]))
    return {
        "kind": "factor_matrix",
        "mode": x.mode,
        "rows": x.n,
        "cols": x.r,
        "entries": [list(islice(strs, len(row))) for row in x.rows],
    }


def matrix_from_dict(data: dict) -> FactorMatrix:
    """Read a factor-matrix document.  ``rows`` and ``cols`` must be JSON
    integers >= 1 that equal the shape of ``entries``."""
    _check_kind(data, "factor_matrix")
    mode = json_field(data, "mode", int)
    n_rows, n_cols = json_field(data, "rows", int), json_field(data, "cols", int)
    rows = json_field(data, "entries", list)
    if not all(type(row) is list for row in rows):
        raise DocumentError("field 'entries' must be a list of rows")
    if n_rows < 1 or n_cols < 1 or len(rows) != n_rows or any(len(r) != n_cols for r in rows):
        raise DocumentError(
            f"fields 'rows' and 'cols' must be at least 1 and give the shape of 'entries', "
            f"got {n_rows} x {n_cols}"
        )
    values = iter(parse_scalars([v for row in rows for v in row]))
    return FactorMatrix(mode, tuple(tuple(islice(values, len(row))) for row in rows))
