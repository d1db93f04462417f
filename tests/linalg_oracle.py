"""Reference copies of the exact linear algebra as it stood before the
census was made to cost one read of the tensor.

``tests/test_tensors.py`` and ``tests/test_analysis.py`` compare the
library's ``unfold``, ``pivot_rows``, ``rank_exact``, ``solve_exact`` and
``analysis._span_vectors`` with these.  Each one here does the plain full
computation: a per-entry index decode, an elimination over every column, and
the span coefficients from the whole n^(N-1) x (R + n) system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import mul


def unfold(t, mode: int) -> list[list]:
    n, order = t.dim, t.order
    rest = [j for j in range(1, order + 1) if j != mode]
    # flat strides: index i_j contributes i_j * n^(order - j)
    strides = {j: n ** (order - j) for j in range(1, order + 1)}
    cols = n ** (order - 1)
    out = []
    for i in range(n):
        base = i * strides[mode]
        row = []
        for col in range(cols):
            flat = base
            rem = col
            for j in rest:  # rest ascending; first remaining mode varies fastest
                flat += (rem % n) * strides[j]
                rem //= n
            row.append(t.entries[flat])
        out.append(row)
    return out


def transpose(m) -> list[list]:
    return [list(col) for col in zip(*m)]


def _integer_rows(m) -> list[list[int]]:
    out = []
    for row in m:
        if all(type(v) is int for v in row):
            out.append(list(row))
            continue
        lcm = math.lcm(*(v.denominator for v in row if isinstance(v, Fraction)))
        out.append([int(v * lcm) for v in row])
    return out


def _bareiss_row(row, top, col, prev):
    pivot, f = top[col], row[col]
    out = [pivot * x - f * y for x, y in zip(row, top)]
    if prev != 1:
        if any(v % prev for v in out):
            raise ArithmeticError("Bareiss exact division failed")
        out = [v // prev for v in out]
    return out


def pivot_rows(m) -> list[int]:
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
        for i in range(rank + 1, n_rows):
            rows[i] = _bareiss_row(rows[i], top, col, prev)
        prev = top[col]
        rank += 1
        if rank == n_rows:
            break
    return sorted(order[:rank])


def rank_exact(m) -> int:
    return len(pivot_rows(m))


def solve_exact(a, b):
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


def span_vectors(u, u_p, alphabet) -> list[tuple[tuple, tuple]]:
    """Span coefficients C from the full system U_P^T C^T = U^T."""
    c = transpose(solve_exact(transpose(u_p), transpose(u)))
    symbols = {s: s for s in alphabet.symbols}
    out = []
    for y in product(alphabet.symbols, repeat=len(u_p)):
        if not any(y):
            continue
        vec = tuple(symbols.get(sum(map(mul, row, y))) for row in c)
        if None not in vec:
            out.append((vec, y))
    return out
