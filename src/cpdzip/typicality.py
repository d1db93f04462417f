"""Typicality of factor matrices and exact enumeration of typical sets.

A matrix X of mode i is typical at level gamma when

    | -ln P(X) - n * sum_r H(P_{i,r}) | < n * gamma     (strict),

with P(X) the product of its entry probabilities.  Membership is decided
without floating-point misclassification: a float fast path handles points far
from the boundary, and near the boundary the deviation is enclosed between
exact rationals at increasing precision, from 113 to 1024 bits.  Each
enclosure is built from the correctly rounded natural logarithms of
``decimal`` (General Decimal Arithmetic): ln k lies strictly between the
neighbours of its rounded value.  If the sign is still ambiguous at 1024
bits, a hard error is raised rather than guessing.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

from .model import (
    CpdzipError,
    DEFAULT_BUDGET,
    ModelSpec,
    checked_size,
    entropy,
    mode_space_power,
)
from .rational import over_common_denominator
from .records import Record

if TYPE_CHECKING:  # annotations only: no decision here builds a matrix
    from .tensors import FactorMatrix

_FLOAT_MARGIN = 1e-6
_INTERVAL_PRECISIONS = (113, 240, 512, 1024)  # bits; decimal digits = ceil(bits * log10 2)


class TypicalityUndecidableError(CpdzipError):
    """The typicality boundary could not be resolved at maximum precision."""


class TypicalityParamsError(CpdzipError, ValueError):
    """Typicality parameters are out of their domain."""


class TypicalityParams(Record):
    """Slack gamma (nats per symbol, exact rational) and block length n."""

    gamma: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.gamma <= 0:
            raise TypicalityParamsError(f"gamma must be positive, got {self.gamma}")


class TypeTable(Record):
    """The typical tuples of column types of one mode (method of types):
    ``weights`` maps each (t_0, ..., t_{R-1}), t_r the symbol counts of column
    r, to the probability of its matrices as an int over ``denominator``.
    """

    weights: dict[tuple[tuple[int, ...], ...], int]
    denominator: int

    @property
    def mass(self) -> Fraction:
        """Exact model probability of the mode's typical set."""
        return Fraction(sum(self.weights.values()), self.denominator)


class TypicalEnumeration(Record):
    """The typical matrices of one mode, as their canonical positions.

    ``positions`` holds, ascending, each typical matrix's index in the
    full-space enumeration of the mode; ``sweep.mode_matrices`` reads the
    matrices at them, and ``sweep.SpaceTable.typical_ids`` reads a full-space
    table at them.  ``mass`` is the exact model probability of the typical
    set, from the type table the positions were read from.
    """

    mode: int
    positions: tuple[int, ...]
    space_size: int
    mass: Fraction

    @property
    def count(self) -> int:
        return len(self.positions)

    @property
    def log_cardinality(self) -> float:
        return math.log(self.count) if self.count else -math.inf


def _symbol_counts(x: FactorMatrix, m: ModelSpec) -> list[list[int]]:
    """counts[r][k]: occurrences of symbol k in column r; raises off-alphabet."""
    alphabet = m.alphabet(x.mode)
    index = {s: k for k, s in enumerate(alphabet.symbols)}
    counts = [[0] * alphabet.size for _ in range(x.r)]
    for row in x.rows:
        for r, v in enumerate(row):
            k = index.get(v)
            if k is None:
                raise ValueError(f"entry {v!r} not in the mode-{x.mode} alphabet")
            counts[r][k] += 1
    return counts


def matrix_probability(x: FactorMatrix, m: ModelSpec) -> Fraction:
    """Exact model probability of a factor matrix realization."""
    counts = _symbol_counts(x, m)
    prob = Fraction(1)
    for r in range(x.r):
        probs = m.dist(x.mode, r).probs
        for k, c in enumerate(counts[r]):
            if c:
                prob *= probs[k] ** c
    return prob


def _log_table(dists) -> list[list[float]]:
    """logs[r][k] = ln p of symbol k under dists[r] (-inf where p is zero)."""
    return [
        [math.log(p.numerator) - math.log(p.denominator) if p else -math.inf for p in d.probs]
        for d in dists
    ]


def _log_prob_counts(counts, logs) -> float:
    """ln P(X) from symbol counts: one term per (column, symbol) present."""
    return math.fsum(
        c * lg for column, column_logs in zip(counts, logs) for c, lg in zip(column, column_logs) if c
    )


def log_prob_matrix(x: FactorMatrix, m: ModelSpec) -> float:
    """ln P(X) in nats; -inf when some entry has probability zero."""
    dists = [m.dist(x.mode, r) for r in range(x.r)]
    return _log_prob_counts(_symbol_counts(x, m), _log_table(dists))


def _deviation_terms(
    counts, n: int, m: ModelSpec, mode: int
) -> list[tuple[int, Fraction]] | None:
    """(a, p) pairs with D = sum a / den(p) * (-ln p); None if P(X) = 0.

    ``counts[r][k]`` is the number of entries of symbol k in column r of an
    n-row matrix X of mode ``mode``.  D is -ln P(X) - n * sum_r H; grouping by
    (column, symbol) gives the int a = count * den(p) - n * num(p) for each
    symbol of positive probability.
    """
    terms = []
    for r, column in enumerate(counts):
        for c, p in zip(column, m.dist(mode, r).probs):
            if p == 0:
                if c:
                    return None
                continue
            a = c * p.denominator - n * p.numerator
            if a:
                terms.append((a, p))
    return terms


def _float_deviation(terms) -> float:
    """D in floats; int true division rounds a / den(q) as ``Fraction`` would."""
    return math.fsum(
        a / q.denominator * (math.log(q.denominator) - math.log(q.numerator)) for a, q in terms
    )


def _deviation_enclosure(terms, bits: int) -> tuple[Fraction, Fraction]:
    """Exact rationals lo < D < hi for the D of ``_deviation_terms``.

    ln k is taken once for each distinct integer k among the terms'
    numerators and denominators, correctly rounded to the decimal digits that
    ``bits`` bits carry, so it lies strictly between the rounded value's
    neighbours; each term takes the end its coefficient's sign selects.
    ln 1 is the exact 0: the lower neighbour of 0 is the smallest subnormal,
    whose ``Fraction`` has about a million digits.
    """
    ctx = Context(prec=math.ceil(bits * math.log10(2)))
    logs = {1: (0, 0)}
    for k in {k for _, q in terms for k in (q.numerator, q.denominator)} - {1}:
        ln = Decimal(k).ln(ctx)
        logs[k] = (Fraction(ln.next_minus(ctx)), Fraction(ln.next_plus(ctx)))
    lo = hi = Fraction(0)
    for a, q in terms:
        num_lo, num_hi = logs[q.numerator]
        den_lo, den_hi = logs[q.denominator]
        coeff = Fraction(a, q.denominator)
        low, high = coeff * (den_lo - num_hi), coeff * (den_hi - num_lo)
        if a < 0:
            low, high = high, low
        lo += low
        hi += high
    return lo, hi


def _is_typical_counts(counts, n: int, m: ModelSpec, mode: int, p: TypicalityParams) -> bool:
    """Strict typicality of every n-row matrix of ``mode`` whose column r holds
    ``counts[r][k]`` entries of symbol k; boundary points count as atypical."""
    terms = _deviation_terms(counts, n, m, mode)
    if terms is None:
        return False  # zero-probability entry
    if not terms:
        return True  # -ln P(X) equals n * sum H exactly (e.g. uniform columns)
    bound_num, bound_den = p.n * p.gamma.numerator, p.gamma.denominator  # n * gamma

    slack = bound_num / bound_den - abs(_float_deviation(terms))
    if abs(slack) > _FLOAT_MARGIN:
        return slack > 0

    # Near the boundary: exact enclosures lo < D < hi at increasing precision.
    # typical iff -bound < D < bound.
    bound = Fraction(bound_num, bound_den)
    for bits in _INTERVAL_PRECISIONS:
        lo, hi = _deviation_enclosure(terms, bits)
        if lo >= bound or hi <= -bound:
            return False
        if -bound < lo and hi < bound:
            return True
    raise TypicalityUndecidableError(
        "typicality boundary unresolved at maximum precision"
    )


def is_typical_matrix(x: FactorMatrix, m: ModelSpec, p: TypicalityParams) -> bool:
    """Strict typicality test; boundary points count as atypical."""
    return _is_typical_counts(_symbol_counts(x, m), x.n, m, x.mode, p)


def _column_types(size: int, n: int) -> list[tuple[int, ...]]:
    """Every type of an n-entry column over ``size`` symbols: the count
    vectors (c_0, ..., c_{size-1}) with sum n."""
    if size == 1:
        return [(n,)]
    return [(c, *rest) for c in range(n + 1) for rest in _column_types(size - 1, n - c)]


def enumerate_typical(
    m: ModelSpec,
    p: TypicalityParams,
    mode: int,
    budget: int = DEFAULT_BUDGET,
) -> TypicalEnumeration:
    """The canonical positions of exactly the typical matrices of one mode.

    Typicality depends only on the type (symbol counts) of each column, so it
    is read from the mode's ``type_table``, built after the mode-space budget
    check, whose mass the result keeps; no matrix is built.  In canonical
    order a matrix whose columns have indices c_0, ..., c_{R-1} among the
    |A|^n columns (read as base-|A| numbers) sits at position
    sum_r c_r * (|A|^n)^(R-1-r); walking the leading columns in order and, for
    each, the last columns that complete a typical type tuple in ascending
    order yields ascending positions.
    """
    space = checked_size([mode_space_power(m, mode)], budget, f"mode-{mode} enumeration")
    table = type_table(m, p, mode, budget)
    size, n, r = m.alphabet(mode).size, m.dim, m.components
    col_types = [tuple(map(d.count, range(size))) for d in product(range(size), repeat=n)]
    columns = len(col_types)
    completions = {  # leading column types -> last columns completing a typical tuple
        lead: [c for c, t in enumerate(col_types) if lead + (t,) in table.weights]
        for lead in product(set(col_types), repeat=r - 1)
    }
    positions = []
    for i, lead in enumerate(product(range(columns), repeat=r - 1)):
        base = i * columns  # lead is the base-|A|^n numeral of i
        positions.extend(base + c for c in completions[tuple(col_types[c] for c in lead)])
    enum = TypicalEnumeration(mode, tuple(positions), space, table.mass)
    # Standard cardinality bound: every typical X has P(X) > exp(-n(sum_r H + gamma)),
    # and the total mass is at most 1.
    if enum.count:
        h = math.fsum(entropy(m.dist(mode, r)) for r in range(m.components))
        limit = p.n * (h + float(p.gamma)) + 1e-9
        assert enum.log_cardinality <= limit, (
            f"typical count {enum.count} exceeds e^(n(H+gamma)) = e^{limit:.6f}"
        )
    return enum


def type_table(
    m: ModelSpec,
    p: TypicalityParams,
    mode: int,
    budget: int = DEFAULT_BUDGET,
) -> TypeTable:
    """Decide every tuple of column types of one mode once, and weigh the
    typical ones by the method of types.

    Column r of type t (t_k entries of symbol k) is one of multinomial(n; t)
    columns, each of probability prod_k p_{r,k}^t_k; a type tuple's weight is
    the product of these over its columns.  With column r's probabilities over
    a common denominator d_r the weights are integers over prod_r d_r^n.
    ``budget`` bounds the number of type tuples decided, not the mode space;
    they are counted, C(n + |A| - 1, |A| - 1)^R, before any type is built.
    """
    n, r, size = m.dim, m.components, m.alphabet(mode).size
    checked_size([(math.comb(n + size - 1, size - 1), r)], budget, f"mode-{mode} type tuples")
    types = _column_types(size, n)
    n_fact = math.factorial(n)
    column_weights = []
    denominator = 1
    for column in range(r):
        scaled, d = over_common_denominator(m.dist(mode, column).probs)
        column_weights.append({
            t: n_fact // math.prod(map(math.factorial, t))
            * math.prod(s**c for s, c in zip(scaled, t))
            for t in types
        })
        denominator *= d**n
    weights = {}
    for tt in product(types, repeat=r):
        if _is_typical_counts(tt, n, m, mode, p):
            weights[tt] = math.prod(w[t] for w, t in zip(column_weights, tt))
    return TypeTable(weights, denominator)


def typicality_mass(
    m: ModelSpec,
    p: TypicalityParams,
    mode: int,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Exact model probability of the mode's typical set, with no enumeration."""
    return type_table(m, p, mode, budget).mass


def spectrum_samples(m: ModelSpec, trials: int, seed: int) -> list[float]:
    """i.i.d. samples of -(1/n) sum_i ln P(X_i) under the model.

    The sum runs over the independently sampled matrices (one in
    supersymmetric mode).  Deterministic given the seed; trial t uses the
    derived stream (seed, t).  Each sample is read from the drawn symbol
    indices, with the terms and sums of ``log_prob_matrix``, so it equals
    that function over ``sample_tuple``'s matrices bit for bit.
    """
    from .rng import DrawTable, draw_indices, stream_rng

    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = m.dim
    table = DrawTable(m)
    logs = [_log_table(m.dists[mode - 1]) for mode in table.modes]
    symbols = [range(a.size) for a in table.alphabets]
    out = []
    for t in range(trials):
        indices = draw_indices(table, stream_rng(seed, t))
        total = math.fsum(
            _log_prob_counts([[col.count(k) for k in ks] for col in cols], mode_logs)
            for cols, ks, mode_logs in zip(indices, symbols, logs)
        )
        out.append(-total / n)
    return out
