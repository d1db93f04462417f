"""Typicality of factor matrices and exact enumeration of typical sets.

A matrix X of mode i is typical at level gamma when

    | -ln P(X) - n * sum_r H(P_{i,r}) | < n * gamma     (strict),

with P(X) the product of its entry probabilities.  Membership is decided
without floating-point misclassification: a float fast path handles points far
from the boundary, and near the boundary the comparison is re-run in interval
arithmetic at increasing precision.  If the interval width drops below 1e-9
and the sign is still ambiguous, a hard error is raised rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

import mpmath

from .model import (
    BudgetExceededError,
    CpdzipError,
    DEFAULT_BUDGET,
    ModelSpec,
    entropy,
)
from .tensors import FactorMatrix, matrix_dump_bytes, matrix_from_dump

_FLOAT_MARGIN = 1e-6
_INTERVAL_WIDTH_FLOOR = 1e-9
_INTERVAL_PRECISIONS = (113, 240, 512, 1024)


class TypicalityUndecidableError(CpdzipError):
    """The typicality boundary could not be resolved at maximum precision."""


class TypicalityParamsError(CpdzipError, ValueError):
    """Typicality parameters are out of their domain."""


@dataclass(frozen=True)
class TypicalityParams:
    """Slack gamma (nats per symbol, exact rational) and block length n."""

    gamma: Fraction
    n: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.gamma <= 0:
            raise TypicalityParamsError(f"gamma must be positive, got {self.gamma}")


@dataclass(frozen=True)
class TypicalEnumeration:
    """All typical matrices of one mode in canonical lexicographic order.

    ``positions`` holds each matrix's index in the full-space enumeration of
    the mode; the codec uses it to address shared composition tables.
    """

    mode: int
    matrices: tuple[FactorMatrix, ...]
    positions: tuple[int, ...]
    space_size: int

    @property
    def count(self) -> int:
        return len(self.matrices)

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


def log_prob_matrix(x: FactorMatrix, m: ModelSpec) -> float:
    """ln P(X) in nats; -inf when some entry has probability zero."""
    counts = _symbol_counts(x, m)
    terms = []
    for r in range(x.r):
        probs = m.dist(x.mode, r).probs
        for k, c in enumerate(counts[r]):
            if not c:
                continue
            p = probs[k]
            if p == 0:
                return -math.inf
            terms.append(c * (math.log(p.numerator) - math.log(p.denominator)))
    return math.fsum(terms)


def _deviation_terms(
    x: FactorMatrix, m: ModelSpec
) -> list[tuple[Fraction, Fraction]] | None:
    """(coefficient, p) pairs with D = sum c * (-ln p); None if P(X) = 0.

    D is -ln P(X) - n * sum_r H; grouping by (column, symbol) gives
    c = count - n * p for each symbol of positive probability.
    """
    counts = _symbol_counts(x, m)
    n = x.n
    terms = []
    for r in range(x.r):
        probs = m.dist(x.mode, r).probs
        for k, p in enumerate(probs):
            c = counts[r][k]
            if p == 0:
                if c:
                    return None
                continue
            coeff = c - n * p
            if coeff:
                terms.append((Fraction(coeff), p))
    return terms


def _interval_sign(value) -> bool | None:
    positive = value > 0
    if positive is True:
        return True
    if (value < 0) is True:
        return False
    return None


def is_typical_matrix(x: FactorMatrix, m: ModelSpec, p: TypicalityParams) -> bool:
    """Strict typicality test; boundary points count as atypical."""
    terms = _deviation_terms(x, m)
    if terms is None:
        return False  # zero-probability entry
    if not terms:
        return True  # -ln P(X) equals n * sum H exactly (e.g. uniform columns)
    bound = p.n * p.gamma

    dev = math.fsum(
        float(c) * (math.log(q.denominator) - math.log(q.numerator)) for c, q in terms
    )
    slack = float(bound) - abs(dev)
    if abs(slack) > _FLOAT_MARGIN:
        return slack > 0

    # Near the boundary: interval arithmetic at increasing precision.  typical
    # iff both bound - D > 0 and bound + D > 0.
    iv = mpmath.iv
    old_prec = iv.prec
    try:
        for prec in _INTERVAL_PRECISIONS:
            iv.prec = prec
            dev_iv = iv.mpf(0)
            for c, q in terms:
                coeff = iv.mpf(c.numerator) / iv.mpf(c.denominator)
                dev_iv += coeff * iv.log(iv.mpf(q.denominator) / iv.mpf(q.numerator))
            bound_iv = iv.mpf(bound.numerator) / iv.mpf(bound.denominator)
            upper = bound_iv - dev_iv
            lower = bound_iv + dev_iv
            up_sign = _interval_sign(upper)
            lo_sign = _interval_sign(lower)
            if up_sign is False or lo_sign is False:
                return False
            if up_sign is True and lo_sign is True:
                return True
            width = max(float(upper.delta), float(lower.delta))
            if width < _INTERVAL_WIDTH_FLOOR:
                raise TypicalityUndecidableError(
                    f"typicality boundary unresolved at interval width {width:.3e}"
                )
    finally:
        iv.prec = old_prec
    raise TypicalityUndecidableError(
        "typicality boundary unresolved at maximum precision"
    )


def mode_space_size(m: ModelSpec, mode: int) -> int:
    return m.alphabet(mode).size ** (m.dim * m.components)


def iter_mode_matrices(m: ModelSpec, mode: int) -> Iterator[FactorMatrix]:
    """Full-space enumeration of mode matrices in canonical order.

    Canonical order is lexicographic over symbol indices read column-major
    (column 0 rows top to bottom, then column 1, ...); this order is pinned
    by the format spec and shared by the codec's tuple indexing.
    """
    alphabet = m.alphabet(mode)
    symbols = alphabet.symbols
    n, r = m.dim, m.components
    for digits in product(range(len(symbols)), repeat=n * r):
        rows = tuple(
            tuple(symbols[digits[c * n + j]] for c in range(r)) for j in range(n)
        )
        yield FactorMatrix(mode, rows, alphabet)


def mode_spaces(m: ModelSpec, budget: int, what: str) -> list[list[FactorMatrix]]:
    """Every matrix of each independent mode, canonical order, for a sweep of
    the full tuple space (see ``tensors.sweep_compositions``).

    Raises ``BudgetExceededError`` naming ``what`` when the tuple space holds
    more than ``budget`` tuples.
    """
    modes = range(1, m.independent_matrices + 1)
    total = math.prod(mode_space_size(m, i) for i in modes)
    if total > budget:
        raise BudgetExceededError(total, budget, what)
    return [list(iter_mode_matrices(m, i)) for i in modes]


def tuple_probabilities(
    m: ModelSpec, mode_matrices: list[list[FactorMatrix]]
) -> Iterator[Fraction]:
    """Exact model probability of every tuple, in the order of
    ``sweep_compositions(mode_matrices, m.order)``."""
    probs = [[matrix_probability(x, m) for x in mats] for mats in mode_matrices]
    inner = probs[-1]
    for outer in product(*probs[:-1]):
        base = math.prod(outer, start=Fraction(1))
        for p in inner:
            yield base * p


def enumerate_typical(
    m: ModelSpec,
    p: TypicalityParams,
    mode: int,
    budget: int = DEFAULT_BUDGET,
) -> TypicalEnumeration:
    """Enumerate exactly the typical matrices of one mode, canonical order."""
    space = mode_space_size(m, mode)
    if space > budget:
        raise BudgetExceededError(space, budget, f"mode-{mode} enumeration")
    matrices = []
    positions = []
    for pos, x in enumerate(iter_mode_matrices(m, mode)):
        if is_typical_matrix(x, m, p):
            matrices.append(x)
            positions.append(pos)
    enum = TypicalEnumeration(mode, tuple(matrices), tuple(positions), space)
    # Standard cardinality bound: every typical X has P(X) > exp(-n(sum_r H + gamma)),
    # and the total mass is at most 1.
    if enum.count:
        h = math.fsum(entropy(m.dist(mode, r)) for r in range(m.components))
        limit = p.n * (h + float(p.gamma)) + 1e-9
        assert enum.log_cardinality <= limit, (
            f"typical count {enum.count} exceeds e^(n(H+gamma)) = e^{limit:.6f}"
        )
    return enum


def typicality_mass(
    m: ModelSpec,
    p: TypicalityParams,
    mode: int,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Exact model probability of the mode's typical set."""
    enum = enumerate_typical(m, p, mode, budget)
    return sum((matrix_probability(x, m) for x in enum.matrices), Fraction(0))


def spectrum_samples(m: ModelSpec, trials: int, seed: int) -> list[float]:
    """i.i.d. samples of -(1/n) sum_i ln P(X_i) under the model.

    The sum runs over the independently sampled matrices (one in
    supersymmetric mode).  Deterministic given the seed; trial t uses the
    derived stream (seed, t).
    """
    from .rng import sample_tuple, stream_rng

    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = m.dim
    out = []
    for t in range(trials):
        rng = stream_rng(seed, t)
        ft = sample_tuple(m, rng)
        total = math.fsum(
            log_prob_matrix(ft.matrices[i], m) for i in range(m.independent_matrices)
        )
        out.append(-total / n)
    return out


def write_enumeration_dump(enum: TypicalEnumeration, path) -> None:
    """Stream an enumeration to disk as concatenated binary matrix dumps."""
    with open(path, "wb") as fh:
        for x in enum.matrices:
            fh.write(matrix_dump_bytes(x))


def read_enumeration_dump(path) -> list[FactorMatrix]:
    with open(path, "rb") as fh:
        buf = fh.read()
    out = []
    pos = 0
    while pos < len(buf):
        x, pos = matrix_from_dump(buf, pos)
        out.append(x)
    return out
