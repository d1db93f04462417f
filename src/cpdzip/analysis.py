"""Exact verification engine: essential uniqueness, full-rank probability
bounds, closed-form zero-tensor probabilities, and the documented examples.

Everything here is exact: probabilities are rationals, and claimed relations
between factor tuples are certified by multiplication.  The exhaustive
factorization census, the relations between tuples and the uniqueness bound
live in ``census``; this module certifies with them.  The full-rank
factorizations behind a uniqueness certificate are recovered by peeling one
mode: for a full-rank tuple the Khatri-Rao product of modes 1..N-1 has full
column rank, so the mode-N unfolding of T has rank R and column space
span(X_N).  Each alphabet candidate X_N in that span fixes the other modes
through one linear solve, up to the column scalings of rank-one factors,
which are enumerated; a supersymmetric model keeps the tuples whose matrices
are all equal.  The set equals the brute-force one (a differential test
checks it), at a cost polynomial in n instead of |A|^(nRN).  Every solve is
R x R: the span coefficients come from R independent columns of R pivot
rows, and each candidate from its R values on those rows.  What grows with n
is one read of the unfolding, an elimination that stops at rank R, and
passes over the rows those solves return.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from operator import mul

from .census import (
    PermScalingRelation,
    WRelation,
    _count_in,
    _relation_to,
    count_factorizations,
    gamma_bound,
)
from .model import (
    Alphabet,
    CpdzipError,
    DEFAULT_BUDGET,
    Distribution,
    ModelSpec,
    checked_size,
    mode_space_power,
    uniform,
)
from .rational import Scalar
from .records import Record
from .sweep import SpaceTable, iter_mode_matrices, space_table
from .tensors import (
    ExactTensor,
    FactorMatrix,
    FactorTuple,
    cpd_compose,
    outer_product,
    pivot_rows,
    rank_exact,
    replicate,
    solve_exact,
    transpose,
    unfold,
    zero_tensor,
)
from .typicality import matrix_probability

# ``count_factorizations`` is not called here.  It is bound all the same: the
# benchmark's span tracer reads it, like ``gamma_bound``, as a name of the
# analysis layer.


class UnsupportedModelError(CpdzipError):
    """The model shape is outside an operation's stated domain."""


# --- example-shaped model builders ---------------------------------------------

SIGN_SYMBOLS = (-1, 1)


def sign_alphabet() -> Alphabet:
    return Alphabet(SIGN_SYMBOLS)


def _dist(probs) -> Distribution:
    return probs if isinstance(probs, Distribution) else Distribution(tuple(probs))


def cubic_sign_model(n: int, first, second) -> ModelSpec:
    """Supersymmetric order-3, two-component model over {-1, 1}.

    ``first`` and ``second`` are the distributions of the two columns,
    aligned with the ascending alphabet (-1, 1).
    """
    a = sign_alphabet()
    row = (_dist(first), _dist(second))
    return ModelSpec(3, n, 2, (a, a, a), (row, row, row), supersymmetric=True)


def bilinear_sign_model(n: int, x, u, y, v) -> ModelSpec:
    """Order-2, two-component model over {-1, 1}: T = x y^T + u v^T."""
    a = sign_alphabet()
    return ModelSpec(2, n, 2, (a, a), ((_dist(x), _dist(u)), (_dist(y), _dist(v))))


def rank_one_sign_model(n: int, order: int, dists) -> ModelSpec:
    """Single-component model over {-1, 1} with one distribution per mode."""
    a = sign_alphabet()
    rows = tuple((_dist(d),) for d in dists)
    return ModelSpec(order, n, 1, (a,) * order, rows)


# --- essential-uniqueness certification ----------------------------------------


class UniquenessCertificate(Record):
    reference: FactorTuple
    relations: tuple[PermScalingRelation | WRelation, ...]
    violations: tuple[FactorTuple, ...]
    full_rank_count: int
    bound: int

    @property
    def certified(self) -> bool:
        """No violations, and no more full-rank tuples than ``bound``.

        The second condition follows from the first, and is checked so that a
        fault in either count shows.  A related tuple is determined by its
        relation to the reference.  At order >= 3 that is a permutation and,
        per column, a tuple of mode ratios with product 1, each a ratio of
        nonzero symbols (both columns are alphabet-valued and the reference's
        are nonzero), and distinct tuples have distinct relations: at most
        R! * (ratio tuples)^R, which is ``bound``.  At order 2 it is W with
        other_1 = ref_1 W; on R rows P where ref_1 is invertible,
        W = (ref_1)_P^-1 (other_1)_P, so W ranges over at most the invertible
        R x R alphabet minors, at most ``bound``.
        """
        return not self.violations and self.full_rank_count <= self.bound


def _tuple_sort_key(ft: FactorTuple):
    # ints and Fractions compare by value, so the raw scalars order exactly;
    # tuples of one shape compare as their flattened entries do
    return tuple(x.rows for x in ft.matrices)


def _symbol_lookup(alphabet: Alphabet) -> dict[Scalar, Scalar]:
    # Equal ints and Fractions hash alike, so one lookup both tests membership
    # and returns the alphabet's own symbol (an int where integral).
    return {s: s for s in alphabet.symbols}


def _quotient(num: Scalar, den: Scalar) -> Scalar:
    """num / den exactly: int division when both are ints and it is exact."""
    if type(num) is int and type(den) is int:
        q, rem = divmod(num, den)
        return q if rem == 0 else Fraction(num, den)
    return Fraction(num) / den


def _scaled(vector, a: Scalar, pivot: Scalar, symbols: dict) -> tuple[Scalar, ...] | None:
    """``a * vector / pivot`` as alphabet symbols, or None if an entry is not one."""
    out = []
    for v in vector:
        s = symbols.get(_quotient(a * v, pivot))
        if s is None:
            return None
        out.append(s)
    return tuple(out)


def _span_vectors(u, u_p, alphabet: Alphabet) -> list[tuple[tuple, tuple]]:
    """Every nonzero alphabet vector in the column space of ``u``, with its
    values on the pivot rows ``u_p`` (a row basis of ``u``).

    The rows of U are combinations of its pivot rows, U = C U_P, and C is the
    identity on the pivot rows.  So span(U) = {C y}, and C y takes the values
    y on the pivot rows: the |A|^k choices of y (k = rank U) replace a rank
    test of each of the |A|^n alphabet vectors.  C is unique, as U_P has
    independent rows, so it solves C U_P[:, J] = U[:, J] for any k
    independent columns J of U_P: a k x k system, the same C whatever J.
    """
    cols = pivot_rows(transpose(u_p))
    core = [[row[j] for row in u_p] for j in cols]
    c = transpose(solve_exact(core, [[row[j] for row in u] for j in cols]))
    symbols = _symbol_lookup(alphabet)
    out = []
    for y in product(alphabet.symbols, repeat=len(u_p)):
        if not any(y):
            continue
        vec = tuple(symbols.get(sum(map(mul, row, y))) for row in c)
        if None not in vec:
            out.append((vec, y))
    return out


def _rank_one_factors(row: tuple, n: int, symbols: list[dict]) -> list[tuple[tuple, ...]]:
    """Every alphabet-valued (x_1, ..., x_M) whose outer product is ``row``.

    ``row`` is an order-M tensor with mode 1 varying fastest, and
    ``symbols[j]`` is mode j+1's symbol lookup.  Take the fibers f_j through
    the first nonzero entry p.  The tensor is rank one exactly when every
    entry times p^(M-1) equals the product of the fiber entries at its index,
    and then its factorizations are x_j = a_j f_j / p with prod_j a_j = p.
    Each a_j is the pivot entry of x_j, so a nonzero symbol: the leading
    modes try each one, and the last mode takes the remaining quotient.
    """
    k = next((k for k, v in enumerate(row) if v), None)
    if k is None:
        return []
    pivot = row[k]
    fibers = []
    for j in range(len(symbols)):
        stride = n**j
        start = k - (k // stride % n) * stride
        fibers.append(row[start : start + n * stride : stride])
    scale = pivot ** (len(symbols) - 1)
    outer = outer_product(fibers[::-1]).entries
    if any(e * scale != o for e, o in zip(row, outer)):
        return []
    *leading, last = symbols
    options = [
        [(a, x) for a in syms if a and (x := _scaled(f, a, pivot, syms)) is not None]
        for f, syms in zip(fibers, leading)
    ]
    closing = {a: x for a in last if a and (x := _scaled(fibers[-1], a, pivot, last)) is not None}
    out = []
    for combo in product(*options):
        x_last = closing.get(_quotient(pivot, math.prod(a for a, _ in combo)))
        if x_last is not None:
            out.append(tuple(x for _, x in combo) + (x_last,))
    return out


def _full_rank_cogenerators(t: ExactTensor, m: ModelSpec) -> list[FactorTuple]:
    """All full-rank alphabet tuples composing to ``t``, by peeling mode N.

    With U = unfold(T, N) and K = X_(N-1) (*) ... (*) X_1, T composes from
    the tuple exactly when U = X_N K^T.  For a full-rank tuple K has full
    column rank too (the k-rank of a Khatri-Rao product; Sidiropoulos and Bro
    2000), so U has rank R and its column space is span(X_N).  A rank other
    than R therefore means no full-rank tuple exists.

    Otherwise every candidate X_N is an R-tuple of alphabet vectors in
    span(U), X_N = C Y with Y their values on R pivot rows P of U.  C is the
    one matrix with U = C U_P, as U_P has independent rows, so for any R
    independent columns J of U_P the R x R solve C U_P[:, J] = U[:, J] gives
    it.  The span vectors are span(U)'s alphabet vectors whichever P and J
    the eliminations pick; only their labels y change.  Then
    X_N K^T = U = C U_P holds exactly when K^T = Y^-1 U_P (C has full column
    rank), so one R x R solve fixes K, and a singular Y rules the candidate
    out (rank X_N = rank Y).  A repeated vector makes Y singular, so the
    candidates are the R-permutations of the span vectors.  Row r of K^T is
    the outer product of the r-th columns of modes N-1..1; each distinct row
    is factored once, over every alphabet-valued scaling.  Every combination
    of row factorizations whose matrices all have full rank is a tuple
    composing to T, and every full-rank tuple arises this way from its own
    X_N, so the set equals brute force's full-rank set.  A supersymmetric
    model's tuples replicate one matrix, so its full-rank set is the members
    of that set whose N matrices are all equal.
    """
    r, n, order = m.components, m.dim, m.order
    u = unfold(t, order)
    pivots = pivot_rows(u)
    if len(pivots) != r:
        return []
    u_p = [u[p] for p in pivots]
    vectors = _span_vectors(u, u_p, m.alphabet(order))
    symbols = [_symbol_lookup(m.alphabet(i)) for i in range(1, order)]
    factors: dict[tuple, list[tuple[tuple, ...]]] = {}  # row of K^T -> factorizations
    # (mode, columns) -> one FactorMatrix, held by every tuple that uses it
    shared: dict[tuple, FactorMatrix] = {}
    has_full_rank = cache(lambda rows: rank_exact(rows) == r)  # each matrix ranked once a call
    result = []
    for cols in permutations(vectors, r):
        k_t = solve_exact([[y[p] for _, y in cols] for p in range(r)], u_p)
        if k_t is None:
            continue
        per_row = []
        for row in map(tuple, k_t):
            if row not in factors:
                factors[row] = _rank_one_factors(row, n, symbols)
            per_row.append(factors[row])
        combos = []
        for combo in product(*per_row):
            mats = []
            for j in range(1, order):
                columns = tuple(c[j - 1] for c in combo)
                x = shared.get((j, columns))
                if x is None:
                    x = shared[j, columns] = FactorMatrix(j, tuple(zip(*columns)))
                mats.append(x)
            combos.append(tuple(mats))
        # The combinations differ only by nonzero column scalings, which keep
        # every matrix's rank: the first one decides for all.
        if combos and all(has_full_rank(x.rows) for x in combos[0]):
            x_n = FactorMatrix(order, tuple(zip(*(v for v, _ in cols))))
            result.extend(FactorTuple(mats + (x_n,)) for mats in combos)
    if m.supersymmetric:
        result = [ft for ft in result if len({x.rows for x in ft.matrices}) == 1]
    return sorted(result, key=_tuple_sort_key)


def uniqueness_census(t: ExactTensor, m: ModelSpec) -> UniquenessCertificate:
    """Certify that all full-rank factorizations of ``t`` are essentially equal.

    For order >= 3 every other full-rank tuple must relate to the reference by
    a shared column permutation and per-mode diagonal scalings with product
    identity; for order 2 by an invertible W.  Any unrelated pair is reported
    as a violation (it would falsify the uniqueness bound at this instance).

    The full-rank tuples of every model, supersymmetric or not, come from the
    peel-one-mode search of ``_full_rank_cogenerators``, whose cost does not
    grow with the tuple space.
    """
    if m.order < 2:
        raise UnsupportedModelError("uniqueness census needs order >= 2")
    if t.order != m.order or t.dim != m.dim:
        raise CpdzipError("target tensor shape does not match the model")
    tuples = _full_rank_cogenerators(t, m)
    if not tuples:
        raise CpdzipError("no full-rank factorization of the target tensor exists")

    reference = tuples[0]
    relate = _relation_to(reference)
    relations = []
    violations = []
    for other in tuples[1:]:
        rel = relate(other)
        if rel is None:
            violations.append(other)
        else:
            relations.append(rel)
    return UniquenessCertificate(
        reference=reference,
        relations=tuple(relations),
        violations=tuple(violations),
        full_rank_count=len(tuples),
        bound=gamma_bound(m),
    )


# --- closed-form probabilities ----------------------------------------------------


def example_shape(m: ModelSpec) -> str | None:
    """The documented example shape of ``m``: "cubic" for the supersymmetric
    order-3 model and "bilinear" for the order-2 one that is not, both with
    two components over {-1, 1} in every mode; None for any other model."""
    if m.components != 2 or any(a.symbols != SIGN_SYMBOLS for a in m.alphabets):
        return None
    if m.supersymmetric and m.order == 3:
        return "cubic"
    if not m.supersymmetric and m.order == 2:
        return "bilinear"
    return None


def _agreement(p: Distribution, q: Distribution, sign: int) -> Fraction:
    """Pr{b = sign * a} for independent a ~ ``p`` and b ~ ``q`` over {-1, 1}:
    the probabilities aligned with the ascending alphabet, ``q``'s reversed
    for the opposite sign."""
    return sum(map(mul, p.probs, q.probs[::sign]))


def prob_zero_tensor(m: ModelSpec) -> Fraction:
    """Exact probability of composing the all-zero tensor, closed form.

    Supported shapes: the supersymmetric order-3 two-component sign model,
    zero exactly when its second column is minus its first (the bracket
    Pr{b = -a}, raised to n), and the order-2 two-component sign model
    x y^T + u v^T, zero exactly when u = x and v = -y or u = -x and v = y
    (the two terms (same * opposite)^n and (opposite * same)^n).  Anything
    else is refused rather than generalized.
    """
    shape = example_shape(m)
    n = m.dim
    if shape == "cubic":
        p, q = m.dists[0]
        return _agreement(p, q, -1) ** n
    if shape == "bilinear":
        (px, pu), (py, pv) = m.dists
        return (_agreement(px, pu, 1) * _agreement(py, pv, -1)) ** n + (
            _agreement(px, pu, -1) * _agreement(py, pv, 1)
        ) ** n
    raise UnsupportedModelError(
        "closed-form zero-tensor probability is only defined for the two "
        "documented example shapes"
    )


def brute_force_zero_prob(m: ModelSpec, budget: int = DEFAULT_BUDGET) -> Fraction:
    """Oracle: sum of model probabilities of all tuples composing to zero."""
    return _zero_prob(space_table(m, budget, "zero-tensor sweep"), m)


def _zero_prob(space: SpaceTable, m: ModelSpec) -> Fraction:
    """``brute_force_zero_prob`` over ``space``, a table of ``m``'s tuple space;
    it may have been built for a model that differs only in distributions.
    Only the tuples that compose to zero are weighed."""
    zero = space.key_to_id.get(zero_tensor(m.order, m.dim).key())
    tuples = space.tuples_with_id(zero)
    return sum((math.prod(matrix_probability(x, m) for x in mats) for mats in tuples), Fraction(0))


# --- full-rank probability bounds -------------------------------------------------


class FullRankBound(Record):
    """Per-mode rank-deficiency bounds: rho_i and zeta_i = sum_{r<R} rho_i^(n-r)."""

    rho_per_mode: tuple[Fraction, ...]
    zeta_per_mode: tuple[Fraction, ...]


def full_rank_prob_bound(m: ModelSpec) -> FullRankBound:
    rhos = []
    zetas = []
    for i in range(1, m.order + 1):
        rho = max(p for d in m.dists[i - 1] for p in d.probs)
        if rho >= 1:
            raise UnsupportedModelError(f"mode {i} has a degenerate distribution")
        zeta = sum((rho ** (m.dim - r) for r in range(m.components)), Fraction(0))
        rhos.append(rho)
        zetas.append(zeta)
    return FullRankBound(tuple(rhos), tuple(zetas))


def exact_rank_deficiency_prob(
    m: ModelSpec, mode: int, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact Pr{rank(X_mode) < R} by enumeration of the mode's matrix space."""
    checked_size([mode_space_power(m, mode)], budget, f"mode-{mode} enumeration")
    r = m.components
    total = Fraction(0)
    for x in iter_mode_matrices(m, mode):
        if rank_exact(x.rows) < r:
            total += matrix_probability(x, m)
    return total


# --- example reproduction suite -----------------------------------------------


class CheckRow(Record):
    name: str
    observed: str
    expected: str
    ok: bool


def cubic_sign_tensor(a1, a2) -> ExactTensor:
    """Compose the supersymmetric order-3 tensor of X = [a1, a2]."""
    n = len(a1)
    rows = tuple((a1[j], a2[j]) for j in range(n))
    return cpd_compose(FactorTuple(replicate(FactorMatrix(1, rows), 3)))


def banded_rows_matrix_tensor(n: int, m_rows: int) -> ExactTensor:
    """Order-2 target with a zero first row, ``m_rows`` all-nonzero rows of 2s,
    and zero rows elsewhere; the representative order-2 counting instance."""
    entries = []
    for j in range(n):
        value = 2 if 1 <= j <= m_rows else 0
        entries.extend([value] * n)
    return ExactTensor(2, n, tuple(entries))


def bilinear_census_summary(n: int, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """Histogram {factorization count: number of tensors} over every order-2
    two-component sign tensor at dimension n.

    Records the complete picture without asserting closed forms for the
    non-representative cases; the representative identities (zero matrix,
    banded construction) are checked separately.
    """
    m = bilinear_sign_model(n, uniform(2), uniform(2), uniform(2), uniform(2))
    groups = Counter(space_table(m, budget, "order-2 full census").tuple_ids)
    return dict(Counter(groups.values()))


def _check(name, observed, expected) -> CheckRow:
    return CheckRow(name, str(observed), str(expected), observed == expected)


def _cubic_diagonal_zero_count(a1, a2) -> int:
    return sum(1 for x, y in zip(a1, a2) if x + y == 0)


def cubic_census_classification(n: int, budget: int = DEFAULT_BUDGET) -> list[CheckRow]:
    """Exhaustively check that every order-3 supersymmetric sign tensor's
    factorization count matches its diagonal pattern: all diagonal sums zero
    gives 2^n, a mixed pattern gives 2, no zero sums gives 1."""
    u2 = uniform(2)
    space = space_table(cubic_sign_model(n, u2, u2), budget, "order-3 full census")
    return _classify_cubic(space, n)


def _classify_cubic(space: SpaceTable, n: int) -> list[CheckRow]:
    """``cubic_census_classification`` over ``space``, the cubic n table its caller built."""
    groups: dict[int, list[FactorMatrix]] = {}
    for (x,), tid in zip(space.tuples(), space.tuple_ids):
        groups.setdefault(tid, []).append(x)
    rows = []
    all_ok = True
    for generators in groups.values():
        zeros = _cubic_diagonal_zero_count(*generators[0].columns())
        if zeros == n:
            expected = 2**n
        elif zeros >= 1:
            expected = 2
        else:
            expected = 1
        if len(generators) != expected:
            all_ok = False
            rows.append(
                _check(f"order3-census n={n} pattern zeros={zeros}", len(generators), expected)
            )
    rows.append(
        CheckRow(
            f"order3-census n={n} all {len(groups)} tensors classified",
            "ok" if all_ok else "mismatch",
            "ok",
            all_ok,
        )
    )
    return rows


def verify_examples(fast: bool = False, budget: int = DEFAULT_BUDGET) -> list[CheckRow]:
    """Reproduce every documented counting and probability identity exactly.

    One loop builds each cubic table, under ``budget``, and one each order-2
    table; every check on a space reads its table in that space's iteration.
    A cubic table serves its zero-tensor count, at n=4 (3 when fast) the
    trichotomy, at n=3 the classification, and at n <= 3 the uniform and
    skewed zero probabilities (a table does not depend on the distributions).
    An order-2 table serves the zero-matrix count below n=4, at n=2 the zero
    probability, and at n=4 every banded count.  Each check appends to its
    section, and the rows are the sections in a fixed order.
    """
    u2 = uniform(2)
    skew_p = Distribution((Fraction(1, 4), Fraction(3, 4)))
    skew_q = Distribution((Fraction(2, 3), Fraction(1, 3)))
    zero3: list[CheckRow] = []
    trichotomy: list[CheckRow] = []
    classification: list[CheckRow] = []
    zero2: list[CheckRow] = []
    banded: list[CheckRow] = []
    prob3: list[CheckRow] = []
    prob2: list[CheckRow] = []

    for n in (2, 3) if fast else (2, 3, 4, 5):
        m = cubic_sign_model(n, u2, u2)
        space = space_table(m, budget, "factorization census")
        # order-3 supersymmetric zero-tensor count = 2^n
        count = _count_in(space, zero_tensor(3, n), m).total_count
        zero3.append(_check(f"order3 zero-tensor count n={n}", count, 2**n))
        if n == (3 if fast else 4):  # one nonzero diagonal sum -> 2, none zero -> 1
            ones = (1,) * n
            for label, t, expected in (
                ("single-anchor", cubic_sign_tensor(ones, (-1,) * (n - 1) + (1,)), 2),
                ("unique", cubic_sign_tensor(ones, ones), 1),
            ):
                count = _count_in(space, t, m).total_count
                trichotomy.append(_check(f"order3 {label} count n={n}", count, expected))
        if n == 3:  # exhaustive classification of every tensor
            classification.extend(_classify_cubic(space, n))
        if n <= (2 if fast else 3):  # closed-form zero probabilities equal brute force
            for label, model in (
                (f"order3 zero-prob uniform n={n}", m),
                (f"order3 zero-prob skewed n={n}", cubic_sign_model(n, skew_p, skew_q)),
            ):
                prob3.append(_check(label, prob_zero_tensor(model), _zero_prob(space, model)))
        del space  # not alive while the next table is built

    for n in (2, 4) if fast else (2, 3, 4):
        m = bilinear_sign_model(n, u2, u2, u2, u2)
        space = space_table(m, budget, "factorization census")
        if n < 4:  # order-2 zero-matrix count = 2^(2n+1)
            count = _count_in(space, zero_tensor(2, n), m).total_count
            zero2.append(_check(f"order2 zero-matrix count n={n}", count, 2 ** (2 * n + 1)))
        if n == 2:
            observed = _zero_prob(space, m)
            prob2.append(_check(f"order2 zero-prob uniform n={n}", prob_zero_tensor(m), observed))
        if n == 4:  # order-2 banded construction count = 2^(n-m+2), one table for every m
            for m_rows in (3,) if fast else (1, 2, 3):
                count = _count_in(space, banded_rows_matrix_tensor(n, m_rows), m).total_count
                banded.append(_check(f"order2 banded count n={n} m={m_rows}", count,
                                     2 ** (n - m_rows + 2)))
        del space

    return zero3 + trichotomy + classification + zero2 + banded + prob3 + prob2
