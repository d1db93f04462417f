"""Exact verification engine: factorization censuses, essential uniqueness,
full-rank probability bounds, and closed-form zero-tensor probabilities.

Everything here is exact: probabilities are rationals, and claimed relations
between factor tuples are certified by multiplication.  Counts come from
exhaustive enumeration, except the full-rank factorizations behind a
uniqueness certificate.  Those are recovered by peeling one mode: for a
full-rank tuple the Khatri-Rao product of modes 1..N-1 has full column rank,
so the mode-N unfolding of T has rank R and column space span(X_N).  Each
alphabet candidate X_N in that span fixes the other modes through one linear
solve, up to the column scalings of rank-one factors, which are enumerated;
a supersymmetric model keeps the tuples whose matrices are all equal.  The
set equals the brute-force one (a differential test checks it), at a cost
polynomial in n instead of |A|^(nRN).  Every solve is R x R: the span
coefficients come from R independent columns of R pivot rows, and each
candidate from its R values on those rows.  What grows with n is one read
of the unfolding, an elimination that stops at rank R, and passes over the
rows those solves return.

The relations between tuples and the uniqueness bound are checked in the
scalars the factor matrices hold.  Column ratios are compared by
cross-multiplication and multiplied as (numerator, denominator) pairs; a
Fraction is built only for a lambda a relation reports, once per value.
The tuples share their mode matrices, and each one is matched against the
reference once per census.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import permutations, product
from operator import mul

from .model import (
    Alphabet,
    BudgetExceededError,
    CpdzipError,
    DEFAULT_BUDGET,
    Distribution,
    ModelSpec,
    uniform,
)
from .rational import Scalar
from .records import Record
from .tensors import (
    ExactTensor,
    FactorMatrix,
    FactorTuple,
    ShapeError,
    expand_modes,
    mat_mul,
    outer_product,
    pivot_rows,
    rank_exact,
    replicate,
    solve_exact,
    transpose,
    unfold,
    zero_tensor,
)
from .typicality import (
    SpaceTable,
    iter_mode_matrices,
    matrix_probability,
    mode_space_size,
    space_table,
)


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


# --- factorization census ------------------------------------------------------

MAX_REPRESENTATIVES = 64


class FactorizationCensus(Record):
    """Exhaustive count of the factor tuples composing to one target tensor."""

    target: ExactTensor
    total_count: int
    full_rank_count: int
    representatives: tuple[FactorTuple, ...]
    full_rank_tuples: tuple[FactorTuple, ...]
    classes: tuple[tuple[int, ...], ...]  # index groups into full_rank_tuples


def count_factorizations(
    t: ExactTensor,
    m: ModelSpec,
    full_rank_only: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> FactorizationCensus:
    """Count every alphabet-valued factor tuple that composes to ``t``.

    Supersymmetric models enumerate a single matrix and replicate it.  The
    full-rank subset is always counted; ``full_rank_only`` restricts the
    retained representatives, at most ``MAX_REPRESENTATIVES`` of them, to it.
    """
    if t.order != m.order or t.dim != m.dim:
        raise CpdzipError("target tensor shape does not match the model")
    return _count_in(space_table(m, budget, "factorization census"), t, m, full_rank_only)


def _count_in(
    space: SpaceTable, t: ExactTensor, m: ModelSpec, full_rank_only: bool = False
) -> FactorizationCensus:
    """``count_factorizations`` over ``space``, the table of ``m`` its caller built."""
    target = space.key_to_id.get(t.key())

    total = 0
    full_rank = 0
    reps: list[FactorTuple] = []
    full_rank_tuples: list[FactorTuple] = []
    r = m.components
    has_full_rank = cache(lambda rows: rank_exact(rows) == r)  # each matrix ranked once a call

    for mats in space.tuples_with_id(target):
        total += 1
        ft = FactorTuple(expand_modes(m, mats))
        is_full = all(has_full_rank(x.rows) for x in ft.matrices)
        if is_full:
            full_rank += 1
            full_rank_tuples.append(ft)
        if (is_full or not full_rank_only) and len(reps) < MAX_REPRESENTATIVES:
            reps.append(ft)

    classes = _equivalence_classes(full_rank_tuples)
    return FactorizationCensus(
        target=t,
        total_count=total,
        full_rank_count=full_rank,
        representatives=tuple(reps),
        full_rank_tuples=tuple(full_rank_tuples),
        classes=classes,
    )


# --- essential-uniqueness certification ----------------------------------------


class PermScalingRelation(Record):
    """other_i[:, r] = lambdas[i][r] * ref_i[:, permutation[r]], prod_i Lambda_i = I."""

    other: FactorTuple
    permutation: tuple[int, ...]
    lambdas: tuple[tuple[Fraction, ...], ...]


class WRelation(Record):
    """other_1 = ref_1 W and other_2 = ref_2 (W^-1)^T for invertible W."""

    other: FactorTuple
    w: tuple[tuple[Scalar, ...], ...]


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


def _check_same_shape(ref: FactorTuple, other: FactorTuple) -> None:
    shapes = [(ft.order, ft.dim, ft.components) for ft in (ref, other)]
    if shapes[0] != shapes[1]:
        (o1, n1, r1), (o2, n2, r2) = shapes
        raise ShapeError(
            f"cannot relate an order-{o2} tuple with n={n2}, R={r2} to an "
            f"order-{o1} reference with n={n1}, R={r1}"
        )


def _ratio_pair(ref_col, other_col) -> tuple[Scalar, Scalar] | None:
    """(b0, a0) with other = (b0 / a0) * ref, or None; zero columns yield None.

    (a0, b0) is the first pair of entries that is not (0, 0); every other
    pair (a, b) is compared with it by cross-multiplication, b * a0 == b0 * a.
    """
    a0 = b0 = None
    for a, b in zip(ref_col, other_col):
        if a == 0 and b == 0:
            continue
        if a == 0 or b == 0:
            return None
        if a0 is None:
            a0, b0 = a, b
        elif b * a0 != b0 * a:
            return None
    return None if a0 is None else (b0, a0)


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den (den nonzero) as a reduced pair with a positive denominator."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def _lambda(pair: tuple[Scalar, Scalar], fractions: dict) -> Fraction:
    """The Fraction b / a of a ratio pair (b, a), built once per value.

    ``fractions`` maps each pair seen to its Fraction, and each reduced int
    pair (num, den > 0) to the one Fraction built for that value.  A raw
    pair equal to a reduced one has the same value, so one dict holds both.
    ``_perm_scaling`` also keys it by a mode's tuple of pairs, which never
    equals a pair of scalars.
    """
    lam = fractions.get(pair)
    if lam is None:
        b, a = pair
        key = _reduced(b.numerator * a.denominator, b.denominator * a.numerator)
        lam = fractions.get(key)
        if lam is None:
            lam = fractions[key] = Fraction(*key)
        fractions[pair] = lam
    return lam


def find_perm_scaling(ref: FactorTuple, other: FactorTuple) -> PermScalingRelation | None:
    """Exact (P, Lambda_i) relation between two tuples, or None.

    Valid for full-rank reference tuples (their columns are pairwise
    non-proportional, so the permutation is unique if it exists).  Tuples
    that differ in order, n or R raise ShapeError.
    """
    _check_same_shape(ref, other)
    return _perm_scaling([x.columns() for x in ref.matrices], {}, {}, other)


def _column_pairs(ref_cols, rows, permutation) -> tuple | None:
    """The ratio pair of each column of ``rows`` against the reference column
    that ``permutation`` gives it, or None if some column is not proportional
    to that one."""
    pairs = tuple(map(_ratio_pair, map(ref_cols.__getitem__, permutation), zip(*rows)))
    return None if None in pairs else pairs


def _first_match(ref_cols, rows) -> tuple | None:
    """(permutation, ratio pairs) that send each column of ``rows`` to the
    first reference column proportional to it, or None if a column has none
    or two columns share one."""
    permutation, pairs = [], []
    for col in zip(*rows):
        for ref_c, ref_col in enumerate(ref_cols):
            pair = _ratio_pair(ref_col, col)
            if pair is not None:
                permutation.append(ref_c)
                pairs.append(pair)
                break
        else:
            return None
    if len(set(permutation)) != len(ref_cols):
        return None
    return tuple(permutation), tuple(pairs)


def _perm_scaling(
    ref_cols, fractions: dict, matches: dict, other: FactorTuple
) -> PermScalingRelation | None:
    """``find_perm_scaling`` against a reference given by its columns per mode.

    Every check runs in the scalars the columns hold: each column pair
    yields a ratio pair (b0, a0) whose other entries are compared by
    cross-multiplication, and a column's product-1 check over the modes is
    prod b0 == prod a0, exact as every a0 is nonzero.  Only the lambdas of
    a relation found become Fractions, one per value through ``fractions``.

    Mode 1 fixes the permutation, and each other mode is matched under it.
    ``matches`` holds each match, keyed by the mode matrix's rows (and the
    permutation), so a matrix shared by many tuples is matched once.  The
    caller keeps both dicts across calls against the same reference.
    """
    first, *rest = other.matrices
    key = (0, first.rows)
    if key not in matches:
        matches[key] = _first_match(ref_cols[0], first.rows)
    found = matches[key]
    if found is None:
        return None
    permutation, pairs = found
    modes = [pairs]
    for mode, x in enumerate(rest, 1):
        key = (mode, x.rows, permutation)
        if key not in matches:
            matches[key] = _column_pairs(ref_cols[mode], x.rows, permutation)
        pairs = matches[key]
        if pairs is None:
            return None
        modes.append(pairs)
    for column in zip(*modes):
        nums, dens = zip(*column)
        if math.prod(nums) != math.prod(dens):
            return None
    lambdas = []
    for pairs in modes:  # a mode's pairs recur in many relations
        lams = fractions.get(pairs)
        if lams is None:
            lams = fractions[pairs] = tuple(_lambda(p, fractions) for p in pairs)
        lambdas.append(lams)
    return PermScalingRelation(other, permutation, tuple(lambdas))


def find_w_relation(ref: FactorTuple, other: FactorTuple) -> WRelation | None:
    """Exact invertible W with other_1 = ref_1 W, other_2 = ref_2 (W^-1)^T.

    Both tuples must be of order 2 and of one shape; otherwise ShapeError.
    """
    _check_same_shape(ref, other)
    if ref.order != 2:
        raise ShapeError(f"a W relation needs order-2 tuples, got order {ref.order}")
    x1, x2 = ref.matrices
    y1, y2 = other.matrices
    w = solve_exact(x1.rows, y1.rows)
    if w is None or rank_exact(w) != ref.components:
        return None
    # other_2 = ref_2 (W^-1)^T  <=>  W other_2^T = ref_2^T
    if mat_mul(w, transpose(y2.rows)) != transpose(x2.rows):
        return None
    return WRelation(other, tuple(tuple(row) for row in w))


def _relation_to(ref: FactorTuple):
    """The relation test of other tuples against ``ref``, which reads the
    reference's columns once: P-Lambda at order >= 3, W at order 2.  The
    P-Lambda test owns the dicts that, over all its calls, build each lambda
    value's Fraction once and match each mode matrix's columns once."""
    if ref.order < 3:
        return partial(find_w_relation, ref)
    return partial(_perm_scaling, [x.columns() for x in ref.matrices], {}, {})


def _equivalence_classes(tuples: list[FactorTuple]) -> tuple[tuple[int, ...], ...]:
    classes: list[tuple[object, list[int]]] = []
    for idx, ft in enumerate(tuples):
        for relate, group in classes:
            if relate(ft) is not None:
                group.append(idx)
                break
        else:
            classes.append((_relation_to(ft), [idx]))
    return tuple(tuple(g) for _, g in classes)


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
    X_N, so the set equals brute force's full-rank set.  A supersymmetric model's tuples replicate one
    matrix, so its full-rank set is the members whose N matrices are equal:
    the candidates X_N whose K^T has the rows x_r^(N-1), each kept as X_N
    replicated, with no row factored.  X_N has rank R, as Y is invertible.
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
        if m.supersymmetric:
            # every mode holds X_N, so row r of K^T must be x_r^(N-1)
            if all(
                tuple(row) == outer_product([v] * (order - 1)).entries
                for row, (v, _) in zip(k_t, cols)
            ):
                x_n = FactorMatrix(order, tuple(zip(*(v for v, _ in cols))))
                result.append(FactorTuple(replicate(x_n, order)))
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


# --- the uniqueness bound -------------------------------------------------------

# The order-2 bound tests every R x R alphabet matrix, refused above this count.
_BRUTE_SPACE_CAP = 1 << 20


def _symbol_ratios(alphabet: Alphabet) -> set[tuple[int, int]]:
    """Every ratio b / a of nonzero symbols, the scalings one column can
    take, as reduced int pairs (num, den > 0).

    The symbols are first scaled by the lcm of their denominators, which
    leaves every ratio as it is and makes them ints.
    """
    nonzero = [s for s in alphabet.symbols if s != 0]
    lcm = math.lcm(*(s.denominator for s in nonzero))
    ints = [s.numerator * (lcm // s.denominator) for s in nonzero]
    return {_reduced(b, a) for a in ints for b in ints}


def gamma_bound(m: ModelSpec) -> int:
    """Model-specific upper bound on the number of full-rank tuples per tensor.

    Order >= 3: in an essentially unique decomposition (Kruskal 1977) every
    full-rank tuple is the reference with its columns permuted and column r of
    mode i scaled by lambda_(i,r), with prod_i lambda_(i,r) = 1.  Both columns
    are alphabet-valued, so lambda_(i,r) is a ratio of nonzero mode-i symbols;
    the bound is R! times (number of such ratio tuples with product 1) per
    column.  ``UniquenessCertificate.certified`` requires the count to be
    within it, which a violation-free census already implies.  The count
    runs on reduced int ratio pairs: it tallies the products of ratios over
    modes 1..N-1, and a product counts when its inverse is a mode-N ratio.
    Order 2: relations are invertible W = A^-1 B with A, B invertible R x R
    alphabet minors, bounded by the squared count of invertible R x R alphabet
    matrices.
    """
    r = m.components
    if m.order >= 3:
        *leading, last = (_symbol_ratios(m.alphabet(i)) for i in range(1, m.order + 1))
        products = Counter({(1, 1): 1})
        for ratios in leading:
            step = Counter()
            for (p, q), count in products.items():
                for b, a in ratios:
                    step[_reduced(p * b, q * a)] += count
            products = step
        per_column = sum(c for (p, q), c in products.items() if _reduced(q, p) in last)
        return math.factorial(r) * per_column**r
    alphabet = m.alphabet(1)
    minors = alphabet.size ** (r * r)
    if minors > _BRUTE_SPACE_CAP:
        raise BudgetExceededError(minors, _BRUTE_SPACE_CAP, "invertible-minor count")
    invertible = sum(
        1
        for entries in product(alphabet.symbols, repeat=r * r)
        if rank_exact([entries[i * r : (i + 1) * r] for i in range(r)]) == r
    )
    return invertible**2


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


def _sign_dist_value(d: Distribution, symbol: int) -> Fraction:
    return d.probs[0] if symbol == -1 else d.probs[1]


def prob_zero_tensor(m: ModelSpec) -> Fraction:
    """Exact probability of composing the all-zero tensor, closed form.

    Supported shapes: the supersymmetric order-3 two-component sign model
    (single bracket raised to n) and the order-2 two-component sign model
    (two-term sum).  Anything else is refused rather than generalized.
    """
    shape = example_shape(m)
    if shape == "cubic":
        p, q = m.dists[0]
        s = sum(
            _sign_dist_value(p, a) * _sign_dist_value(q, -a) for a in SIGN_SYMBOLS
        )
        return s**m.dim
    if shape == "bilinear":
        px, pu = m.dists[0]
        py, pv = m.dists[1]
        same_xu = sum(
            _sign_dist_value(px, a) * _sign_dist_value(pu, a) for a in SIGN_SYMBOLS
        )
        opp_xu = sum(
            _sign_dist_value(px, a) * _sign_dist_value(pu, -a) for a in SIGN_SYMBOLS
        )
        same_yv = sum(
            _sign_dist_value(py, a) * _sign_dist_value(pv, a) for a in SIGN_SYMBOLS
        )
        opp_yv = sum(
            _sign_dist_value(py, a) * _sign_dist_value(pv, -a) for a in SIGN_SYMBOLS
        )
        n = m.dim
        return same_xu**n * opp_yv**n + opp_xu**n * same_yv**n
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
    space = mode_space_size(m, mode)
    if space > budget:
        raise BudgetExceededError(space, budget, f"mode-{mode} enumeration")
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
    mats = replicate(FactorMatrix(1, rows), 3)
    from .tensors import cpd_compose

    return cpd_compose(FactorTuple(mats))


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


def _count_check(name, observed: int, expected: int) -> CheckRow:
    return CheckRow(name, str(observed), str(expected), observed == expected)


def _prob_check(name, observed: Fraction, expected: Fraction) -> CheckRow:
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
                _count_check(
                    f"order3-census n={n} pattern zeros={zeros}", len(generators), expected
                )
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
        zero3.append(_count_check(f"order3 zero-tensor count n={n}", count, 2**n))
        if n == (3 if fast else 4):  # one nonzero diagonal sum -> 2, none zero -> 1
            ones = (1,) * n
            for label, t, expected in (
                ("single-anchor", cubic_sign_tensor(ones, (-1,) * (n - 1) + (1,)), 2),
                ("unique", cubic_sign_tensor(ones, ones), 1),
            ):
                count = _count_in(space, t, m).total_count
                trichotomy.append(_count_check(f"order3 {label} count n={n}", count, expected))
        if n == 3:  # exhaustive classification of every tensor
            classification.extend(_classify_cubic(space, n))
        if n <= (2 if fast else 3):  # closed-form zero probabilities equal brute force
            for label, model in (
                (f"order3 zero-prob uniform n={n}", m),
                (f"order3 zero-prob skewed n={n}", cubic_sign_model(n, skew_p, skew_q)),
            ):
                prob3.append(_prob_check(label, prob_zero_tensor(model), _zero_prob(space, model)))
        del space  # not alive while the next table is built

    for n in (2, 4) if fast else (2, 3, 4):
        m = bilinear_sign_model(n, u2, u2, u2, u2)
        space = space_table(m, budget, "factorization census")
        if n < 4:  # order-2 zero-matrix count = 2^(2n+1)
            count = _count_in(space, zero_tensor(2, n), m).total_count
            zero2.append(_count_check(f"order2 zero-matrix count n={n}", count, 2 ** (2 * n + 1)))
        if n == 2:
            observed = _zero_prob(space, m)
            prob2.append(_prob_check(f"order2 zero-prob uniform n={n}", prob_zero_tensor(m),
                                     observed))
        if n == 4:  # order-2 banded construction count = 2^(n-m+2), one table for every m
            for m_rows in (3,) if fast else (1, 2, 3):
                count = _count_in(space, banded_rows_matrix_tensor(n, m_rows), m).total_count
                banded.append(_count_check(f"order2 banded count n={n} m={m_rows}", count,
                                           2 ** (n - m_rows + 2)))
        del space

    return zero3 + trichotomy + classification + zero2 + banded + prob3 + prob2
