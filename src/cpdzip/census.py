"""The exhaustive factorization census, the relations between factor tuples,
and the uniqueness bound.

``count_factorizations`` reads every tuple of a model's ``sweep.SpaceTable``
that composes to the target, ranks each distinct matrix once, and groups the
full-rank ones into classes of related tuples.  Two tuples are related by a
shared column permutation and per-mode diagonal scalings with product
identity (P-Lambda, order >= 3), or by an invertible W (order 2).
``gamma_bound`` bounds the number of full-rank tuples per tensor.  The
``count`` command needs nothing else, so it loads this module and not
``analysis``, whose uniqueness certificates and example checks build on it.

The relations and the bound are checked in the scalars the factor matrices
hold.  Column ratios are compared by cross-multiplication and multiplied as
(numerator, denominator) pairs; a Fraction is built only for a lambda a
relation reports, once per value.  The tuples share their mode matrices, and
each one is matched against the reference once per census.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from itertools import product

from .model import (
    Alphabet,
    CpdzipError,
    DEFAULT_BUDGET,
    ModelSpec,
    checked_size,
)
from .rational import Scalar, over_common_denominator
from .records import Record, _set
from .sweep import SpaceTable, space_table
from .tensors import (
    ExactTensor,
    FactorTuple,
    ShapeError,
    expand_modes,
    mat_mul,
    rank_exact,
    solve_exact,
    transpose,
)

MAX_REPRESENTATIVES = 64


class FactorizationCensus(Record):
    """Exhaustive count of the factor tuples composing to one target tensor."""

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
        total_count=total,
        full_rank_count=full_rank,
        representatives=tuple(reps),
        full_rank_tuples=tuple(full_rank_tuples),
        classes=classes,
    )


# --- relations between factor tuples ----------------------------------------


class PermScalingRelation(Record):
    """other_i[:, r] = lambdas[i][r] * ref_i[:, permutation[r]], prod_i Lambda_i = I."""

    other: FactorTuple
    permutation: tuple[int, ...]
    lambdas: tuple[tuple[Fraction, ...], ...]

    def __init__(self, other: FactorTuple, permutation: tuple[int, ...],
                 lambdas: tuple[tuple[Fraction, ...], ...]):
        # built for every related tuple of a census: no generic field matching
        _set(self, "other", other)
        _set(self, "permutation", permutation)
        _set(self, "lambdas", lambdas)


class WRelation(Record):
    """other_1 = ref_1 W and other_2 = ref_2 (W^-1)^T for invertible W."""

    other: FactorTuple
    w: tuple[tuple[Scalar, ...], ...]


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
    """The exact (P, Lambda_i) relation of ``other`` to a reference given by
    its columns per mode, or None.  It is valid for a full-rank reference,
    whose columns are pairwise non-proportional, so the permutation is unique
    if it exists.

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


# --- the uniqueness bound -------------------------------------------------------

# The order-2 bound tests every R x R alphabet matrix, refused above this count.
_BRUTE_SPACE_CAP = 1 << 20


def _symbol_ratios(alphabet: Alphabet) -> set[tuple[int, int]]:
    """Every ratio b / a of nonzero symbols, the scalings one column can
    take, as reduced int pairs (num, den > 0).

    The symbols are first put over their common denominator, which leaves
    every ratio as it is and makes them ints.
    """
    ints, _ = over_common_denominator([s for s in alphabet.symbols if s != 0])
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
    checked_size([(alphabet.size, r * r)], _BRUTE_SPACE_CAP, "invertible-minor count")
    invertible = sum(
        1
        for entries in product(alphabet.symbols, repeat=r * r)
        if rank_exact([entries[i * r : (i + 1) * r] for i in range(r)]) == r
    )
    return invertible**2
