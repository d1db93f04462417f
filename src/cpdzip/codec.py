"""Fixed-length index codec realizing the compression/reconstruction mappings.

The codebook enumerates every typical factor tuple (product of per-mode
typical enumerations, lexicographic, mode 1 most significant) and assigns each
distinct composable tensor the index of its lexicographically smallest
generating tuple.  One extra index is reserved as the fallback for everything
else; decoding the fallback yields a fixed tensor (the composition of the
smallest typical tuple, or the zero tensor when no tuple is typical).
Decoding needs only each mode's typical matrices (a ``DecodeBook``);
encoding also needs the tensor-to-index table, whose build sweeps the tuple
space.

Codeword wire format (bit-exact, big-endian):

    magic "TCPD" | version 0x01 | N u8 | R u8 | n u16 | gamma_num u32 |
    gamma_den u32 | model hash (32 bytes, SHA-256 of canonical model JSON) |
    flag u8 (0 typical, 1 fallback) | L u8 | index (L bytes)

gamma is in lowest terms and L is the index's shortest length (at least 1),
so each codeword has exactly one byte form.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Iterable

from .model import (
    BudgetExceededError,
    CpdzipError,
    DEFAULT_BUDGET,
    ModelSpec,
    model_hash,
    theoretical_threshold,
)
from .records import Record, _set, replace
from .tensors import (
    ExactTensor,
    FactorMatrix,
    FactorTuple,
    ShapeError,
    compose_entries,
    cpd_compose,
    expand_modes,
    zero_tensor,
)
from .typicality import (
    SpaceTable,
    TypicalityParams,
    TypicalEnumeration,
    check_space_budget,
    enumerate_typical,
    intern_space,
    mode_matrices,
    space_table,
)

MAGIC = b"TCPD"
VERSION = 1
FLAG_TYPICAL = 0
FLAG_FALLBACK = 1
U32_MAX = (1 << 32) - 1
# The codeword header, in the wire format's field order; the index follows it.
_HEADER = struct.Struct(">4sBBBHII32sBB")


class DecodeError(CpdzipError):
    """Codeword cannot be decoded against this codebook."""


class CodewordRangeError(CpdzipError, ValueError):
    """A codeword field does not fit its slot in the wire form."""


class Codeword(Record):
    """Self-describing compressed index."""

    order: int
    components: int
    n: int
    gamma: Fraction
    model_digest: bytes
    flag: int
    index: int

    def __init__(self, order: int, components: int, n: int, gamma: Fraction,
                 model_digest: bytes, flag: int, index: int):
        _set(self, "order", order)
        _set(self, "components", components)
        _set(self, "n", n)
        _set(self, "gamma", gamma)
        _set(self, "model_digest", model_digest)
        _set(self, "flag", flag)
        _set(self, "index", index)


class DecodeBook(Record):
    """The part of a codebook that decoding reads.

    Building it enumerates the typical matrices of each mode (``matrices``,
    read once through ``mode_matrices`` at each enumeration's positions) but
    never sweeps the tuple space, so a decoder can afford it for one codeword.
    Immutable after construction; safe for concurrent decode.
    """

    model: ModelSpec
    params: TypicalityParams
    enums: tuple[TypicalEnumeration, ...]
    matrices: tuple[tuple[FactorMatrix, ...], ...]
    tuple_count: int
    fallback_tensor: ExactTensor
    model_digest: bytes  # model_hash(model), computed once per book

    @property
    def fallback_index(self) -> int:
        return self.tuple_count

    @property
    def size(self) -> int:
        """|M|: one index per typical tuple plus the fallback slot."""
        return self.tuple_count + 1

    @property
    def log_size_nats(self) -> float:
        return math.log(self.size)

    def tuple_at(self, index: int) -> FactorTuple:
        """Typical tuple at a lexicographic index (mode 1 most significant)."""
        return FactorTuple(expand_modes(self.model, self._matrices_at(index)))

    def _matrices_at(self, index: int) -> list[FactorMatrix]:
        """The typical matrix of each independent mode at a lexicographic index."""
        if not 0 <= index < self.tuple_count:
            raise DecodeError(f"tuple index {index} out of range [0, {self.tuple_count})")
        mats = []
        rem = index
        for typical in reversed(self.matrices):
            rem, pos = divmod(rem, len(typical))
            mats.append(typical[pos])
        mats.reverse()
        return mats


class Codebook(DecodeBook):
    """A decode book plus encoding's map from tensor key to codebook index.

    Immutable after construction; safe for concurrent encode/decode.
    """

    tensor_to_index: dict[bytes, int]


# --- shared space tables --------------------------------------------------------
#
# Exhaustive sweeps (codebook construction, exact error probability) read the
# full space's ``SpaceTable``: every tuple's compact tensor id, and the
# ``typical_ids`` gather over it.  ``_first_indices`` gives each id the
# codebook index of its smallest typical tuple.  The table depends only on
# the model's structure (N, n, R, supersymmetric, alphabets), so uniform and
# skewed variants of one alphabet share it.  Two bounded memos hold the last
# four tables and the last four models' ``probabilities``; ``cache_info()``
# and ``cache_clear()`` inspect and reset them.  ``_space_index`` checks the
# budget on every call, hit or miss.

_FULL_SWEEP = "full tuple-space sweep"


def _space_index(m: ModelSpec, budget: int) -> SpaceTable:
    """The full-space table of ``m``'s structure, after a budget check that
    runs on every call, whether the table is memoized or not."""
    check_space_budget(m, budget, _FULL_SWEEP)
    return _structure_table(replace(m, dists=()))


@lru_cache(maxsize=4)
def _structure_table(structure: ModelSpec) -> SpaceTable:
    return space_table(structure, math.inf, _FULL_SWEEP)  # _space_index checked the budget


@lru_cache(maxsize=4)
def _tensor_probabilities(m: ModelSpec) -> tuple[list[int], int]:
    """``SpaceTable.probabilities`` of the full space.  Callers check the
    budget with ``_space_index`` first."""
    return _structure_table(replace(m, dists=())).probabilities(m)


def _first_indices(ids: Iterable[int]) -> dict[int, int]:
    """id -> index of its first occurrence in ``ids``, in first-occurrence order."""
    first: dict[int, int] = {}
    deque(map(first.setdefault, ids, count()), maxlen=0)
    return first


def _check_shape(m: ModelSpec, p: TypicalityParams) -> None:
    if p.n != m.dim:
        raise ShapeError(f"params n={p.n} but model dim={m.dim}")


def build_decode_book(
    m: ModelSpec, p: TypicalityParams, budget: int = DEFAULT_BUDGET
) -> DecodeBook:
    """Deterministically build what decoding reads, without a tuple-space sweep."""
    _check_shape(m, p)
    modes = m.independent_matrices
    enums = tuple(enumerate_typical(m, p, i, budget) for i in range(1, modes + 1))
    tuple_count = math.prod(e.count for e in enums)
    if tuple_count > budget:
        raise BudgetExceededError(tuple_count, budget, "codebook tuple space")
    matrices = tuple(tuple(mode_matrices(m, e.mode, e.positions)) for e in enums)
    if tuple_count:
        fallback = cpd_compose(FactorTuple(expand_modes(m, [x[0] for x in matrices])))
    else:
        fallback = zero_tensor(m.order, m.dim)
    return DecodeBook(m, p, enums, matrices, tuple_count, fallback, model_hash(m))


def build_codebook(
    m: ModelSpec, p: TypicalityParams, budget: int = DEFAULT_BUDGET
) -> Codebook:
    """Deterministically build the typical-tuple codebook."""
    book = build_decode_book(m, p, budget)
    enums = book.enums
    if book.tuple_count and math.prod(e.space_size for e in enums) <= budget:
        space = _space_index(m, budget)
        ids = space.typical_ids(enums)
    else:  # a sweep of the typical tuples alone; none for an empty codebook
        space = intern_space(book.matrices, m.order)
        ids = space.tuple_ids
    first = _first_indices(ids)
    tensor_to_index = dict(zip(map(space.id_keys.__getitem__, first), first.values()))
    return Codebook(**vars(book), tensor_to_index=tensor_to_index)


def encode(t: ExactTensor, cb: Codebook) -> Codeword:
    """Map a tensor to its codeword; unindexed tensors get the fallback index."""
    m = cb.model
    if t.order != m.order or t.dim != m.dim:
        raise ShapeError(
            f"tensor shape {t.shape} does not match model ({m.order}, dim {m.dim})"
        )
    index = cb.tensor_to_index.get(t.key())
    if index is None:
        return _codeword(cb, FLAG_FALLBACK, cb.fallback_index)
    return _codeword(cb, FLAG_TYPICAL, index)


def _codeword(cb: Codebook, flag: int, index: int) -> Codeword:
    return Codeword(
        order=cb.model.order,
        components=cb.model.components,
        n=cb.model.dim,
        gamma=cb.params.gamma,
        model_digest=cb.model_digest,
        flag=flag,
        index=index,
    )


def decode(c: Codeword, cb: DecodeBook) -> ExactTensor:
    """Reconstruct the tensor for a codeword produced against this codebook.

    A ``DecodeBook`` suffices; a full ``Codebook`` is one.
    """
    m = cb.model
    if c.model_digest != cb.model_digest:
        raise DecodeError("codeword model hash does not match the codebook's model")
    if (c.order, c.components, c.n) != (m.order, m.components, m.dim):
        raise DecodeError("codeword shape header does not match the codebook")
    if c.gamma != cb.params.gamma:
        raise DecodeError("codeword gamma does not match the codebook")
    if c.flag == FLAG_FALLBACK:
        if c.index != cb.fallback_index:
            raise DecodeError(
                f"fallback codeword carries index {c.index}, expected {cb.fallback_index}"
            )
        return cb.fallback_tensor
    if c.flag != FLAG_TYPICAL:
        raise DecodeError(f"unknown flag byte {c.flag}")
    if c.index >= cb.tuple_count:
        raise DecodeError(f"index {c.index} out of range for |M| = {cb.size}")
    # enumerated matrices share n and R by construction: no FactorTuple check
    mats = expand_modes(m, cb._matrices_at(c.index))
    return ExactTensor(m.order, m.dim, tuple(compose_entries(mats)))


def _index_length(index: int) -> int:
    """L, the shortest big-endian length of an index (zero takes one byte)."""
    return max(1, (index.bit_length() + 7) // 8)


def _check_range(name: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise CodewordRangeError(f"codeword {name} {value} outside [{low}, {high}]")


def codeword_to_bytes(c: Codeword) -> bytes:
    length = _index_length(c.index)
    _check_range("gamma numerator", c.gamma.numerator, 1, U32_MAX)
    _check_range("gamma denominator", c.gamma.denominator, 1, U32_MAX)
    _check_range("order N", c.order, 0, 255)
    _check_range("components R", c.components, 0, 255)
    _check_range("dimension n", c.n, 0, 65535)
    _check_range("flag", c.flag, 0, 255)
    if c.index < 0 or length > 255:
        raise CodewordRangeError("codeword index must be non-negative and fit in 255 bytes")
    if len(c.model_digest) != 32:  # "32s" would pad or truncate it silently
        raise CodewordRangeError("codeword model digest must be 32 bytes")
    header = _HEADER.pack(
        MAGIC, VERSION, c.order, c.components, c.n, c.gamma.numerator, c.gamma.denominator,
        c.model_digest, c.flag, length,
    )
    return header + c.index.to_bytes(length, "big")


def codeword_from_bytes(buf: bytes) -> Codeword:
    if len(buf) < _HEADER.size + 1:
        raise DecodeError("codeword truncated")
    magic, version, order, components, n, num, den, digest, flag, length = (
        _HEADER.unpack_from(buf)
    )
    if magic != MAGIC:
        raise DecodeError("bad magic")
    if version != VERSION:
        raise DecodeError(f"unsupported codeword version {version}")
    if num == 0 or den == 0:
        raise DecodeError(f"codeword gamma {num}/{den} has a zero term")
    if math.gcd(num, den) != 1:
        raise DecodeError(f"codeword gamma {num}/{den} is not in lowest terms")
    if len(buf) != _HEADER.size + length:
        raise DecodeError("codeword payload length mismatch")
    index = int.from_bytes(buf[_HEADER.size :], "big")
    if length != _index_length(index):
        raise DecodeError(f"codeword index takes {length} bytes; its shortest form differs")
    return Codeword(order, components, n, Fraction(num, den), digest, flag, index)


class SchemeReport(Record):
    """Exact accounting of one (model, gamma) scheme instance."""

    codebook_size: int
    log_M_nats: float
    threshold_per_n: float
    exact_error_prob: Fraction
    error_prob_bound: Fraction
    length_bound_nats: float
    masses: tuple[Fraction, ...]


def length_bound_nats(m: ModelSpec, p: TypicalityParams) -> float:
    """n * (sum of entropies + (#matrices) R gamma) + ln 2, the fallback slot."""
    matrices = m.independent_matrices
    return m.dim * (
        theoretical_threshold(m) + matrices * m.components * float(p.gamma)
    ) + math.log(2)


def measure_scheme(
    m: ModelSpec, p: TypicalityParams, budget: int = DEFAULT_BUDGET
) -> SchemeReport:
    """Exact error probability and storage accounting for one scheme.

    The error probability sums the model probability of every tuple in the
    full space whose composed tensor is not decoded back to itself, so the
    full space must fit the budget.  Only the typical positions of each mode
    are read: no decode book or matrix is built.  The codebook indexes the
    tensor of every typical tuple, the fallback (tuple 0's) among them, so
    the decodable ids are the typical ones; with no typical tuple, the
    fallback is the zero tensor.
    """
    _check_shape(m, p)
    space = _space_index(m, budget)  # also bounds each mode and the codebook
    numerators, denominator = _tensor_probabilities(m)
    modes = range(1, m.independent_matrices + 1)
    enums = tuple(enumerate_typical(m, p, i, budget) for i in modes)
    decodable_ids = set(space.typical_ids(enums))
    if not decodable_ids:  # the fallback alone decodes: the zero tensor
        zero = space.key_to_id.get(zero_tensor(m.order, m.dim).key())
        decodable_ids = set() if zero is None else {zero}
    error = 1 - Fraction(sum(map(numerators.__getitem__, decodable_ids)), denominator)

    masses = tuple(e.table.mass for e in enums)
    mass_bound = 1 - math.prod(masses, start=Fraction(1))
    size = math.prod(e.count for e in enums) + 1
    return SchemeReport(
        codebook_size=size,
        log_M_nats=math.log(size),
        threshold_per_n=math.log(size) / m.dim,
        exact_error_prob=error,
        error_prob_bound=mass_bound,
        length_bound_nats=length_bound_nats(m, p),
        masses=masses,
    )
