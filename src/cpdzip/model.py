"""Probabilistic model of factor matrices.

A model fixes the tensor order N, the shared dimension n, the component count
R, one finite alphabet per mode, and one distribution per (mode, column) pair
governing every entry of that column.  All probabilities are exact rationals;
entropies and thresholds are floats accurate to <= 1e-12 relative error.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .errors import CpdzipError, DocumentError, json_field, read_json, refuse_unknown_fields
from .rational import Scalar, compact, rational_str, to_fraction
from .records import Record


class ModelValidationError(CpdzipError):
    """A model failed validation; ``violations`` lists every failure."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class BudgetExceededError(CpdzipError):
    """An exact enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        super().__init__(
            f"{what} needs {required} items, exceeding the budget of {budget}; "
            f"rerun with a budget of at least {required}"
        )
        self.required = required
        self.budget = budget


DEFAULT_BUDGET = 1 << 26


class Alphabet(Record):
    """Finite ordered set of exact rational symbols, strictly ascending."""

    symbols: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "symbols", tuple(compact(to_fraction(s)) for s in self.symbols)
        )

    @property
    def size(self) -> int:
        return len(self.symbols)

    def issues(self) -> list[str]:
        out = []
        if not self.symbols:
            out.append("alphabet is empty")
        if any(a >= b for a, b in zip(self.symbols, self.symbols[1:])):
            out.append("alphabet symbols are not strictly ascending (or contain duplicates)")
        return out


class Distribution(Record):
    """Probabilities aligned index-for-index with an Alphabet."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(to_fraction(p) for p in self.probs))

    @property
    def max_prob(self) -> Fraction:
        return max(self.probs)

    def issues(self, alphabet: Alphabet | None = None) -> list[str]:
        out = []
        if alphabet is not None and len(self.probs) != alphabet.size:
            out.append(
                f"distribution has {len(self.probs)} probabilities for an alphabet of size {alphabet.size}"
            )
        if any(p < 0 for p in self.probs):
            out.append("distribution has a negative probability")
        if sum(self.probs, Fraction(0)) != 1:
            out.append(f"distribution is not normalized (sums to {sum(self.probs, Fraction(0))})")
        if self.probs and self.max_prob >= 1:
            out.append("degenerate distribution (a symbol has probability 1)")
        return out


def uniform(size: int) -> Distribution:
    return Distribution(tuple(Fraction(1, size) for _ in range(size)))


class ModelSpec(Record):
    """Joint model: entry (j, r) of factor matrix i is drawn from dists[i-1][r]."""

    order: int
    dim: int
    components: int
    alphabets: tuple[Alphabet, ...]
    dists: tuple[tuple[Distribution, ...], ...]
    supersymmetric: bool = False

    def __post_init__(self):
        object.__setattr__(self, "alphabets", tuple(self.alphabets))
        object.__setattr__(self, "dists", tuple(tuple(row) for row in self.dists))

    @property
    def independent_matrices(self) -> int:
        """Number of independently sampled factor matrices (1 in supersymmetric mode)."""
        return 1 if self.supersymmetric else self.order

    def alphabet(self, mode: int) -> Alphabet:
        """Alphabet of mode ``mode`` (1-based)."""
        return self.alphabets[mode - 1]

    def dist(self, mode: int, column: int) -> Distribution:
        """Distribution of column ``column`` (0-based) in mode ``mode`` (1-based)."""
        return self.dists[mode - 1][column]

    def with_dim(self, n: int) -> "ModelSpec":
        return ModelSpec(
            self.order, n, self.components, self.alphabets, self.dists, self.supersymmetric
        )


def validate(m: ModelSpec) -> list[str]:
    """Check every model invariant; returns all violations (empty list = ok)."""
    out: list[str] = []
    if m.order < 1:
        out.append(f"order must be >= 1, got {m.order}")
    if m.dim < 1:
        out.append(f"dim must be >= 1, got {m.dim}")
    if m.components < 1:
        out.append(f"components must be >= 1, got {m.components}")
    if len(m.alphabets) != m.order:
        out.append(f"expected {m.order} alphabets, got {len(m.alphabets)}")
    if len(m.dists) != m.order:
        out.append(f"expected {m.order} distribution rows, got {len(m.dists)}")
    for i, alphabet in enumerate(m.alphabets, start=1):
        for issue in alphabet.issues():
            out.append(f"mode {i}: {issue}")
    for i, row in enumerate(m.dists, start=1):
        if len(row) != m.components:
            out.append(f"mode {i}: expected {m.components} distributions, got {len(row)}")
        alphabet = m.alphabets[i - 1] if i - 1 < len(m.alphabets) else None
        for r, dist in enumerate(row):
            for issue in dist.issues(alphabet):
                out.append(f"mode {i}, column {r}: {issue}")
    if m.components >= 2 and m.dim < m.components:
        out.append(
            f"dim {m.dim} < components {m.components}: full-rank analyses require dim >= components"
        )
    if m.supersymmetric:
        if any(a != m.alphabets[0] for a in m.alphabets[1:]):
            out.append("supersymmetric mode requires identical alphabets across modes")
        if any(row != m.dists[0] for row in m.dists[1:]):
            out.append("supersymmetric mode requires identical distributions across modes")
    return out


def require_valid(m: ModelSpec) -> ModelSpec:
    violations = validate(m)
    if violations:
        raise ModelValidationError(violations)
    return m


def _log(value: Fraction) -> float:
    # log of a positive rational via integer logs; avoids float overflow for
    # huge numerators/denominators and keeps relative error at the ulp level.
    return math.log(value.numerator) - math.log(value.denominator)


def entropy(d: Distribution) -> float:
    """Entropy in nats, sum of -p ln p with 0 ln 0 := 0; compensated summation."""
    terms = [-float(p) * _log(p) for p in d.probs if p > 0]
    return math.fsum(terms)


def theoretical_threshold(m: ModelSpec) -> float:
    """Minimum almost-lossless compression threshold in nats per n.

    Sum of per-mode per-column entropies over the independently sampled
    matrices.  In supersymmetric mode only one matrix is sampled, so the sum
    runs over a single mode's columns; that reading is example-specific and
    not a general claim for arbitrary supersymmetric models.
    """
    modes = range(1, m.independent_matrices + 1)
    return math.fsum(entropy(m.dist(i, r)) for i in modes for r in range(m.components))


# --- JSON serialization -----------------------------------------------------
#
# Rationals are serialized as canonical "p/q" strings to preserve exactness;
# integer inputs are accepted on parse.  The canonical JSON form (sorted keys,
# compact separators, canonical rational strings) is the hashing pre-image.


def model_to_dict(m: ModelSpec) -> dict:
    return {
        "order": m.order,
        "dim": m.dim,
        "components": m.components,
        "supersymmetric": m.supersymmetric,
        "alphabets": [[rational_str(s) for s in a.symbols] for a in m.alphabets],
        "dists": [
            [[rational_str(p) for p in d.probs] for d in row] for row in m.dists
        ],
    }


_MODEL_FIELDS = ("order", "dim", "components", "supersymmetric", "alphabets", "dists")


def model_from_dict(data: dict) -> ModelSpec:
    """Read a model document.  ``order``, ``dim`` and ``components`` must be
    JSON integers and ``supersymmetric``, if present, a JSON boolean; no other
    field is allowed."""
    try:
        refuse_unknown_fields(data, _MODEL_FIELDS)
        rows = json_field(data, "alphabets", list)
        dist_rows = json_field(data, "dists", list)
        if not all(type(row) is list for row in rows):
            raise DocumentError("field 'alphabets' must be a list of symbol lists")
        if not all(type(row) is list and all(type(pr) is list for pr in row) for row in dist_rows):
            raise DocumentError("field 'dists' must be a list of lists of probability lists")
        return ModelSpec(
            order=json_field(data, "order", int),
            dim=json_field(data, "dim", int),
            components=json_field(data, "components", int),
            alphabets=tuple(Alphabet(tuple(row)) for row in rows),
            dists=tuple(tuple(Distribution(tuple(pr)) for pr in row) for row in dist_rows),
            supersymmetric=json_field(data, "supersymmetric", bool, False),
        )
    except (TypeError, ValueError) as exc:
        raise ModelValidationError([f"malformed model document: {exc}"]) from exc


def canonical_model_json(m: ModelSpec) -> str:
    return json.dumps(model_to_dict(m), sort_keys=True, separators=(",", ":"))


def model_hash(m: ModelSpec) -> bytes:
    """SHA-256 of the canonical model JSON; embedded in codeword headers."""
    import hashlib  # OpenSSL loads only in the commands that hash a model

    return hashlib.sha256(canonical_model_json(m).encode("utf-8")).digest()


def load_model(path: str | Path) -> ModelSpec:
    return require_valid(model_from_dict(read_json(path)))


def save_model(m: ModelSpec, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
