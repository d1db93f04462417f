"""Seeded input generator for the cpdzip benchmark.

Everything the program receives is built here from plain ``random.Random``
streams, without importing cpdzip: model documents, tensor JSON documents and
experiment configs, in the formats of ``schemas/`` and ``docs/FORMAT.md``.

Inputs come in two layers so that any ``--seed`` can be checked against
digests recorded once:

* a *pool* of candidate inputs, fixed per profile and independent of the
  seed (pool item ``i`` is drawn from the stream named ``"<kind>-pool-<n>-<i>"``);
* a *request list* drawn from the pool by ``random.Random(seed)``.

The golden file holds one expected output per pool item, so every request of
every seed has a reference.

The gamma* of the typical-sets workload
---------------------------------------
The typical-sets model is order 3, R = 2, over {-1, 1}, with column
distributions p = (1/4, 3/4) and q = (2/3, 1/3) in every mode.  For a mode
matrix with k1 entries -1 in column 1 and k2 entries -1 in column 2, the
deviation D = -ln P(X) - n (H(p) + H(q)) collapses to

    D = (k1 - n/4) ln 3 - (k2 - 2n/3) ln 2.

Since ln 2 and ln 3 are linearly independent over the rationals, each pair
(k1, k2) gives its own |D|.  The pair (3, 5) has C(n,3) C(n,5) matrices, and
the typicality boundary |D| < n gamma sits exactly on all of them when
gamma = |D| / n, an irrational number.  gamma* is a rational within 1e-14 of
it, so n gamma* - |D| is far inside the typicality test's float margin (1e-6)
and every matrix of the family escalates to interval arithmetic:

* n = 8: D = ln 3 + (ln 2)/3, gamma* = 1522249/9158717, 3,136 matrices;
* n = 7 (used here): D = (5/4) ln 3 - (ln 2)/3, gamma* = 1595910/9780433,
  735 matrices.

gamma = 1/10 is more than 0.03 away from every |D|/n at n = 7, so it decides
all 16,384 matrices on the float path.  Timing enumeration at both values
isolates the interval path's cost.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

SIGN_ALPHABET = ["-1/1", "1/1"]
UNIFORM = ("1/2", "1/2")
SKEWED = ("3/4", "1/4")
TYPICAL_COLUMNS = (("1/4", "3/4"), ("2/3", "1/3"))
GAMMA_STAR = Fraction(1595910, 9780433)  # n = 7, see above


def model_doc(order: int, dim: int, columns) -> dict:
    """Model document over {-1, 1}; ``columns`` holds one distribution per
    component, shared by every mode."""
    return {
        "order": order,
        "dim": dim,
        "components": len(columns),
        "supersymmetric": False,
        "alphabets": [SIGN_ALPHABET] * order,
        "dists": [[list(c) for c in columns]] * order,
    }


def tensor_doc(order: int, dim: int, entries) -> dict:
    """Tensor document of integer entries, in the canonical p/q form that
    ``tensor_to_dict`` emits."""
    return {
        "kind": "tensor",
        "order": order,
        "dim": dim,
        "entries": [f"{e}/1" for e in entries],
    }


def cp_entries(factors) -> list[int]:
    """Row-major entries of sum_r outer(factors[0][r], ..., factors[-1][r]).

    ``factors[i][r]`` is column r of the mode-(i+1) factor matrix.
    """
    components = len(factors[0])
    total = None
    for r in range(components):
        term = [1]
        for mode in factors:
            term = [x * y for x in term for y in mode[r]]
        total = term if total is None else [a + b for a, b in zip(total, term)]
    return total


def _sign_vector(rng: random.Random, n: int) -> list[int]:
    """n uniform draws from {-1, 1}."""
    return [-1 if rng.random() < 0.5 else 1 for _ in range(n)]


def write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return path


# --- codec ------------------------------------------------------------------------


def codec_pool_item(n: int, i: int) -> tuple[list[int], int]:
    """Pool item i: a rank-one sign tensor of the uniform order-3 model, and
    the entry whose sign flip makes its perturbed (non-composable) variant."""
    rng = random.Random(f"codec-pool-{n}-{i}")
    factors = [[_sign_vector(rng, n)] for _ in range(3)]
    return cp_entries(factors), rng.randrange(n**3)


def codec_request_doc(n: int, item: int, perturbed: bool) -> dict:
    entries, flip = codec_pool_item(n, item)
    if perturbed:
        # One flipped sign breaks every 2x2 minor through that entry, so the
        # tensor is not rank one and no factor tuple composes to it.
        entries = list(entries)
        entries[flip] = -entries[flip]
    return tensor_doc(3, n, entries)


def codec_requests(seed: int, count: int, pool: int, gammas) -> list[tuple]:
    """(gamma, pool item, perturbed) per request; exactly 3 in 10 perturbed."""
    rng = random.Random(seed)
    return [
        (rng.choice(gammas), rng.randrange(pool), r % 10 in (2, 5, 8))
        for r in range(count)
    ]


# --- census -----------------------------------------------------------------------


def _full_rank_sign_matrix(rng: random.Random, n: int) -> list[list[int]]:
    # Two {-1, 1} columns are independent unless one is +-1 times the other.
    while True:
        a = _sign_vector(rng, n)
        b = _sign_vector(rng, n)
        if b != a and b != [-x for x in a]:
            return [a, b]


def census_pool_doc(n: int, i: int) -> dict:
    """Pool item i: the composition of a full-rank order-3, R = 2 sign tuple."""
    rng = random.Random(f"census-pool-{n}-{i}")
    factors = [_full_rank_sign_matrix(rng, n) for _ in range(3)]
    return tensor_doc(3, n, cp_entries(factors))


def banded_doc(pattern) -> dict:
    """Order-2 target whose rows are all 2s where ``pattern`` is 1, else 0."""
    n = len(pattern)
    entries = [2 * bit for bit in pattern for _ in range(n)]
    return tensor_doc(2, n, entries)


def pattern_key(pattern) -> str:
    return "".join(map(str, pattern))


# --- typical sets -------------------------------------------------------------------


def experiment_config(model_path: Path, kind: str, grid, trials: int, seed: int, out: Path) -> dict:
    return {
        "model": str(model_path),
        "kind": kind,
        "n_grid": list(grid),
        "trials": trials,
        "seed": seed,
        "out": str(out),
        "emit_samples": kind == "spectrum",
    }


def mc_pool_seed(j: int) -> int:
    """Master seed of experiment pool item j (fixed, seed-independent)."""
    return random.Random(f"mc-pool-{j}").getrandbits(32)
