"""Seeded experiments over (n, gamma) grids with deterministic persistence.

Every run writes a CSV and a JSON mirror atomically (temp file + rename).
Rows carry either an exact rational value or a standard error, never a bare
estimate.  Reruns with the same config and seed are byte-identical, so the
``ms`` column of the pinned CSV schema is left empty; wall-clock timing would
break reproducibility (see the repo docs).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .errors import DocumentError, json_field, read_json, refuse_unknown_fields
from .model import (
    BudgetExceededError,
    CpdzipError,
    DEFAULT_BUDGET,
    ModelSpec,
    load_model,
    theoretical_threshold,
)
from .rational import rational_str, to_fraction
from .records import Record
from .rng import DrawTable, draw_rows, stream_rng
from .tensors import rank_exact, zero_tensor
from .typicality import (
    TypicalityParams,
    TypicalityParamsError,
    enumerate_typical,
    mode_space_size,
    space_table,
    spectrum_samples,
)

CSV_HEADER = [
    "kind", "n", "gamma", "statistic", "estimate", "exact",
    "bound", "stderr", "trials", "seed", "ms",
]

_WILSON_Z = 1.96

_Samples = dict[int, list[float]]  # spectrum samples by n


class ExperimentConfig(Record):
    model_path: str
    kind: str
    n_grid: tuple[int, ...]
    gamma_grid: tuple[Fraction, ...]
    trials: int
    seed: int
    out: str
    budget: int = DEFAULT_BUDGET
    emit_samples: bool = False

    def __post_init__(self):
        # Each refusal is a ValueError, which ``load_experiment_config``
        # reports as a malformed config.
        if self.kind not in KINDS:
            raise DocumentError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if not self.n_grid:
            raise DocumentError("n_grid must be non-empty")
        if not self.gamma_grid:
            raise DocumentError("gamma_grid must be non-empty")
        if min(self.gamma_grid) <= 0:  # even for the kinds that never read gamma
            least = rational_str(min(self.gamma_grid))
            raise TypicalityParamsError(f"gamma_grid entries must be positive, got {least}")
        if self.trials < 1:
            raise DocumentError("trials must be >= 1")
        if min(self.n_grid) < 1:
            raise DocumentError("n_grid entries must be >= 1")
        if self.budget < 1:
            raise DocumentError("budget must be >= 1")
        if all(part in ("", ".") for part in self.out.split("/")):
            raise DocumentError(f"out must name a file, got {self.out!r}")


_CONFIG_FIELDS = ("model", "kind", "n_grid", "gamma_grid", "trials", "seed", "out", "budget",
                  "emit_samples")


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Read a config document; every field must have its JSON type (integers
    for ``n_grid``, ``trials``, ``seed`` and ``budget``, strings for
    ``gamma_grid``, a boolean for ``emit_samples``), never a value coerced to
    it, and no other field is allowed."""
    data = read_json(path)
    try:
        refuse_unknown_fields(data, _CONFIG_FIELDS)
        n_grid = json_field(data, "n_grid", list)
        if not all(type(n) is int for n in n_grid):
            raise DocumentError(f"field 'n_grid' must list integers, got {n_grid!r}")
        gamma_grid = json_field(data, "gamma_grid", list, ["1/10"])
        if not all(type(g) is str for g in gamma_grid):
            raise DocumentError(f"field 'gamma_grid' must list strings, got {gamma_grid!r}")
        return ExperimentConfig(
            model_path=json_field(data, "model", str),
            kind=json_field(data, "kind", str),
            n_grid=tuple(n_grid),
            gamma_grid=tuple(map(to_fraction, gamma_grid)),
            trials=json_field(data, "trials", int, 1),
            seed=json_field(data, "seed", int),
            out=json_field(data, "out", str),
            budget=json_field(data, "budget", int, DEFAULT_BUDGET),
            emit_samples=json_field(data, "emit_samples", bool, False),
        )
    except (TypeError, ValueError) as exc:
        raise CpdzipError(f"malformed experiment config: {exc}") from exc


class ResultRow(Record):
    kind: str
    n: int
    gamma: Fraction | None
    statistic: str
    estimate: float | None
    exact: Fraction | None
    bound: Fraction | float | None
    stderr: float | None
    trials: int | None
    seed: int

    def json_obj(self) -> dict:
        """The row's ``CSV_HEADER`` values: rationals as ``p/q`` strings, ``ms``
        always null."""
        bound = self.bound
        return {
            "kind": self.kind,
            "n": self.n,
            "gamma": None if self.gamma is None else rational_str(self.gamma),
            "statistic": self.statistic,
            "estimate": self.estimate,
            "exact": None if self.exact is None else rational_str(self.exact),
            "bound": None if bound is None else (
                rational_str(bound) if isinstance(bound, Fraction) else float(bound)
            ),
            "stderr": self.stderr,
            "trials": self.trials,
            "seed": self.seed,
            "ms": None,  # reserved; left empty for byte-reproducible reruns
        }

    def csv_fields(self) -> list[str]:
        """``json_obj``'s values as text: empty for null, ``repr`` for a float."""
        obj = self.json_obj()
        return ["" if v is None else repr(v) if isinstance(v, float) else str(v)
                for v in map(obj.get, CSV_HEADER)]


class FullRankEstimate(Record):
    mode: int
    successes: int
    trials: int
    estimate: float
    stderr: float
    wilson_low: float
    wilson_high: float
    bound: Fraction  # 1 - zeta_i


def estimate_full_rank_prob(m: ModelSpec, trials: int, seed: int) -> list[FullRankEstimate]:
    """Monte-Carlo estimate of Pr{rank(X_i) = R} per mode with Wilson interval."""
    from .analysis import full_rank_prob_bound

    if trials < 1:
        raise ValueError("trials must be >= 1")
    table = DrawTable(m)
    successes = [0] * len(table.modes)
    r = m.components
    for t in range(trials):
        for i, rows in enumerate(draw_rows(table, stream_rng(seed, t))):
            if rank_exact(rows) == r:
                successes[i] += 1
    bound = full_rank_prob_bound(m)
    out = []
    for i in range(m.order):
        src = 0 if m.supersymmetric else i
        s = successes[src]
        p_hat = s / trials
        se = math.sqrt(p_hat * (1 - p_hat) / trials)
        z2 = _WILSON_Z**2
        center = (p_hat + z2 / (2 * trials)) / (1 + z2 / trials)
        half = (
            _WILSON_Z
            * math.sqrt(p_hat * (1 - p_hat) / trials + z2 / (4 * trials**2))
            / (1 + z2 / trials)
        )
        out.append(
            FullRankEstimate(
                mode=i + 1,
                successes=s,
                trials=trials,
                estimate=p_hat,
                stderr=se,
                wilson_low=max(0.0, center - half),
                wilson_high=min(1.0, center + half),
                bound=1 - bound.zeta_per_mode[i],
            )
        )
    return out


@contextmanager
def _grid_point(cfg: ExperimentConfig, n: int, gamma: Fraction | None = None):
    """Re-raise budget refusals with the offending grid point identified."""
    try:
        yield
    except BudgetExceededError as exc:
        where = f"n={n}" + (f", gamma={rational_str(gamma)}" if gamma is not None else "")
        raise CpdzipError(f"{cfg.kind} experiment at {where}: {exc}") from exc


def _row(cfg: ExperimentConfig, n: int, statistic: str, *, gamma=None, estimate=None,
         exact=None, bound=None, stderr=None, trials=None) -> ResultRow:
    """A row of ``cfg``'s kind and seed; the fields not named stay empty."""
    return ResultRow(cfg.kind, n, gamma, statistic, estimate, exact, bound, stderr, trials,
                     cfg.seed)


def _rows_threshold(cfg: ExperimentConfig, base: ModelSpec, samples: _Samples) -> list[ResultRow]:
    """|M| = (product of each independent mode's typical count) + 1, the
    fallback slot; no matrix or decode book is built."""
    from .codec import length_bound_nats

    rows = []
    for n in cfg.n_grid:
        m = base.with_dim(n)
        for gamma in cfg.gamma_grid:
            p = TypicalityParams(gamma, n)
            with _grid_point(cfg, n, gamma):
                size = math.prod(enumerate_typical(m, p, i, cfg.budget).count
                                 for i in range(1, m.independent_matrices + 1)) + 1
            rows.append(_row(cfg, n, "log_M_per_n", gamma=gamma,
                             estimate=math.log(size) / n, exact=Fraction(size),
                             bound=length_bound_nats(m, p) / n))
    return rows


def _rows_codec_error(cfg: ExperimentConfig, base: ModelSpec, samples: _Samples) -> list[ResultRow]:
    from .codec import measure_scheme

    rows = []
    for n in cfg.n_grid:
        m = base.with_dim(n)
        for gamma in cfg.gamma_grid:
            with _grid_point(cfg, n, gamma):
                report = measure_scheme(m, TypicalityParams(gamma, n), cfg.budget)
            rows.append(_row(cfg, n, "exact_error_prob", gamma=gamma,
                             estimate=float(report.exact_error_prob),
                             exact=report.exact_error_prob, bound=report.error_prob_bound))
            rows.append(_row(cfg, n, "log_M_per_n", gamma=gamma,
                             estimate=report.threshold_per_n,
                             exact=Fraction(report.codebook_size),
                             bound=report.length_bound_nats / n))
    return rows


def _pvariance(xs: list[float], mu: float) -> float:
    """``statistics.pvariance(xs, mu=mu)`` on ints: each float square
    (x - mu)**2 is an integer ratio over a power of two, so the largest
    denominator is their lcm; the exact sum over ``len(xs)`` is rounded once,
    correctly, by int true division."""
    ratios = [((d := x - mu) * d).as_integer_ratio() for x in xs]
    den = max(q for _, q in ratios)
    return sum(p * (den // q) for p, q in ratios) / (den * len(xs))


def _rows_spectrum(cfg: ExperimentConfig, base: ModelSpec, samples: _Samples) -> list[ResultRow]:
    """Spectrum rows; each n's samples are stored in ``samples``."""
    rows = []
    for n in cfg.n_grid:
        m = base.with_dim(n)
        xs = samples[n] = spectrum_samples(m, cfg.trials, cfg.seed)
        mean = math.fsum(xs) / len(xs)  # statistics.fmean's arithmetic on a list
        var = _pvariance(xs, mean)
        rows.append(_row(cfg, n, "spectrum_mean", estimate=mean, bound=theoretical_threshold(m),
                         stderr=math.sqrt(var / cfg.trials), trials=cfg.trials))
        rows.append(_row(cfg, n, "spectrum_var", estimate=var,
                         stderr=var * math.sqrt(2 / max(1, cfg.trials - 1)), trials=cfg.trials))
    return rows


def _rows_full_rank(cfg: ExperimentConfig, base: ModelSpec, samples: _Samples) -> list[ResultRow]:
    from .analysis import exact_rank_deficiency_prob

    rows = []
    for n in cfg.n_grid:
        m = base.with_dim(n)
        for est in estimate_full_rank_prob(m, cfg.trials, cfg.seed):
            exact = None
            if mode_space_size(m, est.mode) <= min(cfg.budget, 1 << 16):
                exact = 1 - exact_rank_deficiency_prob(m, est.mode, cfg.budget)
            rows.append(_row(cfg, n, f"full_rank_prob_mode_{est.mode}", estimate=est.estimate,
                             exact=exact, bound=est.bound, stderr=est.stderr, trials=est.trials))
    return rows


def _rows_census(cfg: ExperimentConfig, base: ModelSpec, samples: _Samples) -> list[ResultRow]:
    """Census rows; each n's table is built once and read by every count and
    the brute-force zero probability."""
    from .analysis import (
        UnsupportedModelError,
        _count_in,
        _zero_prob,
        banded_rows_matrix_tensor,
        example_shape,
        prob_zero_tensor,
    )

    shape = example_shape(base)
    if shape is None:
        raise UnsupportedModelError(
            "census experiments support only the two documented example shapes"
        )
    rows = []
    for n in cfg.n_grid:
        m = base.with_dim(n)
        with _grid_point(cfg, n):
            space = space_table(m, cfg.budget, "factorization census")
        census = _count_in(space, zero_tensor(m.order, n), m)
        expected = 2**n if shape == "cubic" else 2 ** (2 * n + 1)
        rows.append(_row(cfg, n, "zero_tensor_count", estimate=float(census.total_count),
                         exact=Fraction(expected)))
        rows.append(_row(cfg, n, "zero_tensor_prob_closed_minus_brute", estimate=0.0,
                         exact=prob_zero_tensor(m) - _zero_prob(space, m)))
        if shape == "bilinear":
            for m_rows in range(1, n):
                c = _count_in(space, banded_rows_matrix_tensor(n, m_rows), m)
                rows.append(_row(cfg, n, f"banded_count_m_{m_rows}",
                                 estimate=float(c.total_count),
                                 exact=Fraction(2 ** (n - m_rows + 2))))
        del space  # not alive while the next n's table is built
    return rows


# Each kind's row builder.  A builder takes the config, the model it names and
# a dict that it fills with each n's samples if its kind draws any.  It imports
# the analysis or codec names that it calls, so a run loads only its kind's code.
_ROW_BUILDERS = {
    "threshold": _rows_threshold,
    "full-rank": _rows_full_rank,
    "spectrum": _rows_spectrum,
    "census": _rows_census,
    "codec-error": _rows_codec_error,
}
KINDS = tuple(_ROW_BUILDERS)


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to a sibling temporary file (mode 0o600, named for this
    process) and rename it over ``path``; on failure the sibling is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_results(rows: list[ResultRow], out_base: str | Path) -> tuple[Path, Path]:
    """Write ``rows`` atomically to <out_base>.csv and <out_base>.json; the
    suffixes are appended, so ``runs/a.v2`` gives ``runs/a.v2.csv``."""
    base = Path(out_base)
    csv_path = base.with_name(base.name + ".csv")
    json_path = base.with_name(base.name + ".json")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.csv_fields())
    _atomic_write_text(csv_path, buf.getvalue())
    payload = json.dumps([r.json_obj() for r in rows], indent=2, sort_keys=True) + "\n"
    _atomic_write_text(json_path, payload)
    return csv_path, json_path


def write_samples_csv(samples_by_n: _Samples, out_base: str | Path) -> Path:
    base = Path(out_base)
    path = base.with_name(base.name + ".samples.csv")
    lines = ["n,trial,value"]
    for n in sorted(samples_by_n):
        for t, v in enumerate(samples_by_n[n]):
            lines.append(f"{n},{t},{v!r}")
    _atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def run_experiment(cfg: ExperimentConfig) -> tuple[Path, Path]:
    """Run one experiment; writes <out>.csv and <out>.json atomically, then
    <out>.samples.csv if the kind draws samples and ``emit_samples`` is set.

    Only the kind's row builder loads its code: ``spectrum`` loads neither
    ``analysis`` nor ``codec``, ``full-rank`` and ``census`` load
    ``analysis``, and ``threshold`` and ``codec-error`` load ``codec``."""
    samples: _Samples = {}
    rows = _ROW_BUILDERS[cfg.kind](cfg, load_model(cfg.model_path), samples)
    paths = write_results(rows, cfg.out)
    if samples and cfg.emit_samples:
        write_samples_csv(samples, cfg.out)
    return paths
