import importlib.util
import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpdzip.analysis import (
    UnsupportedModelError,
    cubic_sign_model,
    example_shape,
    prob_zero_tensor,
    rank_one_sign_model,
)
from cpdzip.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    _pvariance,
    estimate_full_rank_prob,
    load_experiment_config,
    run_experiment,
    write_results,
)
from cpdzip.model import (
    DEFAULT_BUDGET,
    Alphabet,
    CpdzipError,
    Distribution,
    ModelSpec,
    save_model,
    uniform,
)
from cpdzip.rng import (
    RationalSampler,
    mix64,
    sample_matrix,
    sample_tuple,
    stream_rng,
    stream_seed,
)

U2 = uniform(2)


def test_mix64_matches_published_splitmix64_vector():
    # the reference SplitMix64 generator walks the state by the golden gamma
    # and finalizes; its published outputs for seed 1234567 pin our finalizer
    state = 1234567
    outputs = []
    for _ in range(5):
        state = (state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        outputs.append(mix64(state))
    assert outputs == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_mix64_pinned_values():
    # part of the PRNG contract; never change without a format-version bump
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(2**64 - 1) == 13029008266876403067


def test_stream_seeds_distinct_and_stable():
    seeds = {stream_seed(42, t) for t in range(1000)}
    assert len(seeds) == 1000
    assert stream_seed(42, 0) == stream_seed(42, 0)
    assert stream_seed(42, 0) != stream_seed(43, 0)


def test_sampler_is_exact_for_zero_probability():
    d = Distribution((Fraction(1, 2), Fraction(0), Fraction(1, 2)))
    sampler = RationalSampler(d)
    rng = stream_rng(5, 0)
    draws = {sampler.draw_index(rng) for _ in range(2000)}
    assert 1 not in draws
    assert draws == {0, 2}


def test_sample_matrix_deterministic_bytes():
    m = rank_one_sign_model(4, 2, [U2, U2])
    x1 = sample_matrix(m, 1, stream_rng(99, 7))
    x2 = sample_matrix(m, 1, stream_rng(99, 7))
    assert x1.rows == x2.rows
    seq1 = [sample_tuple(m, stream_rng(99, t)) for t in range(20)]
    seq2 = [sample_tuple(m, stream_rng(99, t)) for t in range(20)]
    assert seq1 == seq2
    # 20 tuples of 8 uniform signs collide across master seeds with
    # probability 2^-160
    assert seq1 != [sample_tuple(m, stream_rng(100, t)) for t in range(20)]


def test_every_function_the_benchmark_tracer_wraps_exists():
    # perfbench/spans.py looks up each TRACED name with getattr when a traced
    # benchmark run starts, so a deleted or renamed function would crash it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{fname}"
        for layer, fnames in spans.TRACED.items()
        for fname in fnames
        if not callable(getattr(importlib.import_module(f"cpdzip.{layer}"), fname, None))
    ]
    assert missing == []


def test_sample_tuple_supersymmetric_replicates():
    m = cubic_sign_model(3, U2, U2)
    ft = sample_tuple(m, stream_rng(1, 0))
    assert ft.order == 3
    assert ft.matrices[0].rows == ft.matrices[1].rows == ft.matrices[2].rows
    assert [x.mode for x in ft.matrices] == [1, 2, 3]


def test_sample_frequencies_match_binomial():
    trials = 20_000
    p = Distribution((Fraction(1, 4), Fraction(3, 4)))
    m = rank_one_sign_model(1, 1, [p])
    rng = stream_rng(2024, 0)
    sampler = RationalSampler(p)
    count_high = sum(sampler.draw_index(rng) for _ in range(trials))
    p_hat = count_high / trials
    se = math.sqrt(0.75 * 0.25 / trials)
    assert abs(p_hat - 0.75) <= 3 * se
    assert 0 < p_hat < 1  # no symbol frequency equals 1


def test_estimate_full_rank_prob_matches_exact_half():
    a = Alphabet((-1, 1))
    m = ModelSpec(3, 2, 2, (a,) * 3, ((U2, U2),) * 3)
    estimates = estimate_full_rank_prob(m, trials=3000, seed=55)
    assert len(estimates) == 3
    for est in estimates:
        se = max(est.stderr, 1e-9)
        assert abs(est.estimate - 0.5) <= 3 * se
        assert est.wilson_low <= 0.5 <= est.wilson_high


def test_estimate_full_rank_trend_in_n():
    a = Alphabet((-1, 1))
    values = []
    for n in (2, 3, 4):
        m = ModelSpec(3, n, 2, (a,) * 3, ((U2, U2),) * 3)
        est = estimate_full_rank_prob(m, trials=1500, seed=77)[0]
        values.append((est.estimate, est.stderr))
    for (lo, se_lo), (hi, se_hi) in zip(values, values[1:]):
        assert hi >= lo - 2 * (se_lo + se_hi)


def test_estimate_full_rank_certain_for_rank_one_nonzero_alphabet():
    m = rank_one_sign_model(3, 2, [U2, U2])
    for est in estimate_full_rank_prob(m, trials=500, seed=3):
        assert est.estimate == 1.0


def _write_model(tmp_path) -> Path:
    path = tmp_path / "model.json"
    save_model(rank_one_sign_model(3, 3, [U2] * 3), path)
    return path


def _config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        model_path=str(_write_model(tmp_path)),
        kind="threshold",
        n_grid=(2, 3),
        gamma_grid=(Fraction(1, 10),),
        trials=50,
        seed=11,
        out=str(tmp_path / "results" / "run"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_threshold_rows_and_bounds(tmp_path):
    cfg = _config(tmp_path)
    csv_path, json_path = run_experiment(cfg)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 2  # one row per (n, gamma)
    rows = json.loads(json_path.read_text())
    for row in rows:
        assert row["statistic"] == "log_M_per_n"
        assert row["estimate"] <= row["bound"] + 1e-12
        assert row["exact"].endswith("/1")  # |M| is an integer rational


def test_threshold_experiment_does_not_sweep_the_tuple_space(tmp_path, monkeypatch):
    from cpdzip import codec
    from cpdzip.typicality import TypicalityParams

    cfg = _config(tmp_path)
    sizes = [
        codec.build_codebook(rank_one_sign_model(n, 3, [U2] * 3), TypicalityParams(gamma, n)).size
        for n in cfg.n_grid
        for gamma in cfg.gamma_grid
    ]
    monkeypatch.setattr(codec, "_space_index", None)  # |M| needs no sweep
    _, json_path = run_experiment(cfg)
    assert [row["exact"] for row in json.loads(json_path.read_text())] == [
        f"{size}/1" for size in sizes
    ]


def test_threshold_experiment_counts_a_book_larger_than_the_budget(tmp_path):
    # order 3, R = 2, every mode's columns (1/4, 3/4) and (2/3, 1/3): each mode
    # has 566 typical matrices at n = 6, gamma = 1/10, so |M| = 566^3 + 1 is
    # over the default budget, which bounds each mode's space of 2^12 matrices
    model_path = tmp_path / "typical.json"
    columns = (Distribution((Fraction(1, 4), Fraction(3, 4))),
               Distribution((Fraction(2, 3), Fraction(1, 3))))
    save_model(ModelSpec(3, 6, 2, (Alphabet((-1, 1)),) * 3, (columns,) * 3), model_path)
    cfg = _config(tmp_path, model_path=str(model_path), n_grid=(6,))
    assert 566**3 + 1 > cfg.budget
    _, json_path = run_experiment(cfg)
    [row] = json.loads(json_path.read_text())
    assert row["exact"] == "181321497/1" == f"{566**3 + 1}/1"
    assert row["estimate"] == math.log(566**3 + 1) / 6


def test_run_experiment_rerun_is_byte_identical(tmp_path):
    cfg = _config(tmp_path)
    csv1, json1 = run_experiment(cfg)
    first_csv = csv1.read_bytes()
    first_json = json1.read_bytes()
    csv2, json2 = run_experiment(cfg)
    assert csv2.read_bytes() == first_csv
    assert json2.read_bytes() == first_json


def test_run_experiment_no_temp_leftovers(tmp_path):
    cfg = _config(tmp_path)
    run_experiment(cfg)
    leftovers = [p for p in (tmp_path / "results").iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_run_experiment_spectrum_rows(tmp_path):
    cfg = _config(tmp_path, kind="spectrum", n_grid=(4,), trials=400, emit_samples=True)
    csv_path, json_path = run_experiment(cfg)
    rows = json.loads(json_path.read_text())
    stats = {r["statistic"]: r for r in rows}
    mean_row = stats["spectrum_mean"]
    assert mean_row["stderr"] is not None
    assert abs(mean_row["estimate"] - mean_row["bound"]) <= max(
        3 * mean_row["stderr"], 1e-9
    )
    samples = Path(str(csv_path)[: -len(".csv")] + ".samples.csv")
    assert samples.exists()
    assert samples.read_text().splitlines()[0] == "n,trial,value"


SIGNED_MAGNITUDES = st.builds(
    lambda sign, x: sign * x, st.sampled_from((-1.0, 1.0)), st.floats(1e-5, 1e5)
)


@given(st.lists(SIGNED_MAGNITUDES, min_size=1, max_size=40))
@example([2.0794415416798357])
@example([1e-5])
@example([0.1, 0.1, 0.1])
@settings(max_examples=300, deadline=None)
def test_exact_pvariance_equals_statistics_pvariance(xs):
    # The spectrum rows' variance must stay bit-identical to the statistics
    # module's, which sums the float squares exactly and rounds once.
    mean = statistics.fmean(xs)
    var = _pvariance(xs, mean)
    assert type(var) is float
    assert var == statistics.pvariance(xs, mu=mean)


def test_run_experiment_codec_error_rows(tmp_path):
    model_path = tmp_path / "skew.json"
    p = Distribution((Fraction(3, 4), Fraction(1, 4)))
    save_model(rank_one_sign_model(3, 3, [p] * 3), model_path)
    cfg = _config(
        tmp_path,
        model_path=str(model_path),
        kind="codec-error",
        n_grid=(3,),
        gamma_grid=(Fraction(1, 20), Fraction(1, 4)),
    )
    _, json_path = run_experiment(cfg)
    rows = [r for r in json.loads(json_path.read_text()) if r["statistic"] == "exact_error_prob"]
    assert len(rows) == 2
    errors = []
    for row in rows:
        num, den = row["exact"].split("/")
        errors.append(Fraction(int(num), int(den)))
    assert errors[0] >= errors[1]  # non-increasing in gamma


def test_run_experiment_full_rank_rows(tmp_path):
    a = Alphabet((-1, 1))
    model_path = tmp_path / "frank.json"
    save_model(ModelSpec(3, 2, 2, (a,) * 3, ((U2, U2),) * 3), model_path)
    cfg = _config(
        tmp_path, model_path=str(model_path), kind="full-rank", n_grid=(2,), trials=800
    )
    _, json_path = run_experiment(cfg)
    rows = json.loads(json_path.read_text())
    assert len(rows) == 3
    for row in rows:
        assert row["exact"] == "1/2"  # exact enumeration available at this size
        assert row["stderr"] > 0


def test_run_experiment_census_rows(tmp_path):
    model_path = tmp_path / "cubic.json"
    save_model(cubic_sign_model(2, U2, U2), model_path)
    cfg = _config(tmp_path, model_path=str(model_path), kind="census", n_grid=(2, 3))
    _, json_path = run_experiment(cfg)
    rows = json.loads(json_path.read_text())
    counts = [r for r in rows if r["statistic"] == "zero_tensor_count"]
    for row in counts:
        expected = Fraction(2 ** row["n"])
        num, den = row["exact"].split("/")
        assert Fraction(int(num), int(den)) == expected
        assert row["estimate"] == float(expected)
    probs = [r for r in rows if r["statistic"] == "zero_tensor_prob_closed_minus_brute"]
    assert all(r["exact"] == "0/1" for r in probs)


SIGN = Alphabet((-1, 1))
ZERO_ONE = Alphabet((0, 1))


@pytest.mark.parametrize(
    "m",
    [
        ModelSpec(3, 2, 2, (SIGN,) * 3, ((U2, U2),) * 3),  # order 3, not supersymmetric
        ModelSpec(2, 2, 2, (SIGN,) * 2, ((U2, U2),) * 2, supersymmetric=True),
        ModelSpec(3, 2, 2, (ZERO_ONE,) * 3, ((U2, U2),) * 3, supersymmetric=True),
        ModelSpec(2, 2, 2, (SIGN, ZERO_ONE), ((U2, U2),) * 2),
        ModelSpec(3, 2, 1, (SIGN,) * 3, ((U2,),) * 3, supersymmetric=True),
        rank_one_sign_model(2, 2, [U2, U2]),
    ],
    ids=["order3-plain", "order2-super", "cubic-0/1", "bilinear-0/1", "cubic-R1", "bilinear-R1"],
)
def test_near_miss_models_are_refused_by_both_example_shape_callers(tmp_path, m):
    assert example_shape(m) is None
    with pytest.raises(UnsupportedModelError):
        prob_zero_tensor(m)
    model_path = tmp_path / "near-miss.json"
    save_model(m, model_path)
    cfg = _config(tmp_path, model_path=str(model_path), kind="census", n_grid=(2,))
    with pytest.raises(UnsupportedModelError):
        run_experiment(cfg)


def test_budget_refusal_identifies_grid_point(tmp_path):
    cfg = _config(tmp_path, kind="codec-error", n_grid=(2, 9), budget=10_000)
    with pytest.raises(CpdzipError) as exc:
        run_experiment(cfg)
    assert "n=9" in str(exc.value)


def test_config_validation():
    with pytest.raises(CpdzipError):
        ExperimentConfig("m.json", "nope", (2,), (Fraction(1, 10),), 1, 0, "out")
    with pytest.raises(CpdzipError):
        ExperimentConfig("m.json", "spectrum", (), (Fraction(1, 10),), 1, 0, "out")
    with pytest.raises(CpdzipError):
        ExperimentConfig("m.json", "spectrum", (2,), (Fraction(1, 10),), 0, 0, "out")


def test_non_positive_gamma_is_refused_even_by_kinds_that_never_read_it(tmp_path):
    with pytest.raises(CpdzipError, match="positive"):
        ExperimentConfig("m.json", "spectrum", (2,), (Fraction(1, 10), Fraction(0)), 1, 0, "out")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(gamma_grid=["1/10", "-1/10"])))
    with pytest.raises(CpdzipError, match="malformed experiment config: .* positive, got -1/10"):
        load_experiment_config(path)


def test_load_experiment_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "model": "m.json",
                "kind": "spectrum",
                "n_grid": [4, 8],
                "gamma_grid": ["1/20"],
                "trials": 100,
                "seed": 7,
                "out": "results/spec",
            }
        )
    )
    cfg = load_experiment_config(path)
    assert cfg.kind == "spectrum"
    assert cfg.n_grid == (4, 8)
    assert cfg.gamma_grid == (Fraction(1, 20),)


def test_every_row_carries_exact_value_or_stderr(tmp_path):
    # the persistence contract: never a bare estimate
    model_path = _write_model(tmp_path)
    skew_path = tmp_path / "skew.json"
    save_model(
        rank_one_sign_model(3, 3, [Distribution((Fraction(3, 4), Fraction(1, 4)))] * 3),
        skew_path,
    )
    runs = [
        _config(tmp_path, kind="threshold", out=str(tmp_path / "r1")),
        _config(tmp_path, kind="spectrum", n_grid=(3,), trials=50, out=str(tmp_path / "r2")),
        _config(
            tmp_path,
            model_path=str(skew_path),
            kind="codec-error",
            n_grid=(2,),
            out=str(tmp_path / "r3"),
        ),
    ]
    for cfg in runs:
        _, json_path = run_experiment(cfg)
        for row in json.loads(json_path.read_text()):
            assert row["exact"] is not None or row["stderr"] is not None


def test_write_results_row_shape(tmp_path):
    from cpdzip.experiments import ResultRow

    rows = [
        ResultRow("threshold", 2, Fraction(1, 10), "log_M_per_n", 1.5, Fraction(65), 2.0, None, None, 1),
        ResultRow("spectrum", 4, None, "spectrum_mean", 2.1, None, 2.08, 0.01, 100, 1),
    ]
    csv_path, json_path = write_results(rows, tmp_path / "out")
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_HEADER)
    assert fields[-1] == ""  # ms column reserved, empty for reproducibility


def test_a_dotted_out_gets_its_suffixes_appended(tmp_path):
    runs = tmp_path / "runs"
    for version in ("a.v1", "a.v2"):  # neither run overwrites the other's files
        cfg = _config(tmp_path, kind="spectrum", n_grid=(2,), trials=5,
                      out=str(runs / version), emit_samples=True)
        assert run_experiment(cfg) == (runs / f"{version}.csv", runs / f"{version}.json")
    assert sorted(p.name for p in runs.iterdir()) == [
        f"{version}.{suffix}" for version in ("a.v1", "a.v2")
        for suffix in ("csv", "json", "samples.csv")
    ]


@pytest.mark.parametrize("out", ["", ".", "/", "./"])
def test_out_that_names_no_file_is_refused_before_any_row(tmp_path, out):
    with pytest.raises(CpdzipError, match="out must name a file"):
        ExperimentConfig("m.json", "spectrum", (2,), (Fraction(1, 10),), 1, 0, out)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(out=out)))
    with pytest.raises(CpdzipError, match="malformed experiment config: out must name a file"):
        load_experiment_config(path)


def _config_doc(**changes) -> dict:
    doc = {"model": "m.json", "kind": "spectrum", "n_grid": [4], "seed": 7, "out": "results/spec"}
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "changes",
    [
        {"n_grid": [4.0]},
        {"n_grid": [True]},
        {"n_grid": 4},
        {"n_grid": [0]},
        {"trials": "10"},
        {"trials": 2.5},
        {"seed": 7.0},
        {"seed": None},
        {"budget": "1000"},
        {"budget": 0},
        {"emit_samples": "false"},
        {"emit_samples": 1},
        {"model": 5},
        {"kind": ["spectrum"]},
        {"out": None},
        {"gamma_grid": "1/10"},
        {"gamma_grid": [0.1]},
    ],
)
def test_experiment_config_fields_are_never_coerced(tmp_path, changes):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc(**changes)))
    with pytest.raises(CpdzipError):
        load_experiment_config(path)


def test_experiment_config_not_json_is_a_cpdzip_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2")
    with pytest.raises(CpdzipError, match="not a JSON document"):
        load_experiment_config(path)


def test_experiment_config_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_config_doc()))
    cfg = load_experiment_config(path)
    assert (cfg.trials, cfg.budget, cfg.emit_samples) == (1, DEFAULT_BUDGET, False)
    assert cfg.gamma_grid == (Fraction(1, 10),)
