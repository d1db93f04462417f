"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import math
import time
from fractions import Fraction
from itertools import product

from cpdzip.analysis import (
    banded_rows_matrix_tensor,
    bilinear_sign_model,
    brute_force_zero_prob,
    cubic_census_classification,
    cubic_sign_model,
    cubic_sign_tensor,
    exact_rank_deficiency_prob,
    full_rank_prob_bound,
    prob_zero_tensor,
    rank_one_sign_model,
    uniqueness_census,
)
from cpdzip.census import count_factorizations, gamma_bound
from cpdzip.codec import (
    build_codebook,
    codeword_from_bytes,
    codeword_to_bytes,
    decode,
    encode,
    measure_scheme,
)
from cpdzip.experiments import ExperimentConfig, run_experiment
from cpdzip.model import (
    Alphabet,
    Distribution,
    ModelSpec,
    save_model,
    theoretical_threshold,
    uniform,
)
from cpdzip.rng import sample_tuple, stream_rng
from cpdzip.tensors import cpd_compose, rank_exact, zero_tensor
from cpdzip.typicality import TypicalityParams, spectrum_samples

U2 = uniform(2)


class _Criterion:
    def __init__(self, num: int, description: str, limit_s: float):
        self.num = num
        self.description = description
        self.limit = limit_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE criterion-{self.num} {status}: {self.description} "
            f"({elapsed:.1f}s, limit {self.limit:.0f}s)"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.num} exceeded its runtime limit: "
                f"{elapsed:.1f}s >= {self.limit}s"
            )
        return False


def test_criterion_1_cubic_zero_tensor_counts():
    with _Criterion(1, "supersymmetric cubic zero-tensor count is 2^n, n=2..5", 60):
        for n in (2, 3, 4, 5):
            m = cubic_sign_model(n, U2, U2)
            census = count_factorizations(zero_tensor(3, n), m)
            assert census.total_count == 2**n


def test_criterion_2_cubic_trichotomy():
    with _Criterion(
        2, "cubic counts 2 and 1 at n=4; exhaustive n=3 census fully classified", 120
    ):
        n = 4
        m = cubic_sign_model(n, U2, U2)
        t_two = cubic_sign_tensor((1, 1, 1, 1), (-1, -1, -1, 1))
        assert count_factorizations(t_two, m).total_count == 2
        t_one = cubic_sign_tensor((1, 1, 1, 1), (1, 1, 1, 1))
        assert count_factorizations(t_one, m).total_count == 1
        rows = cubic_census_classification(3)
        assert all(r.ok for r in rows)


def test_criterion_3_bilinear_counts():
    with _Criterion(
        3, "order-2 zero count 2^(2n+1) for n=2,3; banded count 2^(n-m+2) at n=4", 120
    ):
        for n in (2, 3):
            m = bilinear_sign_model(n, U2, U2, U2, U2)
            census = count_factorizations(zero_tensor(2, n), m)
            assert census.total_count == 2 ** (2 * n + 1)
        n = 4
        m = bilinear_sign_model(n, U2, U2, U2, U2)
        for m_rows in (1, 2, 3):
            t = banded_rows_matrix_tensor(n, m_rows)
            assert count_factorizations(t, m).total_count == 2 ** (n - m_rows + 2)


def test_criterion_4_probability_closed_forms():
    with _Criterion(
        4, "zero-tensor probability closed forms equal brute force exactly", 60
    ):
        skew_p = Distribution((Fraction(1, 4), Fraction(3, 4)))
        skew_q = Distribution((Fraction(2, 3), Fraction(1, 3)))
        for n in (2, 3):
            for m in (cubic_sign_model(n, U2, U2), cubic_sign_model(n, skew_p, skew_q)):
                assert prob_zero_tensor(m) == brute_force_zero_prob(m)
        m2 = bilinear_sign_model(2, U2, U2, U2, U2)
        assert prob_zero_tensor(m2) == brute_force_zero_prob(m2)


def test_criterion_5_rank_deficiency_bounds():
    with _Criterion(
        5, "exact rank-deficiency probability <= zeta at (n,2), n=2..4, both models", 60
    ):
        a = Alphabet((-1, 1))
        skew = Distribution((Fraction(3, 4), Fraction(1, 4)))
        for dist in (U2, skew):
            for n in (2, 3, 4):
                m = ModelSpec(3, n, 2, (a,) * 3, ((dist, dist),) * 3)
                zetas = full_rank_prob_bound(m).zeta_per_mode
                for mode in (1, 2, 3):
                    assert exact_rank_deficiency_prob(m, mode) <= zetas[mode - 1]

        # independent 16-matrix oracle at (2, 2) uniform: singular iff ad = bc
        singular = sum(
            1 for a_, b_, c_, d_ in product((-1, 1), repeat=4) if a_ * d_ == b_ * c_
        )
        assert Fraction(singular, 16) == Fraction(1, 2)
        m = ModelSpec(3, 2, 2, (a,) * 3, ((U2, U2),) * 3)
        assert exact_rank_deficiency_prob(m, 1) == Fraction(1, 2)


def test_criterion_6_essential_uniqueness():
    with _Criterion(
        6, ">= 100 seeded full-rank tuples at n=4: all factorizations certified", 600
    ):
        a = Alphabet((-1, 1))
        m = ModelSpec(3, 4, 2, (a,) * 3, ((U2, U2),) * 3)
        bound = gamma_bound(m)
        certified = 0
        trial = 0
        max_class = 0
        while certified < 100:
            ft = sample_tuple(m, stream_rng(20240817, trial))
            trial += 1
            assert trial < 5000  # full-rank tuples are common at this size
            if not all(rank_exact(x.rows) == 2 for x in ft.matrices):
                continue
            t = cpd_compose(ft)
            cert = uniqueness_census(t, m)
            assert cert.violations == ()
            assert cert.full_rank_count <= bound
            for rel in cert.relations:
                for r in range(2):
                    lam_prod = math.prod(
                        (rel.lambdas[i][r] for i in range(3)), start=Fraction(1)
                    )
                    assert lam_prod == 1
            max_class = max(max_class, cert.full_rank_count)
            certified += 1
        assert certified == 100
        assert max_class <= bound


def _decode_encode_identity_exhaustive(cb):
    for key, index in cb.tensor_to_index.items():
        t = cpd_compose(cb.tuple_at(index))
        assert t.key() == key
        cw = encode(t, cb)
        assert cw.index == index and cw.flag == 0
        assert decode(cw, cb) == t


def test_criterion_7_codec_correctness_and_length():
    with _Criterion(
        7,
        "codec identity, |M| length bound, exact error <= 1 - mass product, "
        "error non-increasing in gamma (n=2..6, both models)",
        300,
    ):
        gammas = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4))
        skew = Distribution((Fraction(3, 4), Fraction(1, 4)))
        for dists in ([U2] * 3, [skew] * 3):
            for n in range(2, 7):
                m = rank_one_sign_model(n, 3, dists)
                errors = []
                for gamma in gammas:
                    p = TypicalityParams(gamma, n)
                    cb = build_codebook(m, p)
                    _decode_encode_identity_exhaustive(cb)
                    bound = n * (
                        theoretical_threshold(m) + 3 * 1 * float(gamma)
                    ) + math.log(2)
                    assert cb.log_size_nats <= bound + 1e-9
                    report = measure_scheme(m, p)
                    assert report.exact_error_prob <= report.error_prob_bound
                    assert report.threshold_per_n <= (
                        theoretical_threshold(m) + 3 * float(gamma) + math.log(2) / n
                    ) + 1e-9
                    errors.append(report.exact_error_prob)
                assert all(x >= y for x, y in zip(errors, errors[1:]))


def test_criterion_8_spectrum_concentration():
    with _Criterion(
        8, "spectrum mean within 3 SE of the entropy sum; variance halves at 2n", 60
    ):
        dists = [
            Distribution((Fraction(1, 4), Fraction(3, 4))),
            Distribution((Fraction(2, 3), Fraction(1, 3))),
            Distribution((Fraction(3, 5), Fraction(2, 5))),
        ]
        trials = 10_000
        variances = {}
        for n in (8, 16):
            m = rank_one_sign_model(n, 3, dists)
            samples = spectrum_samples(m, trials, seed=4096)
            mean = math.fsum(samples) / trials
            var = math.fsum((v - mean) ** 2 for v in samples) / trials
            se = math.sqrt(var / trials)
            assert abs(mean - theoretical_threshold(m)) <= 3 * se
            variances[n] = var
        ratio = variances[16] / variances[8]
        assert 0.375 <= ratio <= 0.625


def test_criterion_9_reproducibility(tmp_path):
    with _Criterion(
        9, "byte-identical experiment reruns; bit-exact codeword round-trips", 30
    ):
        model_path = tmp_path / "model.json"
        save_model(rank_one_sign_model(3, 3, [U2] * 3), model_path)
        cfg = ExperimentConfig(
            model_path=str(model_path),
            kind="threshold",
            n_grid=(2, 3),
            gamma_grid=(Fraction(1, 10), Fraction(1, 4)),
            trials=20,
            seed=99,
            out=str(tmp_path / "results" / "run"),
        )
        csv1, json1 = run_experiment(cfg)
        blob_csv, blob_json = csv1.read_bytes(), json1.read_bytes()
        csv2, json2 = run_experiment(cfg)
        assert csv2.read_bytes() == blob_csv
        assert json2.read_bytes() == blob_json

        cfg2 = ExperimentConfig(
            model_path=str(model_path),
            kind="spectrum",
            n_grid=(4,),
            gamma_grid=(Fraction(1, 10),),
            trials=200,
            seed=7,
            out=str(tmp_path / "results" / "spec"),
        )
        s1 = run_experiment(cfg2)[0].read_bytes()
        s2 = run_experiment(cfg2)[0].read_bytes()
        assert s1 == s2

        m = rank_one_sign_model(2, 3, [U2] * 3)
        p = TypicalityParams(Fraction(1, 10), 2)
        cb = build_codebook(m, p)
        for index in range(0, cb.tuple_count, 7):
            t = cpd_compose(cb.tuple_at(index))
            cw = encode(t, cb)
            wire = codeword_to_bytes(cw)
            parsed = codeword_from_bytes(wire)
            assert parsed == cw
            assert codeword_to_bytes(parsed) == wire
            assert decode(parsed, cb) == t
