"""Golden digests of the result files of every experiment kind.

Each case runs one small fixed config, with samples emitted, and compares
the SHA-256 of every file it writes (CSV, JSON and, for spectrum, the
samples CSV) with a digest recorded before the experiments module was last
restructured.  A change to any row, field, number format or file layout
shows here as a digest mismatch.
"""

import hashlib
from fractions import Fraction

import pytest

from cpdzip import analysis, experiments
from cpdzip.analysis import bilinear_sign_model, cubic_sign_model, rank_one_sign_model
from cpdzip.experiments import ExperimentConfig, run_experiment
from cpdzip.model import Alphabet, Distribution, ModelSpec, save_model, uniform

U2 = uniform(2)
SKEW = Distribution((Fraction(3, 4), Fraction(1, 4)))
G = (Fraction(1, 10), Fraction(1, 4))

MODELS = {
    "rank-one-uniform": rank_one_sign_model(3, 3, [U2] * 3),
    "rank-one-skew": rank_one_sign_model(3, 3, [SKEW] * 3),
    "cubic": cubic_sign_model(
        2, (Fraction(1, 4), Fraction(3, 4)), (Fraction(2, 3), Fraction(1, 3))
    ),
    "bilinear": bilinear_sign_model(2, U2, SKEW, SKEW, U2),
    "order-3-rank-2": ModelSpec(3, 2, 2, (Alphabet((-1, 1)),) * 3, ((U2, SKEW),) * 3),
}

# (case, model, kind, n_grid, gamma_grid, trials, seed)
CASES = [
    ("threshold-uniform", "rank-one-uniform", "threshold", (2, 3, 4), G, 1, 5),
    ("threshold-cubic", "cubic", "threshold", (2, 3), G, 1, 6),
    ("codec-error-skew", "rank-one-skew", "codec-error", (2, 3), (Fraction(1, 20),) + G, 1, 7),
    ("codec-error-bilinear", "bilinear", "codec-error", (2, 3), G, 1, 8),
    ("spectrum-skew", "rank-one-skew", "spectrum", (3, 4), G, 40, 9),
    ("spectrum-cubic", "cubic", "spectrum", (2, 3), G, 25, 10),
    ("full-rank", "order-3-rank-2", "full-rank", (2, 3), G, 60, 11),
    ("census-cubic", "cubic", "census", (2, 3), G, 1, 12),
    ("census-bilinear", "bilinear", "census", (2, 3, 4), G, 1, 13),
]

DIGESTS = {
    "threshold-uniform": {
        ".csv": "6b51af07abb8dd6aa8dc6c2be1a77b709e4b2fed573df4980af44619a1ef543a",
        ".json": "6762e4209e5155ac8795067829b304b49493bc03e75d622758e353284120a4a4",
    },
    "threshold-cubic": {
        ".csv": "2694eb527cb84397ca066b02e7c6f67c6e7eed0a72dbf8bdfe22a39e3338ea38",
        ".json": "727b76ede65620b5979f86ddbccb30648a76c0f9b526d8071b37c3ddf642479e",
    },
    "codec-error-skew": {
        ".csv": "0542c7140d72f7217986ed8195238c66283f0fe3e317c7d830993e00aa86b0a2",
        ".json": "b8f364ffcf4f8c88e80c54da4747bb1aae82e1020cc06a3981fe9be14b6c9c2b",
    },
    "codec-error-bilinear": {
        ".csv": "6f8971ab8a2bf3662f7a853c0696788821d32aacd680435a68a53e498a83f498",
        ".json": "c6e1dcd00379214fef472fe46841fcd3f526fe2a8666994488e6df6478304c4d",
    },
    "spectrum-skew": {
        ".csv": "6be38ea0161cd03551ac2c0c8fefd4ce4ef32087b06092b0686ed37546fcc2a3",
        ".json": "8ef8371ebdd6f364e8c94b0ef01ec7a83b24b5ae2a1eee376254233e70277795",
        ".samples.csv": "072cf4bc5a13d0937bfc5940c41624fca60172ba5fabdd79471c73c41746675d",
    },
    "spectrum-cubic": {
        ".csv": "6b6cdbaf2874723671a8eb0383ab034b52a7a2198dad57d98486577ba5bfee7d",
        ".json": "3ad2d1b7b528002c1cbfbdc44ffe3a25a22e4779bf4a116fc34e9f46930d705b",
        ".samples.csv": "8340cf811551fb2adffdcd366539d4ff5ab7a9da49254974766ddec7815d5b55",
    },
    "full-rank": {
        ".csv": "9291cfd165cf0d77129293577ddef6fc27831812cc269c9aeb495df752e196d0",
        ".json": "bcf1f0815df4e4953f2e427e36ec53b49200cf4fce1a3b15981d46fa8d9bb90a",
    },
    "census-cubic": {
        ".csv": "5eb13c0558dc6934fcf6704163b92f0e04d8598da01e0bccb4c5c8f51bd0c213",
        ".json": "5b9746579a76702b8dce51fc89012027f90f0c4f5d72c826b3f8a6b625abb055",
    },
    "census-bilinear": {
        ".csv": "2c53cda21c78143421b45449199ef1e6d11e5f6c2309f492458b982c73a7573e",
        ".json": "c22609f541a52949941dcc16ecbf36b4c3b38bd69fcd97bb234be64accb2d2bc",
    },
}


def run_case(tmp_path, case, model, kind, n_grid, gamma_grid, trials, seed) -> dict[str, str]:
    """Run one case; the SHA-256 of each file it wrote, by file suffix."""
    model_path = tmp_path / f"{model}.json"
    save_model(MODELS[model], model_path)
    out = tmp_path / "results" / case
    run_experiment(
        ExperimentConfig(
            str(model_path), kind, n_grid, gamma_grid, trials, seed, str(out),
            emit_samples=True,
        )
    )
    return {
        path.name[len(case):]: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.parent.iterdir())
    }


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_result_files_match_their_golden_digests(tmp_path, case):
    assert run_case(tmp_path, *case) == DIGESTS[case[0]]


@pytest.mark.parametrize("case", [c for c in CASES if c[2] == "census"], ids=lambda c: c[0])
def test_census_builds_one_table_per_grid_point(tmp_path, monkeypatch, case):
    built = []

    def counted(m, budget, what, _build=experiments.space_table):
        built.append(m.dim)
        return _build(m, budget, what)

    for module in (analysis, experiments):
        monkeypatch.setattr(module, "space_table", counted)
    assert run_case(tmp_path, *case) == DIGESTS[case[0]]
    assert built == list(case[3])
