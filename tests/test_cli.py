import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import cpdzip
from cpdzip.analysis import cubic_sign_model, rank_one_sign_model
from cpdzip.cli import main
from cpdzip.model import Distribution, load_model, model_to_dict, save_model, uniform
from cpdzip.rng import DrawTable, draw_tuple, stream_rng
from cpdzip.tensors import (
    FactorMatrix,
    FactorTuple,
    cpd_compose,
    matrix_to_dict,
    tensor_from_dict,
    tensor_to_dict,
    zero_tensor,
)

U2 = uniform(2)


@pytest.fixture
def model_file(tmp_path) -> Path:
    path = tmp_path / "model.json"
    save_model(rank_one_sign_model(2, 3, [U2] * 3), path)
    return path


@pytest.fixture
def cubic_file(tmp_path) -> Path:
    path = tmp_path / "cubic.json"
    save_model(cubic_sign_model(2, U2, U2), path)
    return path


def test_validate_ok(model_file, capsys):
    assert main(["validate", "--model", str(model_file)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_reports_violations(tmp_path, capsys):
    bad = model_to_dict(rank_one_sign_model(2, 3, [U2] * 3))
    bad["dists"][0][0] = ["1/2", "1/3"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", "--model", str(path)]) == 1
    assert "not normalized" in capsys.readouterr().out


def test_sample_outputs_matrices(model_file, capsys):
    assert main(["sample", "--model", str(model_file), "--seed", "3", "--count", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["tuples"]) == 2
    assert len(payload["tuples"][0]) == 3  # one matrix per mode


def test_sample_refuses_a_denominator_above_2_to_64(tmp_path):
    # No 64-bit word is below such a column's rejection limit, so sampling
    # without the refusal never returns; the subprocess timeout turns that
    # hang into a failure.
    b = 2**64 + 1
    huge = Distribution((Fraction(1, b), Fraction(b - 1, b)))
    path = tmp_path / "huge.json"
    save_model(rank_one_sign_model(2, 2, [U2, huge]), path)
    assert main(["validate", "--model", str(path)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cpdzip.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "cpdzip.cli", "sample", "--model", str(path), "--seed", "1"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and str(b) in proc.stderr


def test_encode_decode_round_trip(model_file, tmp_path, capsys):
    mats = tuple(
        FactorMatrix(i + 1, tuple((v,) for v in vec))
        for i, vec in enumerate(((1, -1), (1, 1), (-1, 1)))
    )
    tensor = cpd_compose(FactorTuple(mats))
    tensor_path = tmp_path / "tensor.json"
    tensor_path.write_text(json.dumps(tensor_to_dict(tensor)))
    code_path = tmp_path / "tensor.tcpd"

    assert (
        main(
            [
                "encode",
                "--model", str(model_file),
                "--gamma", "1/10",
                "--input", str(tensor_path),
                "--out", str(code_path),
            ]
        )
        == 0
    )
    blob = code_path.read_bytes()
    assert blob[:4] == b"TCPD"

    assert (
        main(["decode", "--model", str(model_file), "--input", str(code_path)]) == 0
    )
    decoded = tensor_from_dict(json.loads(capsys.readouterr().out))
    assert decoded == tensor

    # decode refuses a gamma flag that contradicts the header
    assert (
        main(
            [
                "decode",
                "--model", str(model_file),
                "--gamma", "1/5",
                "--input", str(code_path),
            ]
        )
        == 1
    )


def test_codebook_stats(model_file, capsys):
    assert main(["codebook", "--model", str(model_file), "--gamma", "1/10", "--stats"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["size"] == 65
    assert stats["tuple_count"] == 64
    assert stats["distinct_tensors"] == 16
    assert stats["typicality_mass"] == ["1/1", "1/1", "1/1"]


def test_count_zero_tensor(cubic_file, tmp_path, capsys):
    tensor_path = tmp_path / "zero.json"
    tensor_path.write_text(json.dumps(tensor_to_dict(zero_tensor(3, 2))))
    assert main(["count", "--model", str(cubic_file), "--tensor", str(tensor_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_count"] == 4
    assert payload["full_rank_count"] == 0


def test_krank(tmp_path, capsys):
    x = FactorMatrix(1, ((1, 0, 1), (0, 1, 1), (0, 0, 0)))
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix_to_dict(x)))
    assert main(["krank", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"rank": 2, "kruskal_rank": 2}


def test_krank_refuses_a_matrix_whose_shape_fields_disagree(tmp_path, capsys):
    doc = dict(matrix_to_dict(FactorMatrix(1, ((1, 0), (0, 1)))), rows=5, cols=9)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(doc))
    assert main(["krank", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "'rows' and 'cols'" in captured.err


def test_verify_examples_fast(capsys):
    assert main(["verify-examples", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_experiment_runs_and_is_deterministic(model_file, tmp_path, capsys):
    cfg = {
        "model": str(model_file),
        "kind": "threshold",
        "n_grid": [2, 3],
        "gamma_grid": ["1/10"],
        "trials": 10,
        "seed": 21,
        "out": str(tmp_path / "results" / "thr"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    csv_path = Path(out_lines[0])
    first = csv_path.read_bytes()
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    assert csv_path.read_bytes() == first


def _experiment_config(model_file, tmp_path, **changes) -> Path:
    cfg = {
        "model": str(model_file),
        "kind": "threshold",
        "n_grid": [2],
        "seed": 21,
        "out": str(tmp_path / "results" / "thr"),
        **changes,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"kind": "nope"}, "unknown experiment kind 'nope'; expected one of "),
        ({"n_grid": []}, "n_grid must be non-empty"),
        ({"gamma_grid": []}, "gamma_grid must be non-empty"),
        ({"gamma_grid": ["0"]}, "gamma_grid entries must be positive, got 0"),
        ({"trials": 0}, "trials must be >= 1"),
        ({"n_grid": [2, 0]}, "n_grid entries must be >= 1"),
        ({"budget": 0}, "budget must be >= 1"),
        ({"out": "."}, "out must name a file, got '.'"),
        ({"seed": -1}, "seed must be in [0, 2^64), got -1"),
        ({"seed": 1 << 64}, f"seed must be in [0, 2^64), got {1 << 64}"),
    ],
    ids=["kind", "n_grid", "gamma_grid", "gamma", "trials", "n_entry", "budget", "out",
         "seed_negative", "seed_2_64"],
)
def test_every_config_refusal_prints_one_malformed_config_prefix(
    model_file, tmp_path, capsys, changes, message
):
    path = _experiment_config(model_file, tmp_path, **changes)
    assert main(["experiment", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed experiment config: {message}")
    assert captured.err.count("malformed experiment config") == 1
    assert not (tmp_path / "results").exists()


def test_experiment_refuses_an_empty_out_override(model_file, tmp_path, capsys):
    path = _experiment_config(model_file, tmp_path)
    assert main(["experiment", "--config", str(path), "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out must name a file, got ''\n"
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command", ["sample", "decode", "codebook", "count", "krank"])
def test_every_command_refuses_an_empty_out(command, model_file, cubic_file, tmp_path, capsys):
    # Each command runs as given; with --out "" it is refused and prints nothing.
    tensor_path = tmp_path / "zero.json"
    tensor_path.write_text(json.dumps(tensor_to_dict(zero_tensor(3, 2))))
    code_path = tmp_path / "zero.tcpd"
    assert main(_encode_args(model_file, tensor_path, code_path)) == 0
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps(matrix_to_dict(FactorMatrix(1, ((1, 0), (0, 1))))))
    argv = {
        "sample": ["sample", "--model", str(model_file), "--seed", "1"],
        "decode": ["decode", "--model", str(model_file), "--input", str(code_path)],
        "codebook": ["codebook", "--model", str(model_file), "--gamma", "1/10"],
        "count": ["count", "--model", str(cubic_file), "--tensor", str(tensor_path)],
        "krank": ["krank", "--input", str(matrix_path)],
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out must name a file, got ''\n"


def test_missing_model_file_is_reported(tmp_path, capsys):
    assert main(["validate", "--model", str(tmp_path / "nope.json")]) != 0


def test_sample_refuses_a_negative_count(model_file, capsys):
    argv = ["sample", "--model", str(model_file), "--seed", "1", "--count", "-2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 65) - 1])
def test_sample_refuses_a_seed_outside_64_bits_before_drawing(model_file, tmp_path, capsys, seed):
    # stream_seed reads the low 64 bits, so each of these seeds would repeat
    # the streams of the seed it reduces to (2^64 - 1, 0, 2^64 - 1)
    out = tmp_path / "samples.json"
    argv = ["sample", "--model", str(model_file), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: --seed must be in [0, 2^64), got {seed}\n"


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_sample_and_experiment_accept_the_ends_of_the_seed_range(
    model_file, tmp_path, capsys, seed
):
    assert main(["sample", "--model", str(model_file), "--seed", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == seed
    path = _experiment_config(model_file, tmp_path, kind="spectrum", trials=2, seed=seed)
    assert main(["experiment", "--config", str(path)]) == 0
    csv_path = Path(capsys.readouterr().out.splitlines()[0])
    assert csv_path.read_text().splitlines()[1].split(",")[9] == str(seed)


def test_sample_count_zero_gives_no_tuples(model_file, capsys):
    assert main(["sample", "--model", str(model_file), "--seed", "1", "--count", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"seed": 1, "tuples": []}


RANK_ONE_UNIFORM = Path(__file__).resolve().parents[1] / "models" / "rank_one_uniform.json"


@pytest.mark.parametrize("count", [0, 1, 3])
def test_sample_streams_the_text_of_one_json_document(
    model_file, cubic_file, tmp_path, capsys, count
):
    for path in (model_file, cubic_file):
        table = DrawTable(load_model(path))
        tuples = [
            [matrix_to_dict(x) for x in draw_tuple(table, stream_rng(7, t)).matrices]
            for t in range(count)
        ]
        expected = json.dumps({"seed": 7, "tuples": tuples}, indent=2, sort_keys=True) + "\n"
        argv = ["sample", "--model", str(path), "--seed", "7", "--count", str(count)]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "samples.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == expected


def test_sample_memory_does_not_grow_with_count(tmp_path):
    argv = ["sample", "--model", str(RANK_ONE_UNIFORM), "--seed", "1", "--count", "2000"]
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(tmp_path / "samples.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # the whole document held in memory peaks near 16.5 MiB


def _encode_args(model_file, tensor_path, out, gamma="1/10"):
    return [
        "encode",
        "--model", str(model_file),
        "--gamma", gamma,
        "--input", str(tensor_path),
        "--out", str(out),
    ]


def test_encode_gamma_beyond_u32_is_an_error(model_file, tmp_path, capsys):
    tensor_path = tmp_path / "zero.json"
    tensor_path.write_text(json.dumps(tensor_to_dict(zero_tensor(3, 2))))
    out = tmp_path / "zero.tcpd"
    assert main(_encode_args(model_file, tensor_path, out, gamma="1/4294967296")) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_encode_zero_denominator_entry_is_an_error(model_file, tmp_path, capsys):
    doc = tensor_to_dict(zero_tensor(3, 2))
    doc["entries"] = ["1/0"] * 8
    tensor_path = tmp_path / "bad.json"
    tensor_path.write_text(json.dumps(doc))
    assert main(_encode_args(model_file, tensor_path, tmp_path / "bad.tcpd")) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, field, size, message", [
    ("codebook", "dim", 20000, "mode-1 enumeration needs at least 2^20000 items, "),
    ("codebook", "dim", 10**8, "mode-1 enumeration needs at least 2^100000000 items, "),
    ("encode", "order", 20000, "order-20000 tensor of dim 2 needs at least 2^20000 entries, "),
    ("encode", "order", 10**8, "order-100000000 tensor of dim 2 needs at least 2^100000000 "),
    ("count", "order", 20000, "order-20000 tensor of dim 2 needs at least 2^20000 entries, "),
    ("count", "order", 10**8, "order-100000000 tensor of dim 2 needs at least 2^100000000 "),
])
def test_a_size_too_large_to_print_or_build_is_refused_at_once(
    model_file, tmp_path, capsys, command, field, size, message
):
    # |A|^(nR) and dim^order past Python's 4,300-digit print limit are named
    # by a power of two below them, and at 10^8 are never built
    doc = model_to_dict(load_model(model_file))
    doc["dim"] = size if field == "dim" else 4
    model_path = tmp_path / "sized.json"
    model_path.write_text(json.dumps(doc))
    tensor_path = tmp_path / "sized_tensor.json"
    tensor_path.write_text(json.dumps({"kind": "tensor", "order": size, "dim": 2, "entries": []}))
    argv = {
        "codebook": ["codebook", "--model", str(model_path), "--gamma", "1/10"],
        "encode": _encode_args(model_path, tensor_path, tmp_path / "sized.tcpd"),
        "count": ["count", "--model", str(model_path), "--tensor", str(tensor_path)],
    }[command]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and "Traceback" not in err


@pytest.mark.parametrize("gamma", ["0", "0/7"])
def test_encode_nonpositive_gamma_is_an_error(model_file, tmp_path, capsys, gamma):
    tensor_path = tmp_path / "zero.json"
    tensor_path.write_text(json.dumps(tensor_to_dict(zero_tensor(3, 2))))
    out = tmp_path / "zero.tcpd"
    assert main(_encode_args(model_file, tensor_path, out, gamma=gamma)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_encode_tensor_document_without_entries_is_an_error(model_file, tmp_path, capsys):
    doc = tensor_to_dict(zero_tensor(3, 2))
    del doc["entries"]
    tensor_path = tmp_path / "bad.json"
    tensor_path.write_text(json.dumps(doc))
    assert main(_encode_args(model_file, tensor_path, tmp_path / "bad.tcpd")) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_decode_does_not_sweep_the_tuple_space(model_file, tmp_path, capsys, monkeypatch):
    from cpdzip import codec

    tensor = cpd_compose(
        FactorTuple(tuple(FactorMatrix(i, ((1,), (-1,))) for i in (1, 2, 3)))
    )
    tensor_path = tmp_path / "tensor.json"
    tensor_path.write_text(json.dumps(tensor_to_dict(tensor)))
    code_path = tmp_path / "tensor.tcpd"
    assert main(_encode_args(model_file, tensor_path, code_path)) == 0
    monkeypatch.setattr(codec, "_space_index", None)
    assert main(["decode", "--model", str(model_file), "--input", str(code_path)]) == 0
    assert tensor_from_dict(json.loads(capsys.readouterr().out)) == tensor


# --- malformed input ends in "error: ...", never a traceback ---------------------------


def _not_json(tmp_path, name="broken.json") -> Path:
    path = tmp_path / name
    path.write_text('{"order": 3, ')
    return path


def _assert_error(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_validate_model_file_not_json(tmp_path, capsys):
    _assert_error(["validate", "--model", str(_not_json(tmp_path))], capsys)


def test_validate_model_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    _assert_error(["validate", "--model", str(path)], capsys)


@pytest.mark.parametrize(
    "field, value",
    [("supersymmetric", "false"), ("dim", 2.9), ("order", True), ("components", "1")],
)
def test_validate_refuses_coerced_model_fields(model_file, tmp_path, capsys, field, value):
    doc = json.loads(model_file.read_text())
    doc[field] = value
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(doc))
    _assert_error(["validate", "--model", str(path)], capsys)


def test_encode_model_file_not_json(tmp_path, capsys):
    tensor_path = tmp_path / "zero.json"
    tensor_path.write_text(json.dumps(tensor_to_dict(zero_tensor(3, 2))))
    _assert_error(_encode_args(_not_json(tmp_path), tensor_path, tmp_path / "z.tcpd"), capsys)


def test_encode_input_file_not_json(model_file, tmp_path, capsys):
    _assert_error(_encode_args(model_file, _not_json(tmp_path), tmp_path / "z.tcpd"), capsys)


@pytest.mark.parametrize("gamma", ["abc", "1/x", "0.1", ""])
def test_encode_malformed_gamma(model_file, tmp_path, capsys, gamma):
    tensor_path = tmp_path / "zero.json"
    tensor_path.write_text(json.dumps(tensor_to_dict(zero_tensor(3, 2))))
    out = tmp_path / "zero.tcpd"
    _assert_error(_encode_args(model_file, tensor_path, out, gamma=gamma), capsys)
    assert not out.exists()


def test_codebook_malformed_gamma(model_file, capsys):
    _assert_error(["codebook", "--model", str(model_file), "--gamma", "abc"], capsys)


def test_codebook_model_file_not_json(tmp_path, capsys):
    _assert_error(["codebook", "--model", str(_not_json(tmp_path)), "--gamma", "1/10"], capsys)


def test_a_directory_as_input_model_or_out_is_a_one_line_error(model_file, tmp_path, capsys):
    tensor_path = tmp_path / "zero.json"
    tensor_path.write_text(json.dumps(tensor_to_dict(zero_tensor(3, 2))))
    code_path = tmp_path / "zero.tcpd"
    assert main(_encode_args(model_file, tensor_path, code_path)) == 0
    model, code = str(model_file), str(code_path)
    for argv in (
        _encode_args(model_file, tmp_path, code_path),
        ["decode", "--model", model, "--input", str(tmp_path)],
        ["validate", "--model", str(tmp_path)],
        ["codebook", "--model", str(tmp_path), "--gamma", "1/10"],
        _encode_args(model_file, tensor_path, tmp_path),
        ["decode", "--model", model, "--input", code, "--out", str(tmp_path)],
        ["sample", "--model", model, "--seed", "1", "--out", str(tmp_path)],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "directory" in err.lower(), (argv, err)


def _experiment_config(model_file, tmp_path, **changes) -> Path:
    cfg = {
        "model": str(model_file),
        "kind": "threshold",
        "n_grid": [2],
        "seed": 21,
        "out": str(tmp_path / "results" / "thr"),
    }
    cfg.update(changes)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_experiment_config_not_json(tmp_path, capsys):
    _assert_error(["experiment", "--config", str(_not_json(tmp_path))], capsys)


def test_experiment_model_file_not_json(tmp_path, capsys):
    cfg = _experiment_config(_not_json(tmp_path, "model.json"), tmp_path)
    _assert_error(["experiment", "--config", str(cfg)], capsys)


@pytest.mark.parametrize(
    "changes",
    [
        {"gamma_grid": ["abc"]},
        {"seed": "21"},
        {"trials": 2.5},
        {"n_grid": [2.0]},
        {"emit_samples": "false"},
        {"budget": True},
    ],
)
def test_experiment_malformed_config_field(model_file, tmp_path, capsys, changes):
    cfg = _experiment_config(model_file, tmp_path, **changes)
    _assert_error(["experiment", "--config", str(cfg)], capsys)
    assert not (tmp_path / "results").exists()
