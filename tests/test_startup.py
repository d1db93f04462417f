"""What a fresh interpreter loads to import the package or run a command.

Each command runs in a new process, so its start-up is paid on every call:
``import cpdzip`` loads no module of the package, and no command loads mpmath
or a module it does not call.  ``count`` loads the census and the sweep engine
but neither ``analysis`` nor ``typicality``.  ``experiment`` loads only its
kind's code: ``spectrum`` none of ``analysis``, ``codec``, ``sweep`` and
``tensors``, ``full-rank`` and ``census`` ``analysis`` alone, ``threshold``
and ``codec-error`` ``codec`` alone.  No command loads ``dataclasses`` (nor
``inspect``, which it pulls in), only the commands that hash a model load
``hashlib``, and ``spectrum`` computes its statistics without ``statistics``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpdzip
from cpdzip.analysis import cubic_sign_model, rank_one_sign_model
from cpdzip.model import save_model, uniform
from cpdzip.tensors import FactorMatrix, matrix_to_dict, tensor_to_dict, zero_tensor

SRC = Path(cpdzip.__file__).parents[1]

# Every name the package exported before its modules were loaded lazily,
# with the module that defines it.
EXPORTS = {
    "model": (
        "Alphabet", "BudgetExceededError", "CpdzipError", "DEFAULT_BUDGET",
        "Distribution", "ModelSpec", "ModelValidationError", "canonical_model_json",
        "entropy", "load_model", "model_from_dict", "model_hash", "model_to_dict",
        "save_model", "theoretical_threshold", "uniform", "validate",
    ),
    "tensors": (
        "ExactTensor", "FactorMatrix", "FactorTuple", "ShapeError", "cpd_compose",
        "khatri_rao", "khatri_rao_chain", "kruskal_rank",
        "outer_product", "rank_exact", "unfold", "zero_tensor",
    ),
    "typicality": (
        "TypeTable", "TypicalEnumeration", "TypicalityParams",
        "TypicalityUndecidableError", "enumerate_typical", "is_typical_matrix",
        "log_prob_matrix", "matrix_probability", "spectrum_samples", "type_table",
        "typicality_mass",
    ),
    "codec": (
        "Codebook", "Codeword", "CodewordRangeError", "DecodeBook", "DecodeError",
        "SchemeReport", "build_codebook", "build_decode_book", "codeword_from_bytes",
        "codeword_to_bytes", "decode", "encode", "measure_scheme",
    ),
    "census": ("FactorizationCensus", "count_factorizations", "gamma_bound"),
    "analysis": (
        "UniquenessCertificate", "UnsupportedModelError", "bilinear_sign_model",
        "cubic_sign_model", "exact_rank_deficiency_prob", "full_rank_prob_bound",
        "prob_zero_tensor", "rank_one_sign_model", "uniqueness_census",
        "verify_examples",
    ),
    "rng": ("mix64", "sample_matrix", "sample_tuple", "stream_rng", "stream_seed"),
    "experiments": (
        "ExperimentConfig", "ResultRow", "estimate_full_rank_prob",
        "load_experiment_config", "run_experiment",
    ),
}


def loaded_by(*args: str, cwd: Path) -> set[str]:
    """Modules that a fresh ``python -X importtime ARGS`` imports; the run
    must succeed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, timeout=60, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_importing_the_package_loads_none_of_its_modules(tmp_path):
    loaded = loaded_by("-c", "import cpdzip", cwd=tmp_path)
    assert "cpdzip" in loaded
    assert not {m for m in loaded if m.startswith("cpdzip.")}
    assert "mpmath" not in loaded


@pytest.fixture
def codec_files(tmp_path):
    model = tmp_path / "model.json"
    save_model(rank_one_sign_model(2, 3, [uniform(2)] * 3), model)
    tensor = tmp_path / "zero.json"
    tensor.write_text(json.dumps(tensor_to_dict(zero_tensor(3, 2))))
    return model, tensor, tmp_path / "zero.tcpd"


def test_encode_and_decode_load_no_census_experiment_or_sampling_code(codec_files, tmp_path):
    model, tensor, code = map(str, codec_files)
    encode = ["encode", "--model", model, "--gamma", "1/10", "--input", tensor, "--out", code]
    decode = ["decode", "--model", model, "--input", code, "--out", str(tmp_path / "t.json")]
    for argv in (encode, decode):
        loaded = loaded_by("-m", "cpdzip.cli", *argv, cwd=tmp_path)
        assert "cpdzip.codec" in loaded
        unwanted = {"mpmath", "cpdzip.analysis", "cpdzip.census", "cpdzip.experiments",
                    "cpdzip.rng"}
        assert not loaded & unwanted, (argv[0], loaded & unwanted)


@pytest.fixture
def command_argvs(codec_files, tmp_path):
    """A succeeding argv for every command but ``experiment``, in an order
    where ``decode`` reads what ``encode`` wrote."""
    model, tensor, code = map(str, codec_files)
    cubic = tmp_path / "cubic.json"
    save_model(cubic_sign_model(2, uniform(2), uniform(2)), cubic)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(matrix_to_dict(FactorMatrix(1, ((1, -1), (1, 1))))))
    out = str(tmp_path / "out.json")
    return {
        "validate": ["validate", "--model", model],
        "sample": ["sample", "--model", model, "--seed", "1", "--out", out],
        "encode": ["encode", "--model", model, "--gamma", "1/10", "--input", tensor, "--out", code],
        "decode": ["decode", "--model", model, "--input", code, "--out", out],
        "codebook": ["codebook", "--model", model, "--gamma", "1/10", "--out", out],
        "count": ["count", "--model", str(cubic), "--tensor", tensor, "--out", out],
        "krank": ["krank", "--input", str(matrix), "--out", out],
        "verify-examples": ["verify-examples", "--fast"],
    }


# The commands that hash a model (the codeword header's digest).
HASHING = {"encode", "decode", "codebook"}


def test_no_command_loads_dataclasses_and_only_the_codec_commands_load_hashlib(
    command_argvs, tmp_path
):
    # -S, since a site-packages start-up hook may import any of these first.
    for command, argv in command_argvs.items():
        loaded = loaded_by("-S", "-m", "cpdzip.cli", *argv, cwd=tmp_path)
        assert not loaded & {"dataclasses", "inspect"}, (command, loaded & {"dataclasses", "inspect"})
        assert ("hashlib" in loaded) == (command in HASHING), command


def test_count_loads_no_codec_or_experiment_code(tmp_path):
    model = tmp_path / "cubic.json"
    save_model(cubic_sign_model(2, uniform(2), uniform(2)), model)
    tensor = tmp_path / "zero.json"
    tensor.write_text(json.dumps(tensor_to_dict(zero_tensor(3, 2))))
    argv = ["count", "--model", str(model), "--tensor", str(tensor), "--out", str(tmp_path / "c.json")]
    loaded = loaded_by("-m", "cpdzip.cli", *argv, cwd=tmp_path)
    assert {"cpdzip.census", "cpdzip.sweep"} <= loaded
    # the census needs no certificate, example check or typicality decision
    unwanted = {"mpmath", "cpdzip.analysis", "cpdzip.typicality", "cpdzip.codec",
                "cpdzip.experiments"}
    assert not loaded & unwanted, loaded & unwanted


# The package modules that each experiment kind loads and must not load.
KIND_MODULES = {
    "spectrum": (set(), {"cpdzip.analysis", "cpdzip.codec", "cpdzip.sweep", "cpdzip.tensors"}),
    "threshold": ({"cpdzip.codec"}, {"cpdzip.analysis"}),
    "codec-error": ({"cpdzip.codec"}, {"cpdzip.analysis"}),
    "full-rank": ({"cpdzip.analysis"}, {"cpdzip.codec"}),
    "census": ({"cpdzip.analysis"}, {"cpdzip.codec"}),
}


@pytest.mark.parametrize("kind", sorted(KIND_MODULES))
def test_experiment_loads_only_its_kinds_code(tmp_path, kind):
    model = tmp_path / "model.json"
    save_model(cubic_sign_model(2, uniform(2), uniform(2)), model)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "model": str(model), "kind": kind, "n_grid": [2], "trials": 3, "seed": 1,
        "out": str(tmp_path / "out"),
    }))
    argv = ("-m", "cpdzip.cli", "experiment", "--config", str(config))
    loaded = loaded_by(*argv, cwd=tmp_path)
    wanted, unwanted = KIND_MODULES[kind]
    assert "cpdzip.experiments" in loaded
    assert wanted <= loaded, wanted - loaded
    assert not loaded & (unwanted | {"mpmath"}), loaded & (unwanted | {"mpmath"})
    # Result files are written without tempfile, no record loads dataclasses
    # and no experiment hashes a model.  A site-packages start-up hook (a .pth
    # file) may import any of them before the command runs, so this run skips
    # site (-S); the command needs nothing from site-packages.
    bare = loaded_by("-S", *argv, cwd=tmp_path)
    unwanted = {"tempfile", "dataclasses", "inspect", "hashlib"}
    if kind == "spectrum":
        unwanted.add("statistics")
    assert not bare & unwanted, bare & unwanted


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_exported_name_is_its_module_attribute(module):
    home = importlib.import_module(f"cpdzip.{module}")
    for name in EXPORTS[module]:
        namespace = {}
        exec(f"from cpdzip import {name} as value", namespace)
        assert namespace["value"] is getattr(home, name), name
        assert getattr(cpdzip, name) is getattr(home, name), name


def test_star_import_gives_every_exported_name():
    assert sorted(cpdzip.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        cpdzip.no_such_name
    with pytest.raises(ImportError):
        exec("from cpdzip import no_such_name")
