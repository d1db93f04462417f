"""cpdzip: exact compression laboratory for finite-alphabet low-rank tensors.

Importing the package loads none of its modules: each name below is read
from its module on first use (PEP 562), so a command pays only for what it
calls.
"""

import importlib

_EXPORTS = {
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
    "analysis": (
        "FactorizationCensus", "UniquenessCertificate", "UnsupportedModelError",
        "bilinear_sign_model", "count_factorizations", "cubic_sign_model",
        "exact_rank_deficiency_prob", "full_rank_prob_bound", "gamma_bound",
        "prob_zero_tensor", "rank_one_sign_model", "uniqueness_census",
        "verify_examples",
    ),
    "rng": ("mix64", "sample_matrix", "sample_tuple", "stream_rng", "stream_seed"),
    "experiments": (
        "ExperimentConfig", "ResultRow", "estimate_full_rank_prob",
        "load_experiment_config", "run_experiment",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
