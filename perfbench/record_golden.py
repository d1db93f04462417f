"""Record the golden output digests the workloads check against.

    python3 perfbench/record_golden.py [--profile full|smoke]

Computes the expected output of every pool item (see ``inputs``) with the
checked-out cpdzip and rewrites that profile's section of ``golden.json``.
Run it only when an output is meant to change, and say why in the commit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from fractions import Fraction
from itertools import product

import inputs
import workloads
from workloads import (
    certificate_digest, digest, enumeration_digest, estimates_digest,
    files_digest,
    rows_digest, scheme_digest,
)

sys.path.insert(0, str(workloads.SRC))

from cpdzip import analysis, codec, experiments, model, tensors, typicality  # noqa: E402

HEADER_BYTES = 49  # magic, version, N, R, n, gamma, model hash


def _codebook_golden(m, gamma: str, n: int, pool: int) -> dict:
    cb = codec.build_codebook(m, typicality.TypicalityParams(Fraction(gamma), n))
    indices = []
    for i in range(pool):
        cw = codec.encode(tensors.tensor_from_dict(inputs.codec_request_doc(n, i, False)), cb)
        indices.append(cw.index)
    bad = tensors.tensor_from_dict(inputs.codec_request_doc(n, 0, True))
    fallback = codec.encode(bad, cb)
    assert fallback.index == cb.fallback_index
    wire = codec.codeword_to_bytes(fallback)
    return {
        "header": wire[:HEADER_BYTES].hex(),
        "fallback": [cb.fallback_index, digest(tensors.tensor_to_dict(codec.decode(fallback, cb)))],
        "index": indices,
    }


def record_codec(prof, work) -> dict:
    n = prof.codec_n
    out = {"scheme": {}, "header": {}, "fallback": {}, "index": {}}
    for label, cols in (("uniform", inputs.UNIFORM), ("skewed", inputs.SKEWED)):
        m = model.model_from_dict(inputs.model_doc(3, n, [cols]))
        for g in prof.codec_gammas:
            params = typicality.TypicalityParams(Fraction(g), n)
            cb = codec.build_codebook(m, params)
            out["scheme"][f"{label} {g}"] = scheme_digest(cb, codec.measure_scheme(m, params))
            if label == "uniform":
                book = _codebook_golden(m, g, n, prof.codec_pool)
                for key in ("header", "fallback", "index"):
                    out[key][g] = book[key]
    m5 = model.model_from_dict(inputs.model_doc(3, prof.codec_cli_n, [inputs.UNIFORM]))
    book = _codebook_golden(m5, "1/10", prof.codec_cli_n, prof.codec_cli_pool)
    out["cli"] = {"header": book["header"], "fallback_index": book["fallback"][0],
                  "index": book["index"]}
    return out


def record_census(prof, work) -> dict:
    out = {"verify": rows_digest(analysis.verify_examples(prof.verify_fast))}
    mc = model.model_from_dict(inputs.model_doc(3, prof.census_n, [inputs.UNIFORM] * 2))
    out["uniqueness"] = [
        certificate_digest(analysis.uniqueness_census(
            tensors.tensor_from_dict(inputs.census_pool_doc(prof.census_n, i)), mc))
        for i in range(prof.census_requests)
    ]
    n = prof.count_cli_n
    model_path = inputs.write_json(work / "count-model.json", inputs.model_doc(2, n, [inputs.UNIFORM] * 2))
    out["count_cli"] = {}
    for pattern in product((0, 1), repeat=n):
        path = inputs.write_json(work / "count.json", inputs.banded_doc(pattern))
        run = workloads._run([sys.executable, "-m", "cpdzip.cli", "count",
                              "--model", str(model_path), "--tensor", str(path)])
        assert run.returncode == 0, run.stderr
        out["count_cli"][inputs.pattern_key(pattern)] = digest(json.loads(run.stdout))
    return out


def record_typical(prof, work) -> dict:
    model_path = inputs.write_json(
        work / "model.json", inputs.model_doc(3, prof.enum_n, inputs.TYPICAL_COLUMNS)
    )
    m = model.load_model(model_path)
    out = {"enumeration": {}, "spectrum": [], "full-rank": []}
    for g in prof.enum_gammas:
        params = typicality.TypicalityParams(Fraction(g), prof.enum_n)
        out["enumeration"][g] = enumeration_digest(
            typicality.enumerate_typical(m, params, 1), typicality.typicality_mass(m, params, 1)
        )
    for j in range(prof.mc_pool):
        out_dir = work / f"spectrum-{j}"
        config = workloads.write_mc_config(prof, model_path, j, out_dir)
        experiments.run_experiment(experiments.load_experiment_config(config))
        out["spectrum"].append(files_digest(out_dir))
        out["full-rank"].append(estimates_digest(
            experiments.estimate_full_rank_prob(m, prof.mc_trials, inputs.mc_pool_seed(j))))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", choices=sorted(workloads.PROFILES), action="append")
    args = ap.parse_args(argv)
    golden = json.loads(workloads.GOLDEN.read_text()) if workloads.GOLDEN.exists() else {}
    for name in args.profile or sorted(workloads.PROFILES):
        prof = workloads.PROFILES[name]
        work = workloads.ROOT / ".perfbench" / "record"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            golden[name] = {
                "codec": record_codec(prof, work),
                "census": record_census(prof, work),
                "typical-sets": record_typical(prof, work),
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"recorded {name}", file=sys.stderr)
    tmp = workloads.GOLDEN.with_suffix(".tmp")
    tmp.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    tmp.replace(workloads.GOLDEN)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
