"""Command-line surface: validation, sampling, codec, censuses, experiments.

Exact enumerations materialize the tuple space in memory; the practical
ceiling is |alphabet|^(n*N*R) <= 2^26 tuples (configurable via --budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from .errors import read_json
from .model import (
    CpdzipError,
    DEFAULT_BUDGET,
    load_model,
    model_from_dict,
    validate,
)
from .rational import rational_str, to_fraction
from .tensors import (
    kruskal_rank,
    matrix_from_dict,
    matrix_to_dict,
    rank_exact,
    tensor_from_dict,
    tensor_to_dict,
)


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is not None:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    m = model_from_dict(read_json(args.model))
    violations = validate(m)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print("ok")
    return 0


def _cmd_sample(args) -> int:
    from .rng import DrawTable, draw_tuple, stream_rng

    if args.count < 0:
        raise CpdzipError(f"--count must be non-negative, got {args.count}")
    m = load_model(args.model)
    table = DrawTable(m)
    # _emit's text of {"seed": ..., "tuples": [...]}, one tuple at a time so that
    # memory stays flat in --count; a tuple sits two levels deep (four spaces).
    sink = open(args.out, "w", encoding="utf-8") if args.out is not None else nullcontext(sys.stdout)
    with sink as fh:
        fh.write(f'{{\n  "seed": {json.dumps(args.seed)},\n  "tuples": [')
        for t in range(args.count):
            ft = draw_tuple(table, stream_rng(args.seed, t))
            text = json.dumps([matrix_to_dict(x) for x in ft.matrices], indent=2, sort_keys=True)
            fh.write(("," if t else "") + "\n    " + text.replace("\n", "\n    "))
        fh.write("\n  ]\n}\n" if args.count else "]\n}\n")
    return 0


def _build(args):
    from .codec import build_codebook
    from .typicality import TypicalityParams

    m = load_model(args.model)
    params = TypicalityParams(to_fraction(args.gamma), m.dim)
    return build_codebook(m, params, args.budget)


def _cmd_encode(args) -> int:
    from .codec import codeword_to_bytes, encode

    cb = _build(args)
    tensor = tensor_from_dict(read_json(args.input))
    cw = encode(tensor, cb)
    Path(args.out).write_bytes(codeword_to_bytes(cw))
    return 0


def _cmd_decode(args) -> int:
    from .codec import build_decode_book, codeword_from_bytes, decode
    from .typicality import TypicalityParams

    m = load_model(args.model)
    cw = codeword_from_bytes(Path(args.input).read_bytes())
    if args.gamma is not None and to_fraction(args.gamma) != cw.gamma:
        raise CpdzipError("--gamma disagrees with the codeword header")
    book = build_decode_book(m, TypicalityParams(cw.gamma, m.dim), args.budget)
    tensor = decode(cw, book)
    _emit(tensor_to_dict(tensor), args.out)
    return 0


def _cmd_codebook(args) -> int:
    cb = _build(args)
    gamma = cb.params.gamma
    stats = {
        "size": cb.size,
        "tuple_count": cb.tuple_count,
        "distinct_tensors": len(cb.tensor_to_index),
        "log_M_nats": cb.log_size_nats,
        "threshold_per_n": cb.log_size_nats / cb.model.dim,
    }
    if args.stats:
        masses = [e.table.mass for e in cb.enums]
        stats["typical_counts"] = [e.count for e in cb.enums]
        stats["typicality_mass"] = [rational_str(x) for x in masses]
        stats["mass_meets_1_minus_gamma"] = [
            bool(x >= 1 - gamma) for x in masses
        ]
        stats["mass_gap_to_1_minus_gamma"] = [
            rational_str(x - (1 - gamma)) for x in masses
        ]
    _emit(stats, args.out)
    return 0


def _census_payload(census, bound: int) -> dict:
    return {
        "total_count": census.total_count,
        "full_rank_count": census.full_rank_count,
        "class_sizes": [len(c) for c in census.classes],
        "gamma_bound": bound,
        "representatives": [
            [matrix_to_dict(x) for x in ft.matrices]
            for ft in census.representatives[:8]
        ],
    }


def _cmd_count(args) -> int:
    from .analysis import count_factorizations, gamma_bound

    m = load_model(args.model)
    tensor = tensor_from_dict(read_json(args.tensor))
    census = count_factorizations(
        tensor, m, full_rank_only=args.full_rank_only, budget=args.budget
    )
    _emit(_census_payload(census, gamma_bound(m)), args.out)
    return 0


def _cmd_krank(args) -> int:
    x = matrix_from_dict(read_json(args.input))
    _emit({"rank": rank_exact(x.rows), "kruskal_rank": kruskal_rank(x.rows)}, args.out)
    return 0


def _cmd_verify_examples(args) -> int:
    from .analysis import verify_examples

    rows = verify_examples(fast=args.fast, budget=args.budget)
    width = max(len(r.name) for r in rows)
    failures = 0
    for r in rows:
        mark = "PASS" if r.ok else "FAIL"
        print(f"{mark}  {r.name:<{width}}  observed={r.observed} expected={r.expected}")
        failures += 0 if r.ok else 1
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_experiment(args) -> int:
    from .experiments import load_experiment_config, run_experiment

    cfg = load_experiment_config(args.config)
    if args.out is not None:  # an --out that names no file is refused, as in the config
        from .records import replace

        cfg = replace(cfg, out=args.out)
    csv_path, json_path = run_experiment(cfg)
    print(csv_path)
    print(json_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpdzip",
        description="Exact compression laboratory for finite-alphabet low-rank tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", help="output path (default: stdout for JSON)")
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help=f"max items per exact enumeration (default {DEFAULT_BUDGET})",
        )

    p = sub.add_parser("validate", help="check a model file; prints all violations")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sample", help="draw seeded factor tuples from the model")
    common(p)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("encode", help="compress a tensor JSON file to a codeword")
    common(p)
    p.add_argument("--gamma", required=True, help="typicality slack, e.g. 1/10")
    p.add_argument("--input", required=True, help="tensor JSON file")
    p.set_defaults(func=_cmd_encode)
    p.set_defaults(out_required=True)

    p = sub.add_parser("decode", help="reconstruct a tensor from a codeword file")
    common(p)
    p.add_argument("--gamma", help="optional; must match the codeword header")
    p.add_argument("--input", required=True, help="codeword (.tcpd) file")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("codebook", help="build the codebook and report its size")
    common(p)
    p.add_argument("--gamma", required=True)
    p.add_argument("--stats", action="store_true", help="include typicality masses")
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("count", help="exhaustively count factorizations of a tensor")
    common(p)
    p.add_argument("--tensor", required=True, help="tensor JSON file")
    p.add_argument("--full-rank-only", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("krank", help="exact rank and Kruskal rank of a matrix")
    p.add_argument("--input", required=True, help="factor-matrix JSON file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_krank)

    p = sub.add_parser(
        "verify-examples", help="reproduce the documented counting identities"
    )
    p.add_argument("--fast", action="store_true", help="reduced grids for smoke tests")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_verify_examples)

    p = sub.add_parser("experiment", help="run a seeded experiment from a config file")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="override the config's output base path")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out_required", False) and not args.out:
        parser.error(f"{args.command} requires --out")
    try:
        if getattr(args, "out", None) == "":  # refused on every command, before any work
            raise CpdzipError("out must name a file, got ''")
        return args.func(args)
    except (CpdzipError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
