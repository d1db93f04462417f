"""One benchmark pass in a fresh interpreter: set up, measure, check.

    python3 perfbench/worker.py --workload W --seed S --profile P \
        --workdir DIR --spawned-at T [--setup-only | --traced | --build-peak]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process; on Linux that clock is the system-wide monotonic clock,
so ``setup_s`` covers interpreter start, imports and input generation.
``setup_ref`` is the reference kernel's time right after set-up (its second
run; the first warms it up), by which the parent scales ``setup_s``.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import reference
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--profile", required=True, choices=sorted(workloads.PROFILES))
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--build-peak", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(workloads.SRC))
    import cpdzip

    if workloads.SRC not in Path(cpdzip.__file__).resolve().parents:
        print(f"cpdzip imported from {cpdzip.__file__}, not {workloads.SRC}", file=sys.stderr)
        return 1
    prof = workloads.PROFILES[args.profile]
    setup, measure = workloads.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    inp = setup(prof, args.seed, args.workdir)
    setup_s = time.perf_counter() - args.spawned_at
    reference.reference()
    setup_ref = reference.reference()
    setup = {"setup_s": setup_s, "setup_ref": setup_ref}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if args.build_peak:
        peak = workloads.build_peak_mib(args.workload, inp, prof)
        print(json.dumps({**setup, "build_peak_mib": peak}))
        return 0

    tracer = None
    if args.traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    p = workloads.Pass(args.workdir, tracer)
    measure(inp, prof, workloads.load_golden(args.profile)[args.workload], p)
    run_s = sum(p.phase_s.values())
    result = {
        **setup,
        "run_s": run_s,
        "scaled_run_s": sum(sum(ops) for ops in p.scaled.values()),
        "ops": p.ops,
        "scaled": p.scaled,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": p.attempted,
        "failed": p.failed,
        "errors": p.errors,
    }
    if tracer:
        result["layers"] = workloads.layer_metrics(tracer, p, run_s)
        trace_file = workloads.ROOT / ".perfbench" / "traces" / f"{args.workload}.jsonl"
        tracer.write_spans(trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
