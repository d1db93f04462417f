"""cpdzip benchmark: three seeded workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload {codec,census,typical-sets} \
        --seed N --seconds S --trace {0,1} [--profile {full,smoke}]

Run from the root of a cpdzip checkout; the program is imported from its
``src/``.  Each pass runs in a fresh interpreter (``worker.py``); passes repeat
while another one fits in ``--seconds``, and at least one runs.  Every time is
scaled to the host speed measured beside it (``reference.py``), and each
timing is built from every call's median scaled time across the passes (see
``end_to_end``).  Set-up (interpreter start, imports, input generation) is
also timed in ``setup_runs`` extra interpreters, and ``setup_s`` is the median
over every interpreter started.  The benchmark and everything it starts run
on one CPU, so that each reference run measures the CPU the program runs on.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced and one traced pass and prints the per-layer metrics of the
traced pass, with ``trace.overhead`` = traced / untraced scaled run_s; the
spans go to ``.perfbench/traces/``.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it records the machine.  Golden-digest
mismatches are listed on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170  # every run must end within 180 s


def machine(root: Path) -> dict:
    revision = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        revision = done.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        src.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
        "mpmath": version("mpmath"),
        "numpy": version("numpy"),
    }


class Runner:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.rundir = root / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
        self.deadline = time.perf_counter() + DEADLINE_S
        self.spawns = 0
        reference.reference()  # warm-up: the first run of the kernel is slower

    def spawn(self, *flags: str) -> tuple[dict, float]:
        """Run worker.py once; returns its result and the wall time.  The
        result's ``setup_s`` is scaled by the worker's reference time."""
        self.spawns += 1
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--profile", self.args.profile,
            "--workdir", str(self.rundir / str(self.spawns)), *flags,
        ]
        start = time.perf_counter()
        # A session of its own, so that a timeout also ends the worker's CLI
        # subprocesses.
        proc = subprocess.Popen(
            [*cmd, "--spawned-at", repr(start)], cwd=self.root, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        wall = time.perf_counter() - start
        if proc.returncode:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{err}")
        result = json.loads(out.splitlines()[-1])
        result["setup_s"] *= reference.REF_S / result["setup_ref"]
        return result, wall


def median_ops(passes: list[dict], phase: str) -> list[float]:
    """Each call of the phase at its median scaled time across the passes."""
    return [statistics.median(times) for times in zip(*(p["scaled"][phase] for p in passes))]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Every pass of a run makes the same calls on the same inputs, so each
    call is timed once per pass, at different moments.  Each time is scaled
    to the reference host speed, and each call's median scaled time across
    the passes enters the metrics.  (A call's fastest scaled time spread more
    from run to run: it picks the passes whose reference runs read slow.)
    Set-up time is the median over every interpreter started.
    """
    sweep, requests, cli = (median_ops(passes, ph) for ph in ("sweep", "requests", "cli"))
    return {
        "setup_s": statistics.median(setups),
        "run_s": sum(sweep) + sum(requests) + sum(cli),
        "sweep_s": sum(sweep),
        "request_p50_ms": statistics.median(requests) * 1e3,
        "request_p90_ms": statistics.quantiles(requests, n=10)[-1] * 1e3,
        "cli_p50_s": statistics.median(cli),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=sorted(workloads.PROFILES), default="full")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cpdzip" / "__init__.py").is_file():
        print(f"run.py: {root} is not a cpdzip checkout (no src/cpdzip)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    prof = workloads.PROFILES[args.profile]
    # One CPU for this process and every process it starts (they inherit it):
    # a vCPU of a shared host can run at full speed while another runs slow,
    # and the reference only measures the CPU it runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runner = Runner(root, args)
    try:
        if args.trace:
            plain, _ = runner.spawn()
            traced, _ = runner.spawn("--traced")
            passes = [plain, traced]
            peak, _ = runner.spawn("--build-peak")
            metrics = dict(traced["layers"])
            metrics["trace.overhead"] = traced["scaled_run_s"] / plain["scaled_run_s"]
            metrics["codec.build_peak_mib"] = peak["build_peak_mib"]
            section = spec["per_layer"]
        else:
            setups = [runner.spawn("--setup-only")[0]["setup_s"] for _ in range(prof.setup_runs)]
            start = time.perf_counter()
            passes = []
            while True:
                result, wall = runner.spawn()
                passes.append(result)
                if time.perf_counter() - start + wall > args.seconds:
                    break
            metrics = end_to_end(passes, setups + [p["setup_s"] for p in passes])
            section = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.rundir, ignore_errors=True)

    names = [m["name"] for m in section]
    if sorted(names) != sorted(metrics):
        print(f"run.py: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for err in p["errors"]:
            print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({"machine": machine(root), "workload": args.workload, "seed": args.seed,
                      "profile": args.profile, "passes": len(passes)}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
