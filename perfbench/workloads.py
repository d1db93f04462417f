"""The benchmark's three workloads, each a closed loop driven by one client.

Every workload has the same three phases, so every workload reports the same
end-to-end metrics:

* ``sweep``: the exhaustive, build-side work (``sweep_s``);
* ``requests``: many small seeded requests, timed one by one
  (``request_p50_ms``);
* ``cli``: sequential ``python -m cpdzip.cli`` subprocesses (``cli_p50_s``).

codec
    sweep: ``build_codebook`` + ``measure_scheme`` for rank-one order-3 sign
    models, uniform and skewed (3/4, 1/4), at three gammas.  The first build
    pays the cold full-space sweep; later builds hit the module cache.
    requests: encode/decode round trips through the wire form against the
    warm uniform codebooks; 7 in 10 are composable tensors, 3 in 10 are
    perturbed so they take the fallback index.  Only uniform codebooks are
    used because every uniform tuple is typical, which fixes the hit/fallback
    split by construction instead of by seed.
    cli: an ``encode`` then a ``decode`` subprocess, each rebuilding its
    codebook cold.
census
    sweep: ``verify_examples``, whose counts include ``count_factorizations``
    on the banded order-2 targets at n = 4.  requests: ``uniqueness_census`` of
    full-rank order-3, R = 2 tensors.  cli: ``count`` on small banded targets.
    The codec is never called.
typical-sets
    sweep: ``enumerate_typical`` + ``typicality_mass`` at gamma = 1/10 and at
    the boundary value gamma* (see ``inputs``).  requests: seeded Monte-Carlo
    work, ``spectrum`` experiments through ``run_experiment`` and
    ``estimate_full_rank_prob`` calls.
    cli: ``experiment`` subprocesses.  No composition sweep runs.

Every pass of a run makes the same calls on the same seeded inputs.  Outputs
are checked after each phase, outside the timed regions, against
``golden.json``.  A call that raises or an output that does not match its
digest counts as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
CLI_TIMEOUT_S = 120
REF_EVERY_S = 0.2  # seconds between two runs of the reference kernel in a phase


@dataclass(frozen=True)
class Profile:
    setup_runs: int  # set-up-only interpreter starts per benchmark run
    # codec
    codec_n: int
    codec_gammas: tuple[str, ...]
    roundtrips: int
    codec_pool: int
    codec_cli_n: int
    codec_cli_pool: int
    # census
    verify_fast: bool
    census_n: int
    census_requests: int
    count_cli_n: int
    count_cli_calls: int
    # typical sets
    enum_n: int
    enum_gammas: tuple[str, ...]
    mc_grid: tuple[int, ...]
    mc_trials: int
    mc_requests: int
    mc_pool: int
    mc_cli_calls: int


# Passes are kept to a few seconds so that one run holds several: each call
# is then timed several times, at different moments (see run.py).  The sizes
# are smaller than the paper-scale grid (n = 6 codebooks, n = 8 enumeration)
# for that reason.
PROFILES = {
    "full": Profile(
        setup_runs=3,
        codec_n=5, codec_gammas=("1/20", "1/10", "1/4"), roundtrips=1000,
        codec_pool=512, codec_cli_n=5, codec_cli_pool=64,
        verify_fast=False,
        census_n=4, census_requests=50,
        count_cli_n=3, count_cli_calls=4,
        enum_n=7, enum_gammas=("1/10", str(inputs.GAMMA_STAR)),
        mc_grid=(8, 16), mc_trials=30, mc_requests=100, mc_pool=64, mc_cli_calls=4,
    ),
    # Tiny sizes for the smoke test: same code paths, seconds in total.
    "smoke": Profile(
        setup_runs=2,
        codec_n=3, codec_gammas=("1/10", "1/4"), roundtrips=60,
        codec_pool=16, codec_cli_n=2, codec_cli_pool=8,
        verify_fast=True,
        census_n=4, census_requests=6,
        count_cli_n=2, count_cli_calls=1,
        enum_n=4, enum_gammas=("1/10", "1/4"),
        mc_grid=(4, 8), mc_trials=10, mc_requests=6, mc_pool=6, mc_cli_calls=1,
    ),
}


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def rat(x) -> str:
    return str(Fraction(x))


def attempt(fn, *args):
    """Call fn; an exception becomes the result, to be counted as a failure."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001  (the benchmark keeps running)
        return exc


class Pass:
    """Timings, outputs and failures of one pass in one interpreter.

    ``ops[phase]`` holds the wall time of every program call of the phase, in
    order, and ``scaled[phase]`` the same times scaled to the reference host
    speed; every pass of a run makes the same calls, so they line up.

    The reference kernel (``reference.py``) runs at the start and end of each
    phase, and whenever ``REF_EVERY_S`` has passed since its last run: before
    the next call, or, in an untraced pass, inside a running call, from a
    SIGALRM handler whose time is taken out of the call's.  Each call is
    scaled by the mean of the reference runs from the last one before it to
    the first one after it, so a call of seconds follows the host's state
    through its whole length.  CLI calls are only bracketed: the handler would
    compete with the subprocess for the CPU.
    """

    def __init__(self, workdir: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.phase_s: dict[str, float] = {}
        self.ops: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self._refs: list[float] = []  # reference times of the phase
        self._ref_at = 0.0  # when the last reference run ended
        self._paused = 0.0  # time spent in the SIGALRM handler
        self._unscaled: list[tuple[int, int]] = []  # (call, last reference before it)
        self.calls: dict[str, list[float]] = {}
        self.swept_tuples = 0  # size of the first (cold) codebook sweep
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._phase = ""

    @contextmanager
    def phase(self, name: str):
        self._phase = name
        self.ops[name] = []
        self.scaled[name] = []
        self._refs = []
        self._pace()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._pace()
        self.phase_s[name] = sum(self.ops[name])

    def _pace(self) -> None:
        """Run the reference and scale the calls that ended since the last run."""
        self._refs.append(reference.reference())
        self._ref_at = time.perf_counter()
        ops, scaled = self.ops[self._phase], self.scaled[self._phase]
        for i, first in self._unscaled:
            refs = self._refs[first:]
            scaled[i] = ops[i] * reference.REF_S / (sum(refs) / len(refs))
        self._unscaled.clear()

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._pace()
        self._paused += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    def _timed(self, span: str, fn, *args, sample: bool = True):
        """Time one call; a traced pass also records it as a root span."""
        wait = REF_EVERY_S - (time.perf_counter() - self._ref_at)
        if wait <= 0:
            self._pace()
            wait = REF_EVERY_S
        if self.tracer:
            fn = self.tracer.wrap(span, fn)
        sample = sample and not self.tracer
        first = len(self._refs) - 1
        paused = self._paused
        if sample:
            signal.setitimer(signal.ITIMER_REAL, wait)
        start = time.perf_counter()
        out = attempt(fn, *args)
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        took = time.perf_counter() - start - (self._paused - paused)
        self._unscaled.append((len(self.ops[self._phase]), first))
        self.ops[self._phase].append(took)
        self.scaled[self._phase].append(0.0)
        return out, took

    def call(self, label: str, fn, *args):
        """One timed program call, also kept under ``label``."""
        out, took = self._timed(f"bench.{label.split()[0]}", fn, *args)
        self.calls.setdefault(label, []).append(took)
        return out

    def request(self, fn, *args):
        return self._timed("bench.request", fn, *args)[0]

    def cli(self, *args) -> subprocess.CompletedProcess | Exception:
        """One ``cpdzip`` CLI subprocess; traced passes trace it too."""
        argv = [str(a) for a in args]
        spans_file = self.workdir / f"cli-spans-{len(self.ops[self._phase])}.json"
        if self.tracer:
            cmd = [sys.executable, str(BENCH / "spans.py"), str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "cpdzip.cli", *argv]
        def run_cli():
            done = _run(cmd)
            if self.tracer and spans_file.exists():
                self.tracer.merge(json.loads(spans_file.read_text(encoding="utf-8")))
            return done

        return self._timed("bench.cli", run_cli, sample=False)[0]

    def check(self, label: str, result, ok) -> None:
        """Count one operation; ``ok(result)`` decides unless the call raised."""
        self.attempted += 1
        if isinstance(result, Exception):
            why = f"{type(result).__name__}: {result}"
        elif isinstance(result, subprocess.CompletedProcess) and result.returncode:
            why = f"exit {result.returncode}: {result.stderr.strip()[-300:]}"
        else:
            try:
                if ok(result):
                    return
                why = "output does not match its golden digest"
            except Exception as exc:  # noqa: BLE001
                why = f"check raised {type(exc).__name__}: {exc}"
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")


def _run(cmd) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=False,
    )


def load_golden(profile_name: str) -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[profile_name]


# --- output digests (shared by the workloads and record_golden.py) ----------------


def scheme_digest(cb, report) -> str:
    return digest([
        cb.size, cb.tuple_count,
        report.codebook_size, rat(report.exact_error_prob),
        rat(report.error_prob_bound), [rat(x) for x in report.masses],
    ])


def codeword_tail(index: int, fallback_index: int) -> bytes:
    """Flag, length and index bytes of a codeword (docs/FORMAT.md)."""
    flag = 1 if index == fallback_index else 0
    length = max(1, (index.bit_length() + 7) // 8)
    return bytes([flag, length]) + index.to_bytes(length, "big")


def rows_digest(rows) -> str:
    return digest([[r.name, r.observed, r.expected, r.ok] for r in rows])


def certificate_digest(cert) -> str:
    return digest([
        cert.full_rank_count, cert.bound, len(cert.relations), len(cert.violations),
        [[[rat(v) for v in row] for row in x.rows] for x in cert.reference.matrices],
    ])


def enumeration_digest(enum, mass) -> str:
    return digest([enum.count, enum.space_size, list(enum.positions), rat(mass)])


def estimates_digest(estimates) -> str:
    return digest([[e.mode, e.successes, e.trials, rat(e.bound)] for e in estimates])


def files_digest(directory: Path) -> str:
    """Names and bytes of every result file an experiment wrote."""
    return digest([
        [f.name, hashlib.sha256(f.read_bytes()).hexdigest()]
        for f in sorted(directory.iterdir())
        if f.is_file()
    ])


# --- codec ------------------------------------------------------------------------


def setup_codec(prof: Profile, seed: int, work: Path) -> dict:
    n = prof.codec_n
    docs = {}
    requests = []
    for g, item, perturbed in inputs.codec_requests(
        seed, prof.roundtrips, prof.codec_pool, prof.codec_gammas
    ):
        key = (item, perturbed)
        if key not in docs:
            docs[key] = inputs.codec_request_doc(n, item, perturbed)
        requests.append((g, item, perturbed, docs[key]))
    item = random.Random(seed).randrange(prof.codec_cli_pool)
    doc = inputs.codec_request_doc(prof.codec_cli_n, item, False)
    cli = (item, doc, inputs.write_json(work / "cli-tensor.json", doc), work / "cli-codeword.tcpd")
    return {
        "models": {
            label: inputs.write_json(work / f"{label}.json", inputs.model_doc(3, n, [cols]))
            for label, cols in (("uniform", inputs.UNIFORM), ("skewed", inputs.SKEWED))
        },
        "requests": requests,
        "cli_model": inputs.write_json(
            work / "cli-model.json", inputs.model_doc(3, prof.codec_cli_n, [inputs.UNIFORM])
        ),
        "cli": cli,
    }


def roundtrip(doc, cb):
    from cpdzip import codec, tensors

    wire = codec.codeword_to_bytes(codec.encode(tensors.tensor_from_dict(doc), cb))
    return wire, tensors.tensor_to_dict(codec.decode(codec.codeword_from_bytes(wire), cb))


def measure_codec(inp: dict, prof: Profile, gold: dict, p: Pass) -> None:
    from cpdzip import codec, model, typicality

    n = prof.codec_n
    with p.phase("sweep"):
        books, reports = {}, {}
        for label, path in inp["models"].items():
            m = p.call("load", model.load_model, path)
            for g in prof.codec_gammas:
                params = typicality.TypicalityParams(Fraction(g), n)
                books[label, g] = p.call("build", codec.build_codebook, m, params)
                reports[label, g] = p.call("measure", codec.measure_scheme, m, params)
    p.swept_tuples = (2**n) ** 3
    for key, cb in books.items():
        p.check(f"build {key}", cb, lambda _: True)
        p.check(f"scheme {key}", reports[key],
                lambda r: scheme_digest(cb, r) == gold["scheme"][" ".join(key)])

    with p.phase("requests"):
        outs = [p.request(roundtrip, doc, books["uniform", g]) for g, _, _, doc in inp["requests"]]
    for (g, item, perturbed, doc), out in zip(inp["requests"], outs):
        header = bytes.fromhex(gold["header"][g])
        fallback_index, fallback_digest = gold["fallback"][g]
        index = fallback_index if perturbed else gold["index"][g][item]
        p.check(
            f"roundtrip gamma={g} item={item} perturbed={perturbed}", out,
            lambda o: o[0] == header + codeword_tail(index, fallback_index)
            and (digest(o[1]) == fallback_digest if perturbed else o[1] == doc),
        )

    item, doc, tensor_path, cw_path = inp["cli"]
    with p.phase("cli"):
        enc = p.cli("encode", "--model", inp["cli_model"], "--gamma", "1/10",
                    "--input", tensor_path, "--out", cw_path)
        dec = p.cli("decode", "--model", inp["cli_model"], "--input", cw_path)
    cli_gold = gold["cli"]
    expected = bytes.fromhex(cli_gold["header"]) + codeword_tail(
        cli_gold["index"][item], cli_gold["fallback_index"]
    )
    p.check(f"cli encode item={item}", enc, lambda _: cw_path.read_bytes() == expected)
    p.check(f"cli decode item={item}", dec, lambda r: json.loads(r.stdout) == doc)


def build_peak_mib(workload: str, inp: dict, prof: Profile) -> float:
    """tracemalloc peak of a pass's first, cold ``build_codebook`` (0 where a
    workload builds no codebook).  It runs in an interpreter of its own
    because tracemalloc slows allocation several-fold."""
    if workload != "codec":
        return 0.0
    from cpdzip import codec, model, typicality

    m = model.load_model(inp["models"]["uniform"])
    params = typicality.TypicalityParams(Fraction(prof.codec_gammas[0]), prof.codec_n)
    tracemalloc.start()
    try:
        codec.build_codebook(m, params)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# --- census -----------------------------------------------------------------------


def setup_census(prof: Profile, seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    # Every seed censuses the whole pool, in its own order: tensors differ in
    # cost, and a seeded subset would move the percentiles with the seed.
    items = rng.sample(range(prof.census_requests), prof.census_requests)
    n = prof.count_cli_n
    count_cli = []
    for k in range(prof.count_cli_calls):
        pattern = [rng.randrange(2) for _ in range(n)]
        count_cli.append((inputs.pattern_key(pattern),
                          inputs.write_json(work / f"count-{k}.json", inputs.banded_doc(pattern))))
    return {
        "census_model": inputs.write_json(
            work / "census-model.json", inputs.model_doc(3, prof.census_n, [inputs.UNIFORM] * 2)
        ),
        "census": [(i, inputs.census_pool_doc(prof.census_n, i)) for i in items],
        "count_model": inputs.write_json(
            work / "count-model.json", inputs.model_doc(2, n, [inputs.UNIFORM] * 2)
        ),
        "count_cli": count_cli,
    }


def census_request(doc, m):
    from cpdzip import analysis, tensors

    return analysis.uniqueness_census(tensors.tensor_from_dict(doc), m)


def measure_census(inp: dict, prof: Profile, gold: dict, p: Pass) -> None:
    from cpdzip import analysis, model

    with p.phase("sweep"):
        rows = p.call("verify", analysis.verify_examples, prof.verify_fast)
        m = p.call("load", model.load_model, inp["census_model"])
    p.check("verify_examples", rows,
            lambda r: all(x.ok for x in r) and rows_digest(r) == gold["verify"])

    with p.phase("requests"):
        certs = [p.request(census_request, doc, m) for _, doc in inp["census"]]
    for (item, _), cert in zip(inp["census"], certs):
        p.check(f"census item={item}", cert,
                lambda c: certificate_digest(c) == gold["uniqueness"][item])

    with p.phase("cli"):
        runs = [p.cli("count", "--model", inp["count_model"], "--tensor", path)
                for _, path in inp["count_cli"]]
    for (key, _), run in zip(inp["count_cli"], runs):
        p.check(f"cli count {key}", run,
                lambda r: digest(json.loads(r.stdout)) == gold["count_cli"][key])


# --- typical sets -------------------------------------------------------------------


def mc_kind(r: int) -> str:
    # Two spectrum runs per full-rank estimate keeps the median latency inside
    # one request kind rather than on the boundary between two.
    return "full-rank" if r % 3 == 2 else "spectrum"


def write_mc_config(prof: Profile, model_path: Path, j: int, out_dir: Path) -> Path:
    """Spectrum config of pool item j; results go to ``out_dir``, the config
    beside it."""
    cfg = inputs.experiment_config(
        model_path, "spectrum", prof.mc_grid, prof.mc_trials, inputs.mc_pool_seed(j),
        out_dir / "run",
    )
    return inputs.write_json(out_dir.with_name(out_dir.name + ".json"), cfg)


def setup_typical(prof: Profile, seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    model_path = inputs.write_json(
        work / "model.json", inputs.model_doc(3, prof.enum_n, inputs.TYPICAL_COLUMNS)
    )
    mc = []
    for r in range(prof.mc_requests):
        kind, j = mc_kind(r), rng.randrange(prof.mc_pool)
        out_dir = work / f"mc-{r}"
        config = write_mc_config(prof, model_path, j, out_dir) if kind == "spectrum" else None
        mc.append((kind, j, out_dir, config))
    cli = []
    for k in range(prof.mc_cli_calls):
        j = rng.randrange(prof.mc_pool)
        out_dir = work / f"cli-{k}"
        cli.append((j, out_dir, write_mc_config(prof, model_path, j, out_dir)))
    return {"model": model_path, "mc": mc, "cli": cli}


def spectrum_request(config_path):
    from cpdzip import experiments

    return experiments.run_experiment(experiments.load_experiment_config(config_path))


def full_rank_request(m, trials: int, j: int):
    from cpdzip import experiments

    return experiments.estimate_full_rank_prob(m, trials, inputs.mc_pool_seed(j))


def measure_typical(inp: dict, prof: Profile, gold: dict, p: Pass) -> None:
    from cpdzip import model, typicality

    with p.phase("sweep"):
        m = p.call("load", model.load_model, inp["model"])
        enums = []
        for g in prof.enum_gammas:
            params = typicality.TypicalityParams(Fraction(g), prof.enum_n)
            enum = p.call(f"enumerate {g}", typicality.enumerate_typical, m, params, 1)
            mass = p.call(f"mass {g}", typicality.typicality_mass, m, params, 1)
            enums.append((g, enum, mass))
    for g, enum, mass in enums:
        p.check(f"enumeration gamma={g}", enum,
                lambda e: enumeration_digest(e, mass) == gold["enumeration"][g])

    with p.phase("requests"):
        outs = [
            p.request(spectrum_request, config) if kind == "spectrum"
            else p.request(full_rank_request, m, prof.mc_trials, j)
            for kind, j, _, config in inp["mc"]
        ]
    for (kind, j, out_dir, _), out in zip(inp["mc"], outs):
        if kind == "spectrum":
            p.check(f"spectrum pool={j}", out,
                    lambda _: files_digest(out_dir) == gold["spectrum"][j])
        else:
            p.check(f"full-rank pool={j}", out,
                    lambda est: estimates_digest(est) == gold["full-rank"][j])

    with p.phase("cli"):
        runs = [p.cli("experiment", "--config", config) for _, _, config in inp["cli"]]
    for (j, out_dir, _), run in zip(inp["cli"], runs):
        p.check(f"cli experiment pool={j}", run,
                lambda _: files_digest(out_dir) == gold["spectrum"][j])


WORKLOADS = {
    "codec": (setup_codec, measure_codec),
    "census": (setup_census, measure_census),
    "typical-sets": (setup_typical, measure_typical),
}


# --- per-layer metrics of a traced pass ----------------------------------------------


def layer_metrics(tracer, p: Pass, run_s: float) -> dict[str, float]:
    from spans import LAYERS

    def calls(name):
        return tracer.stat(name)[0]

    def total(name):
        return tracer.stat(name)[1]

    def self_s(name):
        return tracer.stat(name)[2]

    def mean_us(*names):
        n = calls(names[0])
        return sum(total(x) for x in names) / n * 1e6 if n else 0.0

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    layer_self = tracer.layer_self()
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out["unattributed_s"] = run_s - sum(layer_self.values())
    out["trace.spans"] = len(tracer.span_start)

    builds = p.calls.get("build", [])
    out["codec.cold_build_s"] = builds[0] if builds else 0.0
    out["codec.warm_build_s"] = statistics.median(builds[1:]) if len(builds) > 1 else 0.0
    out["codec.sweep_tuples_per_s"] = rate(p.swept_tuples, out["codec.cold_build_s"])
    out["codec.measure_s"] = sum(p.calls.get("measure", []))
    out["codec.encode_us"] = mean_us("codec.encode")
    out["codec.decode_us"] = mean_us("codec.decode")
    out["codec.wire_us"] = mean_us("codec.codeword_to_bytes", "codec.codeword_from_bytes")
    out["model.hash_calls"] = calls("model.model_hash")
    out["model.hash_s"] = total("model.model_hash")
    out["rational.pack_calls"] = calls("rational.pack_scalars")
    out["rational.pack_s"] = total("rational.pack_scalars")
    out["tensors.parse_us"] = mean_us("tensors.tensor_from_dict")
    out["tensors.emit_us"] = mean_us("tensors.tensor_to_dict")
    out["tensors.compose_s"] = sum(
        self_s(f"tensors.{f}") for f in ("cpd_compose", "compose_entries", "outer_product")
    )
    out["tensors.composes_to_calls"] = calls("tensors.composes_to")
    out["tensors.composes_to_s"] = total("tensors.composes_to")
    out["tensors.rank_calls"] = calls("tensors.rank_exact")
    out["tensors.rank_s"] = total("tensors.rank_exact")
    out["tensors.solve_s"] = total("tensors.solve_exact")
    out["analysis.count_s"] = total("analysis.count_factorizations")
    out["analysis.uniqueness_s"] = total("analysis.uniqueness_census")
    out["analysis.brute_zero_s"] = total("analysis.brute_force_zero_prob")
    out["analysis.classification_s"] = total("analysis.cubic_census_classification")
    out["typicality.decisions"] = calls("typicality.is_typical_matrix")
    out["typicality.decisions_per_s"] = rate(
        calls("typicality.is_typical_matrix"), total("typicality.is_typical_matrix")
    )
    out["typicality.enum_s"] = total("typicality.enumerate_typical")
    out["typicality.mass_s"] = total("typicality.typicality_mass")
    enum_calls = [v[0] for k, v in p.calls.items() if k.startswith("enumerate ")]
    out["typicality.boundary_extra_s"] = enum_calls[-1] - enum_calls[0] if enum_calls else 0.0
    out["typicality.logprob_s"] = total("typicality.log_prob_matrix")
    draws, sample_s = tracer.stat("rng.sample_matrix")[3], total("rng.sample_matrix")
    out["rng.draws"] = draws
    out["rng.draws_per_s"] = rate(draws, sample_s)
    out["experiments.write_s"] = total("experiments.write_results") + total(
        "experiments.write_samples_csv"
    )
    return out
