"""In-memory span tracer that wraps cpdzip's public functions from outside.

``Tracer.install()`` replaces each function listed in ``TRACED`` with a
wrapper, in its own module and in every cpdzip module that imported it by
name, so calls from one layer into another are caught where they happen.
Nothing in ``src/`` changes.

Each call records one span (name, start, end, parent index) in flat arrays,
and updates per-function counters online: calls, inclusive time and self
time (inclusive minus the time covered by child spans).  A layer's self time
is the sum over its functions.  Per-scalar helpers (``compact``,
``to_fraction``, ``rational_str``) cost less than a wrapper and are not
wrapped; their time counts toward the layer that calls them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "model", "rational", "tensors", "typicality", "codec",
    "analysis", "rng", "experiments", "cli",
)

TRACED = {
    "model": (
        "load_model", "model_from_dict", "model_hash", "canonical_model_json",
        "validate", "require_valid", "entropy", "theoretical_threshold",
    ),
    "rational": ("pack_scalars",),
    "tensors": (
        "cpd_compose", "compose_entries", "composes_to", "outer_product",
        "unfold", "khatri_rao", "khatri_rao_chain", "mat_mul",
        "rank_exact", "kruskal_rank", "solve_exact",
        "tensor_from_dict", "tensor_to_dict", "matrix_to_dict", "matrix_from_dict",
    ),
    "typicality": (
        "is_typical_matrix", "enumerate_typical", "typicality_mass",
        "matrix_probability", "log_prob_matrix", "spectrum_samples",
    ),
    "codec": (
        "build_codebook", "measure_scheme", "encode", "decode",
        "codeword_to_bytes", "codeword_from_bytes", "length_bound_nats",
    ),
    "analysis": (
        "count_factorizations", "uniqueness_census", "brute_force_zero_prob",
        "cubic_census_classification", "bilinear_census_summary", "verify_examples",
        "prob_zero_tensor", "gamma_bound", "full_rank_prob_bound",
        "exact_rank_deficiency_prob",
    ),
    "rng": ("sample_tuple", "sample_matrix", "stream_rng"),
    "experiments": (
        "load_experiment_config", "run_experiment", "estimate_full_rank_prob",
        "write_results", "write_samples_csv",
    ),
    "cli": ("main",),
}

# Work units counted per call, from the call's arguments.  A sampled n x R
# matrix draws n * R symbols.
UNITS = {
    "rng.sample_matrix": lambda args, kwargs: args[0].dim * args[0].components,
}


class Tracer:
    """Spans and per-function counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.units: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._child = [0.0]

    def _name_id(self, name: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        for column, zero in ((self.calls, 0), (self.total, 0.0), (self.self_time, 0.0), (self.units, 0)):
            column.append(zero)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        unit = UNITS.get(name)
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, child = self._stack, self._child
        calls, total, self_time, units = self.calls, self.total, self.self_time, self.units

        def traced(*args, **kwargs):
            if unit is not None:
                units[nid] += unit(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                dur = end - start
                inner = child.pop()
                child[-1] += dur
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - inner

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever cpdzip modules bind it."""
        homes = {layer: importlib.import_module(f"cpdzip.{layer}") for layer in LAYERS}
        modules = [m for k, m in sys.modules.items() if k == "cpdzip" or k.startswith("cpdzip.")]
        for layer, functions in TRACED.items():
            home = homes[layer]
            for fname in functions:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    if mod.__dict__.get(fname) is orig:
                        setattr(mod, fname, wrapped)

    # --- results -----------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float, int]:
        """(calls, inclusive seconds, self seconds, units) of one function."""
        if name not in self.names:
            return 0, 0.0, 0.0, 0
        i = self.names.index(name)
        return self.calls[i], self.total[i], self.self_time[i], self.units[i]

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in zip(self.names, self.self_time):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += t
        return out

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "calls": self.calls,
            "total": self.total,
            "self": self.self_time,
            "units": self.units,
            "spans": [
                list(self.span_name), list(self.span_parent),
                list(self.span_start), list(self.span_end),
            ],
        }

    def merge(self, data: dict) -> None:
        """Add another process's spans and counters (a traced CLI call) under
        the currently open span.  Both processes read the same monotonic
        clock, so the timestamps line up."""
        ids = [self._name_id(n) for n in data["names"]]
        for src, nid in enumerate(ids):
            self.calls[nid] += data["calls"][src]
            self.total[nid] += data["total"][src]
            self.self_time[nid] += data["self"][src]
            self.units[nid] += data["units"][src]
        names, parents, starts, ends = data["spans"]
        base = len(self.span_start)
        here = self._stack[-1]
        for n, p, s, e in zip(names, parents, starts, ends):
            self.span_name.append(ids[n])
            self.span_parent.append(here if p < 0 else base + p)
            self.span_start.append(s)
            self.span_end.append(e)

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: id, name, start, end, parent (-1 at a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (n, p, s, e) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(
                    f'{{"id":{i},"name":"{self.names[n]}","start":{s!r},'
                    f'"end":{e!r},"parent":{p}}}\n'
                )


def main(argv: list[str]) -> int:
    """``python3 spans.py OUT.json CLI-ARGS...``: run the cpdzip CLI traced and
    save its counters and spans to OUT.json."""
    out, cli_args = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    tracer.install()
    from cpdzip import cli

    try:
        return cli.main(cli_args)
    finally:
        out.write_text(json.dumps(tracer.to_dict()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
