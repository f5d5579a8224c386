"""Spans around calls into canex's modules, recorded from outside the package.

A ``Tracer`` replaces module attributes with timing wrappers and puts the
originals back on ``restore``.  Calls are looked up through the module that
makes them, so the wrapped names are those of the calling module (for
example ``experiment.clean``, the name ``_classify_chunk`` calls).

Pool workers are forked from a process that already holds the wrappers.
Each chunk they run starts from empty statistics and leaves them in a JSON
file that the parent merges after ``run_experiment`` returns.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import checks

_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64 increment: one draw advances the state by it
_GAMMA_INVERSE = pow(_GAMMA, -1, 1 << 64)

# (module, attribute, span).  Spans that share a name are summed in the metrics.
TIMED = (
    ("sampling", "random_tree_vector", "sampling.tree"),
    ("sampling", "decode_remy_vector", "terms.decode"),
    ("sampling", "shape_of", "terms.shape"),
    ("sampling", "random_partition", "sampling.partition"),
    ("sampling", "to_growth_string", "sampling.growth_string"),
    ("sampling", "attach_vars", "terms.attach"),
    ("experiment", "clean", "intuition.clean"),
    ("experiment", "cheap_verdict", "intuition.cascade"),
    ("experiment", "tautology_status", "classical.status"),
    ("classical", "falsify_search", "classical.search"),
    ("experiment", "is_simple", "intuition.is_simple"),
    ("experiment", "render", "terms.render"),
    ("terms", "render", "terms.render"),
    ("terms", "parse", "terms.parse"),
    ("experiment", "run_experiment", "experiment.run"),
    ("experiment", "rn_table", "experiment.run"),
    ("experiment", "emit_report", "experiment.emit"),
)
# Spans that run_experiment and rn_table call directly; the rest of their
# time is the experiment layer's own overhead.
TOP_LEVEL = ("sampling.sample", "experiment.classify", "terms.render", "intuition.is_simple")
PATHS = ("raw_antilogy", "cleaned_antilogy", "cheap", "search_refuted",
         "search_confirmed", "unknown")


class Tracer:
    def __init__(self, canex, spool: Path):
        self.modules = {name: getattr(canex, name) for name in
                        ("sampling", "experiment", "classical", "terms")}
        self.spool = spool
        self.parent_pid = os.getpid()
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list = []

    # -------------------------------------------------------- patching

    def install(self) -> None:
        for module, attr, span in TIMED:
            self._patch(module, attr, self._timed(span))
        self._patch("experiment", "random_canonical", self._sample)
        self._patch("experiment", "classify", self._classify)
        self._patch("experiment", "_classify_chunk", self._chunk)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = self.modules[module_name]
        original = getattr(module, attr)
        wrapper = functools.update_wrapper(make(original), original)
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def _timed(self, span: str):
        def make(original):
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.calls[span].append(time.perf_counter() - started)
            return wrapper
        return make

    def _sample(self, original):
        def wrapper(rng, *args, **kwargs):
            before = rng._state
            started = time.perf_counter()
            term = original(rng, *args, **kwargs)
            self.calls["sampling.sample"].append(time.perf_counter() - started)
            self.counters["u64_draws"] += ((rng._state - before) * _GAMMA_INVERSE) % (1 << 64)
            self.counters["samples_drawn"] += 1
            return term
        return wrapper

    def _classify(self, original):
        def wrapper(term, *args, **kwargs):
            started = time.perf_counter()
            result = original(term, *args, **kwargs)
            done = time.perf_counter()
            self.calls["experiment.classify"].append(done - started)
            self._tally_classification(term, result)
            self.counters["bookkeeping_s"] += time.perf_counter() - done
            return result
        return wrapper

    def _tally_classification(self, term, result) -> None:
        verdict, taut = result.verdict, result.taut
        c = self.counters
        c["classified"] += 1
        c["clean_changed"] += verdict.cleaned is not term and verdict.cleaned != term
        c["cleaned_leaf_ratio"] += verdict.cleaned_size / len(checks.leaves(term))
        if taut.certificate == "antilogy":
            path = "raw_antilogy" if checks.is_raw_antilogy(term) else "cleaned_antilogy"
        elif taut.status == "unknown":
            path = "unknown"
        elif taut.status == "tautology":
            path = "cheap" if verdict.cheap else "search_confirmed"
        else:
            path = "search_refuted"
        c["path." + path] += 1

    def _chunk(self, original):
        def wrapper(args):
            if os.getpid() == self.parent_pid:
                return original(args)
            self.calls.clear()
            self.counters.clear()
            result = original(args)
            out = self.spool / f"trace-{os.getpid()}-{args[2]}.json"
            out.write_text(json.dumps({"calls": self.calls, "counters": self.counters}))
            return result
        return wrapper

    # -------------------------------------------------------- worker statistics

    def merge_spool(self) -> int:
        """Fold the workers' chunk files into this tracer; returns how many."""
        files = sorted(self.spool.glob("trace-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            for span, durations in data["calls"].items():
                self.calls[span].extend(durations)
            for name, value in data["counters"].items():
                self.counters[name] += value
            path.unlink()
        return len(files)

    def total(self, *spans: str) -> float:
        return sum(sum(self.calls.get(s, ())) for s in spans)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def span_table(tracer: Tracer) -> list[str]:
    """Per-call mean, median and p99 (p99 only with at least 1000 calls)."""
    lines = [f"{'span':24} {'calls':>8} {'mean_us':>10} {'p50_us':>10} {'p99_us':>10}"]
    for span in sorted(tracer.calls):
        values = sorted(tracer.calls[span])
        if not values:
            continue
        p99 = f"{percentile(values, 99) * 1e6:10.2f}" if len(values) >= 1000 else f"{'-':>10}"
        lines.append(f"{span:24} {len(values):8d} {sum(values) / len(values) * 1e6:10.2f} "
                     f"{percentile(values, 50) * 1e6:10.2f} {p99}")
    return lines
