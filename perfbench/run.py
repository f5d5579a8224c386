"""The canex benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a replay in which calls into each module are timed.  Every run checks the
program's outputs against figures from ``checks.py`` and exits non-zero if
a check fails or the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# Fresh interpreters per run for setup_s: at least 5, and more while they
# add up to less than a second, so the 50 ms set-ups get a steadier median.
SETUP_REPEATS = (5, 25)
SETUP_BUDGET_S = 1.0
# The children's peak survives exec: a wrapper that resolved ``python3`` (a
# pyenv shim, say) leaves the peak of its own helper processes here.
INHERITED_CHILD_KIB = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402


def round_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


class Workload:
    """One set of inputs: ``run_round`` is timed, everything else is not."""

    sizes: tuple[int, ...] = ()  # class-count tables built at set-up
    workers = 1
    jsonl: Path | None = None  # per-sample dump a round writes, if any

    def __init__(self, canex, seed: int):
        self.canex = canex
        self.seed = seed

    def prepare(self) -> None:
        pass

    def clear(self) -> None:
        """Removes a round's output files before the next round writes them.

        Overwriting a file that was just written costs about 70 ms on an
        ext4 file system (the truncate-and-rewrite flush), which would swamp
        the emit time, so each round writes new files.
        """

    def run_round(self, index: int) -> tuple[int, int]:
        """Runs round ``index``; returns (operations attempted, failed)."""
        raise NotImplementedError

    def check_round(self, index: int) -> None:
        raise NotImplementedError

    def check_totals(self) -> None:
        pass

    def summary(self) -> list[str]:
        return []


class Experiment(Workload):
    """``run_experiment`` plus ``emit_report``, ``count`` samples per round."""

    def __init__(self, canex, seed, n, count, workers, dump):
        super().__init__(canex, seed)
        self.n, self.count, self.workers = n, count, workers
        self.sizes = (n,)
        self.csv = WORK / f"experiment-{n}.csv"
        self.jsonl = WORK / f"experiment-{n}.jsonl" if dump else None
        self.hits = self.trials = self.unknown = 0
        self.rng = random.Random(seed)

    def clear(self):
        for path in (self.csv, self.jsonl):
            if path is not None:
                path.unlink(missing_ok=True)

    def run_round(self, index):
        exp = self.canex.experiment
        dump = str(self.jsonl) if self.jsonl else None
        cfg = exp.ExperimentConfig(n=self.n, count=self.count, seed=round_seed(self.seed, index),
                                   workers=self.workers, dump_jsonl=dump)
        exp.emit_report(exp.run_experiment(cfg), out_csv=str(self.csv), dump_jsonl=dump)
        return self.count, 0

    def check_round(self, index):
        row = checks.read_csv_row(self.csv.read_text())
        checks.check_experiment_row(row, self.n, self.count, round_seed(self.seed, index))
        self.hits += row["nSimple"]
        self.trials += self.count
        self.unknown += row["nUnknown"]
        if self.jsonl is None:
            return
        with open(self.jsonl, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        checks.require([r["index"] for r in records] == list(range(self.count)),
                       "JSONL records are not indices 0..count-1 in order")
        for record in records:
            checks.check_verdicts(record, checks.parse(record["expr"]), self.rng, self.n)
        tallies = checks.tally(records)
        checks.require(all(row[k] == v for k, v in tallies.items()),
                       f"CSV counts {row} differ from JSONL tallies {tallies}")

    def check_totals(self):
        checks.check_rate(f"n={self.n}", self.hits, self.trials, checks.exact_simple_rate(self.n))

    def summary(self):
        return [f"simple rate {self.hits / self.trials:.6f} over {self.trials} samples "
                f"(exact {checks.exact_simple_rate(self.n):.6f}); "
                f"unknown verdicts: {self.unknown}"]


class RnTable(Workload):
    """``rn_table`` over four sizes, ``count`` samples of each per round."""

    sizes = (25, 100, 1000, 3000)

    def __init__(self, canex, seed, count):
        super().__init__(canex, seed)
        self.count = count
        self.hits = dict.fromkeys(self.sizes, 0)
        self.rounds = 0
        self.text = ""

    def run_round(self, index):
        self.text = self.canex.experiment.rn_table(list(self.sizes), self.count,
                                                   round_seed(self.seed, index))
        return self.count * len(self.sizes), 0

    def check_round(self, index):
        lines = self.text.strip().splitlines()
        checks.require(lines[0] == "n,count,seed,lognOverN,simpleRate,rateOverLognOverN",
                       f"unexpected rntable header {lines[0]!r}")
        checks.require(len(lines) == 1 + len(self.sizes), "rntable has the wrong row count")
        for n, line in zip(self.sizes, lines[1:]):
            cells = line.split(",")
            checks.require([int(c) for c in cells[:3]] == [n, self.count, round_seed(self.seed, index)],
                           f"rntable row {line!r} names the wrong n, count or seed")
            reference, rate, ratio = (float(c) for c in cells[3:])
            hits = round(rate * self.count)
            checks.require(math.isclose(reference, math.log(n) / n, rel_tol=1e-12),
                           f"lognOverN is wrong in {line!r}")
            checks.require(abs(rate * self.count - hits) < 1e-6, f"simpleRate in {line!r} is not k/count")
            checks.require(math.isclose(ratio, rate / reference, rel_tol=1e-12, abs_tol=1e-15),
                           f"rateOverLognOverN is wrong in {line!r}")
            self.hits[n] += hits
        self.rounds += 1

    def check_totals(self):
        for n in self.sizes:
            checks.check_rate(f"rntable n={n}", self.hits[n], self.rounds * self.count,
                              checks.exact_simple_rate(n))

    def summary(self):
        trials = self.rounds * self.count
        return [f"n={n}: simple rate {self.hits[n] / trials:.6f} over {trials} samples "
                f"(exact {checks.exact_simple_rate(n):.6f})" for n in self.sizes]


class ClassifyText(Workload):
    """The in-process steps of ``canex classify --witness --json`` on text.

    Sampled inputs come from the benchmark's own sampler and are kept only
    when the raw antilogy filter does not settle them.  The fixed inputs do
    not depend on the seed and fail on every run today: two deep left-nested
    chains end in RecursionError, and two tautologies over 34 variables
    come back unknown.
    """

    mix = ((25, 100), (100, 100), (300, 50))
    deep = (1500, 3000)
    width = 33

    def __init__(self, canex, seed):
        super().__init__(canex, seed)
        self.inputs: list[tuple[str, bool]] = []  # (text, fixed)
        self.outputs: list = []
        self.first: list | None = None
        self.rng = random.Random(seed)

    def prepare(self):
        rng = random.Random(self.seed)
        for n, keep in self.mix:
            classes = checks.partition_class_distribution(n)
            kept = 0
            while kept < keep:
                term = checks.random_term(rng, n, classes)
                if not checks.is_raw_antilogy(term):
                    self.inputs.append((checks.render(term), False))
                    kept += 1
        for depth in self.deep:
            term = 1
            for i in range(depth):
                term = (term, (depth - 1 - i) % 2)
            self.inputs.append((checks.render(term), True))
        chain = "->".join(f"a{i}" for i in range(self.width, 1, -1))
        self.inputs.append((chain + "->a1->a0->a0", True))
        self.inputs.append((chain + "->((a0->a1)->a0)->a0", True))

    def classify(self, text: str) -> str:
        terms, experiment = self.canex.terms, self.canex.experiment
        term = terms.parse(text)
        cls = experiment.classify(term)
        payload = {"expr": terms.render(term)}
        payload.update(cls.as_record())
        payload["cleaned"] = terms.render(cls.verdict.cleaned)
        if cls.taut.status == "not-tautology":
            payload["witness"] = {f"a{v}": b for v, b in sorted(cls.taut.witness.items())}
        return json.dumps(payload, separators=(",", ":"))

    def run_round(self, index):
        outputs = []
        failed = 0
        for text, fixed in self.inputs:
            try:
                out = self.classify(text)
            except RecursionError:
                # Only the fixed deep chains may end here; a sampled input
                # that does is a fault the run reports instead of counting.
                if not fixed:
                    raise
                out = None
            if out is None or (fixed and '"status":"unknown"' in out):
                failed += 1
            outputs.append(out)
        self.outputs = outputs
        return len(outputs), failed

    def check_round(self, index):
        if self.first is not None:
            checks.require(self.outputs == self.first, "classify output differs between rounds")
            return
        self.first = self.outputs
        for (text, _), out in zip(self.inputs, self.outputs):
            if out is not None:
                self.check_payload(text, json.loads(out))

    def check_payload(self, text: str, payload: dict) -> None:
        where = f"classify {text[:60]!r}"
        checks.require(payload["expr"] == text, f"{where}: expr is rendered as {payload['expr'][:60]!r}")
        term = checks.parse(text)
        checks.check_verdicts(payload, term, self.rng)
        labels = checks.leaves(term)
        width = max(labels) + 1
        cleaned = checks.parse(payload["cleaned"])
        checks.require(len(checks.leaves(cleaned)) == payload["cleanedSize"],
                       f"{where}: cleanedSize is not the cleaned term's size")
        status = payload["status"]
        checks.require(("witness" in payload) == (status == "not-tautology"),
                       f"{where}: witness present on a {status} verdict")
        if "witness" in payload:
            witness = {int(k[1:]): v for k, v in payload["witness"].items()}
            checks.require(set(witness) == set(labels), f"{where}: witness does not cover every variable")
            checks.require(not checks.holds_under(term, witness), f"{where}: witness does not falsify")
        if width <= 12:
            exact = checks.truth_table_tautology(term, width)
            checks.require(exact == (status == "tautology"),
                           f"{where}: {status} but the truth table says tautology={exact}")
            checks.require(checks.truth_table_tautology(cleaned, width) == exact,
                           f"{where}: cleaning changed the truth table")

    def summary(self):
        unknown = sum(1 for (_, fixed), out in zip(self.inputs, self.first or ())
                      if not fixed and out and '"status":"unknown"' in out)
        sampled = sum(1 for _, fixed in self.inputs if not fixed)
        return [f"unknown verdicts on sampled inputs: {unknown} of {sampled}"]


WORKLOADS = {
    "experiment-n100": lambda canex, seed: Experiment(canex, seed, 100, 2000, 1, False),
    "experiment-n1000-dump": lambda canex, seed: Experiment(canex, seed, 1000, 600, 2, True),
    "rntable": lambda canex, seed: RnTable(canex, seed, 60),
    "classify-text": ClassifyText,
}


def import_canex():
    if not (SRC / "canex" / "__init__.py").is_file():
        raise SystemExit(f"error: no canex package under {SRC}; run from a checkout's root")
    sys.path.insert(0, str(SRC))
    import canex
    import canex.cli  # noqa: F401  (a CLI invocation imports it too)
    if Path(canex.__file__).resolve().parent != SRC / "canex":
        raise SystemExit(f"error: imported canex from {canex.__file__}, not {SRC}")
    return canex


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def own_peak_kib() -> int:
    """Peak resident memory of this process's own address space.

    ``ru_maxrss`` would also count whatever ran before the last exec, such
    as a shell wrapper that resolved ``python3``; VmHWM starts at the exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def fresh_setup_seconds(sizes) -> float:
    """Median wall time of fresh interpreters importing canex and building tables."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import canex, canex.cli; "
            f"[canex.counting.stam_table(n) for n in {list(sizes)!r}]")
    least, most = SETUP_REPEATS
    times: list[float] = []
    while len(times) < least or (sum(times) < SETUP_BUDGET_S and len(times) < most):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: Workload, seconds: float) -> dict:
    """Untraced rounds until ``seconds`` of them are timed; end-to-end metrics.

    Throughput and CPU cost are medians over rounds, so a burst of load from
    outside the benchmark moves a few rounds rather than the result.
    """
    attempted = failed = 0
    wall = 0.0
    rates, cpu_costs = [], []
    index = 0
    while wall < seconds:
        workload.clear()
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        ops, bad = workload.run_round(index)
        elapsed = time.perf_counter() - started
        cpu_costs.append((cpu_seconds() - cpu_before) / ops)
        rates.append(ops / elapsed)
        wall += elapsed
        attempted += ops
        failed += bad
        workload.check_round(index)
        index += 1
    # The children are the pool workers, which have all been joined; no set-up
    # interpreter has been started yet.  Both figures are in KiB.
    workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kib = own_peak_kib() + (workers_kib if workers_kib > INHERITED_CHILD_KIB else 0)
    workload.check_totals()
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "samples_per_s": metric(statistics.median(rates), "1/s"),
            "cpu_us_per_sample": metric(statistics.median(cpu_costs) * 1e6, "us"),
            "peak_rss_mb": metric(peak_kib / 1024, "MB"),
            "setup_s": metric(fresh_setup_seconds(workload.sizes), "s"),
        },
    }


def measure_traced(workload: Workload, seconds: float, table_seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced replays of the same rounds; per-layer metrics."""
    tracer = spans.Tracer(workload.canex, WORK)
    tracer.merge_spool()  # discard what an interrupted run left behind
    tracer.calls.clear()
    tracer.counters.clear()
    attempted = failed = jsonl_bytes = 0
    plain = traced = 0.0
    index = 0
    while plain + traced < seconds:
        workload.clear()
        started = time.perf_counter()
        workload.run_round(index)
        plain += time.perf_counter() - started
        workload.clear()
        tracer.install()
        try:
            started = time.perf_counter()
            ops, bad = workload.run_round(index)
            traced += time.perf_counter() - started
        finally:
            tracer.restore()
        chunks = tracer.merge_spool()
        checks.require(chunks > 0 or workload.workers == 1, "pool workers left no trace statistics")
        attempted += ops
        failed += bad
        if workload.jsonl is not None:
            jsonl_bytes += workload.jsonl.stat().st_size
        workload.check_round(index)
        index += 1
    workload.check_totals()

    c = tracer.counters
    ops = attempted
    classified = c["classified"] or 1

    def per_op(*names):
        return metric(tracer.total(*names) / ops * 1e6, "us")

    run_wall = tracer.total("experiment.run") * workload.workers
    top = tracer.total(*spans.TOP_LEVEL) + c["bookkeeping_s"]
    emits = tracer.calls.get("experiment.emit", [])
    metrics = {
        "counting.stam_table_s": metric(table_seconds, "s"),
        "sampling.tree_us": per_op("sampling.tree"),
        "sampling.partition_us": per_op("sampling.partition", "sampling.growth_string"),
        "sampling.u64_draws": metric(c["u64_draws"] / (c["samples_drawn"] or 1), "count"),
        "terms.decode_us": per_op("terms.decode"),
        "terms.shape_us": per_op("terms.shape"),
        "terms.attach_us": per_op("terms.attach"),
        "intuition.clean_us": per_op("intuition.clean"),
        "intuition.clean_changed": metric(c["clean_changed"] / classified, "ratio"),
        "intuition.cleaned_leaf_ratio": metric(c["cleaned_leaf_ratio"] / classified, "ratio"),
        "intuition.cascade_us": per_op("intuition.cascade"),
        "classical.status_us": per_op("classical.status"),
        "classical.search_us": per_op("classical.search"),
        "terms.render_us": per_op("terms.render"),
        "terms.parse_us": per_op("terms.parse"),
        "experiment.emit_s": metric(sum(emits) / len(emits) if emits else 0.0, "s"),
        "experiment.jsonl_bytes": metric(jsonl_bytes / ops, "B"),
        "experiment.overhead_us": metric((run_wall - top) / ops * 1e6 if run_wall else 0.0, "us"),
        "trace.overhead_pct": metric((traced / plain - 1.0) * 100, "%"),
    }
    for path in spans.PATHS:
        metrics["path." + path] = metric(c["path." + path] / classified, "ratio")
    result = {"attempted": attempted, "failed": failed, "metrics": metrics}
    lines = spans.span_table(tracer) + [
        f"traced {traced:.3f} s against untraced {plain:.3f} s for the same {index} rounds"]
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    canex = import_canex()
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](canex, args.seed)
    started = time.perf_counter()
    for n in workload.sizes:
        canex.counting.stam_table(n)
    table_seconds = time.perf_counter() - started
    workload.prepare()
    try:
        if args.trace:
            result, lines = measure_traced(workload, args.seconds, table_seconds)
        else:
            result, lines = measure(workload, args.seconds), []
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    for line in lines + workload.summary():
        print(line)
    print(json.dumps({"correct": True, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
