"""Seeded sampling experiments: classify each sample, aggregate, report.

Sample ``i`` of a run is generated from its own derived stream
(``stream_for_sample(seed, i)``), so the aggregate is independent of worker
count and chunking; counts merge commutatively, and the optional per-sample
dump is ordered by index because chunks cover ascending, contiguous ranges
and come back in order.  Reports recompute every ratio from the counts.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from . import sampling
from .classical import TAUTOLOGY, UNKNOWN, CERT_ANTILOGY, \
    TautologyStatus, is_simple_non_tautology, tautology_status
from .intuition import IntuitVerdict, cheap_verdict, clean
from .sampling import stream_for_sample
from .terms import Term, decode_labelled_vector, render, spine_filters
# Not called here; perfbench's tracer times experiment.is_simple and wraps
# experiment.random_canonical, so the names stay importable from this module.
from .intuition import is_simple  # noqa: F401
from .sampling import random_canonical  # noqa: F401

DEFAULT_SEED = 12358

CSV_COLUMNS = (
    "n,count,seed,nSimple,nMP,nEasy,nCheap,nTautology,nCheapAndTaut,"
    "nGKZSimpleNonTaut,nAntilogy,nUnknown,ratioCheapOverTaut,gkzRatio,"
    "simpleRate,elapsedSeconds"
)

RNTABLE_COLUMNS = "n,count,seed,lognOverN,simpleRate,rateOverLognOverN"


@dataclass(frozen=True)
class Classification:
    """One sample's verdicts from both classifiers."""

    verdict: IntuitVerdict
    taut: TautologyStatus
    simple_non_taut: bool

    def as_record(self) -> dict:
        """The JSONL verdict keys, in output order; ``reason`` only when set."""
        v, t = self.verdict, self.taut
        record = {"simple": v.simple, "mp": v.mp, "easy": v.easy,
                  "minorAfterClean": v.minor_after_clean, "cheap": v.cheap,
                  "cleanedSize": v.cleaned_size, "status": t.status,
                  "certificate": t.certificate}
        if t.reason is not None:
            record["reason"] = t.reason
        record["gkzSimpleNonTaut"] = self.simple_non_taut
        return record


def classify(term: Term) -> Classification:
    cleaned = clean(term)
    return Classification(
        verdict=cheap_verdict(term, cleaned=cleaned),
        taut=tautology_status(term, cleaned=cleaned),
        simple_non_taut=is_simple_non_tautology(term),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    count: int
    seed: int = DEFAULT_SEED
    workers: int = 1
    dump_jsonl: Optional[str] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class ExperimentReport:
    n: int
    count: int
    seed: int
    n_simple: int = 0
    n_mp: int = 0
    n_easy: int = 0
    n_cheap: int = 0
    n_tautology: int = 0
    n_cheap_and_taut: int = 0
    # Cheap expressions are never refuted; the only way one misses the
    # tautology count is an unknown status (search budget exhausted). Tracked so
    # the identity n_cheap_and_taut == n_cheap - n_cheap_unknown is checkable.
    n_cheap_unknown: int = 0
    n_simple_non_taut: int = 0
    n_antilogy: int = 0
    n_unknown: int = 0
    elapsed_seconds: float = 0.0
    records: list = field(default_factory=list, repr=False)

    @property
    def ratio_cheap_over_taut(self) -> float:
        return self.n_cheap_and_taut / self.n_tautology if self.n_tautology else 0.0

    @property
    def gkz_ratio(self) -> float:
        rest = self.count - self.n_simple_non_taut
        return self.n_simple / rest if rest else 0.0

    @property
    def simple_rate(self) -> float:
        return self.n_simple / self.count

    def csv_row(self, timing: bool = False) -> str:
        elapsed = repr(round(self.elapsed_seconds, 3)) if timing else "0"
        cells = [self.n, self.count, self.seed, self.n_simple, self.n_mp,
                 self.n_easy, self.n_cheap, self.n_tautology,
                 self.n_cheap_and_taut, self.n_simple_non_taut,
                 self.n_antilogy, self.n_unknown,
                 repr(self.ratio_cheap_over_taut), repr(self.gkz_ratio),
                 repr(self.simple_rate), elapsed]
        return ",".join(str(c) for c in cells)


def _raw_sample(n: int, seed: int, index: int) -> tuple[list, sampling.ClassDescription]:
    """Sample ``index``'s insertion vector and class description, in stream order.

    These are the draws ``random_canonical`` makes.  They go through the
    ``sampling`` module, where the tracer times them.
    """
    rng = stream_for_sample(seed, index)
    vector = sampling.random_tree_vector(rng, n)
    return vector, sampling.random_partition(rng, n)


def _classify_chunk(args) -> tuple[Counter, list]:
    """Counts keyed by ``ExperimentReport`` field, and the chunk's records."""
    n, seed, lo, hi, dump = args
    counts = Counter()
    records = []
    for index in range(lo, hi):
        vector, partition = _raw_sample(n, seed, index)
        if not dump:
            _, antilogy, simple_non_taut = spine_filters(vector, partition.labels)
            if antilogy:
                # Settled with no term built, and without clean, which only
                # the dump's cleanedSize needs.  Cleaning keeps every goal and
                # every bare-variable premise, so a raw antilogy is a cleaned
                # antilogy: no tautology, hence not cheap.  It is not simple (a
                # premise equal to the goal defeats the filter) nor mp (a
                # premise v -> goal passes it only when v is the goal), so not
                # easy either.
                counts["n_antilogy"] += 1
                counts["n_simple_non_taut"] += simple_non_taut
                continue
        # The term random_canonical returns from the same words.
        term = decode_labelled_vector(vector, sampling.to_growth_string(partition))
        cls = classify(term)
        v, t = cls.verdict, cls.taut
        counts["n_simple"] += v.simple
        counts["n_mp"] += v.mp
        counts["n_easy"] += v.easy
        counts["n_cheap"] += v.cheap
        counts["n_tautology"] += t.status == TAUTOLOGY
        counts["n_cheap_and_taut"] += v.cheap and t.status == TAUTOLOGY
        counts["n_cheap_unknown"] += v.cheap and t.status == UNKNOWN
        counts["n_simple_non_taut"] += cls.simple_non_taut
        counts["n_antilogy"] += t.certificate == CERT_ANTILOGY
        counts["n_unknown"] += t.status == UNKNOWN
        if dump:
            record = {"index": index, "expr": render(term)}
            record.update(cls.as_record())
            records.append(record)
    return counts, records


def _usable_workers(workers: int) -> int:
    """The processes a run can keep busy: the requested count, capped at the CPUs."""
    return min(workers, os.cpu_count() or 1)


def _chunks(n: int, seed: int, count: int, workers: int, *extra) -> list[tuple]:
    """Chunk arguments ``(n, seed, lo, hi, *extra)`` covering samples 0..count-1.

    Four chunks per usable worker, so a large ``workers`` does not cut the
    run into many small chunks that the same few processes pickle one by one.
    """
    size = max(1, math.ceil(count / (_usable_workers(workers) * 4)))
    return [(n, seed, lo, min(lo + size, count), *extra)
            for lo in range(0, count, size)]


def _map_chunks(chunk_fn, chunks: list[tuple], workers: int) -> list:
    """``chunk_fn`` over ``chunks``; in this process for one worker, else on one pool."""
    if workers == 1:
        return [chunk_fn(c) for c in chunks]
    # Under fork a pool starts every process at once: cap them at chunks and CPUs.
    with ProcessPoolExecutor(min(_usable_workers(workers), len(chunks))) as pool:
        return list(pool.map(chunk_fn, chunks))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Deterministic for a fixed config, whatever the worker count.

    Without a dump, samples that are antilogies on the raw term are counted
    from the insertion vector and the raw class labels, with no term built
    and no ``clean``; the counts are those of the full classification.
    """
    started = time.perf_counter()
    dump = cfg.dump_jsonl is not None
    chunks = _chunks(cfg.n, cfg.seed, cfg.count, cfg.workers, dump)
    results = _map_chunks(_classify_chunk, chunks, cfg.workers)
    total = sum((counts for counts, _ in results), Counter())
    return ExperimentReport(
        n=cfg.n, count=cfg.count, seed=cfg.seed, **total,
        records=[record for _, records in results for record in records],
        elapsed_seconds=time.perf_counter() - started)


def emit_report(report: ExperimentReport, out_csv: Optional[str] = None,
                dump_jsonl: Optional[str] = None, timing: bool = False) -> str:
    """Write the one-row CSV (and per-sample JSONL when asked); returns the CSV text."""
    text = CSV_COLUMNS + "\n" + report.csv_row(timing=timing) + "\n"
    if out_csv:
        with open(out_csv, "w", encoding="utf-8") as fh:
            fh.write(text)
    if dump_jsonl:
        with open(dump_jsonl, "w", encoding="utf-8") as fh:
            for record in report.records:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return text


def _simple_rate_chunk(args) -> int:
    """Simple samples in the chunk, read from the vector and labels; no term is built."""
    n, seed, lo, hi = args
    hits = 0
    for index in range(lo, hi):
        vector, partition = _raw_sample(n, seed, index)
        hits += spine_filters(vector, partition.labels)[0]
    return hits


def _simple_rates(sizes: list[int], count: int, seed: int,
                  workers: int) -> list[float]:
    """Simple rate at each size; one ``_map_chunks`` call, so at most one pool."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    per_size = [_chunks(n, seed, count, workers) for n in sizes]
    hits = iter(_map_chunks(_simple_rate_chunk,
                            [c for chunks in per_size for c in chunks], workers))
    return [sum(next(hits) for _ in chunks) / count for chunks in per_size]


def simple_rate(n: int, count: int, seed: int = DEFAULT_SEED,
                workers: int = 1) -> float:
    """Fraction of samples that are simple; same streams as run_experiment."""
    return _simple_rates([n], count, seed, workers)[0]


def rn_table(sizes: list[int], count: int, seed: int = DEFAULT_SEED,
             workers: int = 1) -> str:
    """CSV comparing the simple rate with log(n)/n across sizes.

    Sizes start at 2, where log(n)/n is first positive.
    """
    # A bad count is reported first, by _simple_rates.
    if count >= 1 and any(n < 2 for n in sizes):
        raise ValueError("rntable sizes must be at least 2")
    lines = [RNTABLE_COLUMNS]
    for n, rate in zip(sizes, _simple_rates(sizes, count, seed, workers)):
        reference = math.log(n) / n
        lines.append(",".join([
            str(n), str(count), str(seed), repr(reference), repr(rate),
            repr(rate / reference),
        ]))
    return "\n".join(lines) + "\n"
